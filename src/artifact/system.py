"""Mode dynamics and the switched-system container.

A mode is a discrete-time plant

    x+ = f(x) + B u + G d + W w
    y  = C x + D u + H d + v

with a globally Lipschitz drift f, known input u, unknown (possibly
unbounded) input d, and norm-bounded process/measurement noise w, v.
The drift comes from a small family of field descriptors for which a
Lipschitz constant and curvature data are available in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .linalg import as_matrix, spectral_norm


@dataclass(frozen=True)
class LinearField:
    """Drift f(x) = a @ x."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = as_matrix(self.a, "a")
        if a.shape[0] != a.shape[1]:
            raise ConfigurationError(f"linear drift matrix must be square, got {a.shape}")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class LinearSinusoidalField:
    """Drift f(x) = a_hat @ x + a_tilde @ (sin(x) / 2), elementwise sine.

    f(0) = 0 by construction, so the zero state is an equilibrium of the
    unforced dynamics.
    """

    a_hat: np.ndarray
    a_tilde: np.ndarray

    def __post_init__(self) -> None:
        a_hat = as_matrix(self.a_hat, "a_hat")
        a_tilde = as_matrix(self.a_tilde, "a_tilde")
        if a_hat.shape != a_tilde.shape or a_hat.shape[0] != a_hat.shape[1]:
            raise ConfigurationError(
                f"drift matrices must be square and equal-shaped, got {a_hat.shape} and {a_tilde.shape}"
            )
        object.__setattr__(self, "a_hat", a_hat)
        object.__setattr__(self, "a_tilde", a_tilde)

    @property
    def dim(self) -> int:
        return self.a_hat.shape[0]


FieldDescriptor = Union[LinearField, LinearSinusoidalField]


def drift_matrices(field: FieldDescriptor) -> tuple[np.ndarray, np.ndarray | None]:
    """(a, a_tilde) of the drift a x + a_tilde sin(x)/2; a_tilde is None
    for a linear drift."""
    if isinstance(field, LinearField):
        return field.a, None
    return field.a_hat, field.a_tilde


def drift(a: np.ndarray, a_tilde: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """a @ x + a_tilde @ (sin(x) / 2), elementwise sine, or a @ x when
    a_tilde is None.  The matrices may be stacked along leading axes, with
    x a matching stack of columns."""
    if a_tilde is None:
        return a @ x
    return a @ x + a_tilde @ (0.5 * np.sin(x))


def eval_field(field: FieldDescriptor, x: np.ndarray) -> np.ndarray:
    return drift(*drift_matrices(field), np.asarray(x, dtype=float))


def lipschitz_constant(field: FieldDescriptor) -> float:
    """Global Lipschitz constant of the drift in the Euclidean norm.

    For the sinusoidal family the bound ||a_hat|| + ||a_tilde||/2 follows
    from |d/dt sin t| <= 1 applied elementwise.
    """
    if isinstance(field, LinearField):
        return spectral_norm(field.a)
    return spectral_norm(field.a_hat) + 0.5 * spectral_norm(field.a_tilde)


def jacobian_hessian_data(field: FieldDescriptor) -> tuple[np.ndarray, float]:
    """(Jacobian of f at the origin, global bound on second derivatives).

    The second value bounds the spectral norm of every component Hessian
    uniformly over the state space; it is 0 for linear drifts.
    """
    if isinstance(field, LinearField):
        return field.a.copy(), 0.0
    return field.a_hat + 0.5 * field.a_tilde, 0.5 * spectral_norm(field.a_tilde)


@dataclass(frozen=True)
class ModeModel:
    """One mode hypothesis: drift plus the five structural matrices.

    Shapes: b (n,m), g (n,p), c (l,n), d (l,m), h (l,p), w (n,n).
    `lipschitz` defaults to the field's analytic constant; an explicit
    value may only loosen it.
    """

    field: FieldDescriptor
    b: np.ndarray
    g: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    w: np.ndarray | None = None
    lipschitz: float | None = None

    def __post_init__(self) -> None:
        n = self.field.dim
        b = as_matrix(self.b, "b")
        g = as_matrix(self.g, "g")
        c = as_matrix(self.c, "c")
        d = as_matrix(self.d, "d")
        h = as_matrix(self.h, "h")
        w = np.eye(n) if self.w is None else as_matrix(self.w, "w")
        if b.shape[0] != n or g.shape[0] != n or w.shape != (n, n):
            raise ConfigurationError("b, g, w row counts must match the state dimension")
        if c.shape[1] != n:
            raise ConfigurationError("c column count must match the state dimension")
        l = c.shape[0]
        if d.shape != (l, b.shape[1]):
            raise ConfigurationError(f"d must be {(l, b.shape[1])}, got {d.shape}")
        if h.shape != (l, g.shape[1]):
            raise ConfigurationError(f"h must be {(l, g.shape[1])}, got {h.shape}")
        analytic = lipschitz_constant(self.field)
        lf = analytic if self.lipschitz is None else float(self.lipschitz)
        if lf < analytic - 1e-9:
            raise ConfigurationError(
                f"declared Lipschitz constant {lf} is below the analytic value {analytic}"
            )
        for name, val in (("b", b), ("g", g), ("c", c), ("d", d), ("h", h), ("w", w)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "lipschitz", lf)

    @property
    def n(self) -> int:
        return self.c.shape[1]

    @property
    def l(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.g.shape[1]


@dataclass(frozen=True)
class SwitchedSystem:
    """A finite family of mode hypotheses sharing signal dimensions.

    The true mode is assumed constant over a run.  Noise bounds are
    per-mode (the bundled scenarios use identical values everywhere).
    `r_x` / `r_y` are optional a-priori bounds on state and output norms;
    they gate the quantitative mode-distinguishability check.
    """

    modes: tuple[ModeModel, ...]
    eta_w: tuple[float, ...]
    eta_v: tuple[float, ...]
    delta_x0: float
    x_hat0: np.ndarray
    r_x: float | None = None
    r_y: float | None = None
    name: str = ""
    _shape: tuple[int, int, int] = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigurationError("at least one mode is required")
        modes = tuple(self.modes)
        n, l, m = modes[0].n, modes[0].l, modes[0].m
        for i, mode in enumerate(modes):
            if (mode.n, mode.l, mode.m) != (n, l, m):
                raise ConfigurationError(
                    f"mode {i + 1} has shape (n,l,m)=({mode.n},{mode.l},{mode.m}), expected ({n},{l},{m})"
                )
        eta_w = tuple(float(e) for e in self.eta_w)
        eta_v = tuple(float(e) for e in self.eta_v)
        if len(eta_w) != len(modes) or len(eta_v) != len(modes):
            raise ConfigurationError("eta_w / eta_v must have one entry per mode")
        if not all(0 < e < np.inf for e in eta_w + eta_v):
            raise ConfigurationError("noise bounds must be finite and positive")
        if not self.delta_x0 > 0:
            raise ConfigurationError("delta_x0 must be positive")
        x_hat0 = np.asarray(self.x_hat0, dtype=float).reshape(-1)
        if x_hat0.size != n:
            raise ConfigurationError(f"x_hat0 must have {n} entries, got {x_hat0.size}")
        for bound, bname in ((self.r_x, "r_x"), (self.r_y, "r_y")):
            if bound is not None and not bound > 0:
                raise ConfigurationError(f"{bname} must be positive when given")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "eta_w", eta_w)
        object.__setattr__(self, "eta_v", eta_v)
        object.__setattr__(self, "delta_x0", float(self.delta_x0))
        object.__setattr__(self, "x_hat0", x_hat0)
        object.__setattr__(self, "_shape", (n, l, m))

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @property
    def n(self) -> int:
        return self._shape[0]

    @property
    def l(self) -> int:
        return self._shape[1]

    @property
    def m(self) -> int:
        return self._shape[2]
