"""Mode dynamics and the switched-system container.

A mode is a discrete-time plant

    x+ = f(x) + B u + G d + W w
    y  = C x + D u + H d + v

with a globally Lipschitz drift f, known input u, unknown (possibly
unbounded) input d, and norm-bounded process/measurement noise w, v.
The drift is f(x) = a x + a_tilde sin(x)/2, elementwise sine, with
a_tilde None for a linear drift; ``ModeModel`` holds a and a_tilde and
gives f, its Lipschitz constant and its curvature data in closed form.
``ModeStack`` stacks them once per group of equally shaped modes of one
drift kind, and ``drift`` evaluates the stacked form.
"""
from __future__ import annotations

import math
import typing
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .errors import ConfigurationError
from .linalg import as_matrix, spectral_norm


def drift(a: np.ndarray, a_tilde: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """a @ x + a_tilde @ (sin(x) / 2), elementwise sine, or a @ x when
    a_tilde is None.  The matrices may be stacked along leading axes, with
    x a matching stack of columns."""
    if a_tilde is None:
        return a @ x
    return a @ x + a_tilde @ (0.5 * np.sin(x))


@dataclass(frozen=True)
class ModeModel:
    """One mode hypothesis: the drift f(x) = a x + a_tilde sin(x)/2
    (elementwise sine; a_tilde is None for a linear drift) plus the five
    structural matrices.

    Shapes: a, a_tilde (n,n), b (n,m), g (n,p), c (l,n), d (l,m),
    h (l,p), w (n,n).  `lipschitz` defaults to the drift's analytic
    constant ||a|| + ||a_tilde||/2, which follows from |d/dt sin t| <= 1
    elementwise; an explicit value must be finite and may only loosen it.
    """

    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h: np.ndarray
    a_tilde: np.ndarray | None = None
    w: np.ndarray | None = None
    lipschitz: float | None = None

    def __post_init__(self) -> None:
        a, b, g, c, d, h = (as_matrix(getattr(self, name), name) for name in "abgcdh")
        n = a.shape[0]
        a_tilde = None if self.a_tilde is None else as_matrix(self.a_tilde, "a_tilde")
        w = np.eye(n) if self.w is None else as_matrix(self.w, "w")
        arrays = dict(a=a, a_tilde=a_tilde, b=b, g=g, c=c, d=d, h=h, w=w)
        for name, val in arrays.items():
            if val is not None and not np.isfinite(val).all():
                raise ConfigurationError(f"{name} must have finite entries")
        if a.shape != (n, n) or a_tilde is not None and a_tilde.shape != (n, n):
            shapes = [a.shape] if a_tilde is None else [a.shape, a_tilde.shape]
            raise ConfigurationError(f"drift matrices must be square and equal-shaped, got {shapes}")
        if b.shape[0] != n or g.shape[0] != n or w.shape != (n, n):
            raise ConfigurationError("b, g, w row counts must match the state dimension")
        if c.shape[1] != n:
            raise ConfigurationError("c column count must match the state dimension")
        l = c.shape[0]
        if d.shape != (l, b.shape[1]):
            raise ConfigurationError(f"d must be {(l, b.shape[1])}, got {d.shape}")
        if h.shape != (l, g.shape[1]):
            raise ConfigurationError(f"h must be {(l, g.shape[1])}, got {h.shape}")
        analytic = spectral_norm(a) + (0.0 if a_tilde is None else 0.5 * spectral_norm(a_tilde))
        lf = analytic if self.lipschitz is None else float(self.lipschitz)
        if not (math.isfinite(lf) and lf >= analytic - 1e-9):
            raise ConfigurationError(
                f"declared Lipschitz constant {lf} must be finite and at least the analytic"
                f" value {analytic}"
            )
        for name, val in dict(arrays, lipschitz=lf).items():
            object.__setattr__(self, name, val)

    def f(self, x: np.ndarray) -> np.ndarray:
        """The drift at the state x."""
        return drift(self.a, self.a_tilde, np.asarray(x, dtype=float))

    def jacobian_hessian(self) -> tuple[np.ndarray, float]:
        """(Jacobian of f at the origin, global bound on second derivatives).

        The second value bounds the spectral norm of every component
        Hessian uniformly over the state space; it is 0 for a linear drift.
        """
        if self.a_tilde is None:
            return self.a.copy(), 0.0
        return self.a + 0.5 * self.a_tilde, 0.5 * spectral_norm(self.a_tilde)

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


def stack_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays along a new leading axis, row-major (the layout every
    matrix loaded from a config has): a stack of one is a view when its
    array already is, so a mode meets the same layout alone and in a
    group (the last bit of a product can depend on it)."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0])[None]
    return np.stack(arrays)


def stack_of(item: type) -> Callable[[type], type]:
    """Class decorator: the class becomes a frozen dataclass with the
    fields of the dataclass `item`, each holding that field of several
    modes that share every array shape, stacked along a leading mode
    axis.  An array field gains the axis and a float field becomes a
    (Q,) array; an int field, a size the modes share, stays one int.
    ``Stack.of(x)`` is the stack of one holding `x`, its arrays as views,
    ``stack.mode(i)`` row i as an `item`, its arrays views of the stack,
    and ``stack.take(rows)`` the stack of those rows, in that order, its
    arrays copies in which a row that is contiguous in the stack keeps
    its layout (a strided row comes out compact)."""
    hints = typing.get_type_hints(item)
    kinds = {f.name: hints[f.name] for f in fields(item)}

    def of(cls, one):
        return cls(**{name: _lift(kind, getattr(one, name)) for name, kind in kinds.items()})

    def mode(self, i: int):
        return item(**{name: _row(kind, getattr(self, name), i) for name, kind in kinds.items()})

    def take(self, rows: Sequence[int]):
        rows = list(rows)
        return type(self)(
            **{name: _take(kind, getattr(self, name), rows) for name, kind in kinds.items()}
        )

    def decorate(cls: type) -> type:
        cls.__annotations__ = {
            name: int if kind is int else np.ndarray for name, kind in kinds.items()
        }
        cls.of = classmethod(of)
        cls.mode = mode
        cls.take = take
        return dataclass(frozen=True)(cls)

    return decorate


def _lift(kind: type, value):
    if kind is int:
        return value
    return np.array([value]) if kind is float else value[None]


def _take(kind: type, value, rows: list[int]):
    return value if kind is int else value[rows]


def _row(kind: type, value, i: int):
    if kind is int:
        return value
    return float(value[i]) if kind is float else value[i]


@dataclass(frozen=True)
class ModeStack:
    """The matrices of modes that share (n, m, l, p) and a drift kind,
    stacked along a leading mode axis: row i holds the i-th mode's a,
    a_tilde (None for linear drifts), b, g, c, d, h, w and Lipschitz
    constant.  A stack of one is the single-mode case."""

    a: np.ndarray  # (Q, n, n)
    a_tilde: np.ndarray | None  # (Q, n, n), None for linear drifts
    b: np.ndarray  # (Q, n, m)
    g: np.ndarray  # (Q, n, p)
    c: np.ndarray  # (Q, l, n)
    d: np.ndarray  # (Q, l, m)
    h: np.ndarray  # (Q, l, p)
    w: np.ndarray  # (Q, n, n)
    lipschitz: np.ndarray  # (Q,)

    @classmethod
    def of(cls, modes: Sequence[ModeModel]) -> ModeStack:
        """The stack of the modes, which share every shape and a drift
        kind: a mix would drop a_tilde."""
        linear = {m.a_tilde is None for m in modes}
        if len(linear) != 1:
            raise ValueError("a mode stack needs modes of one drift kind")
        return cls(
            **{name: stack_arrays([getattr(m, name) for m in modes]) for name in "abgcdhw"},
            a_tilde=None if linear.pop() else stack_arrays([m.a_tilde for m in modes]),
            lipschitz=np.array([m.lipschitz for m in modes]),
        )

    def take(self, rows) -> ModeStack:
        """The stack of the given rows only."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        return ModeStack(**{name: v if v is None else v[rows] for name, v in arrays.items()})

    @property
    def n(self) -> int:
        return self.c.shape[2]

    @property
    def l(self) -> int:
        return self.c.shape[1]

    @property
    def m(self) -> int:
        return self.b.shape[2]

    @property
    def p(self) -> int:
        return self.g.shape[2]


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
        if not math.isfinite(self.delta_x0):
            raise ConfigurationError("delta_x0 must be finite")
        x_hat0 = np.asarray(self.x_hat0, dtype=float).reshape(-1)
        if x_hat0.size != n:
            raise ConfigurationError(f"x_hat0 must have {n} entries, got {x_hat0.size}")
        if not np.isfinite(x_hat0).all():
            raise ConfigurationError("x_hat0 must have finite entries")
        for bound, bname in ((self.r_x, "r_x"), (self.r_y, "r_y")):
            if bound is not None and not bound > 0:
                raise ConfigurationError(f"{bname} must be positive when given")
            if bound is not None and not math.isfinite(bound):
                raise ConfigurationError(f"{bname} must be finite when given")
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
