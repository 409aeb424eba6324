"""Fixed-gain recursive observer for one mode hypothesis.

Each step runs three stages against the rotated measurement: time update
with the previous direct-feedthrough input estimate, recovery of the
state-coupled input component from the feedthrough-free channel, and a
gain correction on the same channel.  The direct component is then read
off the feedthrough channel.  Only the drift f is nonlinear, so the whole
update is linear in [f(x-hat_{k-1}); d1-hat_{k-1}; u_{k-1}; u_k; y_k]:
``step_matrix`` runs the stages once per mode on identity column blocks,
and ``step_observer`` is one product with that matrix.  A step updates
only the centers and emits its innovation, the residual the mode
observer tests: the error radii read no measurement, so
``gains.radius_sequence`` tabulates them once per mode.

The input estimate is inherently one step delayed: after processing y_k
the observer reports d-hat for step k-1.  Initialization already consumes
(y_0, u_0) because the first time update needs the direct component at
step 0; starting it at zero would both break the radius guarantee and
leave the step-1 residual unexplained by the noise word.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import ModeDecomposition, split_output
from .errors import NumericalFailure
from .gains import ObserverGains
from .residuals import compute_residual
from .system import ModeModel, eval_field


@dataclass(frozen=True)
class ObserverState:
    """Observer outputs after processing the measurement at step k.

    `residual` is the feedthrough-free innovation against the
    pre-correction estimate (None at k = 0, where no step has run).
    `d_hat_prev` estimates the unknown input at step k-1 (None at k = 0,
    where no full input estimate exists yet).  `d1_hat` is the current
    direct-component estimate feeding the next time update.
    """

    k: int
    x_hat: np.ndarray
    d1_hat: np.ndarray
    d_hat_prev: np.ndarray | None
    residual: np.ndarray | None


def _direct_input(
    dec: ModeDecomposition, gains: ObserverGains, x: np.ndarray, u: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Direct-feedthrough input component m1 (z1 - c1 x - d1 u)."""
    z1, _ = split_output(dec, y)
    return gains.m1 @ (z1 - dec.c1 @ x - dec.d1 @ u)


def init_observer(
    dec: ModeDecomposition,
    gains: ObserverGains,
    x_hat0: np.ndarray,
    y0: np.ndarray,
    u0: np.ndarray,
) -> ObserverState:
    x_hat0 = np.asarray(x_hat0, dtype=float).reshape(-1)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    d1_hat = _direct_input(dec, gains, x_hat0, np.asarray(u0, dtype=float), y0)
    return ObserverState(k=0, x_hat=x_hat0, d1_hat=d1_hat, d_hat_prev=None, residual=None)


def step_matrix(mode: ModeModel, dec: ModeDecomposition, gains: ObserverGains) -> np.ndarray:
    """The step's linear map from [f(x-hat); d1-hat; u_{k-1}; u_k; y_k]
    to [x-hat_k; d1-hat_k; d-hat_{k-1}; residual_k].

    Each stage runs once, with every input replaced by its row block of
    the identity, so a stage's result is its coefficient block on the
    stacked input.
    """
    n, p1, m = mode.n, dec.p_h, mode.m
    f_x, d1_hat, u_prev, u_k, y_k = np.split(
        np.eye(n + p1 + 2 * m + mode.l), np.cumsum([n, p1, m, m])
    )
    x_pred = f_x + mode.b @ u_prev + dec.g1 @ d1_hat
    d2_prev = gains.m2 @ compute_residual(dec, x_pred, u_k, y_k)
    x_star = x_pred + dec.g2 @ d2_prev
    residual = compute_residual(dec, x_star, u_k, y_k)
    x_hat = x_star + gains.l_gain @ residual
    d1_next = _direct_input(dec, gains, x_hat, u_k, y_k)
    d_prev = dec.v1 @ d1_hat + dec.v2 @ d2_prev
    return np.vstack([x_hat, d1_next, d_prev, residual])


def step_observer(
    state: ObserverState,
    mode: ModeModel,
    step: np.ndarray,
    u_prev: np.ndarray,
    u_k: np.ndarray,
    y_k: np.ndarray,
) -> ObserverState:
    """Advance the observer with (u_{k-1}, u_k, y_k); `step` is the
    mode's ``step_matrix``.

    A non-finite input reaches every output (0 * NaN and 0 * inf are
    NaN), so one check of the outputs covers the inputs as well.  It
    raises NumericalFailure, so numpy's own warning about the product is
    silenced.
    """
    x_hat = state.x_hat
    n = x_hat.shape[0]
    n1 = n + state.d1_hat.shape[0]
    n2 = n1 + mode.p
    z = np.concatenate((eval_field(mode.field, x_hat), state.d1_hat, u_prev, u_k, y_k))
    with np.errstate(invalid="ignore", over="ignore"):
        out = step @ z
    k = state.k + 1
    if not np.isfinite(out).all():
        part = "input" if np.isfinite(out[:n]).all() else "state"
        raise NumericalFailure(f"non-finite values in {part} estimate at step {k}")
    return ObserverState(
        k=k, x_hat=out[:n], d1_hat=out[n:n1], d_hat_prev=out[n1:n2], residual=out[n2:]
    )
