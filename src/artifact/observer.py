"""Fixed-gain recursive observer for one mode hypothesis.

Each step runs three stages against the rotated measurement: time update
with the previous direct-feedthrough input estimate, recovery of the
state-coupled input component from the feedthrough-free channel, and a
gain correction on the same channel.  The direct component is then read
off the feedthrough channel.  A step updates only these centers: the error
radii read no measurement, so ``radius_sequence`` tabulates them once per
mode, saturating to +inf where the recursion overflows.

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
from .gains import ObserverGains
from .linalg import ensure_finite
from .system import ModeModel, eval_field


@dataclass(frozen=True)
class ObserverState:
    """Observer outputs after processing the measurement at step k.

    `x_star` is the pre-correction estimate the residual is defined
    against.  `d_hat_prev` estimates the unknown input at step k-1 (None
    at k = 0, where no full input estimate exists yet).
    `d1_hat` is the current direct-component estimate feeding the next
    time update.
    """

    k: int
    x_star: np.ndarray
    x_hat: np.ndarray
    d1_hat: np.ndarray
    d_hat_prev: np.ndarray | None


def init_observer(
    dec: ModeDecomposition,
    gains: ObserverGains,
    x_hat0: np.ndarray,
    y0: np.ndarray,
    u0: np.ndarray,
) -> ObserverState:
    x_hat0 = np.asarray(x_hat0, dtype=float).reshape(-1)
    z1, _ = split_output(dec, y0)
    d1_hat = gains.m1 @ (z1 - dec.c1 @ x_hat0 - dec.d1 @ np.asarray(u0, dtype=float))
    return ObserverState(
        k=0,
        x_star=x_hat0.copy(),
        x_hat=x_hat0,
        d1_hat=d1_hat,
        d_hat_prev=None,
    )


def step_observer(
    state: ObserverState,
    mode: ModeModel,
    dec: ModeDecomposition,
    gains: ObserverGains,
    u_prev: np.ndarray,
    u_k: np.ndarray,
    y_k: np.ndarray,
) -> ObserverState:
    """Advance the observer with (u_{k-1}, u_k, y_k)."""
    u_prev = np.asarray(u_prev, dtype=float)
    u_k = np.asarray(u_k, dtype=float)
    z1, z2 = split_output(dec, y_k)

    x_pred = eval_field(mode.field, state.x_hat) + mode.b @ u_prev + dec.g1 @ state.d1_hat
    d2_prev = gains.m2 @ (z2 - dec.c2 @ x_pred - dec.d2 @ u_k)
    x_star = x_pred + dec.g2 @ d2_prev
    x_hat = x_star + gains.l_gain @ (z2 - dec.c2 @ x_star - dec.d2 @ u_k)
    d1_hat = gains.m1 @ (z1 - dec.c1 @ x_hat - dec.d1 @ u_k)
    d_prev = dec.v1 @ state.d1_hat + dec.v2 @ d2_prev

    k = state.k + 1
    ensure_finite(x_hat, f"state estimate at step {k}")
    ensure_finite(d_prev, f"input estimate at step {k}")
    return ObserverState(
        k=k,
        x_star=x_star,
        x_hat=x_hat,
        d1_hat=d1_hat,
        d_hat_prev=d_prev,
    )


def radius_sequence(gains: ObserverGains, delta0: float, k_max: int) -> np.ndarray:
    """A-priori state radii [delta_0, ..., delta_kmax] from the recursion
    delta_k = theta delta_{k-1} + eta_bar."""
    out = np.empty(k_max + 1)
    out[0] = float(delta0)
    # uncertified modes saturate to inf; that is the honest answer here
    with np.errstate(over="ignore"):
        for k in range(1, k_max + 1):
            out[k] = gains.theta * out[k - 1] + gains.eta_bar
    return out
