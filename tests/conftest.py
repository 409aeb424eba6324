"""Shared builders: sample modes, a self-contained closed-loop simulator,
the stage-by-stage observer step, and the vertex norm of the word
hypercube.

The simulator here is deliberately independent of the package's runner so
that residual/containment checks compare the library against plain
hand-written plant arithmetic.  ``stagewise_step`` is the same kind of
reference for the observer: it runs the step's stages one by one on the
signal vectors, which the package composes into one matrix per mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artifact.decomposition import ModeDecomposition, decompose
from artifact.gains import ObserverGains, synthesize_gains
from artifact.observer import ObserverState, init_observer, step_matrix, step_observer
from artifact.system import LinearField, LinearSinusoidalField, ModeModel, eval_field


def sample_ball(rng: np.random.Generator, radius: float, dim: int) -> np.ndarray:
    """Uniform draw from the closed Euclidean ball."""
    if dim == 0:
        return np.zeros(0)
    direction = rng.normal(size=dim)
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        direction = np.zeros(dim)
        direction[0] = 1.0
        nrm = 1.0
    return direction / nrm * radius * rng.uniform() ** (1.0 / dim)


def invertible_channel_mode() -> ModeModel:
    """c1 = 0 and an invertible free channel: the observer error collapses
    to a pure measurement-noise term under the heuristic gain."""
    return ModeModel(
        field=LinearSinusoidalField(
            a_hat=np.array([[0.3, 0.1], [0.0, 0.25]]),
            a_tilde=np.array([[0.2, 0.0], [0.1, 0.2]]),
        ),
        b=np.zeros((2, 1)),
        g=np.array([[0.5], [-0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0], [0.0, 0.0]]),
        d=np.zeros((3, 1)),
        h=np.array([[0.0], [0.0], [1.0]]),
    )


def scalar_channel_mode() -> ModeModel:
    """One feedthrough direction, one free output row, nonzero psi."""
    return ModeModel(
        field=LinearSinusoidalField(
            a_hat=np.array([[-0.5, 0.0], [1.0, -0.5]]),
            a_tilde=np.array([[0.6, -0.1], [0.1, -0.6]]),
        ),
        b=np.zeros((2, 1)),
        g=np.array([[-0.2], [0.1]]),
        c=np.array([[0.5, -0.1], [0.6, -0.1]]),
        d=np.zeros((2, 1)),
        h=np.array([[0.6], [-0.5]]),
    )


def full_pipeline_mode() -> ModeModel:
    """Every block active: rank-1 feedthrough with p = 2, so both input
    components, a non-identity process-noise shaping, and known input."""
    return ModeModel(
        field=LinearField(a=np.array([[0.4, -0.2], [0.1, 0.3]])),
        b=np.array([[0.1], [-0.2]]),
        g=np.array([[0.5, -0.3], [0.2, 0.8]]),
        c=np.array([[1.0, 0.3], [-0.2, 0.9], [0.4, -0.5]]),
        d=np.array([[0.05], [0.0], [-0.1]]),
        h=np.array([[0.8, 0.4], [0.2, 0.1], [-0.4, -0.2]]),
        w=np.array([[1.0, 0.1], [0.0, 0.9]]),
    )


def blind_row_mode() -> ModeModel:
    """Identical output rows: the free channel sees nothing (c2 = 0)."""
    return ModeModel(
        field=LinearSinusoidalField(
            a_hat=np.array([[0.3, 0.0], [0.4, -0.7]]),
            a_tilde=np.array([[0.8, -0.4], [0.4, -0.8]]),
        ),
        b=np.zeros((2, 1)),
        g=np.array([[0.4], [-0.1]]),
        c=np.array([[0.8, 0.1], [0.8, 0.1]]),
        d=np.zeros((2, 1)),
        h=np.array([[0.5], [0.5]]),
    )


def full_feedthrough_mode() -> ModeModel:
    """Invertible H: the residual has zero rows."""
    return ModeModel(
        field=LinearField(a=np.array([[0.5, 0.1], [0.0, 0.3]])),
        b=np.array([[0.2], [0.0]]),
        g=np.array([[0.5, 0.0], [0.0, 0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0]]),
        d=np.array([[0.0], [0.1]]),
        h=np.eye(2),
    )


def stagewise_step(
    state: ObserverState,
    mode: ModeModel,
    dec: ModeDecomposition,
    gains: ObserverGains,
    u_prev: np.ndarray,
    u_k: np.ndarray,
    y_k: np.ndarray,
) -> ObserverState:
    """Reference observer step: time update, recovery of the state-coupled
    input from the feedthrough-free innovation, gain correction on the
    same channel, then the direct input component, each on vectors."""
    x_pred = eval_field(mode.field, state.x_hat) + mode.b @ u_prev + dec.g1 @ state.d1_hat
    d2_prev = gains.m2 @ (dec.t2 @ y_k - dec.c2 @ x_pred - dec.d2 @ u_k)
    x_star = x_pred + dec.g2 @ d2_prev
    residual = dec.t2 @ y_k - dec.c2 @ x_star - dec.d2 @ u_k
    x_hat = x_star + gains.l_gain @ residual
    d1_hat = gains.m1 @ (dec.t1 @ y_k - dec.c1 @ x_hat - dec.d1 @ u_k)
    d_prev = dec.v1 @ state.d1_hat + dec.v2 @ d2_prev
    return ObserverState(
        k=state.k + 1, x_hat=x_hat, d1_hat=d1_hat, d_hat_prev=d_prev, residual=residual
    )


@dataclass
class ClosedLoopTrace:
    """Everything a truth-level check could need from one run."""

    mode: ModeModel
    dec: ModeDecomposition
    gains: ObserverGains
    delta0: float
    x_hat0: np.ndarray
    x: list[np.ndarray]  # true states, 0..steps
    u: list[np.ndarray]
    d: list[np.ndarray]
    w: list[np.ndarray]  # 0..steps-1
    v: list[np.ndarray]  # 0..steps
    y: list[np.ndarray]
    states: list[ObserverState]  # observer after each k, 0..steps
    residuals: list[np.ndarray]  # r_1..r_steps


def run_closed_loop(
    mode: ModeModel,
    steps: int,
    seed: int,
    eta_w: float,
    eta_v: float,
    delta0: float,
    d_scale: float = 0.5,
    u_scale: float = 0.2,
    gain_scale: float | None = None,
    x_hat0: np.ndarray | None = None,
) -> ClosedLoopTrace:
    """Simulate plant + observer for the true mode with seeded draws.

    gain_scale rescales the heuristic gain (to make the correction
    interconnection nonzero when the heuristic would cancel it exactly).
    """
    rng = np.random.default_rng(seed)
    n, l, m, p = mode.n, mode.l, mode.m, mode.p
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=eta_w, eta_v=eta_v)
    if gain_scale is not None:
        gains = synthesize_gains(
            mode, dec, eta_w=eta_w, eta_v=eta_v, user_gain=gain_scale * gains.l_gain
        )

    if x_hat0 is None:
        x_hat0 = rng.normal(size=n) * 0.3
    x0 = x_hat0 + sample_ball(rng, delta0, n)
    u = [rng.normal(size=m) * u_scale for _ in range(steps + 1)]
    d = [rng.normal(size=p) * d_scale for _ in range(steps + 1)]
    w = [sample_ball(rng, eta_w, n) for _ in range(steps)]
    v = [sample_ball(rng, eta_v, l) for _ in range(steps + 1)]

    x = [x0]
    y = [mode.c @ x0 + mode.d @ u[0] + mode.h @ d[0] + v[0]]
    step = step_matrix(mode, dec, gains)
    states = [init_observer(dec, gains, x_hat0, y[0], u[0])]
    residuals: list[np.ndarray] = []
    for k in range(1, steps + 1):
        x_next = eval_field(mode.field, x[k - 1]) + mode.b @ u[k - 1] + mode.g @ d[k - 1] + mode.w @ w[k - 1]
        x.append(x_next)
        y.append(mode.c @ x_next + mode.d @ u[k] + mode.h @ d[k] + v[k])
        state = step_observer(states[-1], mode, step, u[k - 1], u[k], y[k])
        states.append(state)
        residuals.append(state.residual)
    return ClosedLoopTrace(
        mode=mode,
        dec=dec,
        gains=gains,
        delta0=delta0,
        x_hat0=np.asarray(x_hat0, dtype=float),
        x=x,
        u=u,
        d=d,
        w=w,
        v=v,
        y=y,
        states=states,
        residuals=residuals,
    )


def eta_t(
    k: int,
    n: int,
    l: int,
    lipschitz: float,
    delta0: float,
    eta_v: float,
    eta_w: float,
    radius_seq: np.ndarray,
) -> float:
    """Common Euclidean norm of every vertex of the step-k word hypercube."""
    lf2 = lipschitz * lipschitz
    tail = sum(float(radius_seq[j]) ** 2 for j in range(1, k))
    return math.sqrt(
        n * ((1.0 + lf2) * delta0**2 + k * eta_w**2 + lf2 * tail)
        + l * (k + 1) * eta_v**2
    )


def stacked_word(trace: ClosedLoopTrace, k: int) -> np.ndarray:
    """Build the step-k unknown word from the recorded truth signals."""
    mode = trace.mode
    parts = [trace.x[0] - trace.x_hat0]
    parts += [trace.v[j] for j in range(k + 1)]
    parts += [trace.w[j] for j in range(k)]
    parts += [
        eval_field(mode.field, trace.x[j]) - eval_field(mode.field, trace.states[j].x_hat)
        for j in range(k)
    ]
    return np.concatenate(parts)
