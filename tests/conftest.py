"""Shared builders: sample modes, a self-contained closed-loop simulator,
the stage-by-stage observer step, frozen oracles of the bank loop, the
truth simulation and the CSV writers, and the vertex norm of the word
hypercube.

The simulator here is deliberately independent of the package's runner so
that residual/containment checks compare the library against plain
hand-written plant arithmetic.  ``stagewise_step`` is the same kind of
reference for the observer: it runs the step's stages one by one on the
signal vectors, which the package composes into one matrix per mode.
``product_step``, ``oracle_bank``, ``oracle_truth`` and
``oracle_steps_csv`` keep the one-mode-at-a-time step loop, the
step-by-step plant and ``csv.writer``, which the package's stacked bank,
stacked plant products and joined rows must reproduce bit for bit.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from artifact.decomposition import ModeDecomposition, decompose
from artifact.gains import ObserverGains, synthesize_gains
from artifact import runner
from artifact.config import BoundedRandomInput, GrowingRampInput, ZeroInput
from artifact.errors import NumericalFailure
from artifact.estimator import all_modes, eliminate_step
from artifact.observer import (
    ObserverStack,
    ObserverState,
    init_observer,
    stack_observers,
    step_matrix,
    step_observer,
)
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


def stack_of_one(mode: ModeModel, dec: ModeDecomposition, gains: ObserverGains) -> ObserverStack:
    """The package's observer stack holding this one mode."""
    (stack,) = stack_observers([(mode, step_matrix(mode, dec, gains))])
    return stack


def stacked_step(
    state: ObserverState,
    stack: ObserverStack,
    u_prev: np.ndarray,
    u_k: np.ndarray,
    y_k: np.ndarray,
) -> ObserverState:
    """One ``step_observer`` call on a stack of one."""
    row = np.concatenate((state.x_hat, state.d1_hat))[None]
    (out,) = step_observer([stack], [row], np.concatenate((u_prev, u_k, y_k)), state.k + 1)
    return stack.state(out[0], state.k + 1)


def product_step(
    state: ObserverState,
    mode: ModeModel,
    step: np.ndarray,
    u_prev: np.ndarray,
    u_k: np.ndarray,
    y_k: np.ndarray,
) -> ObserverState:
    """Frozen one-mode step: one matrix-vector product of the mode's step
    matrix with [f(x-hat); d1-hat; u_{k-1}; u_k; y_k]."""
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


@dataclass(frozen=True)
class OracleRecord:
    """One step of ``oracle_bank``: the fields of ``runner.BankRecord``."""

    k: int
    mode_set: object
    states: tuple[ObserverState, ...]
    residuals: dict[int, float]


def oracle_bank(config, prepared, truth):
    """Frozen bank loop: every surviving mode stepped one at a time with
    ``product_step``, and ``eliminate_step`` called at every step."""
    states = [
        init_observer(pm.dec, pm.gains, config.system.x_hat0, truth.y[0], truth.u[0])
        for pm in prepared
    ]
    mode_set = all_modes(len(prepared))
    yield OracleRecord(k=0, mode_set=mode_set, states=tuple(states), residuals={})
    for k in range(1, config.horizon + 1):
        checks: dict[int, tuple[float, float]] = {}
        for q in mode_set.surviving:
            pm = prepared[q]
            try:
                state = product_step(
                    states[q], pm.mode, pm.step_matrix, truth.u[k - 1], truth.u[k], truth.y[k]
                )
            except NumericalFailure as exc:
                raise NumericalFailure(f"mode {q + 1}: {exc}") from exc
            states[q] = state
            res = state.residual
            checks[q] = (math.sqrt(res @ res), pm.thresholds[k - 1].delta_hat)
        mode_set = eliminate_step(mode_set, k, checks)
        residuals = {q: res_norm for q, (res_norm, _) in checks.items()}
        yield OracleRecord(k=k, mode_set=mode_set, states=tuple(states), residuals=residuals)
        if mode_set.faulted:
            return


def _oracle_ball(rng: np.random.Generator, radius: float, dim: int) -> np.ndarray:
    if dim == 0:
        return np.zeros(0)
    direction = rng.normal(size=dim)
    nrm = float(np.linalg.norm(direction))
    while nrm == 0.0:
        direction = rng.normal(size=dim)
        nrm = float(np.linalg.norm(direction))
    return direction / nrm * radius * rng.uniform() ** (1.0 / dim)


def _oracle_plant(mode, x_k, u_k, d_k, w_k, v_k):
    x_next = eval_field(mode.field, x_k) + mode.b @ u_k + mode.g @ d_k + mode.w @ w_k
    y_k = mode.c @ x_k + mode.d @ u_k + mode.h @ d_k + v_k
    return x_next, y_k


def oracle_truth(config, seed: int) -> runner.TruthTrajectory:
    """Frozen truth simulation: per-draw ``rng.uniform`` and
    ``np.linalg.norm``, and one plant step at a time."""
    system = config.system
    mode = system.modes[config.true_mode - 1]
    n, l, m, p = mode.n, mode.l, mode.m, mode.p
    horizon = config.horizon
    eta_w = system.eta_w[config.true_mode - 1]
    eta_v = system.eta_v[config.true_mode - 1]
    children = np.random.SeedSequence(seed).spawn(4)
    rng_x0, rng_d, rng_w, rng_v = (np.random.default_rng(c) for c in children)
    x0 = system.x_hat0 + _oracle_ball(rng_x0, system.delta_x0, n)
    signal = config.unknown_input
    if isinstance(signal, BoundedRandomInput):
        d = np.stack([_oracle_ball(rng_d, signal.bound, p) for _ in range(horizon + 1)])
    elif isinstance(signal, GrowingRampInput):
        direction = rng_d.normal(size=p)
        nrm = float(np.linalg.norm(direction))
        if nrm > 0.0:
            direction = direction / nrm
        d = np.stack([signal.rate * k * direction for k in range(horizon + 1)])
    else:
        d = np.asarray(signal.values, dtype=float)[: horizon + 1]
    if isinstance(config.known_input, ZeroInput):
        u = np.zeros((horizon + 1, m))
    else:
        u = np.asarray(config.known_input.values, dtype=float)[: horizon + 1]
    w = np.stack([_oracle_ball(rng_w, eta_w, n) for _ in range(horizon)])
    v = np.stack([_oracle_ball(rng_v, eta_v, l) for _ in range(horizon + 1)])
    x = np.zeros((horizon + 1, n))
    y = np.zeros((horizon + 1, l))
    x[0] = x0
    for k in range(horizon):
        x[k + 1], y[k] = _oracle_plant(mode, x[k], u[k], d[k], w[k], v[k])
    _, y[horizon] = _oracle_plant(
        mode, x[horizon], u[horizon], d[horizon], np.zeros(n), v[horizon]
    )
    return runner.TruthTrajectory(x=x, y=y, u=u, d=d, w=w, v=v)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _fmt_all(values: np.ndarray) -> list[str]:
    return [repr(val) for val in values.tolist()]


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def oracle_threshold_csv(thresholds) -> str:
    """Frozen threshold-table writer: ``_fmt`` cells through csv.writer."""
    rows = [
        [
            str(report.k),
            _fmt(report.delta_tri),
            "" if report.capped else _fmt(report.delta_inf),
            _fmt(report.delta_hat),
            str(int(report.capped)),
        ]
        for report in thresholds
    ]
    return _csv_text(["k", "delta_tri", "delta_inf", "delta_hat", "capped"], rows)


def oracle_steps_csv(config, prepared, truth) -> str:
    """Frozen ``steps.csv`` writer: one row per ``oracle_bank`` record,
    every mode's cells formatted per record, through csv.writer."""
    system = config.system
    header = ["k"]
    header += [f"x{i + 1}" for i in range(system.n)]
    header += [f"d{i + 1}" for i in range(system.modes[config.true_mode - 1].p)]
    header.append("surv_count")
    for q, mode in enumerate(system.modes, start=1):
        header += [f"r_q{q}", f"tri_q{q}", f"inf_q{q}", f"hat_q{q}", f"elim_q{q}"]
        header += [f"xhat{i + 1}_q{q}" for i in range(system.n)]
        header.append(f"dx_q{q}")
        header += [f"dhat{i + 1}_q{q}" for i in range(mode.p)]
        header.append(f"dd_q{q}")
    rows = []
    for record in oracle_bank(config, prepared, truth):
        cells = [str(record.k), *_fmt_all(truth.x[record.k]), *_fmt_all(truth.d[record.k])]
        cells.append(str(len(record.mode_set.surviving)))
        for pm in prepared:
            q, mode = pm.index, pm.mode
            if record.k == 0:
                cells += ["", "", "", "", "0"]
            elif q not in record.residuals:
                cells += ["", "", "", "", "1"] + [""] * (mode.n + 1 + mode.p + 1)
                continue
            else:
                report = pm.thresholds[record.k - 1]
                cells += [
                    _fmt(record.residuals[q]),
                    _fmt(report.delta_tri),
                    "" if report.capped else _fmt(report.delta_inf),
                    _fmt(report.delta_hat),
                    str(int(q not in record.mode_set.surviving)),
                ]
            state = record.states[q]
            cells += _fmt_all(state.x_hat)
            cells.append(_fmt(pm.radius_seq[state.k]))
            if state.d_hat_prev is None:
                cells += [""] * mode.p + [""]
            else:
                cells += _fmt_all(state.d_hat_prev)
                cells.append(_fmt(pm.gains.input_radius(pm.radius_seq[state.k - 1])))
        rows.append(cells)
    return _csv_text(header, rows)


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
    stack = stack_of_one(mode, dec, gains)
    states = [init_observer(dec, gains, x_hat0, y[0], u[0])]
    residuals: list[np.ndarray] = []
    for k in range(1, steps + 1):
        x_next = eval_field(mode.field, x[k - 1]) + mode.b @ u[k - 1] + mode.g @ d[k - 1] + mode.w @ w[k - 1]
        x.append(x_next)
        y.append(mode.c @ x_next + mode.d @ u[k] + mode.h @ d[k] + v[k])
        state = stacked_step(states[-1], stack, u[k - 1], u[k], y[k])
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
