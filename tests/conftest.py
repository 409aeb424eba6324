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
step-by-step plant and ``csv.writer``, which the package's stacked bank
(walked step by step with ``bank_steps``), stacked plant products and
joined rows must reproduce bit for bit, and
``oracle_prepare`` with its ``oracle_*`` parts keeps the one-mode
preparation (decomposition, gains, step matrix, radii, coefficients,
thresholds) that the stacked preparation must reproduce; ``oracle_bank``
starts each mode with ``stagewise_init``, the initialization on vectors.
``decompose``, ``synthesize_gains``, ``step_matrix``, ``coefficients``,
``radius_table``, ``input_radius_table``, ``word_box``,
``triangle_bound``, ``steady_report``, ``stacked_init`` and
``stack_of_one`` run one mode through the package's stacked kernels, as
a stack of one.  The package prepares the bank by gain group;
``mode_bank`` and ``prepared_rows`` read its groups back row by row, as
the one-mode oracles and per-mode checks take them, and ``bank_groups``
builds the groups of a bare ``SwitchedSystem``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from artifact.decomposition import DecompositionStack, ModeDecomposition, decompose_stack
from artifact.gains import (
    BankGroup,
    GainStack,
    ObserverGains,
    noise_offset,
    radius_sequences,
    synthesis_errors,
    synthesize_gain_stack,
)
from artifact import runner
from artifact.config import BoundedRandomInput, GrowingRampInput, ZeroInput, load_config
from artifact.detectability import STEADY_K_CAP, SteadyTriReport, steady_reports
from artifact.errors import ConfigurationError, NumericalFailure, SynthesisError
from artifact.linalg import spectral_norm, spectral_norms
from artifact.residuals import (
    CoefficientStack,
    ResidualCoefficients,
    ThresholdReport,
    ThresholdTable,
    _convolve,
    assemble_matrix,
    box_radii,
    build_coefficients,
    build_threshold_tables,
    delta_inf,
    triangle_sequences,
    word_dim,
)
from artifact.estimator import ModeSet, all_modes, eliminate_step
from artifact.observer import (
    ObserverStack,
    ObserverState,
    init_observer,
    step_matrix_stack,
    step_observer,
)
from artifact.scenarios import scenario_path
from artifact.system import ModeModel, ModeStack, SwitchedSystem


def decompose(mode: ModeModel) -> ModeDecomposition:
    """One mode's feedthrough decomposition: the package's
    ``decompose_stack`` applied to the stack of one."""
    ((_, _, dec),) = decompose_stack(ModeStack.of([mode]))
    return dec.mode(0)


def synthesize_gains(
    mode: ModeModel,
    dec: ModeDecomposition,
    eta_w: float,
    eta_v: float,
    user_gain: np.ndarray | None = None,
) -> ObserverGains:
    """One mode's gains, the user gain when one is given, else the
    heuristic gain: the package's ``synthesize_gain_stack`` applied to the
    stack of one.  Raises the mode's ``synthesis_errors`` entry (a
    SynthesisError for a rank-deficient c2 @ g2, a ConfigurationError
    for a wrong-shape user gain)."""
    decs = DecompositionStack.of(dec)
    (error,) = synthesis_errors(decs, [user_gain])
    if error is not None:
        raise error
    gains = synthesize_gain_stack(
        ModeStack.of([mode]), decs, np.array([float(eta_w)]), np.array([float(eta_v)]), [user_gain]
    )
    return gains.mode(0)


def step_matrix(mode: ModeModel, dec: ModeDecomposition, gains: ObserverGains) -> np.ndarray:
    """One mode's step map: the package's ``step_matrix_stack`` applied
    to the stack of one."""
    stack = step_matrix_stack(ModeStack.of([mode]), DecompositionStack.of(dec), GainStack.of(gains))
    return stack[0]


def coefficients(gains: ObserverGains, dec: ModeDecomposition, k_max: int) -> ResidualCoefficients:
    """One mode's coefficient blocks: the package's ``build_coefficients``
    applied to the stack of one."""
    return build_coefficients(GainStack.of(gains), DecompositionStack.of(dec), k_max).mode(0)


def radius_table(gains: ObserverGains, delta0: float, k_max: int) -> np.ndarray:
    """One mode's state radii [delta_0, ..., delta_kmax]: the package's
    ``radius_sequences`` applied to the stack of one."""
    (radii,) = radius_sequences(GainStack.of(gains), delta0, k_max)
    return radii


def input_radius_table(gains: ObserverGains, radii: np.ndarray) -> np.ndarray:
    """One mode's lagged input radii for its state radii, each one step
    earlier than its input radius: the package's ``GainStack.input_radii``
    applied to the stack of one."""
    (table,) = GainStack.of(gains).input_radii(np.asarray(radii, dtype=float)[None])
    return table


def word_box(
    k: int, n: int, l: int, gains: ObserverGains, radius_seq: np.ndarray
) -> np.ndarray:
    """One mode's word-hypercube radii at step k: the package's
    ``box_radii`` applied to the stack of one."""
    (box,) = box_radii(k, n, l, GainStack.of(gains), np.asarray(radius_seq, dtype=float)[None])
    return box


def triangle_bound(
    coeffs: ResidualCoefficients, gains: ObserverGains, radii: np.ndarray
) -> np.ndarray:
    """One mode's triangle bounds for k = 1..coeffs.k_max: the package's
    ``triangle_sequences`` applied to the stack of one."""
    (tri,) = triangle_sequences(
        CoefficientStack.of(coeffs), np.array([gains.lipschitz]), np.asarray(radii, float)[None]
    )
    return tri


def steady_report(
    gains: ObserverGains,
    dec: ModeDecomposition,
    delta0: float,
    k_cap: int = STEADY_K_CAP,
    mode: int = 0,
) -> SteadyTriReport:
    """One mode's steady-threshold report, labelled `mode`: the package's
    ``steady_reports`` applied to the stack of one."""
    (report,) = steady_reports(
        GainStack.of(gains), DecompositionStack.of(dec), (mode,), delta0, k_cap
    )
    return report


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
        a=np.array([[0.3, 0.1], [0.0, 0.25]]),
        a_tilde=np.array([[0.2, 0.0], [0.1, 0.2]]),
        b=np.zeros((2, 1)),
        g=np.array([[0.5], [-0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0], [0.0, 0.0]]),
        d=np.zeros((3, 1)),
        h=np.array([[0.0], [0.0], [1.0]]),
    )


def scalar_channel_mode() -> ModeModel:
    """One feedthrough direction, one free output row, nonzero psi."""
    return ModeModel(
        a=np.array([[-0.5, 0.0], [1.0, -0.5]]),
        a_tilde=np.array([[0.6, -0.1], [0.1, -0.6]]),
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
        a=np.array([[0.4, -0.2], [0.1, 0.3]]),
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
        a=np.array([[0.3, 0.0], [0.4, -0.7]]),
        a_tilde=np.array([[0.8, -0.4], [0.4, -0.8]]),
        b=np.zeros((2, 1)),
        g=np.array([[0.4], [-0.1]]),
        c=np.array([[0.8, 0.1], [0.8, 0.1]]),
        d=np.zeros((2, 1)),
        h=np.array([[0.5], [0.5]]),
    )


def full_feedthrough_mode() -> ModeModel:
    """Invertible H: the residual has zero rows."""
    return ModeModel(
        a=np.array([[0.5, 0.1], [0.0, 0.3]]),
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
    x_pred = mode.f(state.x_hat) + mode.b @ u_prev + dec.g1 @ state.d1_hat
    d2_prev = gains.m2 @ (dec.t2 @ y_k - dec.c2 @ x_pred - dec.d2 @ u_k)
    x_star = x_pred + dec.g2 @ d2_prev
    residual = dec.t2 @ y_k - dec.c2 @ x_star - dec.d2 @ u_k
    x_hat = x_star + gains.l_gain @ residual
    d1_hat = gains.m1 @ (dec.t1 @ y_k - dec.c1 @ x_hat - dec.d1 @ u_k)
    d_prev = dec.v1 @ state.d1_hat + dec.v2 @ d2_prev
    return ObserverState(
        k=state.k + 1, x_hat=x_hat, d1_hat=d1_hat, d_hat_prev=d_prev, residual=residual
    )


def stagewise_init(dec: ModeDecomposition, gains: ObserverGains, x_hat0, y0, u0) -> ObserverState:
    """Reference initialization: x-hat_0 and the direct component
    m1 (t1 y_0 - c1 x-hat_0 - d1 u_0), on vectors."""
    x_hat0 = np.asarray(x_hat0, dtype=float).reshape(-1)
    d1_hat = gains.m1 @ (dec.t1 @ y0 - dec.c1 @ x_hat0 - dec.d1 @ u0)
    return ObserverState(k=0, x_hat=x_hat0, d1_hat=d1_hat, d_hat_prev=None, residual=None)


def stacked_init(dec: ModeDecomposition, gains: ObserverGains, x_hat0, y0, u0) -> ObserverState:
    """One ``init_observer`` call on a stack of one, as the state at k = 0."""
    (row,) = init_observer(DecompositionStack.of(dec), GainStack.of(gains), x_hat0, y0, u0)
    n = len(row) - dec.p_h
    return ObserverState(k=0, x_hat=row[:n], d1_hat=row[n:], d_hat_prev=None, residual=None)


def stack_of_one(mode: ModeModel, dec: ModeDecomposition, gains: ObserverGains) -> ObserverStack:
    """The package's observer stack holding this one mode, built by the
    per-group calls of ``runner.prepare_modes``; its tables cover one
    step from a zero initial radius, without vertex enumeration, since
    the callers step the stack and read no table."""
    group = BankGroup((0,), ModeStack.of([mode]), DecompositionStack.of(dec), GainStack.of(gains))
    radii = radius_sequences(group.gains, 0.0, 1)
    return ObserverStack(
        group,
        step_matrix_stack(group.model, group.dec, group.gains),
        radii,
        group.gains.input_radii(radii[:, :-1]),
        build_threshold_tables(group.gains, group.dec, radii, 1),
    )


def mode_bank(config) -> list[tuple[ModeDecomposition, ObserverGains]]:
    """Each mode's decomposition and gains, in bank order: the rows of
    the ``runner.gain_bank`` groups."""
    rows = {
        q: (group.dec.mode(i), group.gains.mode(i))
        for group in runner.gain_bank(config)
        for i, q in enumerate(group.modes)
    }
    return [rows[q] for q in range(config.system.mode_count)]


def bank_groups(system: SwitchedSystem) -> list[BankGroup]:
    """The ``runner.gain_bank`` groups of a bank with heuristic gains
    (``test_system_a``'s gains spec)."""
    base = load_config(scenario_path("test_system_a"))
    return runner.gain_bank(replace(base, system=system, true_mode=1))


@dataclass(frozen=True)
class PreparedRow:
    """One mode's row of the ``observer.ObserverStack`` that holds it: the
    arrays a lone mode's preparation gives."""

    index: int  # 0-based bank index
    mode: ModeModel
    dec: ModeDecomposition
    gains: ObserverGains
    step: np.ndarray
    radius_seq: np.ndarray
    input_radius_seq: np.ndarray
    thresholds: ThresholdTable


def prepared_rows(config, prepared) -> list[PreparedRow]:
    """Every mode's row of the ``runner.prepare_modes`` stacks, in bank
    order."""
    rows = {}
    for stack in prepared:
        group = stack.group
        for j, q in enumerate(group.modes):
            rows[q] = PreparedRow(
                index=q,
                mode=config.system.modes[q],
                dec=group.dec.mode(j),
                gains=group.gains.mode(j),
                step=stack.step[j],
                radius_seq=stack.radii[j],
                input_radius_seq=stack.input_radii[j],
                thresholds=stack.thresholds.mode(j),
            )
    return [rows[q] for q in range(config.system.mode_count)]


def stacked_step(
    state: ObserverState,
    stack: ObserverStack,
    u_prev: np.ndarray,
    u_k: np.ndarray,
    y_k: np.ndarray,
) -> ObserverState:
    """One ``step_observer`` call on a stack of one, with the bank's
    finiteness check of its output row."""
    row = np.concatenate((state.x_hat, state.d1_hat))[None]
    k = state.k + 1
    (out,) = step_observer([stack], [row], np.concatenate((u_prev, u_k, y_k)), k)
    if not np.isfinite(out).all():
        raise stack.failure(0, out[0], k)
    return stack.state(out[0], k)


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
    z = np.concatenate((mode.f(x_hat), state.d1_hat, u_prev, u_k, y_k))
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
class BankStep:
    """The observer bank after the updates and the elimination of step k:
    the surviving set, every mode's latest state (frozen at its
    elimination step for a dead mode) and the residual norm of each mode
    stepped at k, in bank order (empty at k = 0)."""

    k: int
    mode_set: ModeSet
    states: tuple[ObserverState, ...]
    residuals: dict[int, float]


def bank_steps(bank: runner.BankRun):
    """The ``BankStep`` of every step 0..bank.k of a ``runner.run_bank``
    result, read off its arrays: at step k the run reads as if it had
    stopped there, so its ``states`` are the latest states at k."""
    eliminated = bank.mode_set.eliminated_at
    count = sum(len(stack.modes) for stack in bank.stacks)
    for k in range(bank.k + 1):
        gone = {q: e for q, e in eliminated.items() if e <= k}
        surviving = tuple(q for q in range(count) if q not in gone)
        at_k = replace(bank, k=k, mode_set=ModeSet(surviving, gone))
        residuals = {
            q: float(norms[k - 1, j])
            for stack, norms in zip(bank.stacks, bank.norms)
            for j, q in enumerate(stack.modes)
            if k and at_k.last_step(q) == k
        }
        yield BankStep(k, at_k.mode_set, at_k.states, dict(sorted(residuals.items())))


def oracle_bank(config, prepared, truth):
    """Frozen bank loop: every surviving mode stepped one at a time with
    ``product_step``, and ``eliminate_step`` called at every step."""
    prepared = prepared_rows(config, prepared)
    states = [
        stagewise_init(pm.dec, pm.gains, config.system.x_hat0, truth.y[0], truth.u[0])
        for pm in prepared
    ]
    mode_set = all_modes(len(prepared))
    yield BankStep(k=0, mode_set=mode_set, states=tuple(states), residuals={})
    for k in range(1, config.horizon + 1):
        checks: dict[int, tuple[float, float]] = {}
        for q in mode_set.surviving:
            pm = prepared[q]
            try:
                state = product_step(
                    states[q], pm.mode, pm.step,
                    truth.u[k - 1], truth.u[k], truth.y[k],
                )
            except NumericalFailure as exc:
                raise NumericalFailure(f"mode {q + 1}: {exc}") from exc
            states[q] = state
            res = state.residual
            checks[q] = (math.sqrt(res @ res), float(pm.thresholds.delta_hat[k - 1]))
        mode_set = eliminate_step(mode_set, k, checks)
        residuals = {q: res_norm for q, (res_norm, _) in checks.items()}
        yield BankStep(k=k, mode_set=mode_set, states=tuple(states), residuals=residuals)
        if mode_set.faulted:
            return


def tampered_truth(offset_from: int, bias: float):
    """Wrap simulate_truth, biasing all measurements from a given step."""
    original = runner.simulate_truth

    def tampered(config, seed):
        truth = original(config, seed)
        y = truth.y.copy()
        y[offset_from:] += bias
        return replace(truth, y=y)

    return tampered


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
    x_next = mode.f(x_k) + mode.b @ u_k + mode.g @ d_k + mode.w @ w_k
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


def oracle_input_radius(gains: ObserverGains, delta_x: float) -> float:
    """Frozen one-radius rule: beta * delta_x + alpha_bar, where a zero
    beta ignores an infinite delta_x."""
    if gains.beta == 0.0:
        return gains.alpha_bar
    return gains.beta * float(delta_x) + gains.alpha_bar


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
        for pm in prepared_rows(config, prepared):
            q, mode = pm.index, pm.mode
            if record.k == 0:
                cells += ["", "", "", "", "0"]
            elif q not in record.residuals:
                cells += ["", "", "", "", "1"] + [""] * (mode.n + 1 + mode.p + 1)
                continue
            else:
                table, i = pm.thresholds, record.k - 1
                cells += [
                    _fmt(record.residuals[q]),
                    _fmt(table.delta_tri[i]),
                    "" if table.capped[i] else _fmt(table.delta_inf[i]),
                    _fmt(table.delta_hat[i]),
                    str(int(q not in record.mode_set.surviving)),
                ]
            state = record.states[q]
            cells += _fmt_all(state.x_hat)
            cells.append(_fmt(pm.radius_seq[state.k]))
            if state.d_hat_prev is None:
                cells += [""] * mode.p + [""]
            else:
                cells += _fmt_all(state.d_hat_prev)
                cells.append(_fmt(oracle_input_radius(pm.gains, pm.radius_seq[state.k - 1])))
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
    states = [stacked_init(dec, gains, x_hat0, y[0], u[0])]
    residuals: list[np.ndarray] = []
    for k in range(1, steps + 1):
        x_next = mode.f(x[k - 1]) + mode.b @ u[k - 1] + mode.g @ d[k - 1] + mode.w @ w[k - 1]
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
        mode.f(trace.x[j]) - mode.f(trace.states[j].x_hat)
        for j in range(k)
    ]
    return np.concatenate(parts)


# --- frozen one-mode preparation ------------------------------------------
# The per-mode bodies of the decomposition, gain synthesis, coefficient
# recursion, threshold table and step matrix as they stood before the
# bank was prepared as stacks, with the kernels they called (the 2-D
# pseudoinverse and rank, the per-column sign rule, the scalar triangle
# pass).  The package's stacked preparation must reproduce them bit for
# bit, mode by mode, whatever bank a mode sits in.

_ORACLE_CLEAN_TOL = 1e-13
_ORACLE_RANK_TOL = 1e-12
_ORACLE_RT2 = 1.0 / (1.0 / math.sqrt(2.0))


def _oracle_cutoff(s: np.ndarray, shape) -> float:
    return 0.0 if s.size == 0 else max(shape) * float(s[0]) * _ORACLE_RANK_TOL


def oracle_rank(a: np.ndarray) -> int:
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > _oracle_cutoff(s, a.shape)))


def oracle_pinv(a: np.ndarray) -> np.ndarray:
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.zeros((cols, rows))
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    cut = _oracle_cutoff(s, a.shape)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > cut), 0.0)
    k = s.size
    return vt[:k].T @ np.diag(inv) @ u[:, :k].T


def _oracle_clean(block: np.ndarray, source: np.ndarray) -> np.ndarray:
    if block.size == 0 or source.size == 0:
        return block
    cut = _ORACLE_CLEAN_TOL * float(np.max(np.abs(source)))
    out = block.copy()
    out[np.abs(out) < cut] = 0.0
    return out


def _oracle_signs(m: np.ndarray) -> np.ndarray:
    return np.array([-1.0 if col[np.abs(col).argmax()] < 0.0 else 1.0 for col in m.T])


def oracle_decompose(mode: ModeModel) -> ModeDecomposition:
    h = mode.h
    l, p = h.shape
    u, s, vt = np.linalg.svd(h, full_matrices=True)
    p_h = int(np.count_nonzero(s > _oracle_cutoff(s, h.shape)))
    if p_h == 0:
        u1, u2 = np.zeros((l, 0)), np.eye(l)
        v1, v2 = np.zeros((p, 0)), np.eye(p)
        sigma = np.zeros((0, 0))
    else:
        v = vt.T
        signs = _oracle_signs(u)
        u *= signs
        v *= np.concatenate([signs[:p_h], _oracle_signs(v[:, p_h:])])
        u1, v1 = u[:, :p_h], v[:, :p_h]
        u2, v2 = u[:, p_h:].copy(), v[:, p_h:].copy()
        sigma = np.diag(s[:p_h])
    t1, t2 = u1.T, u2.T
    return ModeDecomposition(
        p_h=p_h,
        sigma=sigma,
        v1=v1,
        v2=v2,
        t1=t1,
        t2=t2,
        c1=_oracle_clean(t1 @ mode.c, mode.c),
        c2=_oracle_clean(t2 @ mode.c, mode.c),
        d1=_oracle_clean(t1 @ mode.d, mode.d),
        d2=_oracle_clean(t2 @ mode.d, mode.d),
        g1=_oracle_clean(mode.g @ v1, mode.g),
        g2=_oracle_clean(mode.g @ v2, mode.g),
    )


def oracle_synthesize_gains(mode, dec, eta_w, eta_v, user_gain=None) -> ObserverGains:
    if oracle_rank(dec.c2 @ dec.g2) != dec.g2.shape[1]:
        raise SynthesisError(
            "rank(c2 @ g2) = "
            f"{oracle_rank(dec.c2 @ dec.g2)} < {dec.g2.shape[1]}: "
            "state-coupled input component is not recoverable"
        )
    n, l, r = mode.n, mode.l, dec.z2_dim
    m1 = oracle_pinv(dec.sigma)
    m2 = oracle_pinv(dec.c2 @ dec.g2)
    phi = np.eye(n) - dec.g2 @ m2 @ dec.c2
    psi = dec.g1 @ m1 @ dec.c1
    if user_gain is None:
        l_gain = phi @ oracle_pinv(dec.c2 @ phi)
    else:
        l_gain = np.asarray(user_gain, dtype=float)
        if l_gain.shape != (n, r):
            raise ConfigurationError(f"gain must have shape {(n, r)}, got {l_gain.shape}")
    e = np.eye(n) - l_gain @ dec.c2
    rt2 = _ORACLE_RT2
    g1m1t1 = dec.g1 @ m1 @ dec.t1
    g2m2t2 = dec.g2 @ m2 @ dec.t2
    v2m2c2 = dec.v2 @ m2 @ dec.c2
    r_mat = np.hstack([-rt2 * phi @ g1m1t1, phi @ mode.w, -rt2 * g2m2t2])
    q_mat = np.hstack([np.zeros((r, l)), np.zeros((r, n)), -rt2 * dec.t2])
    w_cal = e @ r_mat + l_gain @ q_mat
    y_cal = np.hstack(
        [-rt2 * dec.c2 @ phi @ g1m1t1, dec.c2 @ phi @ mode.w, rt2 * (np.eye(r) - dec.c2 @ dec.g2 @ m2) @ dec.t2]
    )
    d_cal = np.hstack(
        [rt2 * (v2m2c2 @ dec.g1 - dec.v1) @ m1 @ dec.t1, -v2m2c2 @ mode.w, -rt2 * dec.v2 @ m2 @ dec.t2]
    )
    lf = float(mode.lipschitz)
    meas = spectral_norm(e @ phi)
    theta = (lf + spectral_norm(psi)) * meas
    eta_bar = noise_offset(w_cal, l, eta_v, eta_w)
    beta = spectral_norm(dec.v1 @ m1 @ dec.c1 - v2m2c2 @ psi) + lf * spectral_norm(v2m2c2)
    alpha_bar = noise_offset(d_cal, l, eta_v, eta_w)
    return ObserverGains(
        m1=m1,
        m2=m2,
        l_gain=l_gain,
        e=e,
        phi=phi,
        psi=psi,
        w_cal=w_cal,
        y_cal=y_cal,
        lipschitz=lf,
        eta_w=float(eta_w),
        eta_v=float(eta_v),
        theta=float(theta),
        meas_contraction=float(meas),
        eta_bar=float(eta_bar),
        beta=float(beta),
        alpha_bar=float(alpha_bar),
    )


def oracle_radius_sequence(gains: ObserverGains, delta0: float, k_max: int) -> np.ndarray:
    theta, eta_bar = gains.theta, gains.eta_bar
    delta = float(delta0)
    radii = [delta]
    for _ in range(k_max):
        step = theta * delta + eta_bar
        if step == delta:
            break
        radii.append(step)
        delta = step
    table = np.full(k_max + 1, delta)
    table[: len(radii)] = radii
    return table


def oracle_coefficients(
    gains: ObserverGains, dec: ModeDecomposition, k_max: int
) -> ResidualCoefficients:
    """One mode's blocks by doubling: each round multiplies blocks 0..m-1
    by D^done, at least two blocks after the first round, and f and j are
    one product each of all k_max a blocks (each band has a spare block)."""
    n = dec.c2.shape[1]
    l = dec.t2.shape[1]
    c2phi = dec.c2 @ gains.phi
    ephi = gains.e @ gains.phi
    power = -(ephi @ gains.psi)
    rows = c2phi.shape[0]
    a = np.empty(((k_max + 1) * rows, n))
    f = np.empty(a.shape)
    j = np.empty(((k_max + 1) * rows, gains.y_cal.shape[1]))
    f[:rows], j[:rows] = c2phi, gains.y_cal
    with np.errstate(over="ignore", invalid="ignore"):
        a[:rows] = -c2phi @ gains.psi
        done = 1
        while done < k_max:
            m = min(done, max(k_max - done, 2))
            a[done * rows : (done + m) * rows] = a[: m * rows] @ power
            done += m
            if done < k_max:
                power = power @ power
        f[rows:] = a[: k_max * rows] @ ephi
        j[rows:] = a[: k_max * rows] @ gains.w_cal
        a, f, j = (band[: k_max * rows].reshape(k_max, rows, band.shape[1]) for band in (a, f, j))
        noise_terms = noise_offset(j, l, gains.eta_v, gains.eta_w)
    return ResidualCoefficients(
        k_max=k_max,
        n=n,
        l=l,
        a_mats=a,
        f_mats=f,
        j_mats=j,
        a_norms=spectral_norms(a),
        f_norms=spectral_norms(f),
        noise_terms=noise_terms,
    )


def oracle_triangle_sequence(coeffs, gains, radius_seq) -> np.ndarray:
    k_max = coeffs.k_max
    lipschitz = gains.lipschitz
    drift = np.zeros(k_max)
    with np.errstate(over="ignore"):
        lf_f = lipschitz * coeffs.f_norms if lipschitz else np.zeros(k_max)
        if k_max > 1:
            radii = np.asarray(radius_seq[1:k_max], dtype=float)
            drift[1:] = _convolve(lf_f[:-1], radii)[: k_max - 1]
        return drift + np.cumsum(coeffs.noise_terms) + (coeffs.a_norms + lf_f) * float(radius_seq[0])


def oracle_threshold_table(gains, dec, radius_seq, max_vertices) -> list[ThresholdReport]:
    k_max = len(radius_seq) - 1
    coeffs = oracle_coefficients(gains, dec, k_max)
    tri = oracle_triangle_sequence(coeffs, gains, radius_seq)
    n, l = coeffs.n, coeffs.l
    enumerable = 0
    while enumerable < k_max and 1 << (word_dim(enumerable + 1, n, l) - 1) <= max_vertices:
        enumerable += 1
    table = []
    for k, tri_k in enumerate(tri.tolist(), start=1):
        if k <= enumerable:
            box = word_box(k, n, l, gains, radius_seq)
            inf_val, count, capped = delta_inf(assemble_matrix(coeffs, k), box, max_vertices)
        else:
            inf_val, count, capped = math.inf, 0, True
        table.append(ThresholdReport(k, tri_k, inf_val, min(tri_k, inf_val), count, capped))
    return table


def oracle_step_matrix(mode: ModeModel, dec: ModeDecomposition, gains: ObserverGains) -> np.ndarray:
    n, p1, m = mode.n, dec.p_h, mode.m
    f_x, d1_hat, u_prev, u_k, y_k = np.split(
        np.eye(n + p1 + 2 * m + mode.l), np.cumsum([n, p1, m, m])
    )
    x_pred = f_x + mode.b @ u_prev + dec.g1 @ d1_hat
    d2_prev = gains.m2 @ (dec.t2 @ y_k - dec.c2 @ x_pred - dec.d2 @ u_k)
    x_star = x_pred + dec.g2 @ d2_prev
    residual = dec.t2 @ y_k - dec.c2 @ x_star - dec.d2 @ u_k
    x_hat = x_star + gains.l_gain @ residual
    d1_next = gains.m1 @ (dec.t1 @ y_k - dec.c1 @ x_hat - dec.d1 @ u_k)
    d_prev = dec.v1 @ d1_hat + dec.v2 @ d2_prev
    return np.vstack([x_hat, d1_next, d_prev, residual])


def oracle_gain_bank(config) -> list[tuple[ModeDecomposition, ObserverGains]]:
    """The one-mode-at-a-time bank: decompose and synthesize mode by
    mode, the scaled kind synthesizing twice."""
    system, spec = config.system, config.gains
    bank = []
    for q, mode in enumerate(system.modes):
        dec = oracle_decompose(mode)
        eta_w, eta_v = system.eta_w[q], system.eta_v[q]
        user_gain = spec.matrices[q] if spec.kind == "user" else None
        gains = oracle_synthesize_gains(mode, dec, eta_w, eta_v, user_gain)
        if spec.kind == "scaled":
            gains = oracle_synthesize_gains(mode, dec, eta_w, eta_v, spec.factor * gains.l_gain)
        bank.append((dec, gains))
    return bank


def oracle_prepare(config):
    """Per mode: (dec, gains, step matrix, radius table, threshold
    reports), after the one-mode bank and its certification gate."""
    bank = oracle_gain_bank(config)
    out = []
    for q, (dec, gains) in enumerate(bank):
        if not gains.theta < 1.0 and not config.allow_uncertified:
            raise ConfigurationError(
                f"mode {q + 1} gains are uncertified (contraction {gains.theta:.4g}"
                " >= 1); set allow_uncertified to proceed without guarantees"
            )
        mode = config.system.modes[q]
        radii = oracle_radius_sequence(gains, config.system.delta_x0, config.horizon)
        table = oracle_threshold_table(gains, dec, radii, config.max_vertices)
        out.append((dec, gains, oracle_step_matrix(mode, dec, gains), radii, table))
    return out
