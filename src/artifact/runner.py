"""Scenario execution: truth simulation, observer bank, elimination, logs.

A run follows one loop: simulate the true plant for the whole horizon,
then per step feed every surviving mode hypothesis its observer update,
compare residual norms against precomputed thresholds, and eliminate.
That loop is written once, as the generator ``iter_bank``: it steps the
surviving modes as stacks with one ``observer.step_observer`` call per
step, in blocks of ``BLOCK`` steps, and decides each block's
finiteness, residual norms and eliminations in one array pass per
stack.  It yields a ``BankRecord`` (step, surviving set, residual norms
of the modes stepped, and every mode's latest observer state, both read
off the run's ``BankTrace`` on demand) for k = 0 and after every step.
``run`` formats ``steps.csv`` from the trace's arrays, a column block
per mode, after the loop.  The loop does no radius arithmetic:
``prepare_modes`` tabulates each mode's state radii, lagged input radii
and thresholds once, and a state at step k reads its radius from
``radius_seq[k]``.  Preparation runs as stacks: ``gain_groups``, the
one grouping of the bank, groups it by (n, m, l, p), drift kind and
rank(H); per group, one batched pass decomposes, synthesizes gains,
tabulates thresholds and builds the ``ObserverStack`` that ``iter_bank``
steps as it is.  Each ``PreparedMode`` holds that stack, its row in it
and its slices of the other stacks, the bits a lone mode's preparation
gives.  Everything downstream of
the master seed is deterministic, so a config plus a seed reproduces its
CSV outputs byte for byte.

Output files (see README for the column-by-column schema):

* ``steps.csv``         one row per step: truth, surviving count, and
                        per-mode residual/threshold/estimate columns;
* ``thresholds_q<i>.csv``  per-mode threshold tables over the horizon;
* ``report.txt`` / ``report.json``  final surviving set, elimination
                        times, certification flags, final balls.

Floats are serialized with ``repr`` (shortest round-trip), so a radius
that overflowed reads ``inf``, and JSON writes non-finite floats as
strings; missing values (pre-elimination residuals at k = 0, capped
vertex bounds, columns of dead modes) are empty fields.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import (
    BoundedRandomInput,
    GrowingRampInput,
    ScenarioConfig,
    ZeroInput,
    master_seed,
)
from .decomposition import DecompositionStack, ModeDecomposition, decompose_stack
from .errors import ConfigurationError
from .estimator import Ball, ModeSet, all_modes, bounding_ball, eliminate_step
from .gains import (
    GainStack,
    ObserverGains,
    radius_sequences,
    synthesis_errors,
    synthesize_gain_stack,
)
from .observer import ObserverStack, ObserverState, init_observer, step_matrix_stack, step_observer
from .residuals import ThresholdTable, build_threshold_tables
from .system import ModeModel, ModeStack, drift_matrices, eval_field


def uniform_ball(rng: np.random.Generator, radius: float, dim: int, count: int) -> np.ndarray:
    """`count` independent uniform draws from the closed Euclidean ball of
    the given radius, one per row.

    Each draw reads its direction and then its radial scale from the
    stream, draw by draw; the scaling then runs on all rows at once, with
    the operations of one draw in the same order.
    """
    if dim == 0:
        return np.zeros((count, 0))
    directions, norms, scales = [], [], []
    for _ in range(count):
        # math.sqrt(v.dot(v)) is np.linalg.norm's arithmetic, and
        # rng.random() is the draw rng.uniform() makes, without their call
        # overhead
        direction = rng.normal(size=dim)
        nrm = math.sqrt(direction.dot(direction))
        while nrm == 0.0:
            direction = rng.normal(size=dim)
            nrm = math.sqrt(direction.dot(direction))
        directions.append(direction)
        norms.append(nrm)
        scales.append(rng.random() ** (1.0 / dim))
    norms, scales = np.array(norms)[:, None], np.array(scales)[:, None]
    return np.array(directions) / norms * radius * scales


def _apply(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for every row, as one stacked product whose slices
    are the matrix-vector products of the rows one at a time."""
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def simulate_plant(
    mode: ModeModel,
    x0: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the true plant from x0 over the given signals (one row per step)
    and return (x, y), rows 0..N with N = len(w):

        x_{k+1} = f(x_k) + B u_k + G d_k + W w_k,  k < N
        y_k     = C x_k + D u_k + H d_k + v_k,     k <= N

    Only the drift reads the previous state, so the input and noise terms
    are stacked products before the loop and the output map one after it;
    the sums keep the order of the formulas above.
    """
    steps = len(w)
    bu, gd, ww = _apply(mode.b, u[:steps]), _apply(mode.g, d[:steps]), _apply(mode.w, w)
    x = np.empty((steps + 1, mode.n))
    x[0] = x0
    for k in range(steps):
        x[k + 1] = eval_field(mode.field, x[k]) + bu[k] + gd[k] + ww[k]
    y = _apply(mode.c, x) + _apply(mode.d, u) + _apply(mode.h, d) + v
    return x, y


@dataclass(frozen=True)
class TruthTrajectory:
    """Realized signals of one run; rows indexed by step."""

    x: np.ndarray  # (N+1, n)
    y: np.ndarray  # (N+1, l)
    u: np.ndarray  # (N+1, m)
    d: np.ndarray  # (N+1, p_true)
    w: np.ndarray  # (N, n)
    v: np.ndarray  # (N+1, l)


def simulate_truth(config: ScenarioConfig, seed: int) -> TruthTrajectory:
    """Draw all noise streams and roll the true mode forward.

    Four independent child streams (initial state, unknown input,
    process noise, measurement noise) spawn from the master seed, so
    changing e.g. the horizon of the d signal never perturbs the noise
    draws.
    """
    system = config.system
    mode = system.modes[config.true_mode - 1]
    n, l, m, p = mode.n, mode.l, mode.m, mode.p
    horizon = config.horizon
    eta_w = system.eta_w[config.true_mode - 1]
    eta_v = system.eta_v[config.true_mode - 1]

    children = np.random.SeedSequence(seed).spawn(4)
    rng_x0, rng_d, rng_w, rng_v = (np.random.default_rng(c) for c in children)

    x0 = system.x_hat0 + uniform_ball(rng_x0, system.delta_x0, n, 1)[0]

    signal = config.unknown_input
    if isinstance(signal, BoundedRandomInput):
        d = uniform_ball(rng_d, signal.bound, p, horizon + 1)
    elif isinstance(signal, GrowingRampInput):
        direction = rng_d.normal(size=p)
        nrm = float(np.linalg.norm(direction))
        if nrm > 0.0:
            direction = direction / nrm
        d = np.multiply.outer(signal.rate * np.arange(horizon + 1), direction)
    else:
        d = np.asarray(signal.values, dtype=float)[: horizon + 1]

    if isinstance(config.known_input, ZeroInput):
        u = np.zeros((horizon + 1, m))
    else:
        u = np.asarray(config.known_input.values, dtype=float)[: horizon + 1]

    w = uniform_ball(rng_w, eta_w, n, horizon)
    v = uniform_ball(rng_v, eta_v, l, horizon + 1)

    x, y = simulate_plant(mode, x0, u, d, w, v)
    return TruthTrajectory(x=x, y=y, u=u, d=d, w=w, v=v)


@dataclass(frozen=True)
class PreparedMode:
    """Per-hypothesis precomputation shared by every seed."""

    index: int  # 0-based
    mode: ModeModel
    dec: ModeDecomposition
    gains: ObserverGains
    stack: ObserverStack  # the observer stack of this mode's gain_groups group
    row: int  # this mode's row in it
    radius_seq: np.ndarray  # state radii for k = 0..horizon
    input_radius_seq: np.ndarray  # lagged input radii of steps 1..horizon, read at k - 1
    thresholds: ThresholdTable  # k = 1..horizon


@dataclass(frozen=True)
class BankGroup:
    """Modes of the bank that share every array shape, (n, m, l, p) and
    rank(H), and a drift kind, prepared as stacks; row i of each stack is
    bank mode ``modes[i]``."""

    modes: tuple[int, ...]  # 0-based bank indices, ascending
    model: ModeStack
    dec: DecompositionStack
    gains: GainStack


def gain_groups(config: ScenarioConfig) -> list[BankGroup]:
    """Decompose and synthesize the gains of the whole bank, honoring the
    gains spec, one batched pass per group of modes of equal shape and
    drift kind.  Groups come in order of their first mode.

    A mode that cannot get gains raises its ``synthesis_errors`` entry;
    of several, the first mode in bank order does.  No certification
    gate here; callers that require certified gains (the run loop) check
    separately.
    """
    system = config.system
    shapes: dict[tuple[int, int, int, int, bool], list[int]] = {}
    for q, mode in enumerate(system.modes):
        linear = drift_matrices(mode.field)[1] is None
        shapes.setdefault((mode.n, mode.m, mode.l, mode.p, linear), []).append(q)
    parts = []
    for bank_rows in shapes.values():
        model = ModeStack.of([system.modes[q] for q in bank_rows])
        for rows, part, dec in decompose_stack(model):
            parts.append((tuple(bank_rows[i] for i in rows), part, dec))
    parts.sort(key=lambda part: part[0][0])
    spec = config.gains
    user = spec.matrices if spec.kind == "user" else (None,) * system.mode_count
    # the scaled gain is a multiple of the heuristic one
    factor = spec.factor if spec.kind == "scaled" else None
    errors = {
        q: error
        for modes, _, dec in parts
        for q, error in zip(modes, synthesis_errors(dec, [user[q] for q in modes]))
        if error is not None
    }
    if errors:
        raise errors[min(errors)]
    eta_w, eta_v = np.array(system.eta_w), np.array(system.eta_v)
    return [
        BankGroup(
            modes=modes,
            model=model,
            dec=dec,
            gains=synthesize_gain_stack(
                model, dec, eta_w[list(modes)], eta_v[list(modes)], [user[q] for q in modes], factor
            ),
        )
        for modes, model, dec in parts
    ]


def gain_bank(
    config: ScenarioConfig,
) -> list[tuple[ModeDecomposition, ObserverGains]]:
    """Each mode's decomposition and gains from ``gain_groups``, in bank
    order."""
    per_mode = {
        q: (group.dec.mode(i), group.gains.mode(i))
        for group in gain_groups(config)
        for i, q in enumerate(group.modes)
    }
    return [per_mode[q] for q in range(config.system.mode_count)]


def prepare_modes(config: ScenarioConfig) -> list[PreparedMode]:
    """Decompose, synthesize gains, build the observer stacks and tabulate
    radii and thresholds: one batched pass per ``gain_groups`` group."""
    system = config.system
    groups = gain_groups(config)
    theta = {q: float(t) for group in groups for q, t in zip(group.modes, group.gains.theta)}
    if not config.allow_uncertified:
        for q in range(system.mode_count):
            if not theta[q] < 1.0:
                raise ConfigurationError(
                    f"mode {q + 1} gains are uncertified (contraction {theta[q]:.4g}"
                    " >= 1); set allow_uncertified to proceed without guarantees"
                )
    out: dict[int, PreparedMode] = {}
    for group in groups:
        radii = radius_sequences(group.gains, system.delta_x0, config.horizon)
        tables = build_threshold_tables(group.gains, group.dec, radii, config.max_vertices)
        stack = ObserverStack.of(
            group.modes,
            [system.modes[q] for q in group.modes],
            step_matrix_stack(group.model, group.dec, group.gains),
            group.dec.p_h,
            np.stack([table.delta_hat for table in tables], axis=1),
        )
        for i, q in enumerate(group.modes):
            gains = group.gains.mode(i)
            out[q] = PreparedMode(
                index=q,
                mode=system.modes[q],
                dec=group.dec.mode(i),
                gains=gains,
                stack=stack,
                row=i,
                radius_seq=radii[i],
                input_radius_seq=gains.input_radii(radii[i, :-1]),
                thresholds=tables[i],
            )
    return [out[q] for q in range(system.mode_count)]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run plus paths of everything written."""

    out_dir: Path
    mode_set: ModeSet  # final surviving set, 0-based indices
    faulted: bool
    fault_step: int | None
    steps_path: Path

    @property
    def surviving(self) -> tuple[int, ...]:
        """Surviving mode numbers, 1-based."""
        return tuple(q + 1 for q in self.mode_set.surviving)


def threshold_rows(table: ThresholdTable) -> list[list[str]]:
    """The cells of a threshold table, one row per step: k, delta_tri,
    delta_inf (empty when capped), delta_hat and the capped flag.
    ``steps.csv`` reuses the three threshold cells of each row.  delta_hat
    is whichever bound is smaller, so its cell reuses that bound's text."""
    tri = map(repr, table.delta_tri.tolist())
    inf = map(repr, table.delta_inf.tolist())
    inf_wins = (table.delta_inf < table.delta_tri).tolist()
    return [
        [str(k), t, "" if cap else i, i if win else t, "1" if cap else "0"]
        for k, (t, i, win, cap) in enumerate(zip(tri, inf, inf_wins, table.capped.tolist()), 1)
    ]


def _steps_header(config: ScenarioConfig) -> list[str]:
    system = config.system
    n = system.n
    p_true = system.modes[config.true_mode - 1].p
    header = ["k"]
    header += [f"x{i + 1}" for i in range(n)]
    header += [f"d{i + 1}" for i in range(p_true)]
    header.append("surv_count")
    for q, mode in enumerate(system.modes, start=1):
        header += [f"r_q{q}", f"tri_q{q}", f"inf_q{q}", f"hat_q{q}", f"elim_q{q}"]
        header += [f"xhat{i + 1}_q{q}" for i in range(n)]
        header.append(f"dx_q{q}")
        header += [f"dhat{i + 1}_q{q}" for i in range(mode.p)]
        header.append(f"dd_q{q}")
    return header


@dataclass(frozen=True)
class BankTrace:
    """Every observer output and residual norm of one bank run, filled in
    by ``iter_bank``.

    Per stack i, ``outputs[i][k, j]`` is the output row of mode
    ``stacks[i].modes[j]`` after step k (row 0 holds its initial
    [x-hat_0 | d1-hat_0]), and ``norms[i][k - 1, j]`` is the norm of its
    residual at step k.  Steps after a mode's elimination step stay NaN.
    """

    stacks: tuple[ObserverStack, ...]
    outputs: tuple[np.ndarray, ...]  # (N+1, Q, R) per stack
    norms: tuple[np.ndarray, ...]  # (N, Q) per stack


class _StepNorms(Mapping[int, float]):
    """The residual norms of the modes stepped at step k, in bank order,
    read off the trace's norms when first used."""

    def __init__(self, trace: BankTrace, k: int, mode_set: ModeSet) -> None:
        self._trace, self._k, self._mode_set = trace, k, mode_set

    @cached_property
    def _norms(self) -> dict[int, float]:
        k, eliminated = self._k, self._mode_set.eliminated_at
        if not k:
            return {}
        norms = {
            q: norm
            for stack, stack_norms in zip(self._trace.stacks, self._trace.norms)
            for q, norm in zip(stack.modes, stack_norms[k - 1].tolist())
            if eliminated.get(q, k) == k
        }
        return dict(sorted(norms.items()))

    def __getitem__(self, q: int) -> float:
        return self._norms[q]

    def __iter__(self) -> Iterator[int]:
        return iter(self._norms)

    def __len__(self) -> int:
        return len(self._norms)


@dataclass(frozen=True)
class BankRecord:
    """The observer bank after the updates and the elimination of step k.

    `residuals` maps each mode stepped at k to its residual norm, in bank
    order (empty at k = 0).  `states` holds every mode's latest observer
    state, frozen at the elimination step for a dead mode.  Both are read
    off the run's `trace` when first used, so a record costs the same
    whatever the bank holds.  The trace's rows up to step k never change
    once the record is yielded, so a record reads the same values
    whenever it is read.
    """

    k: int
    mode_set: ModeSet
    residuals: Mapping[int, float]
    trace: BankTrace = field(repr=False, compare=False)

    def _last_step(self, q: int) -> int:
        """The step of mode q's latest state: its elimination step or k."""
        return self.mode_set.eliminated_at.get(q, self.k)

    @cached_property
    def states(self) -> tuple[ObserverState, ...]:
        states: dict[int, ObserverState] = {}
        for stack, outputs in zip(self.trace.stacks, self.trace.outputs):
            for j, q in enumerate(stack.modes):
                k = self._last_step(q)
                states[q] = stack.state(outputs[k, j], k)
        return tuple(states[q] for q in sorted(states))


BLOCK = 64  # bank steps per block pass


def iter_bank(
    config: ScenarioConfig, prepared: list[PreparedMode], truth: TruthTrajectory
) -> Iterator[BankRecord]:
    """Run the observer bank over the horizon, one record per step.

    Yields the initialized bank at k = 0, then one record per step, and
    stops after the step that empties the surviving set.  The steps run
    in blocks of ``BLOCK``, each step one ``step_observer`` call over the
    stacks of the modes that survived the previous block.  A mode dies
    at its first step with residual > threshold, so one pass per stack
    decides a block: one finiteness check, one ``residual_norms`` over
    the finite rows, and a comparison with the stack's (N, Q) thresholds
    whose first exceedance in a column is that mode's elimination step.
    The eliminations are replayed in step order through
    ``eliminate_step``, the block's records are yielded, and the
    surviving rows go on.  Rows stepped after their mode's elimination
    are discarded unread, so they may be non-finite; a non-finite row of
    a live mode raises NumericalFailure naming the first such mode at the
    first such step, after the records of the steps before it.
    """
    horizon = config.horizon
    stacks = [pm.stack for pm in prepared if pm.row == 0]  # in group order
    trace = BankTrace(
        stacks=tuple(stacks),
        outputs=tuple(
            np.full((horizon + 1, len(stack.modes), stack.step.shape[1]), np.nan)
            for stack in stacks
        ),
        norms=tuple(np.full((horizon, len(stack.modes)), np.nan) for stack in stacks),
    )
    for stack, outputs in zip(stacks, trace.outputs):
        for j, q in enumerate(stack.modes):
            pm = prepared[q]
            init = init_observer(pm.dec, pm.gains, config.system.x_hat0, truth.y[0], truth.u[0])
            outputs[0, j, : stack.n + stack.p1] = np.concatenate((init.x_hat, init.d1_hat))
    # per stack of surviving rows: the stack, its rows in the trace's
    # stack and that stack's index
    live = [(stack, np.arange(len(stack.modes)), i) for i, stack in enumerate(stacks)]
    states = [outputs[0] for outputs in trace.outputs]
    signals = np.concatenate((truth.u[:-1], truth.u[1:], truth.y[1:]), axis=1)
    mode_set = all_modes(len(prepared))
    yield BankRecord(0, mode_set, _StepNorms(trace, 0, mode_set), trace)
    for k0 in range(1, horizon + 1, BLOCK):
        live_stacks = [stack for stack, *_ in live]
        steps = []
        for k in range(k0, min(k0 + BLOCK, horizon + 1)):
            states = step_observer(live_stacks, states, signals[k - 1], k)
            steps.append(states)
        size = len(steps)
        # per live stack: its (B, Q, R) outputs and (B, Q) norms, NaN
        # after each row's elimination step, its (B, Q) thresholds, and
        # each row's elimination step in the block (size if it survives)
        passes, failures = [], []
        for (stack, *_), outs in zip(live, zip(*steps)):
            block = np.stack(outs)
            finite = np.isfinite(block).all(axis=2)
            norms = np.full(finite.shape, np.nan)
            norms[finite] = stack.residual_norms(block[finite])
            limits = stack.limits[k0 - 1 : k0 - 1 + size]
            over = norms > limits
            last = np.where(over.any(axis=0), over.argmax(axis=0), size)
            alive = np.arange(size)[:, None] <= last
            bad = np.argwhere(~finite & alive)
            if len(bad):
                b, j = bad[0].tolist()
                failures.append((b, stack.modes[j], stack.failure(j, block[b, j], k0 + b)))
            block[~alive] = norms[~alive] = np.nan
            passes.append((block, norms, limits, last))
        failure = min(failures, key=lambda bad: bad[:2], default=None)
        end = size if failure is None else failure[0]  # the block's steps recorded
        sets, current = {}, mode_set
        for b in sorted({b for *_, last in passes for b in last.tolist() if b < end}):
            checks = {
                q: (norm, limit)
                for (stack, *_), (_, norms, limits, last) in zip(live, passes)
                for q, norm, limit, alive in zip(
                    stack.modes, norms[b].tolist(), limits[b].tolist(), (last >= b).tolist()
                )
                if alive
            }
            current = sets[b] = eliminate_step(current, k0 + b, checks)
            if current.faulted:
                end = b + 1
        for (_, rows, i), (block, norms, *_) in zip(live, passes):
            trace.outputs[i][k0 : k0 + end, rows] = block[:end]
            trace.norms[i][k0 - 1 : k0 - 1 + end, rows] = norms[:end]
        for b in range(end):
            mode_set = sets.get(b, mode_set)
            yield BankRecord(k0 + b, mode_set, _StepNorms(trace, k0 + b, mode_set), trace)
        if failure is not None:
            raise failure[2]
        if mode_set.faulted:
            return
        kept_live, states = [], []
        for (stack, rows, i), (block, _, _, last) in zip(live, passes):
            keep = np.flatnonzero(last == size)
            if len(keep) == len(rows):
                kept_live.append((stack, rows, i))
                states.append(block[-1])
            elif len(keep):
                kept_live.append((stack.take(keep), rows[keep], i))
                states.append(block[-1, keep])
        live = kept_live


def _joined(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its comma-joined cells."""
    return [",".join(map(repr, row)) for row in values.tolist()]


def _mode_lines(
    pm: PreparedMode,
    table: list[list[str]],
    record: BankRecord,
    outputs: np.ndarray,
    norms: np.ndarray,
) -> list[str]:
    """One mode's residual, threshold, elimination and ball cells of the
    ``steps.csv`` rows k = 0..record.k, each row's cells joined.  `table`
    is the mode's ``threshold_rows``, and `outputs` and `norms` are the
    mode's columns of its stack's trace.  A dead mode's cells are blank
    but for the elimination flag."""
    n, p = pm.mode.n, pm.mode.p
    last = record._last_step(pm.index)
    radii = pm.radius_seq[: last + 1].tolist()
    lines = [f",,,,0,{_joined(outputs[:1, :n])[0]},{radii[0]!r}" + "," * (p + 1)]
    if last:
        n1 = n + pm.stack.p1
        # a state's k indexes its radius and k - 1 the lagged input's
        balls = np.column_stack(
            (
                outputs[1 : last + 1, :n],
                radii[1:],
                outputs[1 : last + 1, n1 : n1 + p],
                pm.input_radius_seq[:last],
            )
        )
        flags = ["0"] * last
        if pm.index in record.mode_set.eliminated_at:
            flags[-1] = "1"
        lines += [
            f"{res!r},{row[1]},{row[2]},{row[3]},{flag},{cells}"
            for res, row, flag, cells in zip(norms[:last].tolist(), table, flags, _joined(balls))
        ]
    lines += [",,,,1" + "," * (n + p + 2)] * (record.k - last)
    return lines


def _write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    """Write a header and comma-joined rows.  No cell holds a comma, a
    quote or a line break, so these are the bytes ``csv.writer`` writes."""
    path.write_text("\n".join([",".join(header), *lines, ""]), newline="")


def run(
    config: ScenarioConfig,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one scenario end to end and write all outputs.

    An empty surviving set stops the step loop and is reported as a
    fault in the outputs (the caller decides the exit code); numerical
    blow-ups raise NumericalFailure with the offending mode and step.
    ``steps.csv`` is formatted column block by column block from the
    truth and the bank's trace after the loop, not record by record.
    """
    seed = config.seed if seed is None else master_seed(int(seed))
    resolved_out = resolve_out_dir(config, out_dir)

    prepared = prepare_modes(config)
    truth = simulate_truth(config, seed)

    # the last record holds the run's trace and final surviving set
    for record in iter_bank(config, prepared, truth):
        pass
    mode_set = record.mode_set
    fault_step = record.k if mode_set.faulted else None

    tables = [threshold_rows(pm.thresholds) for pm in prepared]
    steps = range(record.k + 1)
    columns = [[str(k) for k in steps], _joined(truth.x[: record.k + 1])]
    if truth.d.shape[1]:
        columns.append(_joined(truth.d[: record.k + 1]))
    eliminated = mode_set.eliminated_at.values()
    columns.append([str(len(prepared) - sum(e <= k for e in eliminated)) for k in steps])
    trace = record.trace
    blocks = {
        q: _mode_lines(prepared[q], tables[q], record, outputs[:, j], norms[:, j])
        for stack, outputs, norms in zip(trace.stacks, trace.outputs, trace.norms)
        for j, q in enumerate(stack.modes)
    }
    columns += [blocks[q] for q in range(len(prepared))]

    steps_path = resolved_out / "steps.csv"
    _write_csv(steps_path, _steps_header(config), [",".join(row) for row in zip(*columns)])

    for pm, table in zip(prepared, tables):
        write_threshold_csv(resolved_out / f"thresholds_q{pm.index + 1}.csv", table)

    report = _build_report(config, seed, prepared, mode_set, record.states, fault_step)
    write_json(resolved_out / "report.json", report)
    (resolved_out / "report.txt").write_text(_render_report_text(report))

    return RunResult(
        out_dir=resolved_out,
        mode_set=mode_set,
        faulted=mode_set.faulted,
        fault_step=fault_step,
        steps_path=steps_path,
    )


def write_threshold_csv(path: Path, rows: list[list[str]]) -> None:
    """Write a threshold table from its ``threshold_rows``."""
    header = ["k", "delta_tri", "delta_inf", "delta_hat", "capped"]
    _write_csv(path, header, [",".join(row) for row in rows])


def resolve_out_dir(config: ScenarioConfig, out_dir: str | Path | None) -> Path:
    """Create and return out_dir, else the config's output_dir, else
    <name>_out.

    Raises
    ------
    ConfigurationError
        When the directory cannot be created, for example because the
        path or one of its parents is an existing file.
    """
    path = Path(out_dir if out_dir is not None else (config.output_dir or f"{config.name}_out"))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {str(path)!r}: {exc.strerror or exc}"
        ) from exc
    return path


def write_json(path: Path, obj) -> None:
    """Strict, sorted, indented JSON with a trailing newline."""
    path.write_text(json.dumps(json_safe(obj), indent=2, sort_keys=True) + "\n")


def json_safe(obj):
    """Recursively replace non-finite floats so the JSON stays strict.

    Dataclasses become dicts of their fields in the same single walk.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_safe(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _final_ball_payload(pm: PreparedMode, state: ObserverState) -> dict:
    payload = {
        "x_hat": [float(v) for v in state.x_hat],
        "delta_x": float(pm.radius_seq[state.k]),
    }
    if state.d_hat_prev is not None:
        payload["d_hat_prev"] = [float(v) for v in state.d_hat_prev]
        payload["delta_d_prev"] = float(pm.input_radius_seq[state.k - 1])
    return payload


def _build_report(
    config: ScenarioConfig,
    seed: int,
    prepared: list[PreparedMode],
    mode_set: ModeSet,
    states: tuple[ObserverState, ...],
    fault_step: int | None,
) -> dict:
    modes_payload = []
    for pm in prepared:
        modes_payload.append(
            {
                "mode": pm.index + 1,
                "certified": bool(pm.gains.certified),
                "theta": float(pm.gains.theta),
                "meas_contraction": float(pm.gains.meas_contraction),
                "eliminated_at": mode_set.eliminated_at.get(pm.index),
            }
        )
    final = {
        str(q + 1): _final_ball_payload(prepared[q], states[q])
        for q in mode_set.surviving
    }
    enclosing = None
    if mode_set.surviving:
        ball = bounding_ball(
            [
                Ball(center=states[q].x_hat, radius=prepared[q].radius_seq[states[q].k])
                for q in mode_set.surviving
            ]
        )
        enclosing = {
            "center": [float(v) for v in ball.center],
            "radius": float(ball.radius),
        }
    return {
        "name": config.name,
        "seed": seed,
        "true_mode": config.true_mode,
        "horizon": config.horizon,
        "allow_uncertified": config.allow_uncertified,
        "faulted": mode_set.faulted,
        "fault_step": fault_step,
        "surviving": [q + 1 for q in mode_set.surviving],
        "eliminated_at": {
            str(q + 1): step for q, step in sorted(mode_set.eliminated_at.items())
        },
        "modes": modes_payload,
        "final": final,
        "enclosing_state_ball": enclosing,
    }


def _render_report_text(report: dict) -> str:
    lines = [
        f"scenario: {report['name']}",
        f"seed: {report['seed']}",
        f"true mode: {report['true_mode']}",
        f"horizon: {report['horizon']}",
        f"faulted: {report['faulted']}"
        + (f" (step {report['fault_step']})" if report["faulted"] else ""),
        f"surviving modes: {report['surviving'] or 'none'}",
    ]
    if report["eliminated_at"]:
        pairs = ", ".join(f"{q} at k={k}" for q, k in report["eliminated_at"].items())
        lines.append(f"eliminations: {pairs}")
    for entry in report["modes"]:
        tag = "certified" if entry["certified"] else "uncertified"
        lines.append(
            f"mode {entry['mode']}: {tag}, contraction {entry['theta']:.6g}"
        )
    for q, final in sorted(report["final"].items()):
        lines.append(
            f"final mode {q}: x_hat={final['x_hat']}, delta_x={final['delta_x']:.6g}"
        )
    return "\n".join(lines) + "\n"
