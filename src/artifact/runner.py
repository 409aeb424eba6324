"""Scenario execution: truth simulation, observer bank, elimination, logs.

A run follows one loop: simulate the true plant for the whole horizon,
then per step feed every surviving mode hypothesis its observer update,
compare residual norms against precomputed thresholds, and eliminate.
The gain group (``gains.BankGroup``: modes of one (n, m, l, p), drift
kind and rank(H)) is the one unit of that path.  ``gain_bank`` groups
the bank and, per group, decomposes and synthesizes gains in one
batched pass; ``prepare_modes`` turns each group into one
``ObserverStack``, the one record of a group on the run path: its step
matrices, (Q, N+1) state radii, (Q, N) lagged input radii and threshold
tables, tabulated once, so the loop does no radius arithmetic and a
state at step k reads its radius from ``radii[:, k]``.  ``run_bank``
steps those stacks as they are, with one ``observer.step_observer``
call per step written straight into the run's arrays, in blocks of
``BLOCK`` steps, and decides each block in place, in one pass per stack
over its views of those arrays: finiteness, residual norms, and one
``estimator.eliminate_step`` call, the one elimination rule, over the
block's norms and thresholds.  An eliminated mode's rows are masked,
not sliced off.  It returns one ``BankRun``: the last step, the final
surviving set and, per stack, the arrays of every output row and
residual norm, from which the final observer states are read.
``run`` formats ``steps.csv`` from those arrays, a column block per row
of a group.  ``check-detectability`` and ``thresholds`` split the
groups per mode themselves.  Everything downstream of the master seed
is deterministic, so a config plus a seed reproduces its CSV outputs
byte for byte.

Output files (see README for the column-by-column schema), each
composed before any is written, then written all or nothing by
``write_outputs``:

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

import errno
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .config import (
    BoundedRandomInput,
    GrowingRampInput,
    ScenarioConfig,
    ZeroInput,
    master_seed,
)
from .decomposition import decompose_stack
from .errors import ConfigurationError
from .estimator import Ball, ModeSet, all_modes, bounding_ball, eliminate_step
from .gains import BankGroup, radius_sequences, synthesis_errors, synthesize_gain_stack
from .observer import ObserverStack, ObserverState, init_observer, step_matrix_stack, step_observer
from .residuals import ThresholdTable, build_threshold_tables
from .system import ModeModel, ModeStack


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
        x[k + 1] = mode.f(x[k]) + bu[k] + gd[k] + ww[k]
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


def gain_bank(config: ScenarioConfig) -> list[BankGroup]:
    """Decompose and synthesize the gains of the whole bank, honoring the
    gains spec, one batched pass per group of modes of equal shape, drift
    kind and rank(H).  Groups come in order of their first mode.

    A mode that cannot get gains raises its ``synthesis_errors`` entry;
    of several, the first mode in bank order does.  No certification
    gate here; callers that require certified gains (the run loop) check
    separately.
    """
    system = config.system
    shapes: dict[tuple[int, int, int, int, bool], list[int]] = {}
    for q, mode in enumerate(system.modes):
        key = (mode.n, mode.m, mode.l, mode.p, mode.a_tilde is None)
        shapes.setdefault(key, []).append(q)
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


def prepare_modes(config: ScenarioConfig) -> list[ObserverStack]:
    """Decompose, synthesize gains, build the observer stacks and tabulate
    radii and thresholds: one batched pass per ``gain_bank`` group, in
    its order."""
    system = config.system
    groups = gain_bank(config)
    if not config.allow_uncertified:
        rows = {q: (group.gains, j) for group in groups for j, q in enumerate(group.modes)}
        for q, (gains, j) in sorted(rows.items()):
            if not gains.certified[j]:
                raise ConfigurationError(
                    f"mode {q + 1} gains are uncertified (contraction {gains.theta[j]:.4g}"
                    " >= 1); set allow_uncertified to proceed without guarantees"
                )
    stacks = []
    for group in groups:
        radii = radius_sequences(group.gains, system.delta_x0, config.horizon)
        stacks.append(
            ObserverStack(
                group,
                step_matrix_stack(group.model, group.dec, group.gains),
                radii,
                group.gains.input_radii(radii[:, :-1]),
                build_threshold_tables(group.gains, group.dec, radii, config.max_vertices),
            )
        )
    return stacks


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
class BankRun:
    """The observer bank run over the horizon, as arrays.

    `k` is the last step run: the horizon, or the step that emptied the
    surviving set, and `mode_set` the surviving set after it.  Per stack
    i, ``outputs[i][s, j]`` is the output row of mode ``stacks[i].modes[j]``
    after step s (row 0 holds its initial [x-hat_0 | d1-hat_0]), and
    ``norms[i][s - 1, j]`` is the norm of its residual at step s; rows
    after a mode's ``last_step`` stay NaN.
    """

    k: int
    mode_set: ModeSet
    stacks: tuple[ObserverStack, ...]
    outputs: tuple[np.ndarray, ...]  # (N+1, Q, R) per stack
    norms: tuple[np.ndarray, ...]  # (N, Q) per stack

    def last_step(self, q: int) -> int:
        """The step of mode q's latest state: its elimination step or k."""
        return self.mode_set.eliminated_at.get(q, self.k)

    @property
    def states(self) -> tuple[ObserverState, ...]:
        """Every mode's latest observer state, in bank order."""
        states = {
            q: stack.state(outputs[self.last_step(q), j], self.last_step(q))
            for stack, outputs in zip(self.stacks, self.outputs)
            for j, q in enumerate(stack.modes)
        }
        return tuple(states[q] for q in sorted(states))


BLOCK = 64  # bank steps per block pass


def run_bank(
    config: ScenarioConfig, stacks: list[ObserverStack], truth: TruthTrajectory
) -> BankRun:
    """Run the observer bank over the horizon; stop after the step that
    empties the surviving set.

    The steps run in blocks of ``BLOCK``, each step one ``step_observer``
    call over the stacks that hold a mode surviving the previous block,
    its outputs written straight into the run's arrays.  A stack is
    stepped whole: a mode dies at its first residual > threshold, and its
    rows after that step are masked with NaN, never sliced off.  One pass
    per stack decides a block in place, on views of the run's arrays:
    finiteness, ``residual_norms`` of the finite rows, and one
    ``eliminate_step`` call over the block's norms and thresholds, whose
    ``ModeSet`` then gives each row's end.  A non-finite row of a live
    mode (at or before its end) raises NumericalFailure naming the first
    such mode at the first such step.  Its norm is NaN, which eliminates
    nothing, so that mode outlives the step and the eliminations before
    it cannot have emptied the surviving set: a block with such a row
    never faults.
    """
    horizon = config.horizon
    stacks = tuple(stacks)
    outputs = tuple(
        np.full((horizon + 1, len(stack.modes), stack.step.shape[1]), np.nan) for stack in stacks
    )
    all_norms = tuple(np.full((horizon, len(stack.modes)), np.nan) for stack in stacks)
    for stack, out in zip(stacks, outputs):
        out[0, :, : stack.n + stack.p1] = init_observer(
            stack.group.dec, stack.group.gains, config.system.x_hat0, truth.y[0], truth.u[0]
        )
    live = list(range(len(stacks)))  # the stacks with a surviving mode
    signals = np.concatenate((truth.u[:-1], truth.u[1:], truth.y[1:]), axis=1)
    mode_set = all_modes(config.system.mode_count)
    for k0 in range(1, horizon + 1, BLOCK):
        k1 = min(k0 + BLOCK, horizon + 1)
        live_stacks = [stacks[i] for i in live]
        states = [outputs[i][k0 - 1] for i in live]
        for k in range(k0, k1):
            states = step_observer(live_stacks, states, signals[k - 1], k)
            for i, state in zip(live, states):
                outputs[i][k] = state
        failures = []
        for i in live:
            stack, block, norms = stacks[i], outputs[i][k0:k1], all_norms[i][k0 - 1 : k1 - 1]
            finite = np.isfinite(block).all(axis=2)
            norms[finite] = stack.residual_norms(block[finite])
            limits = stack.thresholds.delta_hat[:, k0 - 1 : k1 - 1]
            checks = {q: (norms[:, j], limits[j]) for j, q in enumerate(stack.modes)}
            mode_set = eliminate_step(mode_set, k0, checks)
            alive = np.arange(k0, k1)[:, None] <= [
                mode_set.eliminated_at.get(q, k1) for q in stack.modes
            ]
            bad = np.argwhere(~finite & alive)
            if len(bad):
                b, j = bad[0].tolist()
                failures.append((k0 + b, stack.modes[j], stack.failure(j, block[b, j], k0 + b)))
            block[~alive] = norms[~alive] = np.nan
        if failures:
            raise min(failures, key=lambda bad: bad[:2])[2]
        if mode_set.faulted:
            return BankRun(max(mode_set.eliminated_at.values()), mode_set, stacks, outputs, all_norms)
        live = [i for i in live if set(stacks[i].modes) & set(mode_set.surviving)]
    return BankRun(horizon, mode_set, stacks, outputs, all_norms)


def _joined(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its comma-joined cells."""
    return [",".join(map(repr, row)) for row in values.tolist()]


def _mode_lines(
    stack: ObserverStack,
    j: int,
    table: list[list[str]],
    bank: BankRun,
    outputs: np.ndarray,
    norms: np.ndarray,
) -> list[str]:
    """The residual, threshold, elimination and ball cells of row j of a
    stack in the ``steps.csv`` rows k = 0..bank.k, each row's cells
    joined.  `table` is the row's ``threshold_rows``, and `outputs` and
    `norms` are its columns of the stack's arrays.  A dead mode's cells
    are blank but for the elimination flag."""
    q, n, p = stack.modes[j], stack.n, stack.p
    last = bank.last_step(q)
    radii = stack.radii[j, : last + 1].tolist()
    lines = [f",,,,0,{_joined(outputs[:1, :n])[0]},{radii[0]!r}" + "," * (p + 1)]
    if last:
        n1 = n + stack.p1
        # a state's k indexes its radius and k - 1 the lagged input's
        balls = np.column_stack(
            (
                outputs[1 : last + 1, :n],
                radii[1:],
                outputs[1 : last + 1, n1 : n1 + p],
                stack.input_radii[j, :last],
            )
        )
        flags = ["0"] * last
        if q in bank.mode_set.eliminated_at:
            flags[-1] = "1"
        lines += [
            f"{res!r},{row[1]},{row[2]},{row[3]},{flag},{cells}"
            for res, row, flag, cells in zip(norms[:last].tolist(), table, flags, _joined(balls))
        ]
    lines += [",,,,1" + "," * (n + p + 2)] * (bank.k - last)
    return lines


def _csv_text(header: list[str], lines: list[str]) -> str:
    """A header and comma-joined rows.  No cell holds a comma, a quote
    or a line break, so these are the bytes ``csv.writer`` writes."""
    return "\n".join([",".join(header), *lines, ""])


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
    truth and the bank's arrays.  Every file's text is composed before
    any is written, so a target that is not a regular file is refused
    (ConfigurationError) before the directory changes.
    """
    seed = config.seed if seed is None else master_seed(seed)
    resolved_out = resolve_out_dir(config, out_dir)

    stacks = prepare_modes(config)
    truth = simulate_truth(config, seed)

    bank = run_bank(config, stacks, truth)
    mode_set = bank.mode_set

    count = config.system.mode_count
    tables, blocks = {}, {}
    for stack, outputs, norms in zip(bank.stacks, bank.outputs, bank.norms):
        for j, q in enumerate(stack.modes):
            tables[q] = threshold_rows(stack.thresholds.mode(j))
            blocks[q] = _mode_lines(stack, j, tables[q], bank, outputs[:, j], norms[:, j])
    steps = range(bank.k + 1)
    columns = [[str(k) for k in steps], _joined(truth.x[: bank.k + 1])]
    if truth.d.shape[1]:
        columns.append(_joined(truth.d[: bank.k + 1]))
    eliminated = mode_set.eliminated_at.values()
    columns.append([str(count - sum(e <= k for e in eliminated)) for k in steps])
    columns += [blocks[q] for q in range(count)]

    steps_path = resolved_out / "steps.csv"
    files = {steps_path: _csv_text(_steps_header(config), [",".join(row) for row in zip(*columns)])}
    for q in range(count):
        files[resolved_out / f"thresholds_q{q + 1}.csv"] = threshold_csv(tables[q])
    report = _build_report(config, seed, bank)
    files[resolved_out / "report.json"] = json_text(report)
    files[resolved_out / "report.txt"] = _render_report_text(report)
    write_outputs(files)

    return RunResult(
        out_dir=resolved_out,
        mode_set=mode_set,
        faulted=mode_set.faulted,
        fault_step=report["fault_step"],
        steps_path=steps_path,
    )


def threshold_csv(rows: list[list[str]]) -> str:
    """The CSV text of a threshold table from its ``threshold_rows``."""
    header = ["k", "delta_tri", "delta_inf", "delta_hat", "capped"]
    return _csv_text(header, [",".join(row) for row in rows])


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


def write_outputs(files: dict[Path, str]) -> None:
    """Write each path's text, its lines ended by "\\n" alone, or none of
    them.  A path held by anything but a regular file (a directory, say)
    is refused before any file is written.  Each text goes to a temporary
    sibling, and the siblings replace their paths only once every write
    has succeeded; a write that fails removes them and is a
    ConfigurationError too, so the paths keep what they held."""
    for path in files:
        if path.exists() and not path.is_file():
            reason = os.strerror(errno.EISDIR) if path.is_dir() else "not a regular file"
            raise ConfigurationError(f"cannot write {str(path)!r}: {reason}")
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    try:
        for path, text in files.items():
            temps[path].write_text(text, newline="")
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as exc:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def json_text(obj) -> str:
    """Strict, sorted, indented JSON with a trailing newline."""
    return json.dumps(json_safe(obj), indent=2, sort_keys=True) + "\n"


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


def _final_ball_payload(stack: ObserverStack, j: int, state: ObserverState) -> dict:
    payload = {
        "x_hat": [float(v) for v in state.x_hat],
        "delta_x": float(stack.radii[j, state.k]),
    }
    if state.d_hat_prev is not None:
        payload["d_hat_prev"] = [float(v) for v in state.d_hat_prev]
        payload["delta_d_prev"] = float(stack.input_radii[j, state.k - 1])
    return payload


def _build_report(config: ScenarioConfig, seed: int, bank: BankRun) -> dict:
    mode_set, states = bank.mode_set, bank.states
    modes, final = {}, {}
    for stack in bank.stacks:
        gains = stack.group.gains
        for j, q in enumerate(stack.modes):
            modes[q] = {
                "mode": q + 1,
                "certified": bool(gains.certified[j]),
                "theta": float(gains.theta[j]),
                "meas_contraction": float(gains.meas_contraction[j]),
                "eliminated_at": mode_set.eliminated_at.get(q),
            }
            if q in mode_set.surviving:
                final[q] = _final_ball_payload(stack, j, states[q])
    enclosing = None
    if mode_set.surviving:
        ball = bounding_ball(
            [Ball(center=states[q].x_hat, radius=final[q]["delta_x"]) for q in mode_set.surviving]
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
        "fault_step": bank.k if mode_set.faulted else None,
        "surviving": [q + 1 for q in mode_set.surviving],
        "eliminated_at": {
            str(q + 1): step for q, step in sorted(mode_set.eliminated_at.items())
        },
        "modes": [modes[q] for q in sorted(modes)],
        "final": {str(q + 1): final[q] for q in mode_set.surviving},
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
