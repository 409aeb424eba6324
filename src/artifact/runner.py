"""Scenario execution: truth simulation, observer bank, elimination, logs.

A run follows one loop: simulate the true plant for the whole horizon,
then per step feed every surviving mode hypothesis its observer update,
compare residual norms against precomputed thresholds, and eliminate.
That loop is written once, as the generator ``iter_bank``: it yields a
``BankRecord`` (step, surviving set, every mode's latest observer state,
residual norms of the modes stepped) for k = 0 and after every step, and
``run`` only formats those records.  The loop does no radius arithmetic:
``prepare_modes`` tabulates each mode's state radii once, and a state at
step k reads its radius from ``radius_seq[k]``.  Everything downstream of
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

import csv
import json
import math
from collections.abc import Iterator, Sequence
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
from .decomposition import ModeDecomposition, decompose
from .errors import ConfigurationError, NumericalFailure
from .estimator import Ball, ModeSet, all_modes, bounding_ball, eliminate_step
from .gains import ObserverGains, radius_sequence, synthesize_gains
from .observer import ObserverState, init_observer, step_matrix, step_observer
from .residuals import ThresholdReport, build_threshold_table
from .system import ModeModel, eval_field


def uniform_ball(rng: np.random.Generator, radius: float, dim: int) -> np.ndarray:
    """Uniform draw from the closed Euclidean ball of the given radius."""
    if dim == 0:
        return np.zeros(0)
    direction = rng.normal(size=dim)
    nrm = float(np.linalg.norm(direction))
    while nrm == 0.0:
        direction = rng.normal(size=dim)
        nrm = float(np.linalg.norm(direction))
    return direction / nrm * radius * rng.uniform() ** (1.0 / dim)


def simulate_plant(
    mode: ModeModel,
    x_k: np.ndarray,
    u_k: np.ndarray,
    d_k: np.ndarray,
    w_k: np.ndarray,
    v_k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One true-plant step: returns (x_{k+1}, y_k)."""
    x_next = (
        eval_field(mode.field, x_k) + mode.b @ u_k + mode.g @ d_k + mode.w @ w_k
    )
    y_k = mode.c @ x_k + mode.d @ u_k + mode.h @ d_k + v_k
    return x_next, y_k


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

    x0 = system.x_hat0 + uniform_ball(rng_x0, system.delta_x0, n)

    signal = config.unknown_input
    if isinstance(signal, BoundedRandomInput):
        d = np.stack(
            [uniform_ball(rng_d, signal.bound, p) for _ in range(horizon + 1)]
        )
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

    w = np.stack([uniform_ball(rng_w, eta_w, n) for _ in range(horizon)])
    v = np.stack([uniform_ball(rng_v, eta_v, l) for _ in range(horizon + 1)])

    x = np.zeros((horizon + 1, n))
    y = np.zeros((horizon + 1, l))
    x[0] = x0
    for k in range(horizon):
        x[k + 1], y[k] = simulate_plant(mode, x[k], u[k], d[k], w[k], v[k])
    # the final step only reads the output; its state update is discarded
    _, y[horizon] = simulate_plant(
        mode, x[horizon], u[horizon], d[horizon], np.zeros(n), v[horizon]
    )
    return TruthTrajectory(x=x, y=y, u=u, d=d, w=w, v=v)


@dataclass(frozen=True)
class PreparedMode:
    """Per-hypothesis precomputation shared by every seed."""

    index: int  # 0-based
    mode: ModeModel
    dec: ModeDecomposition
    gains: ObserverGains
    step_matrix: np.ndarray  # observer.step_matrix of this mode
    radius_seq: np.ndarray  # state radii for k = 0..horizon
    thresholds: tuple[ThresholdReport, ...]  # k = 1..horizon


def gain_bank(
    config: ScenarioConfig,
) -> list[tuple[ModeDecomposition, ObserverGains]]:
    """Decompose and synthesize gains per mode, honoring the gains spec.

    No certification gate here; callers that require certified gains
    (the run loop) check separately.
    """
    system = config.system
    bank: list[tuple[ModeDecomposition, ObserverGains]] = []
    for q, mode in enumerate(system.modes):
        dec = decompose(mode)
        eta_w, eta_v = system.eta_w[q], system.eta_v[q]
        spec = config.gains
        user_gain = spec.matrices[q] if spec.kind == "user" else None
        gains = synthesize_gains(mode, dec, eta_w=eta_w, eta_v=eta_v, user_gain=user_gain)
        if spec.kind == "scaled":
            # the scaled gain is a multiple of the heuristic one
            gains = synthesize_gains(
                mode, dec, eta_w=eta_w, eta_v=eta_v, user_gain=spec.factor * gains.l_gain
            )
        bank.append((dec, gains))
    return bank


def prepare_modes(config: ScenarioConfig) -> list[PreparedMode]:
    """Decompose, synthesize gains, build the observer step and tabulate
    thresholds per mode."""
    system = config.system
    out: list[PreparedMode] = []
    for q, (mode, (dec, gains)) in enumerate(zip(system.modes, gain_bank(config))):
        if not gains.certified and not config.allow_uncertified:
            raise ConfigurationError(
                f"mode {q + 1} gains are uncertified (contraction {gains.theta:.4g}"
                " >= 1); set allow_uncertified to proceed without guarantees"
            )
        radius_seq = radius_sequence(gains, system.delta_x0, config.horizon)
        thresholds = tuple(build_threshold_table(gains, dec, radius_seq, config.max_vertices))
        out.append(
            PreparedMode(
                index=q,
                mode=mode,
                dec=dec,
                gains=gains,
                step_matrix=step_matrix(mode, dec, gains),
                radius_seq=radius_seq,
                thresholds=thresholds,
            )
        )
    return out


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


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _fmt_all(values: np.ndarray) -> list[str]:
    """The cells of a 1-D float array, formatted like ``_fmt``."""
    return [repr(val) for val in values.tolist()]


def threshold_rows(thresholds: Sequence[ThresholdReport]) -> list[list[str]]:
    """The cells of a threshold table, one row per step: k, delta_tri,
    delta_inf (empty when capped), delta_hat and the capped flag.
    ``steps.csv`` reuses the three threshold cells of each row."""
    return [
        [
            str(report.k),
            _fmt(report.delta_tri),
            "" if report.capped else _fmt(report.delta_inf),
            _fmt(report.delta_hat),
            str(int(report.capped)),
        ]
        for report in thresholds
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
class BankRecord:
    """The observer bank after the updates and the elimination of step k.

    `states` holds every mode's latest observer state, frozen at the
    elimination step for a dead mode; `residuals` maps each mode stepped
    at k to its residual norm (empty at k = 0).
    """

    k: int
    mode_set: ModeSet
    states: tuple[ObserverState, ...]
    residuals: dict[int, float]


def iter_bank(
    config: ScenarioConfig, prepared: list[PreparedMode], truth: TruthTrajectory
) -> Iterator[BankRecord]:
    """Run the observer bank over the horizon, one record per step.

    Yields the initialized bank at k = 0, then one record per step, and
    stops after the step that empties the surviving set.  Numerical
    blow-ups raise NumericalFailure naming the offending mode.
    """
    states = [
        init_observer(pm.dec, pm.gains, config.system.x_hat0, truth.y[0], truth.u[0])
        for pm in prepared
    ]
    mode_set = all_modes(len(prepared))
    yield BankRecord(k=0, mode_set=mode_set, states=tuple(states), residuals={})
    for k in range(1, config.horizon + 1):
        checks: dict[int, tuple[float, float]] = {}
        for q in mode_set.surviving:
            pm = prepared[q]
            try:
                state = step_observer(
                    states[q], pm.mode, pm.step_matrix, truth.u[k - 1], truth.u[k], truth.y[k]
                )
            except NumericalFailure as exc:
                raise NumericalFailure(f"mode {q + 1}: {exc}") from exc
            states[q] = state
            res = state.residual
            checks[q] = (math.sqrt(res @ res), pm.thresholds[k - 1].delta_hat)
        mode_set = eliminate_step(mode_set, k, checks)
        residuals = {q: res_norm for q, (res_norm, _) in checks.items()}
        yield BankRecord(k=k, mode_set=mode_set, states=tuple(states), residuals=residuals)
        if mode_set.faulted:
            return


def _mode_cells(pm: PreparedMode, table: list[list[str]], record: BankRecord) -> list[str]:
    """One mode's residual, threshold, elimination and ball columns;
    `table` is the mode's ``threshold_rows``."""
    q, mode = pm.index, pm.mode
    if record.k == 0:
        cells = ["", "", "", "", "0"]
    elif q not in record.residuals:  # eliminated before this step
        return ["", "", "", "", "1"] + [""] * (mode.n + 1 + mode.p + 1)
    else:
        cells = [
            _fmt(record.residuals[q]),
            *table[record.k - 1][1:4],
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
    return cells


def run(
    config: ScenarioConfig,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one scenario end to end and write all outputs.

    An empty surviving set stops the step loop and is reported as a
    fault in the outputs (the caller decides the exit code); numerical
    blow-ups raise NumericalFailure with the offending mode and step.
    """
    seed = config.seed if seed is None else master_seed(int(seed))
    resolved_out = resolve_out_dir(config, out_dir)

    prepared = prepare_modes(config)
    truth = simulate_truth(config, seed)

    tables = [threshold_rows(pm.thresholds) for pm in prepared]
    rows: list[list[str]] = []
    for record in iter_bank(config, prepared, truth):
        cells = [str(record.k)]
        cells += _fmt_all(truth.x[record.k])
        cells += _fmt_all(truth.d[record.k])
        cells.append(str(len(record.mode_set.surviving)))
        for pm, table in zip(prepared, tables):
            cells += _mode_cells(pm, table, record)
        rows.append(cells)
    mode_set = record.mode_set
    fault_step = record.k if mode_set.faulted else None

    steps_path = resolved_out / "steps.csv"
    with steps_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_steps_header(config))
        writer.writerows(rows)

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
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "delta_tri", "delta_inf", "delta_hat", "capped"])
        writer.writerows(rows)


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
        payload["delta_d_prev"] = pm.gains.input_radius(pm.radius_seq[state.k - 1])
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
