"""Runs one benchmark workload inside a fresh process and writes a JSON result.

Started by `run.py` with the package's `src` directory on PYTHONPATH and
single-threaded BLAS. The only argument is a JSON object with the keys
workload, seed, seconds, trace, work (a scratch directory inside the
checkout), result (the path to write) and spans (where the traced run
writes its spans).

Every workload calls the package only through its public functions, looked
up on their modules at call time so that the tracer's wrappers take effect.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from artifact import cli, config, runner
from artifact.scenarios import scenario_path

from tracer import COUNTS, LAYERS, Tracer, WarningCounter, wrappers_left

# `artifact check-detectability --config scenario1` verdict of the first
# benchmarked version; a different verdict is a changed output.
DETECTABILITY_VERDICT = "fail"


def _finite_json(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, str):
        return obj.lower() not in ("inf", "-inf", "+inf", "nan", "infinity", "-infinity")
    if isinstance(obj, dict):
        return all(_finite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_json(v) for v in obj)
    return True


def _finite_csv(path: Path) -> bool:
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return all(not cell or math.isfinite(float(cell)) for row in rows for cell in row)


@dataclass(frozen=True)
class Outcome:
    """Result of one operation's output checks.

    `steps` counts the bank steps in the steps.csv files of a passing
    operation (0 for a failing one); `written` counts bytes of output files.
    """

    ok: bool
    steps: int = 0
    written: int = 0
    message: str = ""


class Workload:
    """Set-up, operations and output checks of one workload.

    `setup()` is the one-time work before the first operation, repeated
    `setup_reps` times per run for a steady median. `op(seed)` is the
    timed operation; it returns a function that checks its outputs after
    the timer has stopped.
    """

    setup_reps = 15

    def __init__(self, work: Path) -> None:
        self.work = work


class PaperRun(Workload):
    """`artifact run` on scenario1 then scenario2 (H=100, five modes).

    Its set-up is scenario1's shared bank: gains and threshold tables.
    """

    def setup(self) -> None:
        runner.prepare_modes(config.load_config(scenario_path("scenario1")))

    def op(self, seed: int):
        outs = []
        codes = []
        for name in ("scenario1", "scenario2"):
            out = Path(tempfile.mkdtemp(dir=self.work))
            outs.append(out)
            codes.append(
                cli.main(["run", "--config", name, "--seed", str(seed), "--out", str(out)])
            )
        return lambda: self._check(outs, codes)

    def _check(self, outs, codes) -> Outcome:
        try:
            steps = written = 0
            for out, code in zip(outs, codes):
                if code != 0:
                    return Outcome(False, steps, written, f"exit {code}")
                report = json.loads((out / "report.json").read_text())
                if report["true_mode"] not in report["surviving"]:
                    return Outcome(False, steps, written, "true mode eliminated")
                files = sorted(out.iterdir())
                written += sum(f.stat().st_size for f in files)
                for f in files:
                    if f.suffix == ".csv" and not _finite_csv(f):
                        return Outcome(False, steps, written, f"non-finite value in {f.name}")
                    if f.suffix == ".json" and not _finite_json(json.loads(f.read_text())):
                        return Outcome(False, steps, written, f"non-finite value in {f.name}")
                with (out / "steps.csv").open() as fh:
                    steps += sum(1 for _ in fh) - 2  # header and k = 0
            return Outcome(True, steps, written)
        finally:
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)


class Detectability(Workload):
    """`artifact check-detectability` on scenario1 (k=2000 recursion).

    Its set-up is the gain bank that the check needs, without thresholds.
    """

    def setup(self) -> None:
        runner.gain_bank(config.load_config(scenario_path("scenario1")))

    def op(self, seed: int):
        out = Path(tempfile.mkdtemp(dir=self.work))
        code = cli.main(["check-detectability", "--config", "scenario1", "--out", str(out)])
        return lambda: self._check(out, code)

    def _check(self, out, code) -> Outcome:
        try:
            if code != 0:
                return Outcome(False, message=f"exit {code}")
            verdict = json.loads((out / "detectability.json").read_text())["overall"]
            if verdict != DETECTABILITY_VERDICT:
                return Outcome(False, message=f"verdict {verdict!r}")
            return Outcome(True)
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {
    "paper-run": PaperRun,
    "detectability": Detectability,
}


def calibrate() -> float:
    """Best of three timings of a fixed numpy kernel that uses no package code."""
    a = np.random.default_rng(0).standard_normal((96, 96))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(160):
            b = a @ a
            np.linalg.svd(b[:24, :24])
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Phase:
    """Timed set-ups and operations of one phase (untraced or traced)."""

    setup_times: list[float] = field(default_factory=list)
    op_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    written: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, elapsed: float, outcome: Outcome) -> None:
        self.op_times.append(elapsed)
        self.attempted += 1
        self.steps += outcome.steps
        self.written += outcome.written
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(outcome.message)


def run_phase(wl: Workload, reps: int, seconds: float, seeds,
              span=contextlib.nullcontext) -> Phase:
    """`reps` set-ups and as many operations as fit in `seconds` of wall time.

    The set-ups are spread evenly over the phase, the first before any
    operation, so that they sample the same host conditions as the
    operations. At least one operation runs.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(phase.setup_times)
        if done < reps and elapsed >= seconds * done / reps:
            gc.collect()
            with span():
                t0 = time.perf_counter()
                wl.setup()
                phase.setup_times.append(time.perf_counter() - t0)
            continue
        if done == reps and phase.attempted and elapsed >= seconds:
            return phase
        seed = seeds.randrange(2**32)
        gc.collect()
        with span():
            t0 = time.perf_counter()
            try:
                check = wl.op(seed)
            except Exception as exc:  # counted as a failed operation
                message = f"{type(exc).__name__}: {exc}"
                check = lambda: Outcome(False, message=message)  # noqa: E731
            elapsed = time.perf_counter() - t0
        try:
            outcome = check()
        except Exception as exc:  # a check that cannot read the outputs fails
            outcome = Outcome(False, message=f"check: {type(exc).__name__}: {exc}")
        phase.record(elapsed, outcome)


def layer_metrics(tracer: Tracer, split: int, setup_counts: dict, ops: int,
                  warn_setup: int, warn_ops: int) -> dict:
    """Per-layer figures for one set-up plus one mean operation.

    Spans before index `split` belong to the traced set-up, the rest to
    `ops` traced operations. Also returns "_unit_s", the sum of all self
    times, which equals the traced set-up plus the mean traced operation.
    """
    setup_self = tracer.self_times(0, split)
    ops_self = tracer.self_times(split, len(tracer.spans))
    per_unit = {
        layer: setup_self.get(layer, 0.0) + ops_self.get(layer, 0.0) / ops
        for layer in set(setup_self) | set(ops_self)
    }
    out = {f"{layer}_s": per_unit.get(layer, 0.0) for layer in LAYERS}
    for key in COUNTS:
        in_setup = setup_counts.get(key, 0)
        out[key] = in_setup + (tracer.counts.get(key, 0) - in_setup) / ops
    step_calls = tracer.counts.get("observer.steps", 0)
    step_time = setup_self.get("observer.step", 0.0) + ops_self.get("observer.step", 0.0)
    out["observer.step_us"] = 1e6 * step_time / step_calls if step_calls else 0.0
    useful = out["residuals.entries"] - out["residuals.capped"]
    out["residuals.inf_useful_ratio"] = out["residuals.inf_wins"] / useful if useful else 0.0
    out["warnings.runtime"] = warn_setup + warn_ops / ops
    out["_unit_s"] = sum(per_unit.values())
    return out


def run_traced(wl: Workload, seconds: float, seeds, spans_path: str):
    """One traced set-up, then traced operations for `seconds`.

    Returns the operations' phase, the per-layer results and the traced
    time of one set-up plus one mean operation. The tracer's wrappers are
    removed before returning, also on error.
    """
    tracer = Tracer()
    tracer.install()
    try:
        with WarningCounter() as warn:
            gc.collect()
            with tracer.span():
                wl.setup()
            split = len(tracer.spans)
            setup_counts = dict(tracer.counts)
            warn_setup = warn.count
            ops = run_phase(wl, 0, seconds, seeds, span=tracer.span)
            warn_ops = warn.count - warn_setup
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    layers = layer_metrics(tracer, split, setup_counts, ops.attempted, warn_setup, warn_ops)
    layers["runner.bytes_written"] = ops.written / ops.attempted
    unit_s = layers.pop("_unit_s")
    return ops, unit_s, {
        "layers": layers,
        "wrappers_left": wrappers_left(),
        "spans": len(tracer.spans),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    work = Path(spec["work"])
    wl = WORKLOADS[spec["workload"]](work)
    seeds = random.Random(spec["seed"])
    seconds = float(spec["seconds"])
    calib = [calibrate()]

    if spec["trace"]:
        plain = run_phase(wl, 1, seconds / 2, seeds)
        traced, unit_s, result = run_traced(wl, seconds / 2, seeds, spec["spans"])
        plain_op = statistics.fmean(plain.op_times)
        result["layers"]["trace.overhead_frac"] = (
            statistics.fmean(traced.op_times) / plain_op - 1.0
        )
        # The layers' self times over the same work untraced; it should
        # read 1 + trace.overhead_frac, give or take host noise.
        result["accounted_frac"] = unit_s / (plain.setup_times[0] + plain_op)
        phases = [plain, traced]
    else:
        plain = run_phase(wl, wl.setup_reps, seconds, seeds)
        phases = [plain]
        result = {}
    calib.append(calibrate())

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    result.update(
        {
            "setup_times": plain.setup_times,
            "op_times": plain.op_times,
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "failures": [m for p in phases for m in p.failures][:5],
            "steps": plain.steps,
            "calib_s": calib,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        }
    )
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
