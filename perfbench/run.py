"""Benchmark of the observer bank: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; workload and metric names and
units come from its BENCHMARK.json. The workload runs in a fresh
Python process (worker.py) with the checkout's `src` on PYTHONPATH and
single-threaded BLAS; interpreter start-up and imports are outside every
timed region. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker first runs half the time untraced, then half traced, and the
metrics are the per-layer ones (see README.md in this directory).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 170


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten operations beyond it.

    Returns (value, percentile). With fewer than 11 operations no such
    percentile exists and the maximum is returned with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def import_seconds(launches: int = 3) -> float:
    """Median time of `import artifact.cli` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import artifact.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(launches):
        out = subprocess.run(
            [sys.executable, "-c", code], env=worker_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_worker(args: argparse.Namespace, work: Path) -> dict:
    result_path = work / "result.json"
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "work": str(work),
        "result": str(result_path),
        "spans": str(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json.gz"),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
        env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "artifact" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    started = time.time()
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            res = run_worker(args, Path(tmp))
        import_s = import_seconds() if args.trace else None
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = res["op_times"]
    tail_s, tail_pct = tail(ops)
    calib = res["calib_s"]
    if args.trace:
        values = res["layers"]
        values["import_s"] = import_s
        values["host.calib_s"] = statistics.fmean(calib)
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s_min": min(ops),
            "setup_s": statistics.median(res["setup_times"]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    op_seconds = sum(ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "blas": res["blas"],
        },
        "ops": len(ops),
        "setup_reps": len(res["setup_times"]),
        "run_s_p50": statistics.median(ops),
        "run_s_tail": tail_s,
        "tail_percentile": tail_pct,
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "steps_per_op_s": res["steps"] / op_seconds if op_seconds else 0.0,
        "calib_s": {"start": calib[0], "end": calib[-1]},
        "wrappers_left": res.get("wrappers_left"),
        "accounted_frac": res.get("accounted_frac"),
        "spans": res.get("spans"),
        "wall_s": time.time() - started,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    host = record["host"]
    print(
        f"host: {host['cpu']}, nproc {host['nproc']}, python {host['python']}, "
        f"numpy {host['numpy']}, {host['blas']}"
    )
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(
        f"  ops {len(ops)}, run_s_p50 {record['run_s_p50']:.6g} s, "
        f"run_s_tail {tail_s:.6g} s (p{tail_pct:.0f}), attempted {res['attempted']}, "
        f"failed {res['failed']}, fail_frac {record['fail_frac']:.3g}, "
        f"steps_per_op_s {record['steps_per_op_s']:.6g}"
    )
    for message in res["failures"]:
        print(f"  failure: {message}")
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
