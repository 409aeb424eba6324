"""Self-test of the benchmark at its smallest size (under a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced for half a second each,
and checks that each run prints exactly the metrics BENCHMARK.json names,
with their units; that no operation failed; that the tracer left no wrapper
installed; and that the package's traced layers, not the benchmark's loop
or the command-line front end, hold the traced time. Finally it runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark,
where it must fail without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import LAYERS  # noqa: E402

LAYER_TIMES = {f"{layer}_s" for layer in LAYERS}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, (workload, trace, got, units)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    if trace:
        record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
        assert record["wrappers_left"] == 0, record
        values = {name: m["value"] for name, m in result["metrics"].items()}
        traced = sum(v for name, v in values.items() if name in LAYER_TIMES)
        outside = values["bench.self_s"] + values["cli.self_s"]
        assert outside < 0.05 * traced, (workload, outside, traced)
    print(f"ok  {workload:14s} trace={trace} attempted={result['attempted']}")


def check_without_source() -> None:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "paper-run", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  without package source: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
