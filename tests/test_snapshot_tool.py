"""``tools/snapshot_outputs.py`` writes every file a byte-identity check
between two checkouts compares; two snapshots of one checkout must be
byte-identical, or ``diff -r`` of a parent's and a change's snapshots
would show noise instead of changed outputs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "snapshot_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_snapshots_of_linear_bench_hold_every_compared_file_alike(tmp_path) -> None:
    tool = _load_tool()
    tool.snapshot(tmp_path / "first", ["linear_bench"])
    tool.snapshot(tmp_path / "second", ["linear_bench"])
    first = _files(tmp_path / "first")
    runs = {
        f"linear_bench/run-seed-{seed}/{name}"
        for seed in ("config", "0", "7")
        for name in ("steps.csv", "thresholds_q1.csv", "report.json", "report.txt")
    }
    assert set(first) == runs | {
        "commands.txt",
        "linear_bench/detectability/detectability.json",
        "linear_bench/detectability/detectability.txt",
        "linear_bench/thresholds/thresholds_q1.csv",
        "linear_bench/detectability-k60/detectability.json",
        "linear_bench/detectability-k120/detectability.json",
    }
    assert first == _files(tmp_path / "second")
    log = first["commands.txt"].decode().splitlines()
    assert len(log) == 5 and all(line.endswith(": exit 0") for line in log)
    reports = [first[f"linear_bench/run-seed-{seed}/report.json"] for seed in ("0", "7")]
    assert reports[0] != reports[1]
