"""``tools/snapshot_outputs.py`` writes every file a byte-identity check
between two checkouts compares; two snapshots of one checkout must be
byte-identical, or ``diff -r`` of a parent's and a change's snapshots
would show noise instead of changed outputs.  ``tools/compare_snapshots.py``
turns two snapshots into a ledger of what changed, and must report
nothing for a snapshot against itself and exactly what was edited in a
copy."""
from __future__ import annotations

import importlib.util
import math
import shutil
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
    tool = _load("snapshot_outputs")
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


def test_a_snapshot_compared_with_itself_reports_nothing_changed(tmp_path) -> None:
    _load("snapshot_outputs").snapshot(tmp_path / "snap", ["linear_bench"])
    ledger = _load("compare_snapshots").compare(tmp_path / "snap", tmp_path / "snap")
    assert len(ledger["commands"]) == 5
    assert all(entry == {"exit": [0, 0]} for entry in ledger["commands"].values())
    assert ledger["files_compared"] == len(_files(tmp_path / "snap")) - 1
    for key in ("exit_codes_changed", "stderr_changed", "added", "removed"):
        assert ledger[key] == [], key
    assert ledger["changed"] == {}
    totals = ledger["float_cells_changed"], ledger["looser_cells"], ledger["exact_changes"]
    assert totals == (0, 0, 0)
    assert ledger["max_rel_change"] == 0.0


def test_a_raised_threshold_cell_is_reported_exactly(tmp_path) -> None:
    # one delta_tri cell raised, one capped flag flipped, one exit code
    # changed and one file removed, each reported where it happened
    old, new = tmp_path / "old", tmp_path / "new"
    _load("snapshot_outputs").snapshot(old, ["linear_bench"])
    shutil.copytree(old, new)
    table = new / "linear_bench" / "thresholds" / "thresholds_q1.csv"
    lines = table.read_text().split("\n")
    assert lines[0] == "k,delta_tri,delta_inf,delta_hat,capped"
    k3, k5 = lines[3].split(","), lines[5].split(",")
    was, capped = k3[1], k5[4]
    k3[1] = repr(float(was) * (1.0 + 2.0**-20))
    k5[4] = "0" if capped == "1" else "1"
    lines[3], lines[5] = ",".join(k3), ",".join(k5)
    table.write_text("\n".join(lines))
    (new / "linear_bench" / "detectability" / "detectability.txt").unlink()
    log = (new / "commands.txt").read_text()
    command = "linear_bench/detectability: artifact check-detectability --config linear_bench.yaml"
    assert f"{command}: exit 0\n" in log
    (new / "commands.txt").write_text(log.replace(f"{command}: exit 0\n", f"{command}: exit 1\n"))

    ledger = _load("compare_snapshots").compare(old, new)
    assert ledger["commands"][command] == {"exit": [0, 1]}
    assert ledger["exit_codes_changed"] == [command]
    assert ledger["stderr_changed"] == [] and ledger["added"] == []
    assert ledger["removed"] == ["linear_bench/detectability/detectability.txt"]
    assert list(ledger["changed"]) == ["linear_bench/thresholds/thresholds_q1.csv"]
    report = ledger["changed"]["linear_bench/thresholds/thresholds_q1.csv"]
    rel = (float(k3[1]) - float(was)) / float(was)
    assert report["cells"] == [{"at": "k=3 delta_tri", "old": was, "new": k3[1], "rel": rel}]
    assert math.isclose(rel, 2.0**-20, rel_tol=1e-9)
    assert report["max_rel_change"] == ledger["max_rel_change"] == rel
    assert report["looser"] == {"delta_tri": {"cells": 1, "first_k": "3"}}
    assert report["exact"] == [{"at": "k=5 capped", "old": capped, "new": k5[4]}]
    totals = ledger["float_cells_changed"], ledger["looser_cells"], ledger["exact_changes"]
    assert totals == (1, 1, 1)
