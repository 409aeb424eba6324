"""Compare two output snapshots and print their behaviour ledger.

    python tools/compare_snapshots.py OLD NEW

OLD and NEW are directories written by ``tools/snapshot_outputs.py``.
The ledger is one JSON object on standard output:

* ``commands``: every command of either ``commands.txt`` with its old and
  new exit codes (null where a snapshot lacks the command);
  ``exit_codes_changed`` and ``stderr_changed`` name the commands whose
  exit code or printed stderr differs;
* ``added`` and ``removed``: the files only NEW or only OLD holds;
* ``changed``: each file that both hold and whose bytes differ.  A CSV
  cell is exact when its column is (``tests/test_golden.py``'s rule:
  ``EXACT_COLUMNS`` and ``elim_q*``) or when either side is empty, and
  a JSON value is exact unless both sides are floats; a changed exact
  value is listed under ``exact``.  Every other changed value is a float
  cell, listed under ``cells`` with its relative change
  |new - old| / |old|.  A raised cell of a radius or threshold column
  (``dx_q*``, ``dd_q*``, ``tri_q*``, ``inf_q*`` and ``hat_q*`` of
  ``steps.csv``; ``delta_tri``, ``delta_inf`` and ``delta_hat`` of a
  thresholds table) got looser: ``looser`` gives, per such column, the
  count of looser cells and the first k of one.  Any other file reports
  the count of lines that differ;
* totals over the changed files: ``float_cells_changed``,
  ``max_rel_change``, ``looser_cells`` and ``exact_changes``.

A relative change that is not finite reads "inf".  Two snapshots hold
the same behaviour when ``added``, ``removed``, ``changed``,
``exit_codes_changed`` and ``stderr_changed`` are all empty.  The tool
exits 0 whatever changed, and 2 on bad arguments.
"""
from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = "commands.txt"
ABSENT = "<absent>"
BOUND_COLUMN = re.compile(r"(dx|dd|tri|inf|hat)_q\d+|delta_(tri|inf|hat)")


def _golden():
    """tests/test_golden.py, whose ``_exact_column`` is the one rule of
    which columns compare exactly."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("test_golden", ROOT / "tests" / "test_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _number(value: float) -> float | str:
    return value if math.isfinite(value) else "inf"


def _float(number: float | str) -> float:
    return math.inf if number == "inf" else number


def _rel_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def _commands(root: Path) -> dict[str, tuple[int, list[str]]]:
    """command -> (exit code, stderr lines) of a snapshot's commands.txt,
    each command named by its line there ("<scenario>/<folder>: artifact
    <arguments>")."""
    path = root / COMMANDS
    commands: dict[str, tuple[int, list[str]]] = {}
    if not path.is_file():
        return commands
    name = None
    for line in path.read_text().splitlines():
        if line.startswith("  ") and name is not None:
            commands[name][1].append(line[2:])
        elif line:
            name, _, code = line.rpartition(": exit ")
            commands[name] = (int(code), [])
    return commands


class _FileLedger:
    """The changes found in one file."""

    def __init__(self) -> None:
        self.cells: list[dict] = []
        self.exact: list[dict] = []
        self.looser: dict[str, dict] = {}

    def exact_change(self, at: str, old, new) -> None:
        self.exact.append({"at": at, "old": old, "new": new})

    def float_change(self, at: str, old: float, new: float, column: str = "", k: str = "") -> None:
        rel = _rel_change(old, new)
        if rel == 0.0:
            return
        self.cells.append({"at": at, "old": repr(old), "new": repr(new), "rel": _number(rel)})
        if BOUND_COLUMN.fullmatch(column) and new > old:
            entry = self.looser.setdefault(column, {"cells": 0, "first_k": k})
            entry["cells"] += 1

    def report(self) -> dict:
        return {
            "float_cells_changed": len(self.cells),
            "max_rel_change": _number(max((_float(c["rel"]) for c in self.cells), default=0.0)),
            "looser": self.looser,
            "exact": self.exact,
            "cells": self.cells,
        }


def _compare_csv(old: str, new: str, exact_column) -> dict:
    ledger = _FileLedger()
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    header = old_rows[0] if old_rows else []
    if header != (new_rows[0] if new_rows else []):
        ledger.exact_change("header", ",".join(header), ",".join(new_rows[0] if new_rows else []))
        return ledger.report()
    if len(old_rows) != len(new_rows):
        ledger.exact_change("rows", len(old_rows) - 1, len(new_rows) - 1)
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        k = old_row[0] if old_row else ""
        for column, old_cell, new_cell in zip(header, old_row, new_row):
            if old_cell == new_cell:
                continue
            at = f"k={k} {column}"
            if exact_column(column) or old_cell == "" or new_cell == "":
                ledger.exact_change(at, old_cell, new_cell)
            else:
                ledger.float_change(at, float(old_cell), float(new_cell), column, k)
    return ledger.report()


def _compare_json(old, new, at: str, ledger: _FileLedger) -> None:
    if isinstance(old, float) and isinstance(new, float):
        ledger.float_change(at, old, new)
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            where = f"{at}.{key}" if at else key
            if key in old and key in new:
                _compare_json(old[key], new[key], where, ledger)
            else:
                ledger.exact_change(where, old.get(key, ABSENT), new.get(key, ABSENT))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (old_item, new_item) in enumerate(zip(old, new)):
            _compare_json(old_item, new_item, f"{at}[{i}]", ledger)
    elif type(old) is not type(new) or old != new:
        ledger.exact_change(at, old, new)


def _compare_file(path: str, old: bytes, new: bytes, exact_column) -> dict:
    old_text, new_text = old.decode(), new.decode()
    if path.endswith(".csv"):
        return _compare_csv(old_text, new_text, exact_column)
    if path.endswith(".json"):
        ledger = _FileLedger()
        _compare_json(json.loads(old_text), json.loads(new_text), "", ledger)
        return ledger.report()
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    differing = sum(a != b for a, b in zip(old_lines, new_lines))
    return {"lines_changed": differing + abs(len(old_lines) - len(new_lines))}


def _files(root: Path) -> dict[str, Path]:
    """relative path -> path of every output file (commands.txt aside)."""
    files = {path.relative_to(root).as_posix(): path for path in root.rglob("*") if path.is_file()}
    files.pop(COMMANDS, None)
    return files


def compare(old_root: Path, new_root: Path) -> dict:
    """The ledger of two snapshot directories."""
    exact_column = _golden()._exact_column
    old_commands, new_commands = _commands(old_root), _commands(new_root)
    commands = {}
    for name in sorted(set(old_commands) | set(new_commands)):
        old_exit = old_commands[name][0] if name in old_commands else None
        new_exit = new_commands[name][0] if name in new_commands else None
        commands[name] = {"exit": [old_exit, new_exit]}
    old_files, new_files = _files(old_root), _files(new_root)
    changed = {}
    for path in sorted(set(old_files) & set(new_files)):
        old_bytes, new_bytes = old_files[path].read_bytes(), new_files[path].read_bytes()
        if old_bytes != new_bytes:
            changed[path] = _compare_file(path, old_bytes, new_bytes, exact_column)
    reports = [report for report in changed.values() if "cells" in report]
    max_rel = max((_float(report["max_rel_change"]) for report in reports), default=0.0)
    return {
        "old": str(old_root),
        "new": str(new_root),
        "commands": commands,
        "exit_codes_changed": [
            name for name, entry in commands.items() if entry["exit"][0] != entry["exit"][1]
        ],
        "stderr_changed": [
            name
            for name in sorted(set(old_commands) & set(new_commands))
            if old_commands[name][1] != new_commands[name][1]
        ],
        "added": sorted(set(new_files) - set(old_files)),
        "removed": sorted(set(old_files) - set(new_files)),
        "files_compared": len(set(old_files) & set(new_files)),
        "float_cells_changed": sum(report["float_cells_changed"] for report in reports),
        "max_rel_change": _number(max_rel),
        "looser_cells": sum(
            entry["cells"] for report in reports for entry in report["looser"].values()
        ),
        "exact_changes": sum(len(report["exact"]) for report in reports),
        "changed": changed,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    ledger = compare(Path(argv[0]), Path(argv[1]))
    print(json.dumps(ledger, indent=2, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
