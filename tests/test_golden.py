"""Golden outputs of every bundled scenario at its config seed.

`tests/golden/<scenario>/` holds `steps.csv`, `thresholds_q*.csv` and
`report.json` from `artifact run --config <scenario>`, and
`detectability.json` from `artifact check-detectability --config
<scenario>`.  Refactors of the numerical core must reproduce them:
headers, integer and flag columns, empty cells and every non-float JSON
value exactly, float cells within FLOAT_REL relative.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import pytest

from artifact import cli

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
FLOAT_REL = 1e-12
EXACT_COLUMNS = ("k", "surv_count", "capped")


def _exact_column(name: str) -> bool:
    return name in EXACT_COLUMNS or name.startswith("elim_q")


def _assert_csv_matches(got_path: Path, want_path: Path) -> None:
    with got_path.open(newline="") as fh:
        got = list(csv.reader(fh))
    with want_path.open(newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0], f"{want_path.name}: header differs"
    assert len(got) == len(want), f"{want_path.name}: row count differs"
    header = want[0]
    for row_got, row_want in zip(got[1:], want[1:]):
        assert len(row_got) == len(row_want)
        for name, cell_got, cell_want in zip(header, row_got, row_want):
            where = f"{want_path.name} k={row_want[0]} {name}"
            if _exact_column(name) or cell_want == "" or cell_got == "":
                assert cell_got == cell_want, where
            else:
                assert math.isclose(
                    float(cell_got), float(cell_want), rel_tol=FLOAT_REL, abs_tol=0.0
                ), f"{where}: {cell_got} != {cell_want}"


def _assert_json_matches(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0), (
            f"{where}: {got} != {want}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_outputs_match_golden(name: str, tmp_path) -> None:
    assert cli.main(["run", "--config", name, "--out", str(tmp_path)]) == 0
    want_dir = GOLDEN / name
    csv_names = sorted(p.name for p in want_dir.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == csv_names
    for csv_name in csv_names:
        _assert_csv_matches(tmp_path / csv_name, want_dir / csv_name)
    _assert_json_matches(
        json.loads((tmp_path / "report.json").read_text()),
        json.loads((want_dir / "report.json").read_text()),
        "report",
    )


@pytest.mark.parametrize("name", SCENARIOS)
def test_detectability_report_matches_golden(name: str, tmp_path) -> None:
    assert cli.main(["check-detectability", "--config", name, "--out", str(tmp_path)]) == 0
    _assert_json_matches(
        json.loads((tmp_path / "detectability.json").read_text()),
        json.loads((GOLDEN / name / "detectability.json").read_text()),
        "detectability",
    )
