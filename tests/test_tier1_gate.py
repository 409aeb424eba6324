"""``tools/tier1_gate.py`` passes the suite only when exactly the
documented known failures fail, each with its documented message; these
tests feed its report reader and its verdict synthetic JUnit reports
instead of running the suite again."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("tier1_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(path: Path, cases: list[tuple[str, str, str | None, str]]) -> Path:
    """A JUnit XML report of (classname, name, outcome tag or None, message) cases."""
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<testsuites><testsuite>"]
    for classname, name, tag, message in cases:
        lines.append(f'<testcase classname="{classname}" name="{name}">')
        if tag:
            lines.append(f'<{tag} message="{message}">trace</{tag}>')
        lines.append("</testcase>")
    lines.append("</testsuite></testsuites>")
    path.write_text("\n".join(lines))
    return path


def _known_cases(tool) -> list[tuple[str, str, str | None, str]]:
    cases = []
    for test, message in tool.KNOWN_FAILS.items():
        classname, name = test.split("::")
        cases.append((classname, name, "failure", message + "&#10;  more detail"))
    return cases


def test_the_documented_failures_alone_pass_the_gate(tmp_path) -> None:
    tool = _load_tool()
    cases = _known_cases(tool) + [("tests.test_x", "test_ok", None, "")]
    failed = tool.failures(_report(tmp_path / "r.xml", cases))
    assert failed == tool.KNOWN_FAILS
    assert tool.verdict(failed) == []


def test_the_gate_names_a_new_failure_a_fixed_one_and_a_changed_message(tmp_path) -> None:
    tool = _load_tool()
    known = _known_cases(tool)
    (fixed_class, fixed_name, _, _), (changed_class, changed_name, _, _) = known[:2]
    cases = [
        (fixed_class, fixed_name, None, ""),
        (changed_class, changed_name, "failure", "assert 3 == 1"),
        *known[2:],
        ("tests.test_x", "test_new", "error", "collection failed"),
    ]
    lines = tool.verdict(tool.failures(_report(tmp_path / "r.xml", cases)))
    assert lines == [
        "new failure: tests.test_x::test_new: collection failed",
        f"known failure now passes: {fixed_class}::{fixed_name}",
        f"known failure changed its message: {changed_class}::{changed_name}: "
        f"'assert 3 == 1', documented {tool.KNOWN_FAILS[f'{changed_class}::{changed_name}']!r}",
    ]
