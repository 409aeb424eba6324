"""README's examples run as written: every Python block, and every
`artifact` line of its shell blocks through `cli.main`, in an empty
working directory; every YAML block is a config that parses."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import yaml

from artifact import cli
from artifact.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert sources
    for source in sources:
        exec(compile(source, str(README), "exec"), {})


def test_readme_artifact_commands_exit_0(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for lang, body in BLOCKS
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("artifact ")
    ]
    assert len(lines) == 4
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_readme_yaml_blocks_parse(tmp_path) -> None:
    sources = [body for lang, body in BLOCKS if lang == "yaml"]
    assert sources
    for source in sources:
        parse_config(yaml.safe_load(source), base_dir=tmp_path)
