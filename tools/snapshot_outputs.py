"""Write every output file that a byte-identity check between two
checkouts compares.

    python tools/snapshot_outputs.py CHECKOUT OUT

runs the package in CHECKOUT's ``src`` directory, through ``cli.main``,
and writes under OUT, one directory per bundled scenario:

* ``run-seed-config``, ``run-seed-0``, ``run-seed-7``: ``artifact run``
  at the config's seed, ``--seed 0`` and ``--seed 7``;
* ``run-h1000``: ``artifact run`` at horizon 1000, for scenario1 and
  test_system_a only;
* ``detectability``: ``artifact check-detectability``;
* ``thresholds``: ``artifact thresholds --mode q --kmax 40`` for every
  mode q;
* ``detectability-k60``, ``detectability-k120``: ``detectability.json``
  of ``report_detectability`` at a cap of 60 and 120 steps, formatted
  as ``runner.json_text`` formats it, from ``runner.json_safe``, which
  every checkout has (no command sets the cap, and at the default cap
  no bundled scenario reaches the scan's cap round).

``commands.txt`` lists every command with its exit code and what it
printed to stderr.  Snapshots of two checkouts hold the same outputs
when ``diff -r`` of the two OUT directories prints nothing.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import yaml

SEEDS = (("config", []), ("0", ["--seed", "0"]), ("7", ["--seed", "7"]))
LONG_RUNS = ("scenario1", "test_system_a")
LONG_HORIZON = 1000
THRESHOLD_KMAX = 40


def _commands(name: str, config: str, modes: int, scratch: Path) -> list[tuple[str, list[str]]]:
    """(output directory, arguments) of every command run on one scenario."""
    commands = [(f"run-seed-{tag}", ["run", "--config", config, *seed]) for tag, seed in SEEDS]
    if name in LONG_RUNS:
        data = yaml.safe_load(Path(config).read_text())
        data["horizon"] = LONG_HORIZON
        long_config = scratch / f"{name}_h{LONG_HORIZON}.yaml"
        long_config.write_text(yaml.safe_dump(data))
        commands.append((f"run-h{LONG_HORIZON}", ["run", "--config", str(long_config)]))
    commands.append(("detectability", ["check-detectability", "--config", config]))
    kmax = ["--kmax", str(THRESHOLD_KMAX)]
    commands += [
        ("thresholds", ["thresholds", "--config", config, "--mode", str(q), *kmax])
        for q in range(1, modes + 1)
    ]
    return commands


def snapshot(out: Path, names: list[str] | None = None) -> None:
    """Snapshot the bundled scenarios `names` (all of them by default) of
    the imported ``artifact`` package into `out`."""
    from artifact import cli
    from artifact.config import load_config
    from artifact.detectability import report_detectability
    from artifact.runner import gain_bank, json_safe
    from artifact.scenarios import list_scenarios, scenario_path

    out.mkdir(parents=True, exist_ok=True)
    log = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in names or list_scenarios():
            config = str(scenario_path(name))
            loaded = load_config(config)
            for folder, args in _commands(name, config, loaded.system.mode_count, Path(scratch)):
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = cli.main([*args, "--out", str(out / name / folder)])
                shown = [Path(a).name if a.endswith(".yaml") else a for a in args]
                log.append(f"{name}/{folder}: artifact {' '.join(shown)}: exit {code}")
                log += [f"  {line}" for line in stderr.getvalue().splitlines()]
            for k_cap in (60, 120):
                folder = out / name / f"detectability-k{k_cap}"
                folder.mkdir(exist_ok=True)
                report = report_detectability(loaded.system, gain_bank(loaded), k_cap)
                text = json.dumps(json_safe(report), indent=2, sort_keys=True) + "\n"
                (folder / "detectability.json").write_text(text, newline="")
    (out / "commands.txt").write_text("\n".join(log) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(checkout / "src"))
    snapshot(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
