"""The benchmark's tracer wraps package functions by name and reads their
arguments and results in count hooks (``residuals.table`` reads
``args[1].c2.shape[1]`` and iterates per-step reports).  A change that
hands a hooked function stacked objects must fail here, not in the
benchmark's traced runs.  The tracer is imported read-only from
``perfbench/``."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from artifact import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_commands_run_their_count_hooks_and_leave_no_wrapper(tmp_path, capsys) -> None:
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["run", "--config", "scenario1", "--out", str(tmp_path / "run")]),
            cli.main(
                ["check-detectability", "--config", "scenario1", "--out", str(tmp_path / "det")]
            ),
            cli.main(
                ["thresholds", "--config", "scenario1", "--mode", "5", "--kmax", "12",
                 "--out", str(tmp_path / "thr")]
            ),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert tracer_module.wrappers_left() == 0
    layers = {span[0] for span in tracer.spans}
    assert {"cli.self", "runner.prepare", "observer.step", "detectability.steady"} <= layers
    # check-detectability's coefficient builds and the thresholds table
    # went through the hooks that read their arguments and results
    counts = tracer.counts
    assert counts["residuals.coeff_blocks"] > 0 and counts["detectability.iterations"] > 0
    assert counts["residuals.entries"] == 12 and counts["residuals.word_coords"] > 0
    assert counts["observer.steps"] == 100


def test_a_traced_run_alone_shows_the_gain_bank_layer(tmp_path, capsys) -> None:
    """``prepare_modes`` builds its groups through ``runner.gain_bank``,
    so a traced ``run`` alone charges time to the ``gains.bank`` layer,
    nested in ``runner.prepare``."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--config", "scenario1", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer_module.wrappers_left() == 0
    spans = tracer.spans
    banks = [span for span in spans if span[0] == "gains.bank"]
    assert len(banks) == 1
    layer, start, end, parent = banks[0]
    assert end > start and spans[parent][0] == "runner.prepare"
