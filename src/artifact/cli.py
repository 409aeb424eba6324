"""Command line interface.

Three subcommands share a --config argument that accepts either a path
to a YAML file or the name of a bundled scenario:

* ``run``                  simulate, estimate, and write CSV/report files;
* ``check-detectability``  a-priori mode-distinguishability report;
* ``thresholds``           tabulate one mode's elimination thresholds.

Exit codes: 0 success; 2 configuration or model-validation error
(including uncertified gains without allow_uncertified, and an output
directory or file that cannot be written); 3 model
mismatch (every hypothesis eliminated); 4 numerical failure (a
non-finite center estimate or a failed factorization).  A diverging
radius of an uncertified mode is not a failure: it saturates to inf.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config
from .decomposition import ModeDecomposition
from .detectability import report_detectability
from .errors import ConfigurationError, NumericalFailure, SynthesisError
from .gains import ObserverGains
from .residuals import build_threshold_table
from .runner import (
    gain_bank,
    json_text,
    resolve_out_dir,
    run,
    threshold_csv,
    threshold_rows,
    write_outputs,
)
from .scenarios import list_scenarios, scenario_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_NUMERICAL = 4


def _resolve_config(value: str) -> ScenarioConfig:
    path = Path(value)
    if path.exists():
        return load_config(path)
    bundled = scenario_path(value)
    if bundled is not None:
        return load_config(bundled)
    names = ", ".join(list_scenarios()) or "none"
    raise ConfigurationError(
        f"{value!r} is neither a config file nor a bundled scenario (bundled: {names})"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    result = run(config, seed=args.seed, out_dir=args.out)
    print(f"wrote {result.steps_path}")
    if result.faulted:
        print(
            f"model mismatch: every mode eliminated by step {result.fault_step}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    print(f"surviving modes: {list(result.surviving)}")
    return EXIT_OK


def _mode_row(config: ScenarioConfig, q: int) -> tuple[ModeDecomposition, ObserverGains]:
    """Mode q's decomposition and gains, its row of a ``gain_bank``
    group, for the one-mode table of ``thresholds``."""
    return next(
        (group.dec.mode(i), group.gains.mode(i))
        for group in gain_bank(config)
        for i, mode in enumerate(group.modes)
        if mode == q
    )


def _cmd_check_detectability(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    report = report_detectability(config.system, gain_bank(config))
    out = resolve_out_dir(config, args.out)
    lines = [f"overall: {report.overall}"]
    for pair in report.condition_i:
        status = (
            "not applicable: " + pair.reason
            if not pair.applicable
            else ("pass" if pair.passed else "fail" + (f" ({pair.reason})" if pair.reason else ""))
        )
        lines.append(f"pair ({pair.q + 1},{pair.q_other + 1}) quantitative: {status}")
    distinct = all(d for _, _, d in report.condition_ii.t2_distinct_pairs)
    lines.append(
        "structural: "
        + ("pass" if report.condition_ii.passed else "fail")
        + f" (rotations distinct: {distinct};"
        " requires unlimited input energy)"
    )
    text = "\n".join(lines) + "\n"
    write_outputs({out / "detectability.json": json_text(report), out / "detectability.txt": text})
    print(f"wrote {out / 'detectability.json'}")
    print(f"overall: {report.overall}")
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    count = config.system.mode_count
    if not 1 <= args.mode <= count:
        raise ConfigurationError(f"--mode must be in 1..{count}, got {args.mode}")
    if args.kmax < 1:
        raise ConfigurationError("--kmax must be >= 1")
    dec, gains = _mode_row(config, args.mode - 1)
    table = build_threshold_table(
        gains, dec, config.system.delta_x0, args.kmax, config.max_vertices
    )
    path = resolve_out_dir(config, args.out) / f"thresholds_q{args.mode}.csv"
    write_outputs({path: threshold_csv(threshold_rows(table))})
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Set-valued state/input estimation and mode elimination "
        "for hidden-mode switched systems with unknown inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write logs")
    p_run.add_argument("--config", required=True, help="config path or bundled name")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_det = sub.add_parser(
        "check-detectability", help="report a-priori mode distinguishability"
    )
    p_det.add_argument("--config", required=True)
    p_det.add_argument("--out", default=None)
    p_det.set_defaults(handler=_cmd_check_detectability)

    p_thr = sub.add_parser(
        "thresholds", help="tabulate one mode's elimination thresholds"
    )
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--mode", type=int, required=True, help="1-based mode index")
    p_thr.add_argument("--kmax", type=int, required=True, help="largest step")
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(handler=_cmd_thresholds)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing reads it
    and never changes it, and building it costs several times a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
