"""Command line interface.

Four subcommands share a --config argument that accepts either a path
to a YAML file or the name of a bundled scenario:

* ``run``                  simulate, estimate, and write CSV/report files;
* ``check-detectability``  a-priori mode-distinguishability report;
* ``export-sdp``           write both branch files of one mode's
                           gain-certification SDP in SDPA sparse format;
* ``thresholds``           tabulate one mode's elimination thresholds.

Exit codes: 0 success; 2 configuration or model-validation error
(including uncertified gains without allow_uncertified); 3 model
mismatch (every hypothesis eliminated); 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config
from .detectability import report_detectability
from .errors import (
    ConfigurationError,
    DivergentRadiusError,
    NumericalFailure,
    SynthesisError,
)
from .residuals import build_threshold_table
from .runner import gain_bank, run, write_threshold_csv
from .scenarios import list_scenarios, scenario_path
from .sdpa import BRANCHES, assemble_sdp, format_sdpa

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


def _out_dir(args: argparse.Namespace, config: ScenarioConfig) -> Path:
    out = args.out if args.out is not None else (config.output_dir or f"{config.name}_out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _json_safe(obj):
    """Recursively replace non-finite floats so the JSON stays strict."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_safe(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


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


def _cmd_check_detectability(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    bank = gain_bank(config)
    report = report_detectability(
        config.system,
        [dec for dec, _ in bank],
        [gains for _, gains in bank],
    )
    out = _out_dir(args, config)
    payload = _json_safe(report)
    (out / "detectability.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
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
    (out / "detectability.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'detectability.json'}")
    print(f"overall: {report.overall}")
    return EXIT_OK


def _cmd_export_sdp(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    count = config.system.mode_count
    if not 1 <= args.mode <= count:
        raise ConfigurationError(f"--mode must be in 1..{count}, got {args.mode}")
    dec, gains = gain_bank(config)[args.mode - 1]
    out = _out_dir(args, config)
    for branch in BRANCHES:
        export = assemble_sdp(
            gains, dec, branch, label=f"{config.name} mode {args.mode}"
        )
        path = out / f"{config.name}_mode{args.mode}_branch_{branch}.dat-s"
        path.write_text(format_sdpa(export))
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    count = config.system.mode_count
    if not 1 <= args.mode <= count:
        raise ConfigurationError(f"--mode must be in 1..{count}, got {args.mode}")
    if args.kmax < 1:
        raise ConfigurationError("--kmax must be >= 1")
    dec, gains = gain_bank(config)[args.mode - 1]
    table = build_threshold_table(
        gains, dec, config.system.delta_x0, args.kmax, config.max_vertices
    )
    out = _out_dir(args, config)
    path = out / f"thresholds_q{args.mode}.csv"
    write_threshold_csv(path, tuple(table))
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

    p_sdp = sub.add_parser(
        "export-sdp", help="write one mode's certification SDP (both branches)"
    )
    p_sdp.add_argument("--config", required=True)
    p_sdp.add_argument("--mode", type=int, required=True, help="1-based mode index")
    p_sdp.add_argument("--out", default=None)
    p_sdp.set_defaults(handler=_cmd_export_sdp)

    p_thr = sub.add_parser(
        "thresholds", help="tabulate one mode's elimination thresholds"
    )
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--mode", type=int, required=True, help="1-based mode index")
    p_thr.add_argument("--kmax", type=int, required=True, help="largest step")
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(handler=_cmd_thresholds)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, DivergentRadiusError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
