"""Scenario configuration: strict YAML parsing into runtime objects.

The on-disk format is a single YAML mapping, hand-editable, with all
matrices as row-major nested lists.  Parsing is strict: unknown keys,
wrong shapes, wrong scalar types (a quoted "false", a fractional step
count, a bool or a string where a number belongs, anything but a string
for a name or a path), non-finite numbers (.nan, .inf) and out-of-range
values raise ConfigurationError with the offending path in the message,
so a typo cannot silently fall back to a default.  See the README for the full schema and an annotated example.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

import numpy as np
import yaml

from .errors import ConfigurationError
from .system import ModeModel, SwitchedSystem

DEFAULT_MAX_VERTICES = 2**20


class _StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's parser when PyYAML was built with it;
    same tags and constructors) whose mappings refuse a repeated key
    instead of keeping its last value; a key merged in with ``<<`` may
    still be overridden."""

    def _mapping(self, node: yaml.MappingNode):
        keys = []
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        problem=f"found duplicate key {key!r}", problem_mark=key_node.start_mark
                    )
                keys.append(key)
        yield from self.construct_yaml_map(node)


_StrictLoader.add_constructor("tag:yaml.org,2002:map", _StrictLoader._mapping)
_YAML_LOADER = _StrictLoader


@dataclass(frozen=True)
class BoundedRandomInput:
    """Unknown input drawn uniformly in the ball of the given radius."""

    bound: float


@dataclass(frozen=True)
class GrowingRampInput:
    """Unknown input rate*k along a seeded fixed unit direction."""

    rate: float


@dataclass(frozen=True)
class SequenceInput:
    """Explicit per-step vectors (index 0..horizon)."""

    values: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ZeroInput:
    pass


UnknownInputSignal = Union[BoundedRandomInput, GrowingRampInput, SequenceInput]
KnownInputSignal = Union[ZeroInput, SequenceInput]


@dataclass(frozen=True)
class GainsSpec:
    """How per-mode correction gains are chosen.

    kind "heuristic": the synthesized default for every mode.
    kind "scaled": heuristic times `factor`.
    kind "user": explicit per-mode matrices; a null entry keeps the
    heuristic for that mode.
    """

    kind: str
    factor: float = 1.0
    matrices: tuple[Any, ...] | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    system: SwitchedSystem
    true_mode: int  # 1-based
    horizon: int
    seed: int
    unknown_input: UnknownInputSignal
    known_input: KnownInputSignal
    gains: GainsSpec
    allow_uncertified: bool
    max_vertices: int
    output_dir: str | None


def _expect_mapping(obj: Any, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{context} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown, key=repr)} in {context}; allowed: {sorted(allowed)}"
        )


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigurationError(f"missing required key '{key}' in {context}")
    return mapping[key]


def _integer(obj: Any, context: str) -> int:
    """An integral number, numpy's integers included, as an int; a bool, a
    string or a fractional float is an error."""
    if isinstance(obj, float) and obj.is_integer():
        obj = int(obj)
    if isinstance(obj, bool) or not isinstance(obj, numbers.Integral):
        raise ConfigurationError(f"{context} must be an integer, got {obj!r}")
    return int(obj)


def master_seed(obj: Any) -> int:
    """A master seed: numpy's SeedSequence accepts non-negative integers only."""
    seed = _integer(obj, "seed")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return seed


def _flag(obj: Any, context: str) -> bool:
    if not isinstance(obj, bool):
        raise ConfigurationError(f"{context} must be true or false, got {obj!r}")
    return obj


def _string(obj: Any, context: str) -> str:
    """A YAML string; str() would turn anything else into a name or a path."""
    if not isinstance(obj, str):
        raise ConfigurationError(f"{context} must be a string, got {obj!r}")
    return obj


def _number(obj: Any, context: str) -> float:
    """A YAML int or float; a bool (which float() reads as 0 or 1) or a
    string is an error."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigurationError(f"{context} must be a number, got {obj!r}")
    return float(obj)


def _real(obj: Any, context: str) -> float:
    """A finite number: the checked reader of every float in a config but
    the noise bounds, which `_per_mode_floats` leaves to SwitchedSystem."""
    value = _number(obj, context)
    if not math.isfinite(value):
        raise ConfigurationError(f"{context} must be finite, got {obj!r}")
    return value


def _array(obj: Any, context: str) -> np.ndarray:
    """A float array whose every entry passed `_real`."""

    def read(entry: Any) -> Any:
        return [read(e) for e in entry] if isinstance(entry, list) else _real(entry, context)

    values = read(obj)
    try:
        return np.asarray(values, dtype=float)
    except ValueError as exc:  # ragged rows
        raise ConfigurationError(f"{context} is not a numeric array: {exc}") from exc


def _matrix(obj: Any, context: str) -> np.ndarray:
    arr = _array(obj, context)
    if arr.ndim != 2:
        raise ConfigurationError(f"{context} must be a nested (row-major) list of rows")
    return arr


def _kind(obj: Any, context: str, keys: dict[str, set[str]]) -> tuple[str, dict]:
    """A mapping whose ``kind`` is one of `keys` and whose other keys are
    that kind's; returns the kind and the mapping.  A kind that is not
    one of them, a string or not, is an error listing them."""
    spec = _expect_mapping(obj, context)
    kind = _require(spec, "kind", context)
    if not isinstance(kind, str) or kind not in keys:
        *names, last = map(repr, keys)
        raise ConfigurationError(
            f"{context}.kind must be {', '.join(names)} or {last}, got {kind!r}"
        )
    _check_keys(spec, {"kind", *keys[kind]}, context)
    return kind, spec


def _field(obj: Any, context: str) -> dict[str, np.ndarray]:
    """The drift's ``ModeModel`` arguments, a and (for a sinusoidal
    drift) a_tilde."""
    kind, spec = _kind(obj, context, {"linear": {"a"}, "linear_sinusoidal": {"a_hat", "a_tilde"}})
    if kind == "linear":
        return {"a": _matrix(_require(spec, "a", context), f"{context}.a")}
    return {
        "a": _matrix(_require(spec, "a_hat", context), f"{context}.a_hat"),
        "a_tilde": _matrix(_require(spec, "a_tilde", context), f"{context}.a_tilde"),
    }


def _mode(obj: Any, context: str) -> ModeModel:
    """A mode; a ConfigurationError of ``ModeModel`` names `context`."""
    spec = _expect_mapping(obj, context)
    _check_keys(
        spec, {"field", "b", "g", "c", "d", "h", "w", "lipschitz"}, context
    )
    kwargs = _field(_require(spec, "field", context), f"{context}.field")
    for key in ("b", "g", "c", "d", "h"):
        kwargs[key] = _matrix(_require(spec, key, context), f"{context}.{key}")
    if spec.get("w") is not None:
        kwargs["w"] = _matrix(spec["w"], f"{context}.w")
    if spec.get("lipschitz") is not None:
        kwargs["lipschitz"] = _real(spec["lipschitz"], f"{context}.lipschitz")
    try:
        return ModeModel(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{context}: {exc}") from exc


def _per_mode_floats(obj: Any, count: int, context: str) -> tuple[float, ...]:
    """One noise bound per mode; SwitchedSystem checks they are finite and
    positive."""
    if isinstance(obj, list):
        if len(obj) != count:
            raise ConfigurationError(
                f"{context} must have one entry per mode ({count}), got {len(obj)}"
            )
        return tuple(_number(v, context) for v in obj)
    return (_number(obj, context),) * count


def _system(obj: Any, name: str) -> SwitchedSystem:
    spec = _expect_mapping(obj, "system")
    _check_keys(
        spec,
        {"modes", "eta_w", "eta_v", "delta_x0", "x_hat0", "r_x", "r_y"},
        "system",
    )
    raw_modes = _require(spec, "modes", "system")
    if not isinstance(raw_modes, list) or not raw_modes:
        raise ConfigurationError("system.modes must be a non-empty list")
    modes = tuple(
        _mode(entry, f"system.modes[{i + 1}]") for i, entry in enumerate(raw_modes)
    )
    count = len(modes)
    x_hat0 = _array(_require(spec, "x_hat0", "system"), "system.x_hat0")
    if x_hat0.ndim != 1:
        raise ConfigurationError(f"system.x_hat0 must be a flat list, got shape {x_hat0.shape}")
    return SwitchedSystem(
        modes=modes,
        eta_w=_per_mode_floats(_require(spec, "eta_w", "system"), count, "system.eta_w"),
        eta_v=_per_mode_floats(_require(spec, "eta_v", "system"), count, "system.eta_v"),
        delta_x0=_real(_require(spec, "delta_x0", "system"), "system.delta_x0"),
        x_hat0=x_hat0,
        r_x=None if spec.get("r_x") is None else _real(spec["r_x"], "system.r_x"),
        r_y=None if spec.get("r_y") is None else _real(spec["r_y"], "system.r_y"),
        name=name,
    )


def _sequence_input(spec: dict, needed: int, dim: int, context: str) -> SequenceInput:
    """A `sequence` signal: at least `needed` vectors of `dim` entries."""
    obj = _require(spec, "values", context)
    if not isinstance(obj, list) or len(obj) < needed:
        raise ConfigurationError(
            f"{context}.values must list at least horizon+1 = {needed} vectors"
        )
    out = []
    for i, entry in enumerate(obj):
        # a bare number is a one-entry vector; a nested list is no vector
        vec = _array(entry, f"{context}.values[{i}]")
        if vec.ndim > 1 or vec.size != dim:
            raise ConfigurationError(
                f"{context}.values[{i}] must be a flat list of {dim} numbers, got shape {vec.shape}"
            )
        out.append(tuple(float(v) for v in vec.reshape(-1)))
    return SequenceInput(values=tuple(out))


def _unknown_input(obj: Any, needed: int, dim: int) -> UnknownInputSignal:
    kinds = {"bounded_random": {"bound"}, "growing_ramp": {"rate"}, "sequence": {"values"}}
    kind, spec = _kind(obj, "unknown_input", kinds)
    if kind == "sequence":
        return _sequence_input(spec, needed, dim, "unknown_input")
    key = "bound" if kind == "bounded_random" else "rate"
    value = _real(_require(spec, key, "unknown_input"), f"unknown_input.{key}")
    if value < 0:
        raise ConfigurationError(f"unknown_input.{key} must be >= 0")
    return BoundedRandomInput(value) if kind == "bounded_random" else GrowingRampInput(value)


def _known_input(obj: Any, needed: int, dim: int) -> KnownInputSignal:
    if obj is None:
        return ZeroInput()
    kind, spec = _kind(obj, "known_input", {"zero": set(), "sequence": {"values"}})
    return ZeroInput() if kind == "zero" else _sequence_input(spec, needed, dim, "known_input")


def _gains(obj: Any, count: int, base_dir: Path) -> GainsSpec:
    if obj is None:
        return GainsSpec(kind="heuristic")
    kinds = {"heuristic": set(), "scaled": {"factor"}, "user": {"matrices"}, "file": {"path"}}
    kind, spec = _kind(obj, "gains", kinds)
    if kind == "heuristic":
        return GainsSpec(kind="heuristic")
    if kind == "scaled":
        factor = _real(_require(spec, "factor", "gains"), "gains.factor")
        if factor <= 0:
            raise ConfigurationError("gains.factor must be positive")
        return GainsSpec(kind="scaled", factor=factor)
    if kind == "file":
        path = base_dir / _string(_require(spec, "path", "gains"), "gains.path")
        payload = _expect_mapping(_read_yaml(path, "gains file"), f"gains file {path}")
        raw = _require(payload, "matrices", f"gains file {path}")
    else:
        raw = _require(spec, "matrices", "gains")
    if not isinstance(raw, list) or len(raw) != count:
        raise ConfigurationError(f"gains.matrices must list one entry per mode ({count})")
    matrices = tuple(
        None if entry is None else _matrix(entry, f"gains.matrices[{i + 1}]")
        for i, entry in enumerate(raw)
    )
    return GainsSpec(kind="user", matrices=matrices)


_TOP_KEYS = {
    "name",
    "description",
    "system",
    "true_mode",
    "horizon",
    "seed",
    "unknown_input",
    "known_input",
    "gains",
    "allow_uncertified",
    "max_vertices",
    "output_dir",
}


def parse_config(data: Any, *, name: str = "", base_dir: Path | None = None) -> ScenarioConfig:
    """Validate a parsed YAML mapping and build the runtime config."""
    base_dir = Path(".") if base_dir is None else base_dir
    spec = _expect_mapping(data, "config")
    _check_keys(spec, _TOP_KEYS, "config")
    raw_name = spec.get("name")
    cfg_name = (None if raw_name is None else _string(raw_name, "name")) or name or "scenario"

    system = _system(_require(spec, "system", "config"), cfg_name)
    count = system.mode_count

    true_mode = _integer(_require(spec, "true_mode", "config"), "true_mode")
    if not 1 <= true_mode <= count:
        raise ConfigurationError(f"true_mode must be in 1..{count}, got {true_mode}")
    horizon = _integer(_require(spec, "horizon", "config"), "horizon")
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    seed = master_seed(spec.get("seed", 0))
    p_true = system.modes[true_mode - 1].p
    unknown = _unknown_input(
        _require(spec, "unknown_input", "config"), horizon + 1, p_true
    )
    known = _known_input(spec.get("known_input"), horizon + 1, system.m)
    gains = _gains(spec.get("gains"), count, base_dir)
    max_vertices = _integer(spec.get("max_vertices", DEFAULT_MAX_VERTICES), "max_vertices")
    if max_vertices < 1:
        raise ConfigurationError("max_vertices must be >= 1")
    output_dir = spec.get("output_dir")
    return ScenarioConfig(
        name=cfg_name,
        system=system,
        true_mode=true_mode,
        horizon=horizon,
        seed=seed,
        unknown_input=unknown,
        known_input=known,
        gains=gains,
        allow_uncertified=_flag(spec.get("allow_uncertified", False), "allow_uncertified"),
        max_vertices=max_vertices,
        output_dir=None if output_dir is None else _string(output_dir, "output_dir"),
    )


def _read_yaml(path: Path, what: str) -> Any:
    """Parse one YAML file; unreadable or malformed files are config errors.
    The loader reads the open file, so a YAML error's marks name it."""
    try:
        with path.open("rb") as stream:
            try:
                return yaml.load(stream, Loader=_YAML_LOADER)
            except yaml.YAMLError as exc:
                raise ConfigurationError(f"invalid YAML in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file."""
    path = Path(path)
    return parse_config(_read_yaml(path, "config"), name=path.stem, base_dir=path.parent)
