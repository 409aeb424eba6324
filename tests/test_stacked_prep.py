"""The bank is prepared as stacks, one batched pass per group of modes of
equal shape; every mode's decomposition, gains, step matrix, radius and
threshold tables must keep the bits (and the memory layouts) the frozen
one-mode preparation in ``conftest`` gives, in whatever bank the mode
sits, and a failing bank must raise the one-mode loop's first error."""
from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from artifact import runner
from artifact.config import BoundedRandomInput, GainsSpec, ScenarioConfig, ZeroInput, load_config
from artifact.errors import ConfigurationError, SynthesisError
from artifact.residuals import build_threshold_table
from artifact.scenarios import list_scenarios, scenario_path
from artifact.system import ModeModel, SwitchedSystem
from conftest import (
    coefficients,
    decompose,
    synthesize_gains,
    blind_row_mode,
    full_feedthrough_mode,
    full_pipeline_mode,
    invertible_channel_mode,
    oracle_coefficients,
    oracle_decompose,
    mode_bank,
    oracle_gain_bank,
    oracle_input_radius,
    oracle_prepare,
    oracle_radius_sequence,
    oracle_step_matrix,
    oracle_synthesize_gains,
    oracle_threshold_table,
    input_radius_table,
    prepared_rows,
    radius_table,
    step_matrix,
)


def _same(got, want, label: str) -> None:
    """Equal bits and, along every axis longer than one, equal strides:
    a slice of a stack must be laid out like the lone mode's array."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), label
        assert got.shape == want.shape and got.dtype == want.dtype, label
        assert got.tobytes() == want.tobytes(), label
        for extent, got_stride, want_stride in zip(want.shape, got.strides, want.strides):
            if extent > 1 and want.size:
                assert got_stride == want_stride, (label, got.strides, want.strides)
    else:
        assert type(got) is type(want), label
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (label, got, want)


def _same_fields(got, want, label: str) -> None:
    for f in fields(want):
        _same(getattr(got, f.name), getattr(want, f.name), f"{label}.{f.name}")


def _same_table(table, reports, label: str) -> None:
    """The table's arrays hold the frozen per-step reports' bits, and
    iterating it gives those reports back."""
    for name, column in (
        ("delta_tri", [r.delta_tri for r in reports]),
        ("delta_inf", [r.delta_inf for r in reports]),
        ("delta_hat", [r.delta_hat for r in reports]),
        ("vertices", [r.vertices_enumerated for r in reports]),
        ("capped", [r.capped for r in reports]),
    ):
        _same(getattr(table, name), np.array(column), f"{label} {name}")
    got = list(table)
    assert len(got) == len(reports), label
    for got_report, want in zip(got, reports):
        _same_fields(got_report, want, f"{label} k={want.k}")


def _check_prepared(config: ScenarioConfig, label: str) -> None:
    """prepare_modes and gain_bank against the one-mode loop, or the same
    exception when the loop raises."""
    try:
        want = oracle_prepare(config)
    except (ConfigurationError, SynthesisError) as exc:
        with pytest.raises(type(exc)) as got:
            runner.prepare_modes(config)
        assert str(got.value) == str(exc), label
        return
    stacks = runner.prepare_modes(config)
    for stack in stacks:
        for j, q in enumerate(stack.modes):
            mode = config.system.modes[q]
            assert stack.group.model.a[j].tobytes() == np.ascontiguousarray(mode.a).tobytes(), label
    prepared = prepared_rows(config, stacks)
    for q, (pm, (dec, gains, step, radii, table)) in enumerate(zip(prepared, want)):
        tag = f"{label} mode {q + 1}"
        assert pm.index == q, tag
        _same_fields(pm.dec, dec, f"{tag} dec")
        _same_fields(pm.gains, gains, f"{tag} gains")
        _same(pm.step, step, f"{tag} step")
        _same(pm.radius_seq, radii, f"{tag} radii")
        _same_table(pm.thresholds, table, f"{tag} thresholds")
        lagged = np.array([oracle_input_radius(gains, r) for r in radii[:-1]])
        assert pm.input_radius_seq.tobytes() == lagged.tobytes(), tag
    for q, ((dec, gains), (want_dec, want_gains, *_)) in enumerate(
        zip(mode_bank(config), want)
    ):
        _same_fields(dec, want_dec, f"{label} bank {q + 1} dec")
        _same_fields(gains, want_gains, f"{label} bank {q + 1} gains")


def _config(modes, rng, gains=GainsSpec(kind="heuristic"), horizon=6, max_vertices=1 << 9,
            allow_uncertified=True, name="random") -> ScenarioConfig:
    count = len(modes)
    system = SwitchedSystem(
        modes=tuple(modes),
        eta_w=tuple(rng.uniform(0.01, 0.1, size=count)),
        eta_v=tuple(rng.uniform(0.01, 0.1, size=count)),
        delta_x0=float(rng.uniform(0.1, 1.0)),
        x_hat0=np.zeros(modes[0].n),
    )
    return ScenarioConfig(
        name=name,
        system=system,
        true_mode=1,
        horizon=horizon,
        seed=0,
        unknown_input=BoundedRandomInput(bound=0.1),
        known_input=ZeroInput(),
        gains=gains,
        allow_uncertified=allow_uncertified,
        max_vertices=max_vertices,
        output_dir=None,
    )


def _random_mode(rng, n: int, l: int, m: int, p: int, p_h: int, integer: bool) -> ModeModel:
    """A mode with rank(H) = p_h (at most, for small-integer entries, whose
    ties and exact zeros exercise the sign rule and the dust cut)."""

    def mat(rows: int, cols: int) -> np.ndarray:
        if integer:
            return rng.integers(-2, 3, size=(rows, cols)).astype(float)
        return rng.normal(size=(rows, cols))

    h = mat(l, p_h) @ mat(p_h, p) if p_h else np.zeros((l, p))
    a = 0.4 * mat(n, n) / max(1.0, math.sqrt(n))
    a_tilde = None if rng.uniform() < 0.4 else 0.3 * mat(n, n) / max(1.0, math.sqrt(n))
    return ModeModel(
        a=a,
        a_tilde=a_tilde,
        b=mat(n, m),
        g=mat(n, p),
        c=mat(l, n),
        d=mat(l, m),
        h=h,
        w=None if rng.uniform() < 0.5 else mat(n, n),
    )


def _random_shape(rng, l: int) -> tuple[int, int]:
    """(p, p_h) in one of the three rank regimes: no feedthrough,
    0 < p_h < p, and invertible H with p_h = p = l."""
    regime = rng.integers(3)
    if regime == 2:
        return l, l
    if regime == 1 and l >= 2:
        p = int(rng.integers(2, l + 1))
        return p, int(rng.integers(1, p))
    return int(rng.integers(0, l + 1)), 0


def _random_gains(rng, modes, kind: str) -> GainsSpec:
    if kind == "scaled":
        return GainsSpec(kind="scaled", factor=float(rng.uniform(0.3, 1.5)))
    if kind == "user":
        matrices = []
        for mode in modes:
            dec = oracle_decompose(mode)
            keep = rng.uniform() < 0.3
            matrices.append(None if keep else rng.normal(size=(mode.n, dec.z2_dim)))
        return GainsSpec(kind="user", matrices=tuple(matrices))
    return GainsSpec(kind="heuristic")


BUNDLED = list_scenarios()


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("kind", ["heuristic", "scaled", "user"])
def test_bundled_banks_match_the_one_mode_preparation(name: str, kind: str) -> None:
    config = load_config(scenario_path(name))
    rng = np.random.default_rng(7)
    if kind != "heuristic":
        config = replace(
            config,
            gains=_random_gains(rng, config.system.modes, kind),
            allow_uncertified=True,
        )
    _check_prepared(config, f"{name} {kind}")


def test_bundled_banks_hold_fifteen_modes() -> None:
    assert sum(load_config(scenario_path(n)).system.mode_count for n in BUNDLED) == 15


@pytest.mark.parametrize("kind", ["heuristic", "scaled", "user"])
def test_conftest_modes_match_in_mixed_banks(kind: str) -> None:
    rng = np.random.default_rng(11)
    pipeline = full_pipeline_mode()
    twin = replace(pipeline, c=pipeline.c + 0.1)
    banks = [
        [full_feedthrough_mode(), blind_row_mode(), full_feedthrough_mode(), blind_row_mode()],
        [pipeline, twin, pipeline],
    ]
    for i, modes in enumerate(banks):
        config = _config(modes, rng, _random_gains(rng, modes, kind))
        _check_prepared(config, f"conftest bank {i} {kind}")


def _column_major(mode: ModeModel) -> ModeModel:
    """The mode with every matrix held column-major."""
    return replace(
        mode, **{name: np.asfortranarray(getattr(mode, name)) for name in ("b", "g", "c", "d", "h", "w")}
    )


@pytest.mark.parametrize("kind", ["heuristic", "user"])
def test_a_column_major_mode_keeps_its_bits_alone_and_in_a_group(kind: str) -> None:
    """A stack is row-major whatever the layout of the matrices it was
    built from, also a stack of one, so a column-major mode gets the bits
    of its row-major copy whether it is prepared alone or beside a twin."""
    pipeline = full_pipeline_mode()
    twin = replace(pipeline, c=pipeline.c + 0.1)
    column_major = _column_major(pipeline)
    assert not column_major.c.flags.c_contiguous and not column_major.g.flags.c_contiguous
    row_gains = column_gains = GainsSpec(kind="heuristic")
    user_gain = None
    if kind == "user":
        width = oracle_decompose(pipeline).z2_dim
        user_gain = np.random.default_rng(13).normal(size=(width, pipeline.n)).T
        assert not user_gain.flags.c_contiguous
        row_gains = GainsSpec(kind="user", matrices=(np.ascontiguousarray(user_gain), None))
        column_gains = GainsSpec(kind="user", matrices=(user_gain, None))
    row_config = _config([pipeline, twin], np.random.default_rng(3), row_gains)
    want = oracle_prepare(row_config)
    column_config = replace(
        row_config,
        system=replace(row_config.system, modes=(column_major, twin)),
        gains=column_gains,
    )
    for q, (pm, (dec, gains, step, radii, table)) in enumerate(
        zip(prepared_rows(column_config, runner.prepare_modes(column_config)), want)
    ):
        tag = f"in a group, mode {q + 1}"
        _same_fields(pm.dec, dec, f"{tag} dec")
        _same_fields(pm.gains, gains, f"{tag} gains")
        _same(pm.step, step, f"{tag} step")
        _same(pm.radius_seq, radii, f"{tag} radii")
        _same_table(pm.thresholds, table, f"{tag} thresholds")
    # alone: the one-mode functions, each a stack of one
    want_dec, want_gains, *_ = want[0]
    dec = decompose(column_major)
    _same_fields(dec, want_dec, "alone dec")
    system = row_config.system
    gains = synthesize_gains(column_major, dec, system.eta_w[0], system.eta_v[0], user_gain)
    _same_fields(gains, want_gains, "alone gains")


def test_random_mixed_shape_banks_match_the_one_mode_preparation() -> None:
    rng = np.random.default_rng(2718)
    modes_checked = 0
    regimes = set()
    kinds = ("heuristic", "scaled", "user")
    bank = 0
    while modes_checked < 3000:
        n, l, m = (int(x) for x in rng.integers(1, 5, size=3))
        m -= 1
        integer = rng.uniform() < 0.25
        # a few shapes per bank, so most groups stack several modes
        shapes = [_random_shape(rng, l) for _ in range(int(rng.integers(1, 4)))]
        modes = []
        for _ in range(int(rng.integers(3, 9))):
            p, p_h = shapes[int(rng.integers(len(shapes)))]
            regimes.add("none" if p_h == 0 else "full" if p_h == p == l else "partial")
            modes.append(_random_mode(rng, n, l, m, p, p_h, integer))
        kind = kinds[bank % 3]
        config = _config(modes, rng, _random_gains(rng, modes, kind))
        _check_prepared(config, f"bank {bank} ({kind}, n={n} l={l} m={m})")
        modes_checked += len(modes)
        bank += 1
    assert regimes == {"none", "partial", "full"}


def test_one_mode_functions_are_stacks_of_one() -> None:
    rng = np.random.default_rng(99)
    for i in range(300):
        n, l, m = (int(x) for x in rng.integers(1, 5, size=3))
        p, p_h = _random_shape(rng, l)
        mode = _random_mode(rng, n, l, m - 1, p, p_h, integer=i % 4 == 0)
        want_dec = oracle_decompose(mode)
        dec = decompose(mode)
        _same_fields(dec, want_dec, f"{i} decompose")
        eta_w, eta_v = (float(x) for x in rng.uniform(0.01, 0.1, size=2))
        try:
            want = oracle_synthesize_gains(mode, want_dec, eta_w, eta_v)
        except SynthesisError as exc:
            with pytest.raises(SynthesisError, match=None) as got:
                synthesize_gains(mode, dec, eta_w, eta_v)
            assert str(got.value) == str(exc)
            continue
        gains = synthesize_gains(mode, dec, eta_w, eta_v)
        _same_fields(gains, want, f"{i} synthesize_gains")
        _same(step_matrix(mode, dec, gains), oracle_step_matrix(mode, want_dec, want), f"{i} step")
        radii = radius_table(gains, 0.4, 7)
        _same(radii, oracle_radius_sequence(want, 0.4, 7), f"{i} radii")
        _same_fields(coefficients(gains, dec, 7), oracle_coefficients(want, want_dec, 7), f"{i} coeffs")
        _same_table(
            build_threshold_table(gains, dec, 0.4, 7, 1 << 9),
            oracle_threshold_table(want, want_dec, radii, 1 << 9),
            f"{i} table",
        )


@pytest.mark.parametrize("name", list_scenarios())
def test_take_copies_rows_with_their_bits_and_layouts(name: str) -> None:
    # a group's rows taken in reverse order are the rows of the group,
    # bit for bit, and a row contiguous in the group (every field the
    # steady scan's second round builds on) is laid out alike; a strided
    # row, such as t1's rows of a transposed rotation, comes out compact
    for group in runner.gain_bank(load_config(scenario_path(name))):
        rows = list(range(len(group.modes)))[::-1]
        for stack in (group.gains, group.dec):
            taken = stack.take(rows)
            assert type(taken) is type(stack)
            for j, i in enumerate(rows):
                got, want = taken.mode(j), stack.mode(i)
                for f in fields(want):
                    label = f"{name} {type(stack).__name__} {i} {f.name}"
                    value = getattr(want, f.name)
                    if isinstance(value, np.ndarray) and not (
                        value.flags.c_contiguous or value.flags.f_contiguous
                    ):
                        assert getattr(got, f.name).tobytes() == value.tobytes(), label
                    else:
                        _same(getattr(got, f.name), value, label)


def _deficient_mode(p: int) -> ModeModel:
    """No free output row sees the state, so rank(c2 @ g2) = 0 < p."""
    return ModeModel(
        a=0.2 * np.eye(2),
        b=np.zeros((2, 1)),
        g=np.arange(1.0, 2 * p + 1).reshape(2, p) / 10,
        c=np.zeros((3, 2)),
        d=np.zeros((3, 1)),
        h=np.zeros((3, p)),
    )


def _fine_mode(p: int, seed: int) -> ModeModel:
    rng = np.random.default_rng(seed)
    return _random_mode(rng, 2, 3, 1, p, 0, integer=False)


def test_the_first_failing_mode_in_bank_order_raises_its_one_mode_error() -> None:
    rng = np.random.default_rng(5)
    # the p = 1 group {1, 3, 4} is prepared before the p = 2 group {2}
    deficient_late = [_fine_mode(1, 1), _deficient_mode(2), _fine_mode(1, 2), _deficient_mode(1)]
    config = _config(deficient_late, rng)
    with pytest.raises(SynthesisError) as exc:
        oracle_gain_bank(config)
    assert "= 0 < 2" in str(exc.value)
    _check_prepared(config, "rank-deficient mode 2")

    # a wrong-shape user gain of mode 2 comes before the rank deficit of
    # mode 4, which sits in the group prepared first
    modes = [_fine_mode(1, 3), _fine_mode(2, 4), _fine_mode(1, 5), _deficient_mode(1)]
    gains = GainsSpec(kind="user", matrices=(None, np.ones((2, 2)), None, None))
    config = _config(modes, rng, gains)
    with pytest.raises(ConfigurationError, match=r"gain must have shape \(2, 3\)"):
        oracle_gain_bank(config)
    _check_prepared(config, "wrong-shape gain of mode 2")

    # and a rank deficit of mode 2 comes before a wrong-shape gain of mode 3
    modes = [_fine_mode(1, 6), _deficient_mode(2), _fine_mode(1, 7)]
    gains = GainsSpec(kind="user", matrices=(None, None, np.ones((3, 3))))
    _check_prepared(_config(modes, rng, gains), "rank deficit before wrong shape")


def test_an_uncertified_mode_without_allow_uncertified_raises_the_first_in_bank_order() -> None:
    config = replace(load_config(scenario_path("scenario1")), allow_uncertified=False)
    with pytest.raises(ConfigurationError, match="mode 1 gains are uncertified"):
        oracle_prepare(config)
    _check_prepared(config, "scenario1 uncertified")
    # modes 1 and 3 certified, 2 and 4 overdriven by a user gain: mode 2
    # names itself
    rng = np.random.default_rng(8)
    modes = [invertible_channel_mode()] * 4
    overdriven = GainsSpec(kind="user", matrices=(None, 5 * np.eye(2), None, 5 * np.eye(2)))
    config = _config(modes, rng, overdriven, allow_uncertified=False)
    with pytest.raises(ConfigurationError, match="mode 2 gains are uncertified"):
        oracle_prepare(config)
    _check_prepared(config, "mode 2 uncertified")


@pytest.mark.parametrize("name", BUNDLED)
def test_input_radius_table_has_the_one_radius_rule_bits(name: str) -> None:
    config = load_config(scenario_path(name))
    horizons = (config.horizon, 1000) if name == "scenario1" else (config.horizon,)
    for horizon in horizons:
        config = replace(config, horizon=horizon)
        prepared = prepared_rows(config, runner.prepare_modes(config))
        for pm in prepared:
            want = [oracle_input_radius(pm.gains, r) for r in pm.radius_seq[:-1].tolist()]
            assert pm.input_radius_seq.tobytes() == np.array(want).tobytes(), (name, pm.index)
            lagged = input_radius_table(pm.gains, pm.radius_seq[:-1])
            assert lagged.tobytes() == np.array(want).tobytes(), (name, pm.index)
        if horizon == 1000:
            # scenario1's radii overflow to inf there, and the lagged
            # input radii follow unless beta is 0
            assert any(np.isinf(pm.radius_seq).any() for pm in prepared)
            assert any(np.isinf(pm.input_radius_seq).any() for pm in prepared)
