"""Distinguishability: threshold limits, pairwise checks, verdicts."""
from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import (
    bank_groups,
    mode_bank,
    coefficients,
    decompose,
    synthesize_gains,
    blind_row_mode,
    full_feedthrough_mode,
    full_pipeline_mode,
    invertible_channel_mode,
    radius_table,
    scalar_channel_mode,
    steady_report,
    triangle_bound,
)
from test_bank_stack import _mixed_config, _twin

from artifact import detectability, linalg, runner
from artifact.config import load_config
from artifact.detectability import (
    STEADY_BLOWUP,
    STEADY_FIRST_RUNG,
    STEADY_K_CAP,
    check_condition_i,
    check_condition_ii,
    report_detectability,
    steady_reports,
    steady_tri,
)
from artifact.gains import radius_sequences
from artifact.residuals import build_coefficients, triangle_sequences
from artifact.scenarios import list_scenarios, scenario_path
from artifact.system import ModeModel, SwitchedSystem


def _prepared(mode, eta_w=0.05, eta_v=0.05):
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=eta_w, eta_v=eta_v)
    return dec, gains


def _second_channel_mode() -> ModeModel:
    """Same dimensions as invertible_channel_mode, different feedthrough."""
    return ModeModel(
        a=np.array([[0.25, -0.1], [0.05, 0.3]]),
        b=np.zeros((2, 1)),
        g=np.array([[-0.4], [0.2]]),
        c=np.array([[0.9, -0.3], [0.0, 0.0], [0.2, 1.1]]),
        d=np.zeros((3, 1)),
        h=np.array([[0.0], [0.6], [0.0]]),
    )


def _system(modes, eta=0.05, r_x=None, r_y=None) -> SwitchedSystem:
    count = len(modes)
    return SwitchedSystem(
        modes=tuple(modes),
        eta_w=(eta,) * count,
        eta_v=(eta,) * count,
        delta_x0=0.3,
        x_hat0=np.zeros(modes[0].n),
        r_x=r_x,
        r_y=r_y,
    )


def test_steady_tri_converges_and_agrees_with_pointwise_bound() -> None:
    dec, gains = _prepared(invertible_channel_mode())
    report = steady_report(gains, dec, delta0=0.3)
    assert report.converged
    assert report.iterations < 100
    coeffs = coefficients(gains, dec, report.iterations)
    seq = radius_table(gains, 0.3, report.iterations)
    direct = triangle_bound(coeffs, gains, seq)
    assert report.value == pytest.approx(direct[-1], rel=1e-12)


def test_steady_tri_flags_divergence_with_infinite_value() -> None:
    dec, gains = _prepared(scalar_channel_mode())
    assert gains.theta > 1.0
    report = steady_report(gains, dec, delta0=0.5, k_cap=400)
    assert not report.converged
    assert math.isinf(report.value)


def test_steady_tri_report_does_not_depend_on_the_cap_past_its_stop() -> None:
    # scenario1 stops at iterations 2, 519, 326, 307 and 142; mode 5's
    # coefficient blocks overflow near k = 3527, which must only read +inf
    config = load_config(scenario_path("scenario1"))
    delta0 = config.system.delta_x0
    for q, (dec, gains) in enumerate(mode_bank(config)):
        capped = steady_report(gains, dec, delta0, k_cap=2000, mode=q)
        assert capped.iterations < 2000
        assert steady_report(gains, dec, delta0, k_cap=5000, mode=q) == capped


def _steady_cases():
    """(label, gains, dec, delta0) for the conftest modes, a full-feedthrough
    mode whose residual has zero rows, and every bundled scenario mode."""
    for build in (
        invertible_channel_mode, scalar_channel_mode, full_pipeline_mode, blind_row_mode,
        full_feedthrough_mode,
    ):
        dec, gains = _prepared(build())
        yield build.__name__, gains, dec, 0.3
    for name in list_scenarios():
        config = load_config(scenario_path(name))
        for q, (dec, gains) in enumerate(mode_bank(config)):
            yield f"{name}-q{q + 1}", gains, dec, config.system.delta_x0


def _full_triangle_sequence(gains, dec, delta0, k_max):
    return triangle_bound(
        coefficients(gains, dec, k_max), gains, radius_table(gains, delta0, k_max)
    )


def _reference_scan(tri_seq):
    """The stagnation/blow-up scan over the whole sequence, written out:
    (converged, value, iterations), or None when it ends before either."""
    prev = None
    for k, tri in enumerate(tri_seq.tolist(), start=1):
        if not math.isfinite(tri) or tri > 1e100:
            return False, math.inf, k
        if prev is not None and abs(tri - prev) <= 1e-8 * max(abs(tri), 1e-300):
            return True, tri, k
        prev = tri
    return None


def _assert_scan_matches_reference(tri_seq) -> None:
    verdict = detectability._scan_steady(np.asarray(tri_seq, dtype=float))
    assert verdict == _reference_scan(np.asarray(tri_seq, dtype=float)), tri_seq
    if verdict is not None:
        # Python scalars, so that the report serializes as before
        assert [type(x) for x in verdict] == [bool, float, int], verdict


@pytest.mark.parametrize(
    ("tri_seq", "expected"),
    [
        ([math.nan, 1.0, 1.0], (False, math.inf, 1)),
        ([1.0, 2.0, math.inf, 3.0, 3.0], (False, math.inf, 3)),
        ([1.0, 2.0, -math.inf], (False, math.inf, 3)),
        # past 1e100 and within 1e-8 of its predecessor: blow-up wins
        ([1e100, 1.000000001e100], (False, math.inf, 2)),
        ([1.0, math.inf], (False, math.inf, 2)),
        ([0.5, 0.5, 0.7], (True, 0.5, 2)),
        ([0.25, 0.5, 0.5 + 1e-9], (True, 0.5 + 1e-9, 3)),
        # relative to the 1e-300 floor, not to 5e-309 itself
        ([0.0, 5e-309], (True, 5e-309, 2)),
        ([0.0, 0.0], (True, 0.0, 2)),
        ([0.3], None),
        ([math.inf], (False, math.inf, 1)),
        ([1.0, 2.0, 3.0, 1e100], None),
    ],
)
def test_scan_edge_cases_match_the_reference(tri_seq, expected) -> None:
    assert detectability._scan_steady(np.array(tri_seq)) == expected
    _assert_scan_matches_reference(tri_seq)


def test_scan_matches_the_reference_on_random_sequences() -> None:
    rng = np.random.default_rng(13)
    values = [0.0, 1e-310, 0.5, 0.5 + 1e-9, 0.6, 1e100, 2e100, math.inf, math.nan]
    for _ in range(2000):
        length = int(rng.integers(1, 9))
        _assert_scan_matches_reference(rng.choice(values, size=length))


@pytest.mark.parametrize("k_cap", [50, STEADY_K_CAP])
def test_steady_tri_matches_a_scan_of_the_full_length_sequence(k_cap) -> None:
    # steady_tri builds only prefixes of the sequence; the reference builds
    # all k_cap entries and scans them
    cases = list(_steady_cases())
    assert any(dec.z2_dim == 0 for _, _, dec, _ in cases)
    verdicts = set()
    for label, gains, dec, delta0 in cases:
        report = steady_report(gains, dec, delta0, k_cap=k_cap)
        converged, value, iterations = _reference_scan(
            _full_triangle_sequence(gains, dec, delta0, k_cap)
        ) or (False, math.inf, k_cap)
        reference = dataclasses.replace(
            report, converged=converged, value=value, iterations=iterations
        )
        assert report == reference, label
        verdicts.add((converged, iterations == k_cap))
    # both outcomes occur: stagnation, and either blow-up before the cap
    # (every bundled mode stops by k = 1207) or, at k_cap = 50, no verdict
    assert verdicts == {(True, False), (False, k_cap == 50)}


def test_triangle_sequence_prefixes_are_bitwise_equal_to_the_full_sequence() -> None:
    for label, gains, dec, delta0 in _steady_cases():
        radii = radius_table(gains, delta0, STEADY_K_CAP)
        full = _full_triangle_sequence(gains, dec, delta0, STEADY_K_CAP)
        for k in (1, 2, 64, 143, 521, 1999):
            prefix = triangle_bound(coefficients(gains, dec, k), gains, radii[: k + 1])
            assert prefix.tobytes() == full[:k].tobytes(), (label, k)


def _record_builds(monkeypatch) -> list[tuple[int, int]]:
    """(k_max, rows) of every build_coefficients call the scan makes."""
    built: list[tuple[int, int]] = []

    def recording(gains, dec, k_max):
        built.append((k_max, len(gains.theta)))
        return build_coefficients(gains, dec, k_max)

    monkeypatch.setattr(detectability, "build_coefficients", recording)
    return built


def _scenario1_group():
    config = load_config(scenario_path("scenario1"))
    (group,) = runner.gain_bank(config)
    assert group.modes == (0, 1, 2, 3, 4)
    return config, group


def test_steady_tri_builds_only_the_prefix_its_scan_reads(monkeypatch) -> None:
    # scenario1 stops at 2, 519, 326, 307 and 142; mode 1 never blows up
    # and stagnates within the first 64 steps, and the blow-up bound
    # predicts 521, 327, 308 and 143 for the others, each one rung
    built = _record_builds(monkeypatch)
    config = load_config(scenario_path("scenario1"))
    per_mode = []
    for q, (dec, gains) in enumerate(mode_bank(config)):
        built.clear()
        steady_report(gains, dec, config.system.delta_x0, mode=q)
        per_mode.append(list(built))
    assert per_mode == [
        [(STEADY_FIRST_RUNG, 1)], [(521, 1)], [(327, 1)], [(308, 1)], [(143, 1)]
    ]
    assert sum(k for builds in per_mode for k, _ in builds) == 1363


def test_scenario1_builds_one_recursion_over_its_group(monkeypatch) -> None:
    # the group's first round runs to the longest first rung, mode 2's
    # 521, and every mode reaches its verdict there
    built = _record_builds(monkeypatch)
    config = load_config(scenario_path("scenario1"))
    report = report_detectability(config.system, runner.gain_bank(config))
    assert built == [(521, 5)]
    assert [s.iterations for s in report.steady] == [2, 519, 326, 307, 142]


def _record_radius_steps(monkeypatch) -> tuple[list[int], list[tuple[int, int]]]:
    """(recursion steps per row, (k_max, rows) per call) of every
    radius_sequences call the scan makes; a row's steps end where its
    constant fill begins."""
    per_row: list[int] = []
    calls: list[tuple[int, int]] = []

    def recording(gains, delta0, k_max):
        radii = radius_sequences(gains, delta0, k_max)
        for table in radii:
            moved = np.flatnonzero(table[1:] != table[:-1])
            per_row.append(int(moved[-1]) + 1 if moved.size else 0)
        calls.append((k_max, len(radii)))
        return radii

    monkeypatch.setattr(detectability, "radius_sequences", recording)
    return per_row, calls


def test_steady_tri_extends_the_radius_table_only_until_its_blowup_bound(monkeypatch) -> None:
    # a round builds its rows' radius tables in one call to its own
    # length: a lone mode's table runs to its first rung, 64 for mode 1
    # (slope 0) and the predicted stops 521, 327, 308 and 143 for the
    # others, where tables to the cap run 4,942 steps (to overflow)
    per_row, calls = _record_radius_steps(monkeypatch)
    config = load_config(scenario_path("scenario1"))
    rungs = [STEADY_FIRST_RUNG, 521, 327, 308, 143]
    for q, (dec, gains) in enumerate(mode_bank(config)):
        per_row.clear()
        calls.clear()
        steady_report(gains, dec, config.system.delta_x0, mode=q)
        assert calls == [(rungs[q], 1)], q
        assert per_row == [rungs[q]], q
    # the group builds every row in one call to its longest rung, 521;
    # mode 5's radius overflows at k = 435 and holds inf from there
    config, group = _scenario1_group()
    per_row.clear()
    calls.clear()
    steady_reports(group.gains, group.dec, group.modes, config.system.delta_x0)
    assert calls == [(521, 5)]
    assert per_row == [521, 521, 521, 521, 435]


def test_steady_tri_falls_back_to_the_cap_when_the_blowup_bound_is_short(monkeypatch) -> None:
    # a first rung before the real stop leaves it without a verdict; the
    # cap rung must still give the full-length scan's answer
    config = load_config(scenario_path("scenario1"))
    bank = mode_bank(config)
    delta0 = config.system.delta_x0
    honest = [steady_report(gains, dec, delta0, mode=q) for q, (dec, gains) in enumerate(bank)]
    monkeypatch.setattr(detectability, "_first_rung", lambda *row: 10)
    built = _record_builds(monkeypatch)
    for q, (dec, gains) in enumerate(bank):
        built.clear()
        report = steady_report(gains, dec, delta0, mode=q)
        assert report == honest[q], q
        # mode 1 stagnates at k = 2, inside the short rung
        assert built == ([(10, 1)] if q == 0 else [(10, 1), (STEADY_K_CAP, 1)]), q
        converged, value, iterations = _reference_scan(
            _full_triangle_sequence(gains, dec, delta0, STEADY_K_CAP)
        )
        assert (report.converged, report.value, report.iterations) == (
            converged, value, iterations
        )
    # the group's second round runs only the four rows left without a verdict
    _, group = _scenario1_group()
    built.clear()
    _, calls = _record_radius_steps(monkeypatch)
    assert steady_reports(group.gains, group.dec, group.modes, delta0) == honest
    assert built == [(10, 5), (STEADY_K_CAP, 4)]
    # and each round builds the radius tables of its own rows
    assert calls == [(10, 5), (STEADY_K_CAP, 4)]


def _table_rung(radii: np.ndarray, slope: float, k_cap: int) -> int:
    """A row's first rung read off its full radius table: one step past
    its first radius above 2 STEADY_BLOWUP / slope when that falls
    before the cap, else the fallback rung."""
    first = min(STEADY_FIRST_RUNG, k_cap)
    if not slope:
        return first
    past = np.flatnonzero(radii[:k_cap] > 2.0 * STEADY_BLOWUP / slope)
    return int(past[0]) + 1 if past.size and past[0] + 1 < k_cap else first


def _rung_rows(config):
    """(mode, theta, eta_bar, slope, radii to the cap) of every row of
    the config's ``gain_bank`` groups, the slope as the scan takes it."""
    delta0 = config.system.delta_x0
    for group in runner.gain_bank(config):
        gains = group.gains
        slopes = gains.lipschitz * linalg.spectral_norms(group.dec.c2 @ gains.phi)
        tables = radius_sequences(gains, delta0, STEADY_K_CAP)
        rows = zip(group.modes, gains.theta.tolist(), gains.eta_bar.tolist(), slopes.tolist())
        for (q, theta, eta_bar, slope), table in zip(rows, tables):
            yield q, theta, eta_bar, slope, table


def test_the_first_rung_is_the_crossing_its_radius_table_shows() -> None:
    # the closed form reads the same rung off the radius model that the
    # recursion's table shows, on every bundled row and the mixed bank's
    rungs = set()
    for label, config in _group_cases():
        delta0 = config.system.delta_x0
        for q, theta, eta_bar, slope, table in _rung_rows(config):
            for k_cap in (60, 120, STEADY_K_CAP):
                rung = detectability._first_rung(theta, eta_bar, slope, delta0, k_cap)
                assert rung == _table_rung(table, slope, k_cap), (label, q, k_cap)
                rungs.add(rung)
    assert {STEADY_FIRST_RUNG, 143, 308, 327, 521, 1211} <= rungs


def _extreme_rows():
    """(theta, eta_bar, slope, delta0, k_cap) rows at the edges of the
    closed form: theta at and around 1, huge and non-finite, eta_bar = 0,
    slopes whose target 2 STEADY_BLOWUP / slope overflows or underflows,
    an initial radius past the target, and caps below the first rung."""
    thetas = [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.5, 1e6, 1e200, math.inf, math.nan]
    eta_bars = [0.0, 1e-300, 0.02, 1e300, math.inf]
    slopes = [0.0, 1e-300, 1e-3, 1.0, 1e300]
    delta0s = [0.0, 0.3, 1e101, 1e300]
    yield from itertools.product(thetas, eta_bars, slopes, delta0s, [1, 5, 63, STEADY_K_CAP])
    rng = np.random.default_rng(32)
    for _ in range(20000):
        yield (
            1.0 + 10.0 ** rng.uniform(-12, 7),
            float(rng.choice([0.0, 10.0 ** rng.uniform(-6, 3)])),
            10.0 ** rng.uniform(-300, 300),
            10.0 ** rng.uniform(-3, 3),
            int(rng.integers(1, 3 * STEADY_K_CAP)),
        )


def test_the_first_rung_never_raises_and_only_its_fallback_reaches_the_cap() -> None:
    for theta, eta_bar, slope, delta0, k_cap in _extreme_rows():
        rung = detectability._first_rung(theta, eta_bar, slope, delta0, k_cap)
        assert type(rung) is int and 1 <= rung <= k_cap, (theta, eta_bar, slope, delta0, k_cap)
        # a predicted blow-up falls before the cap; only the fallback,
        # STEADY_FIRST_RUNG or a cap below it, may be the cap itself
        assert rung < k_cap or rung == min(STEADY_FIRST_RUNG, k_cap)


def _assert_reports_match_the_full_scan(gains, dec, delta0, k_cap, label) -> None:
    report = steady_report(gains, dec, delta0, k_cap)
    reference = _reference_scan(_full_triangle_sequence(gains, dec, delta0, k_cap))
    verdict = (report.converged, report.value, report.iterations)
    assert verdict == (reference or (False, math.inf, k_cap)), label


def test_steady_reports_match_the_full_scan_on_extreme_rows() -> None:
    # scenario1's mode 5 with its radius model and slope replaced; the
    # triangle bound reads the new radii and Lipschitz constant
    config = load_config(scenario_path("scenario1"))
    dec, gains = mode_bank(config)[4]
    norm = linalg.spectral_norm(dec.c2 @ gains.phi)
    rows = itertools.product(
        [1.0 + 1e-12, 1.5, 1e6], [0.0, 0.02], [1e-300, 1.0], [0.3, 1e101], [5, 60, 600]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for theta, eta_bar, slope, delta0, k_cap in rows:
            row = dataclasses.replace(
                gains, theta=theta, eta_bar=eta_bar, lipschitz=slope / norm
            )
            label = (theta, eta_bar, slope, delta0, k_cap)
            _assert_reports_match_the_full_scan(row, dec, delta0, k_cap, label)


def test_steady_reports_match_the_full_scan_whatever_the_first_rung(monkeypatch) -> None:
    # the first rung sets only how long a prefix the first round builds:
    # any rung from 1 to the cap leaves every report as the full scan's
    rng = np.random.default_rng(7)
    rungs = iter(rng.integers(1, 600, size=1000).tolist())
    monkeypatch.setattr(detectability, "_first_rung", lambda *row: min(next(rungs), row[-1]))
    cases = [case for case in _steady_cases() if case[0].startswith(("scenario1", "dup"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for label, gains, dec, delta0 in cases:
            for k_cap in (120, 600):
                for _ in range(3):
                    _assert_reports_match_the_full_scan(gains, dec, delta0, k_cap, label)


def _group_cases():
    """(label, config) of every bundled scenario and the mixed-shape bank."""
    for name in list_scenarios():
        yield name, load_config(scenario_path(name))
    yield "mixed", _mixed_config()


@pytest.mark.parametrize("k_cap", [60, 120, STEADY_K_CAP])
def test_group_reports_equal_the_stack_of_one_scans(k_cap) -> None:
    # at k_cap = 120 the second round runs a strict subset of scenario1's
    # rows, and at the cap one of the mixed bank's pairs
    for label, config in _group_cases():
        delta0 = config.system.delta_x0
        for group in runner.gain_bank(config):
            want = [
                steady_report(group.gains.mode(i), group.dec.mode(i), delta0, k_cap, mode=q)
                for i, q in enumerate(group.modes)
            ]
            got = steady_reports(group.gains, group.dec, group.modes, delta0, k_cap)
            assert got == want, (label, group.modes, k_cap)


def test_a_row_built_past_its_stop_neither_warns_nor_moves_a_verdict(monkeypatch) -> None:
    # scenario1's mode 1 (first rung 64) beside a twin of mode 5 whose
    # drift is 1e5 and input 1e6 times larger: the twin blows up within a
    # few steps, and the group builds it to 64, past its radius table's
    # stop at its ceiling and past an overflow of its coefficient norms
    config = load_config(scenario_path("scenario1"))
    fifth = config.system.modes[4]
    slow = config.system.modes[0]
    fast = dataclasses.replace(_twin(fifth, 1e5), g=1e6 * fifth.g)
    system = dataclasses.replace(
        config.system, modes=(slow, fast), eta_w=(0.02,) * 2, eta_v=(0.02,) * 2
    )
    (group,) = runner.gain_bank(dataclasses.replace(config, system=system, true_mode=1))
    delta0 = system.delta_x0
    built = []

    def recording(coeffs, lipschitz, radii):
        built.append(triangle_sequences(coeffs, lipschitz, radii))
        return built[-1]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [
            steady_report(group.gains.mode(i), group.dec.mode(i), delta0, mode=i)
            for i in range(2)
        ]
        monkeypatch.setattr(detectability, "triangle_sequences", recording)
        reports = steady_reports(group.gains, group.dec, group.modes, delta0)
    assert reports == alone
    assert reports[0].converged and reports[0].iterations == 2
    assert not reports[1].converged and reports[1].iterations < 30
    (tri,) = built
    assert tri.shape == (2, STEADY_FIRST_RUNG)
    assert not np.isfinite(tri[1, reports[1].iterations :]).all()


def test_quantitative_check_requires_magnitude_bounds() -> None:
    system = _system([invertible_channel_mode(), _second_channel_mode()])
    decs = [decompose(m) for m in system.modes]
    gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(system.modes, decs)
    ]
    steady = [steady_report(gains[q], decs[q], 0.3, mode=q) for q in range(2)]
    reports = check_condition_i(system, decs, steady)
    assert len(reports) == 1
    assert not reports[0].applicable
    assert "not configured" in reports[0].reason


def test_quantitative_check_passes_with_generous_state_bound() -> None:
    # the paired identity blocks force sigma_min >= sqrt(2), so a large
    # enough r_x drives the requirement below it
    system = _system(
        [invertible_channel_mode(), _second_channel_mode()], r_x=1e6, r_y=10.0
    )
    decs = [decompose(m) for m in system.modes]
    gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(system.modes, decs)
    ]
    steady = [steady_report(gains[q], decs[q], 0.3, mode=q) for q in range(2)]
    assert all(s.converged for s in steady)
    reports = check_condition_i(system, decs, steady)
    assert reports[0].applicable
    assert reports[0].sigma_min_w >= math.sqrt(2.0) - 1e-9
    assert reports[0].passed


def test_quantitative_check_fails_when_a_threshold_diverges() -> None:
    system = _system(
        [scalar_channel_mode(), scalar_channel_mode()], r_x=1e6, r_y=10.0
    )
    decs = [decompose(m) for m in system.modes]
    gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(system.modes, decs)
    ]
    steady = [steady_report(gains[q], decs[q], 0.5, k_cap=200, mode=q) for q in range(2)]
    reports = check_condition_i(system, decs, steady)
    assert reports[0].applicable
    assert not reports[0].passed
    assert "diverges" in reports[0].reason


def test_quantitative_check_marks_mismatched_feedthrough_ranks() -> None:
    zero_h = ModeModel(
        a=np.array([[0.2, 0.0], [0.0, 0.2]]),
        b=np.zeros((2, 1)),
        g=np.array([[0.5], [-0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0], [0.0, 1.0]]),
        d=np.zeros((3, 1)),
        h=np.zeros((3, 1)),
    )
    system = _system([invertible_channel_mode(), zero_h], r_x=10.0, r_y=10.0)
    decs = [decompose(m) for m in system.modes]
    assert decs[0].p_h != decs[1].p_h
    gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(system.modes, decs)
    ]
    steady = [steady_report(gains[q], decs[q], 0.3, k_cap=60, mode=q) for q in range(2)]
    reports = check_condition_i(system, decs, steady)
    assert not reports[0].applicable
    assert "conform" in reports[0].reason


def test_structural_check_passes_on_distinct_rotations() -> None:
    system = _system([invertible_channel_mode(), _second_channel_mode()])
    decs = [decompose(m) for m in system.modes]
    report = check_condition_ii(system, decs)
    assert report.passed
    assert report.requires_unlimited_energy
    assert all(d for _, _, d in report.t2_distinct_pairs)
    assert all(j < 1.0 for j in report.jacobian_norms)


def test_structural_check_rejects_shared_feedthrough_geometry() -> None:
    system = _system([scalar_channel_mode(), scalar_channel_mode()])
    decs = [decompose(m) for m in system.modes]
    report = check_condition_ii(system, decs)
    assert not report.passed
    assert report.t2_distinct_pairs == ((0, 1, False),)


def test_structural_check_rejects_expansive_origin_jacobian() -> None:
    expansive = ModeModel(
        a=1.5 * np.eye(2),
        b=np.zeros((2, 1)),
        g=np.array([[-0.4], [0.2]]),
        c=np.array([[0.9, -0.3], [0.0, 0.0], [0.2, 1.1]]),
        d=np.zeros((3, 1)),
        h=np.array([[0.0], [0.6], [0.0]]),
    )
    system = _system([invertible_channel_mode(), expansive])
    decs = [decompose(m) for m in system.modes]
    report = check_condition_ii(system, decs)
    assert not report.passed
    assert report.jacobian_norms[1] == pytest.approx(1.5)


def test_overall_verdict_levels() -> None:
    mode_a, mode_b = invertible_channel_mode(), _second_channel_mode()

    single = _system([mode_a])
    report = report_detectability(single, bank_groups(single), k_cap=60)
    assert report.overall == "pass"

    unbounded = _system([mode_a, mode_b])
    groups = bank_groups(unbounded)
    report = report_detectability(unbounded, groups, k_cap=120)
    assert report.overall == "conditional"

    bounded = _system([mode_a, mode_b], r_x=1e6, r_y=10.0)
    report = report_detectability(bounded, groups, k_cap=120)
    assert report.overall == "pass"

    twins = _system([scalar_channel_mode(), scalar_channel_mode()])
    twin_groups = bank_groups(twins)
    # the twins share every shape, so one group scans both
    assert [group.modes for group in twin_groups] == [(0, 1)]
    report = report_detectability(twins, twin_groups, k_cap=60)
    assert report.overall == "fail"


def test_steady_tri_reads_the_prefix_it_is_given() -> None:
    # a verdict within the prefix, the cap fallback on a prefix of k_cap
    # entries, and a refusal of a shorter prefix without a verdict
    assert steady_tri(3, np.array([0.25, 0.5, 0.5])) == detectability.SteadyTriReport(
        3, True, 0.5, 3
    )
    assert steady_tri(1, np.array([1.0, 2.0]), k_cap=2) == detectability.SteadyTriReport(
        1, False, math.inf, 2
    )
    with pytest.raises(ValueError, match="no verdict"):
        steady_tri(0, np.array([1.0, 2.0]), k_cap=3)


def test_threshold_tables_and_steady_bounds_raise_no_runtime_warning() -> None:
    # scenario1's uncertified radii overflow to +inf inside the k = 2000
    # recursion; that saturation is the intended value, not an error
    config = load_config(scenario_path("scenario1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prepared = runner.prepare_modes(config)
        report = report_detectability(config.system, [stack.group for stack in prepared])
    assert len(report.steady) == config.system.mode_count
