"""Distinguishability: threshold limits, pairwise checks, verdicts."""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import (
    blind_row_mode,
    full_feedthrough_mode,
    full_pipeline_mode,
    invertible_channel_mode,
    scalar_channel_mode,
)

from artifact import detectability, runner
from artifact.config import load_config
from artifact.decomposition import decompose
from artifact.detectability import (
    STEADY_FIRST_RUNG,
    STEADY_K_CAP,
    check_condition_i,
    check_condition_ii,
    report_detectability,
    steady_tri,
)
from artifact.gains import radius_sequence, synthesize_gains
from artifact.residuals import build_coefficients, triangle_sequence
from artifact.scenarios import list_scenarios, scenario_path
from artifact.system import LinearField, ModeModel, SwitchedSystem


def _prepared(mode, eta_w=0.05, eta_v=0.05):
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=eta_w, eta_v=eta_v)
    return dec, gains


def _second_channel_mode() -> ModeModel:
    """Same dimensions as invertible_channel_mode, different feedthrough."""
    return ModeModel(
        field=LinearField(a=np.array([[0.25, -0.1], [0.05, 0.3]])),
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
    report = steady_tri(0, gains, dec, delta0=0.3)
    assert report.converged
    assert report.iterations < 100
    coeffs = build_coefficients(gains, dec, report.iterations)
    seq = radius_sequence(gains, 0.3, report.iterations)
    direct = triangle_sequence(coeffs, gains, seq)
    assert report.value == pytest.approx(direct[-1], rel=1e-12)


def test_steady_tri_flags_divergence_with_infinite_value() -> None:
    dec, gains = _prepared(scalar_channel_mode())
    assert gains.theta > 1.0
    report = steady_tri(0, gains, dec, delta0=0.5, k_cap=400)
    assert not report.converged
    assert math.isinf(report.value)


def test_steady_tri_report_does_not_depend_on_the_cap_past_its_stop() -> None:
    # scenario1 stops at iterations 2, 519, 326, 307 and 142; mode 5's
    # coefficient blocks overflow near k = 3527, which must only read +inf
    config = load_config(scenario_path("scenario1"))
    delta0 = config.system.delta_x0
    for q, (dec, gains) in enumerate(runner.gain_bank(config)):
        capped = steady_tri(q, gains, dec, delta0, k_cap=2000)
        assert capped.iterations < 2000
        assert steady_tri(q, gains, dec, delta0, k_cap=5000) == capped


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
        for q, (dec, gains) in enumerate(runner.gain_bank(config)):
            yield f"{name}-q{q + 1}", gains, dec, config.system.delta_x0


def _full_triangle_sequence(gains, dec, delta0, k_max):
    return triangle_sequence(
        build_coefficients(gains, dec, k_max), gains, radius_sequence(gains, delta0, k_max)
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
        report = steady_tri(0, gains, dec, delta0, k_cap=k_cap)
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
        radii = radius_sequence(gains, delta0, STEADY_K_CAP)
        full = _full_triangle_sequence(gains, dec, delta0, STEADY_K_CAP)
        for k in (1, 2, 64, 143, 521, 1999):
            prefix = triangle_sequence(
                build_coefficients(gains, dec, k), gains, radii[: k + 1]
            )
            assert prefix.tobytes() == full[:k].tobytes(), (label, k)


def _record_builds(monkeypatch) -> list[int]:
    """The k_max of every build_coefficients call steady_tri makes."""
    built: list[int] = []

    def recording(gains, dec, k_max):
        built.append(k_max)
        return build_coefficients(gains, dec, k_max)

    monkeypatch.setattr(detectability, "build_coefficients", recording)
    return built


def test_steady_tri_builds_only_the_prefix_its_scan_reads(monkeypatch) -> None:
    # scenario1 stops at 2, 519, 326, 307 and 142; mode 1 never blows up
    # and stagnates within the first 64 steps, and the blow-up bound
    # predicts 521, 327, 308 and 143 for the others, each one rung
    built = _record_builds(monkeypatch)
    config = load_config(scenario_path("scenario1"))
    per_mode = []
    for q, (dec, gains) in enumerate(runner.gain_bank(config)):
        built.clear()
        steady_tri(q, gains, dec, config.system.delta_x0)
        per_mode.append(list(built))
    assert per_mode == [[STEADY_FIRST_RUNG], [521], [327], [308], [143]]
    assert sum(map(sum, per_mode)) == 1363


def test_steady_tri_extends_the_radius_table_only_until_its_blowup_bound(monkeypatch) -> None:
    # the table starts at the first rung and doubles until it shows the
    # blow-up bound: mode 1 (slope 0) stays at 64 radius steps, the others
    # stop at the first doubling past 521, 327, 308 and 143, where a
    # full-length table would run its recursion to overflow or the cap
    steps: list[int] = []

    def recording(gains, delta0, k_max):
        steps.append(k_max)
        return radius_sequence(gains, delta0, k_max)

    monkeypatch.setattr(detectability, "radius_sequence", recording)
    config = load_config(scenario_path("scenario1"))
    per_mode = []
    for q, (dec, gains) in enumerate(runner.gain_bank(config)):
        steps.clear()
        steady_tri(q, gains, dec, config.system.delta_x0)
        per_mode.append(sum(steps))
    assert per_mode == [64, 1024, 512, 512, 256]


def test_steady_tri_falls_back_to_the_cap_when_the_blowup_bound_is_short(monkeypatch) -> None:
    # a k_stop before the real stop leaves the first rung without a
    # verdict; the cap rung must still give the full-length scan's answer
    config = load_config(scenario_path("scenario1"))
    bank = runner.gain_bank(config)
    delta0 = config.system.delta_x0
    honest = [steady_tri(q, gains, dec, delta0) for q, (dec, gains) in enumerate(bank)]
    monkeypatch.setattr(detectability, "_blowup_bound", lambda slope, radii, k_cap: 10)
    built = _record_builds(monkeypatch)
    for q, (dec, gains) in enumerate(bank):
        built.clear()
        report = steady_tri(q, gains, dec, delta0)
        assert report == honest[q], q
        # mode 1 stagnates at k = 2, inside the short rung
        assert built == ([10] if q == 0 else [10, STEADY_K_CAP]), q
        converged, value, iterations = _reference_scan(
            _full_triangle_sequence(gains, dec, delta0, STEADY_K_CAP)
        )
        assert (report.converged, report.value, report.iterations) == (
            converged, value, iterations
        )


def test_quantitative_check_requires_magnitude_bounds() -> None:
    system = _system([invertible_channel_mode(), _second_channel_mode()])
    decs = [decompose(m) for m in system.modes]
    gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(system.modes, decs)
    ]
    steady = [steady_tri(q, gains[q], decs[q], 0.3) for q in range(2)]
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
    steady = [steady_tri(q, gains[q], decs[q], 0.3) for q in range(2)]
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
    steady = [steady_tri(q, gains[q], decs[q], 0.5, k_cap=200) for q in range(2)]
    reports = check_condition_i(system, decs, steady)
    assert reports[0].applicable
    assert not reports[0].passed
    assert "diverges" in reports[0].reason


def test_quantitative_check_marks_mismatched_feedthrough_ranks() -> None:
    zero_h = ModeModel(
        field=LinearField(a=np.array([[0.2, 0.0], [0.0, 0.2]])),
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
    steady = [steady_tri(q, gains[q], decs[q], 0.3, k_cap=60) for q in range(2)]
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
        field=LinearField(a=1.5 * np.eye(2)),
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
    report = report_detectability(
        single, [decompose(mode_a)], [_prepared(mode_a)[1]], k_cap=60
    )
    assert report.overall == "pass"

    unbounded = _system([mode_a, mode_b])
    decs = [decompose(m) for m in unbounded.modes]
    gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(unbounded.modes, decs)
    ]
    report = report_detectability(unbounded, decs, gains, k_cap=120)
    assert report.overall == "conditional"

    bounded = _system([mode_a, mode_b], r_x=1e6, r_y=10.0)
    report = report_detectability(bounded, decs, gains, k_cap=120)
    assert report.overall == "pass"

    twins = _system([scalar_channel_mode(), scalar_channel_mode()])
    twin_decs = [decompose(m) for m in twins.modes]
    twin_gains = [
        synthesize_gains(m, d, eta_w=0.05, eta_v=0.05)
        for m, d in zip(twins.modes, twin_decs)
    ]
    report = report_detectability(twins, twin_decs, twin_gains, k_cap=60)
    assert report.overall == "fail"


def test_threshold_tables_and_steady_bounds_raise_no_runtime_warning() -> None:
    # scenario1's uncertified radii overflow to +inf inside the k = 2000
    # recursion; that saturation is the intended value, not an error
    config = load_config(scenario_path("scenario1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prepared = runner.prepare_modes(config)
        report = report_detectability(
            config.system, [pm.dec for pm in prepared], [pm.gains for pm in prepared]
        )
    assert len(report.steady) == config.system.mode_count
