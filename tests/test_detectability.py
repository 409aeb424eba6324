"""Distinguishability: threshold limits, pairwise checks, verdicts."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from conftest import full_pipeline_mode, invertible_channel_mode, scalar_channel_mode

from artifact import runner
from artifact.config import load_config
from artifact.decomposition import decompose
from artifact.detectability import (
    check_condition_i,
    check_condition_ii,
    pairwise_separation,
    report_detectability,
    steady_tri,
)
from artifact.gains import synthesize_gains
from artifact.observer import radius_sequence
from artifact.residuals import build_coefficients, triangle_sequence
from artifact.scenarios import scenario_path
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
    direct = triangle_sequence(coeffs, gains.lipschitz, 0.3, 0.05, 0.05, seq)
    assert report.value == pytest.approx(direct[-1], rel=1e-12)


def test_steady_tri_flags_divergence_with_infinite_value() -> None:
    dec, gains = _prepared(scalar_channel_mode())
    assert gains.theta > 1.0
    report = steady_tri(0, gains, dec, delta0=0.5, k_cap=400)
    assert not report.converged
    assert math.isinf(report.value)


def test_steady_tri_report_does_not_depend_on_the_cap_past_its_stop() -> None:
    # scenario1 stops at iterations 2, 520, 326, 307 and 142; mode 5's
    # coefficient blocks overflow near k = 3527, which must only read +inf
    config = load_config(scenario_path("scenario1"))
    delta0 = config.system.delta_x0
    for q, (dec, gains) in enumerate(runner.gain_bank(config)):
        capped = steady_tri(q, gains, dec, delta0, k_cap=2000)
        assert capped.iterations < 2000
        assert steady_tri(q, gains, dec, delta0, k_cap=5000) == capped


def test_analytic_limit_reduces_to_offset_when_interconnection_vanishes() -> None:
    # psi = 0 and a zero measurement contraction kill the geometric pieces
    dec, gains = _prepared(invertible_channel_mode())
    assert np.allclose(gains.psi, 0.0)
    assert gains.meas_contraction == pytest.approx(0.0, abs=1e-12)
    report = steady_tri(0, gains, dec, delta0=0.3)
    assert report.r_const == pytest.approx(0.0, abs=1e-15)
    assert report.analytic_limit == pytest.approx(report.o_const)
    assert math.isfinite(report.analytic_limit)


def test_analytic_limit_is_infinite_for_expansive_error_dynamics() -> None:
    dec, gains = _prepared(scalar_channel_mode())
    report = steady_tri(0, gains, dec, delta0=0.5, k_cap=50)
    assert gains.meas_contraction >= 1.0
    assert math.isinf(report.analytic_limit)


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


def test_pairwise_separation_is_strict() -> None:
    a, b = np.array([3.0, 0.0]), np.zeros(2)
    assert pairwise_separation(a, b, 1.0, 1.0, 0.5)
    assert not pairwise_separation(a, b, 1.5, 1.0, 0.5)
    assert not pairwise_separation(a, a, 0.0, 0.0, 0.0)


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


def test_full_pipeline_mode_reports_finite_constants() -> None:
    mode = full_pipeline_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    report = steady_tri(0, gains, dec, delta0=0.3, k_cap=300)
    assert math.isfinite(report.r_const)
    assert math.isfinite(report.o_const)
    assert math.isfinite(report.s_const)
    if gains.meas_contraction < 1.0:
        assert math.isfinite(report.analytic_limit)


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
