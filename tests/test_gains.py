"""Gain synthesis: recovery identities, heuristic optimality, user gains,
and the radius table."""
from __future__ import annotations

import dataclasses

import conftest
import numpy as np
import pytest

from artifact.config import load_config
from artifact.errors import ConfigurationError, SynthesisError
from artifact.decomposition import DecompositionStack
from artifact.gains import heuristic_gain, synthesis_errors
from artifact.scenarios import list_scenarios, scenario_path
from artifact.system import ModeModel
from conftest import decompose, radius_table, synthesize_gains, mode_bank


def invertible_channel_mode() -> ModeModel:
    # third output row is feedthrough-only (c1 = 0), the free channel sees an
    # invertible 2x2 map, and no unknown-input component hides in the state
    return ModeModel(
        a=np.array([[0.3, 0.1], [0.0, 0.25]]),
        a_tilde=np.array([[0.2, 0.0], [0.1, 0.2]]),
        b=np.zeros((2, 1)),
        g=np.array([[0.5], [-0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0], [0.0, 0.0]]),
        d=np.zeros((3, 1)),
        h=np.array([[0.0], [0.0], [1.0]]),
    )


def scalar_channel_mode() -> ModeModel:
    return ModeModel(
        a=np.array([[-0.5, 0.0], [1.0, -0.5]]),
        a_tilde=np.array([[0.6, -0.1], [0.1, -0.6]]),
        b=np.zeros((2, 1)),
        g=np.array([[-0.2], [0.1]]),
        c=np.array([[0.5, -0.1], [0.6, -0.1]]),
        d=np.zeros((2, 1)),
        h=np.array([[0.6], [-0.5]]),
    )


def test_m1_inverts_the_singular_block_and_m2_left_inverts_c2g2() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    np.testing.assert_allclose(gains.m1 @ dec.sigma, np.eye(dec.p_h), atol=1e-12)
    k = dec.g2.shape[1]
    np.testing.assert_allclose(gains.m2 @ (dec.c2 @ dec.g2), np.eye(k), atol=1e-12)
    # phi annihilates the g2 directions
    np.testing.assert_allclose(gains.phi @ dec.g2, np.zeros((2, k)), atol=1e-12)


def test_rank_condition_gate() -> None:
    mode = scalar_channel_mode()
    assert synthesis_errors(DecompositionStack.of(decompose(mode)), [None]) == [None]
    blind = ModeModel(
        a=0.2 * np.eye(2),
        b=np.zeros((2, 1)),
        g=np.array([[0.3, 0.0], [0.0, 0.4]]),
        c=np.zeros((3, 2)),
        d=np.zeros((3, 1)),
        h=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    )
    dec = decompose(blind)
    (error,) = synthesis_errors(DecompositionStack.of(dec), [None])
    assert dec.g2.shape[1] == 1 and isinstance(error, SynthesisError)
    assert str(error).startswith("rank(c2 @ g2) = 0 < 1: ")
    with pytest.raises(SynthesisError):
        synthesize_gains(blind, dec, eta_w=0.02, eta_v=0.02)


def test_invertible_free_channel_kills_the_correction_interconnection() -> None:
    mode = invertible_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    np.testing.assert_allclose(gains.psi, np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(gains.phi, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(gains.e, np.zeros((2, 2)), atol=1e-12)
    assert gains.theta == pytest.approx(0.0, abs=1e-12)
    assert gains.theta < 1.0
    # with psi = 0 the only noise feed is the measurement-update leak
    expected_eta_bar = 0.05 * np.linalg.norm(gains.l_gain @ dec.t2, 2)
    assert gains.eta_bar == pytest.approx(expected_eta_bar, rel=1e-12)


def test_heuristic_gain_is_frobenius_optimal_among_random_gains() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    base = np.linalg.norm((np.eye(2) - gains.l_gain @ dec.c2) @ gains.phi, "fro")
    rng = np.random.default_rng(99)
    for _ in range(100):
        cand = rng.normal(scale=3.0, size=gains.l_gain.shape)
        other = np.linalg.norm((np.eye(2) - cand @ dec.c2) @ gains.phi, "fro")
        assert other >= base - 1e-12
    np.testing.assert_allclose(heuristic_gain(dec, gains.phi), gains.l_gain, atol=1e-14)


def test_stacked_noise_maps_have_the_layered_structure() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    n, l = 2, 2
    rt2 = np.sqrt(2.0)
    # the pre-update layer, rebuilt from the decomposition and the gains
    r_mat = np.hstack(
        [
            -rt2 * gains.phi @ dec.g1 @ gains.m1 @ dec.t1,
            gains.phi @ mode.w,
            -rt2 * dec.g2 @ gains.m2 @ dec.t2,
        ]
    )
    assert r_mat.shape == gains.w_cal.shape == (n, 2 * l + n)
    # only the v_{k+1} block of the word reaches the measurement update
    q_mat = np.hstack([np.zeros((dec.z2_dim, l + n)), -rt2 * dec.t2])
    np.testing.assert_allclose(
        gains.w_cal, gains.e @ r_mat + gains.l_gain @ q_mat, atol=1e-14
    )
    # middle (process-noise) blocks carry no sqrt2 weighting
    np.testing.assert_allclose(
        gains.w_cal[:, l : l + n], gains.e @ gains.phi @ mode.w, atol=1e-14
    )
    np.testing.assert_allclose(gains.y_cal[:, l : l + n], dec.c2 @ gains.phi @ mode.w, atol=1e-14)


def test_user_gain_shape_is_validated() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    with pytest.raises(ConfigurationError):
        synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02, user_gain=np.zeros((3, 1)))
    forced = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02, user_gain=np.zeros((2, 1)))
    np.testing.assert_allclose(forced.e, np.eye(2), atol=1e-14)


def _plain_radii(gains, delta0: float, k_max: int) -> np.ndarray:
    """The radius recursion run for every step, without the fixed-point stop."""
    radii = [float(delta0)]
    for _ in range(k_max):
        radii.append(gains.theta * radii[-1] + gains.eta_bar)
    return np.array(radii)


def _radius_cases():
    """(label, gains, delta0) for every bundled mode and the conftest modes."""
    for name in list_scenarios():
        config = load_config(scenario_path(name))
        for q, (_, gains) in enumerate(mode_bank(config)):
            yield f"{name}-q{q + 1}", gains, config.system.delta_x0
    for build in (
        conftest.invertible_channel_mode, conftest.scalar_channel_mode,
        conftest.full_pipeline_mode, conftest.blind_row_mode, conftest.full_feedthrough_mode,
    ):
        mode = build()
        dec = decompose(mode)
        yield build.__name__, synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05), 0.3


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_radius_table_equals_the_plain_recursion_bit_for_bit() -> None:
    fixed_points = set()
    for label, gains, delta0 in _radius_cases():
        radii = radius_table(gains, delta0, 2000)
        assert _same_bits(radii, _plain_radii(gains, delta0, 2000)), label
        if radii[-2] == radii[-1]:
            fixed_points.add(label)
    # the stop is exercised by contracting modes and by overflowed ones
    assert {"linear_bench-q1", "test_system_a-q1", "scenario1-q5"} <= fixed_points


def test_radius_table_stops_at_its_fixed_point_in_edge_cases() -> None:
    mode = conftest.invertible_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    # theta = 0 with a positive offset: the radius is eta_bar from k = 1 on
    flat = dataclasses.replace(gains, theta=0.0, eta_bar=0.05)
    radii = radius_table(flat, 0.3, 2000)
    assert _same_bits(radii, _plain_radii(flat, 0.3, 2000))
    assert radii[0] == 0.3 and set(radii[1:].tolist()) == {0.05}
    # a certified mode settles on a float fixed point
    bench = load_config(scenario_path("linear_bench"))
    [(_, certified)] = mode_bank(bench)
    assert certified.theta < 1.0
    radii = radius_table(certified, bench.system.delta_x0, 2000)
    assert _same_bits(radii, _plain_radii(certified, bench.system.delta_x0, 2000))
    # overflow saturates to inf, which is a fixed point as well
    scenario1 = load_config(scenario_path("scenario1"))
    _, mode5 = mode_bank(scenario1)[4]
    expansive = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05, user_gain=5.0 * np.eye(2))
    for label, overflowing, delta0, k_inf in (
        ("scenario1-q5", mode5, scenario1.system.delta_x0, 435),
        ("invertible_channel_mode, gain 5 I", expansive, 0.3, 718),
    ):
        radii = radius_table(overflowing, delta0, 2000)
        assert _same_bits(radii, _plain_radii(overflowing, delta0, 2000)), label
        assert np.isfinite(radii[k_inf - 1]) and np.isinf(radii[k_inf:]).all(), label
    # an empty recursion is the initial radius alone
    for label, gains, delta0 in (("flat", flat, 0.3), ("scenario1-q5", mode5, 0.3)):
        radii = radius_table(gains, delta0, 0)
        assert _same_bits(radii, np.array([0.3])), label
