"""Gain synthesis: recovery identities, heuristic optimality, user gains."""
from __future__ import annotations

import numpy as np
import pytest

from artifact.decomposition import decompose
from artifact.errors import ConfigurationError, SynthesisError
from artifact.gains import (
    check_rank_condition,
    heuristic_gain,
    synthesize_gains,
)
from artifact.system import LinearField, LinearSinusoidalField, ModeModel


def invertible_channel_mode() -> ModeModel:
    # third output row is feedthrough-only (c1 = 0), the free channel sees an
    # invertible 2x2 map, and no unknown-input component hides in the state
    return ModeModel(
        field=LinearSinusoidalField(
            a_hat=np.array([[0.3, 0.1], [0.0, 0.25]]),
            a_tilde=np.array([[0.2, 0.0], [0.1, 0.2]]),
        ),
        b=np.zeros((2, 1)),
        g=np.array([[0.5], [-0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0], [0.0, 0.0]]),
        d=np.zeros((3, 1)),
        h=np.array([[0.0], [0.0], [1.0]]),
    )


def scalar_channel_mode() -> ModeModel:
    return ModeModel(
        field=LinearSinusoidalField(
            a_hat=np.array([[-0.5, 0.0], [1.0, -0.5]]),
            a_tilde=np.array([[0.6, -0.1], [0.1, -0.6]]),
        ),
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
    assert check_rank_condition(decompose(mode))
    blind = ModeModel(
        field=LinearField(a=0.2 * np.eye(2)),
        b=np.zeros((2, 1)),
        g=np.array([[0.3, 0.0], [0.0, 0.4]]),
        c=np.zeros((3, 2)),
        d=np.zeros((3, 1)),
        h=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    )
    dec = decompose(blind)
    assert dec.g2.shape[1] == 1 and not check_rank_condition(dec)
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
    assert gains.certified
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
    assert gains.r_mat.shape == (n, 2 * l + n)
    # only the v_{k+1} block of the word reaches the measurement update
    q_mat = np.hstack([np.zeros((dec.z2_dim, l + n)), -np.sqrt(2.0) * dec.t2])
    np.testing.assert_allclose(
        gains.w_cal, gains.e @ gains.r_mat + gains.l_gain @ q_mat, atol=1e-14
    )
    # middle (process-noise) blocks carry no sqrt2 weighting
    np.testing.assert_allclose(gains.r_mat[:, l : l + n], gains.phi @ mode.w, atol=1e-14)
    np.testing.assert_allclose(gains.y_cal[:, l : l + n], dec.c2 @ gains.phi @ mode.w, atol=1e-14)


def test_user_gain_shape_is_validated() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    with pytest.raises(ConfigurationError):
        synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02, user_gain=np.zeros((3, 1)))
    forced = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02, user_gain=np.zeros((2, 1)))
    np.testing.assert_allclose(forced.e, np.eye(2), atol=1e-14)
