"""Residual word decomposition, triangle/vertex bounds, thresholds.

The central check here is the exact-decomposition oracle: simulate the
true plant with recorded noise, build the unknown word from the recorded
truth, and require the residual to equal the coefficient matrix applied
to that word to near machine precision, step for step.  That equality
pins every sign, index shift, and sqrt2 factor in the coefficient
recursion at once.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from conftest import (
    mode_bank,
    coefficients,
    decompose,
    synthesize_gains,
    blind_row_mode,
    eta_t,
    full_pipeline_mode,
    invertible_channel_mode,
    radius_table,
    run_closed_loop,
    scalar_channel_mode,
    stacked_word,
    triangle_bound,
    word_box,
)

from artifact.config import load_config
from artifact.residuals import (
    assemble_matrix,
    build_threshold_table,
    compute_residual,
    delta_inf,
    word_dim,
)
from artifact.scenarios import scenario_path


def assert_exact_decomposition(mode, *, seed: int, steps: int, gain_scale=None, atol=1e-10) -> None:
    trace = run_closed_loop(
        mode, steps=steps, seed=seed, eta_w=0.05, eta_v=0.04, delta0=0.4, gain_scale=gain_scale
    )
    coeffs = coefficients(trace.gains, trace.dec, steps)
    for k in range(1, steps + 1):
        word = stacked_word(trace, k)
        assert word.size == word_dim(k, mode.n, mode.l)
        predicted = assemble_matrix(coeffs, k) @ word
        np.testing.assert_allclose(trace.residuals[k - 1], predicted, atol=atol)


def test_residual_equals_word_image_when_correction_cancels() -> None:
    # heuristic gain makes the post-correction error noise-only here
    assert_exact_decomposition(invertible_channel_mode(), seed=1, steps=8)


def test_residual_equals_word_image_with_projection_gain() -> None:
    assert_exact_decomposition(scalar_channel_mode(), seed=2, steps=8)


def test_residual_equals_word_image_with_all_blocks_active() -> None:
    # scaled gain keeps (i - l c2) phi nonzero so deep blocks get exercised
    for seed in range(3, 9):
        assert_exact_decomposition(full_pipeline_mode(), seed=seed, steps=8, gain_scale=0.5)


def test_residual_is_rotated_noise_when_free_channel_is_blind() -> None:
    mode = blind_row_mode()
    trace = run_closed_loop(mode, steps=6, seed=11, eta_w=0.02, eta_v=0.02, delta0=0.5)
    np.testing.assert_allclose(trace.dec.c2, np.zeros((1, 2)), atol=1e-12)
    for k in range(1, 7):
        np.testing.assert_allclose(
            trace.residuals[k - 1], trace.dec.t2 @ trace.v[k], atol=1e-12
        )


def _coefficients_by_recursion(gains, dec, k_max: int):
    """The per-step downdate recursion, one block at a time."""
    c2phi = dec.c2 @ gains.phi
    ephipsi = gains.e @ gains.phi @ gains.psi
    a_mats, f_mats, j_mats = [], [c2phi], [gains.y_cal]
    prefix = -c2phi @ gains.psi
    for i in range(1, k_max + 1):
        a_mats.append(prefix)
        if i < k_max:
            f_mats.append(prefix @ gains.e @ gains.phi)
            j_mats.append(prefix @ gains.w_cal)
        prefix = -prefix @ ephipsi
    return a_mats, f_mats, j_mats


def test_batched_coefficients_match_the_per_step_recursion() -> None:
    sn = lambda m: float(np.linalg.norm(m, 2)) if m.size else 0.0
    bank = mode_bank(load_config(scenario_path("scenario1")))
    for mode in (invertible_channel_mode(), scalar_channel_mode(), full_pipeline_mode()):
        dec = decompose(mode)
        bank.append((dec, synthesize_gains(mode, dec, eta_w=0.03, eta_v=0.03)))
    for dec, gains in bank:
        for k_max in (1, 2, 40):
            coeffs = coefficients(gains, dec, k_max)
            oracle = _coefficients_by_recursion(gains, dec, k_max)
            for got, want in zip((coeffs.a_mats, coeffs.f_mats, coeffs.j_mats), oracle):
                assert got.shape == (k_max,) + want[0].shape
                np.testing.assert_array_equal(got, np.stack(want))
            a_mats, f_mats, j_mats = oracle
            l, n = coeffs.l, coeffs.n
            # each j block's noise term: its [v/sqrt2 | w | v+/sqrt2] sub-blocks'
            # norms times their radii
            noise = [
                gains.eta_v / math.sqrt(2.0) * (sn(j[:, :l]) + sn(j[:, l + n :]))
                + gains.eta_w * sn(j[:, l : l + n])
                for j in j_mats
            ]
            for norms, want in (
                (coeffs.a_norms, [sn(m) for m in a_mats]),
                (coeffs.f_norms, [sn(m) for m in f_mats]),
                (coeffs.noise_terms, noise),
            ):
                np.testing.assert_allclose(norms, want, rtol=1e-14, atol=0)


def test_first_step_coefficients_match_hand_derivation() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    coeffs = coefficients(gains, dec, 3)
    np.testing.assert_allclose(coeffs.a_mats[0], -dec.c2 @ gains.phi @ gains.psi, atol=1e-14)
    np.testing.assert_allclose(coeffs.f_mats[0], dec.c2 @ gains.phi, atol=1e-14)
    np.testing.assert_allclose(coeffs.j_mats[0], gains.y_cal, atol=1e-14)
    # deeper blocks follow the one-step downdate
    np.testing.assert_allclose(
        coeffs.f_mats[1], -dec.c2 @ gains.phi @ gains.psi @ gains.e @ gains.phi, atol=1e-14
    )
    np.testing.assert_allclose(
        coeffs.j_mats[1], -dec.c2 @ gains.phi @ gains.psi @ gains.w_cal, atol=1e-14
    )
    np.testing.assert_allclose(
        coeffs.a_mats[1],
        dec.c2 @ gains.phi @ gains.psi @ gains.e @ gains.phi @ gains.psi,
        atol=1e-14,
    )


def test_triangle_bound_matches_hand_sum_at_small_k() -> None:
    sn = lambda m: float(np.linalg.norm(m, 2)) if m.size else 0.0

    def jt(coeffs, i: int, eta: float) -> float:
        j, n, l = coeffs.j_mats[i], coeffs.n, coeffs.l
        return (eta / math.sqrt(2)) * (sn(j[:, :l]) + sn(j[:, l + n :])) + eta * sn(j[:, l : l + n])

    def hand_sum(coeffs, k: int, lf: float, delta0: float, eta: float, seq) -> float:
        total = 0.0
        for i in range(k - 1):  # the drift sum is empty at k = 1
            total += lf * sn(coeffs.f_mats[i]) * seq[k - 1 - i] + jt(coeffs, i, eta)
        init = (sn(coeffs.a_mats[k - 1]) + lf * sn(coeffs.f_mats[k - 1])) * delta0
        return total + init + jt(coeffs, k - 1, eta)

    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    coeffs = coefficients(gains, dec, 2)
    seq = radius_table(gains, 0.5, 2)
    lf = gains.lipschitz
    tri = triangle_bound(coeffs, gains, seq)
    assert tri.shape == (2,)
    expected_k1 = (sn(coeffs.a_mats[0]) + lf * sn(coeffs.f_mats[0])) * 0.5 + jt(coeffs, 0, 0.02)
    assert tri[0] == pytest.approx(expected_k1, rel=1e-12)
    expected_k2 = (
        lf * sn(coeffs.f_mats[0]) * seq[1]
        + jt(coeffs, 0, 0.02)
        + (sn(coeffs.a_mats[1]) + lf * sn(coeffs.f_mats[1])) * 0.5
        + jt(coeffs, 1, 0.02)
    )
    assert tri[1] == pytest.approx(expected_k2, rel=1e-12)

    # every entry of the sequence, on one certified and one uncertified mode
    for mode, certified in ((invertible_channel_mode(), True), (scalar_channel_mode(), False)):
        dec = decompose(mode)
        gains = synthesize_gains(mode, dec, eta_w=0.03, eta_v=0.03)
        assert (gains.theta < 1.0) == certified
        coeffs = coefficients(gains, dec, 30)
        seq = radius_table(gains, 0.4, 30)
        tri = triangle_bound(coeffs, gains, seq)
        assert tri.shape == (30,)
        for k in range(1, 31):
            expected = hand_sum(coeffs, k, gains.lipschitz, 0.4, 0.03, seq)
            assert tri[k - 1] == pytest.approx(expected, rel=1e-12)

    # scenario1 at k_max = 1100: mode 1's drift blocks are zero while its
    # radius overflows to +inf, which adds 0 (never 0 * inf = nan); modes
    # 3-5 meet their infinite radii with nonzero blocks, which gives +inf
    config = load_config(scenario_path("scenario1"))
    for q, (dec, gains) in enumerate(mode_bank(config)):
        table = build_threshold_table(gains, dec, config.system.delta_x0, 1100, 1)
        tri = np.array([report.delta_tri for report in table])
        assert not np.isnan(tri).any(), f"mode {q + 1}"
        assert np.isfinite(tri[-1]) == (q < 2), f"mode {q + 1}"


def test_triangle_bound_dominates_residuals_on_certified_mode() -> None:
    mode = invertible_channel_mode()
    for seed in (21, 22, 23):
        trace = run_closed_loop(mode, steps=20, seed=seed, eta_w=0.05, eta_v=0.05, delta0=0.3)
        coeffs = coefficients(trace.gains, trace.dec, 20)
        seq = radius_table(trace.gains, 0.3, 20)
        bounds = triangle_bound(coeffs, trace.gains, seq)
        for k in range(1, 21):
            assert np.linalg.norm(trace.residuals[k - 1]) <= bounds[k - 1] + 1e-12


def _naive_vertex_max(matrix: np.ndarray, box: np.ndarray) -> float:
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=box.size):
        best = max(best, float(np.linalg.norm(matrix @ (np.array(signs) * box))))
    return best


def test_vertex_max_known_values() -> None:
    val, count, capped = delta_inf(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]), 1 << 20)
    assert (val, count, capped) == (2.0, 2, False)
    val, _, _ = delta_inf(np.eye(2), np.array([3.0, 4.0]), 1 << 20)
    assert val == pytest.approx(5.0)
    # zero-row matrix: empty residual channel
    val, _, capped = delta_inf(np.zeros((0, 3)), np.ones(3), 1 << 20)
    assert val == 0.0 and not capped
    # all-zero matrix or all-zero box: the image is the origin
    for rows in (1, 3):
        assert delta_inf(np.zeros((rows, 7)), np.ones(7), 1 << 20) == (0.0, 1 << 6, False)
        assert delta_inf(np.ones((rows, 7)), np.zeros(7), 1 << 20) == (0.0, 1 << 6, False)


def test_vertex_symmetry_reduction_agrees_with_naive_enumeration() -> None:
    rng = np.random.default_rng(404)
    holes = np.random.default_rng(405)
    for _ in range(20):
        rows = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 13))
        matrix = rng.normal(size=(rows, dim))
        box = rng.uniform(0.1, 2.0, size=dim)
        # zero coefficient columns and zero radii (a linear mode's drift),
        # the pinned first coordinate included
        matrix[:, holes.uniform(size=dim) < 0.2] = 0.0
        box[holes.uniform(size=dim) < 0.2] = 0.0
        reduced, count, capped = delta_inf(matrix, box, 1 << 20)
        assert not capped and count == 1 << (dim - 1)
        assert reduced == pytest.approx(_naive_vertex_max(matrix, box), abs=1e-12)
    # one row: the closed form sum |m_i| box_i, checked by enumeration up to dim 10
    for dim in range(1, 21):
        row = rng.normal(size=(1, dim))
        row[0, holes.uniform(size=dim) < 0.3] = 0.0
        box = rng.uniform(0.1, 2.0, size=dim)
        val, count, capped = delta_inf(row, box, 1 << 20)
        assert not capped and count == 1 << (dim - 1)
        assert val == pytest.approx(float(np.sum(np.abs(row[0]) * box)), rel=1e-14)
        if dim <= 10:
            assert val == pytest.approx(_naive_vertex_max(row, box), rel=1e-12)


def test_vertex_cap_returns_infinity_marker() -> None:
    val, count, capped = delta_inf(np.ones((1, 30)), np.ones(30), 1 << 20)
    assert math.isinf(val) and count == 0 and capped


def test_eta_t_equals_every_vertex_norm() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.03)
    seq = radius_table(gains, 0.5, 6)
    rng = np.random.default_rng(8)
    for k in (1, 3, 6):
        box = word_box(k, 2, 2, gains, seq)
        val = eta_t(k, 2, 2, gains.lipschitz, 0.5, 0.03, 0.02, seq)
        assert val == pytest.approx(float(np.linalg.norm(box)), rel=1e-12)
        vertex = np.where(rng.uniform(size=box.size) < 0.5, box, -box)
        assert float(np.linalg.norm(vertex)) == pytest.approx(val, rel=1e-12)


def test_threshold_takes_the_smaller_bound_and_respects_the_cap() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    rep = next(iter(build_threshold_table(gains, dec, 0.5, 4, max_vertices=1 << 20)))
    assert not rep.capped and rep.vertices_enumerated == 1 << (word_dim(1, 2, 2) - 1)
    assert rep.delta_hat == min(rep.delta_tri, rep.delta_inf)
    capped = list(build_threshold_table(gains, dec, 0.5, 4, max_vertices=4))[3]
    assert capped.capped and math.isinf(capped.delta_inf)
    assert capped.delta_hat == capped.delta_tri and capped.vertices_enumerated == 0


def test_threshold_table_is_consistent_with_pointwise_queries() -> None:
    mode = invertible_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    seq = radius_table(gains, 0.3, 6)
    table = build_threshold_table(gains, dec, 0.3, 6, max_vertices=1 << 16)
    assert [rep.k for rep in table] == list(range(1, 7))
    coeffs = coefficients(gains, dec, 6)
    tri = triangle_bound(coeffs, gains, seq)
    assert any(rep.capped for rep in table) and not all(rep.capped for rep in table)
    for rep in table:
        assert rep.delta_tri == pytest.approx(tri[rep.k - 1], rel=1e-14)
        box = word_box(rep.k, 2, 3, gains, seq)
        again, count, capped = delta_inf(assemble_matrix(coeffs, rep.k), box, 1 << 16)
        assert capped == rep.capped and count == rep.vertices_enumerated
        if not capped:
            assert again == pytest.approx(rep.delta_inf, rel=1e-14)
        assert rep.delta_hat == min(rep.delta_tri, rep.delta_inf)


def test_full_feedthrough_mode_has_empty_residual_channel() -> None:
    mode = invertible_channel_mode()
    full = type(mode)(
        a=mode.a,
        a_tilde=mode.a_tilde,
        b=np.zeros((2, 1)),
        g=np.array([[0.5, 0.0], [0.0, 0.3]]),
        c=np.array([[1.0, 0.2], [-0.1, 1.0]]),
        d=np.zeros((2, 1)),
        h=np.eye(2),
    )
    dec = decompose(full)
    assert dec.z2_dim == 0
    gains = synthesize_gains(full, dec, eta_w=0.05, eta_v=0.05)
    r = compute_residual(dec, np.zeros(2), np.zeros(1), np.array([1.0, 2.0]))
    assert r.shape == (0,)
    coeffs = coefficients(gains, dec, 3)
    assert all(m.shape[1] == 0 for m in (coeffs.a_mats, coeffs.f_mats, coeffs.j_mats))
    seq = radius_table(gains, 0.3, 3)
    tri = triangle_bound(coeffs, gains, seq)
    np.testing.assert_array_equal(tri, np.zeros(3))
    for rep in build_threshold_table(gains, dec, 0.3, 3, max_vertices=1 << 16):
        assert rep.delta_hat == 0.0
