"""Kernel checks: full SVD, pseudoinverse, norms, rank.

Expected values below were frozen from hand calculations (normal-equation
pseudoinverse, eigenvalue identities) before the kernel existed, so the
kernel is checked against independent arithmetic, not against itself.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from artifact.errors import NumericalFailure, SigmaMinUndefinedError
from artifact.linalg import (
    as_matrix,
    pinv,
    ranks,
    sigma_min,
    spectral_norm,
    spectral_norms,
    svd,
    singular_value_cutoff,
)
from artifact.system import ModeModel
from conftest import decompose


RT2 = np.sqrt(0.5)


def _reconstruct(u, s, vt) -> np.ndarray:
    """u @ diag_embed(s) @ vt."""
    middle = np.zeros((u.shape[0], vt.shape[0]))
    middle[: s.size, : s.size] = np.diag(s)
    return u @ middle @ vt


def _signed_factors(h: np.ndarray):
    """(u, s, v) of `h` with the sign convention applied: `svd` returns
    LAPACK's signs and `decompose` applies the convention to them."""
    l, p = h.shape
    n = 2
    dec = decompose(
        ModeModel(
            a=0.1 * np.eye(n),
            b=np.zeros((n, 1)),
            g=np.ones((n, p)),
            c=np.ones((l, n)),
            d=np.zeros((l, 1)),
            h=h,
        )
    )
    u = np.hstack([dec.t1.T, dec.t2.T])
    v = np.hstack([dec.v1, dec.v2])
    return u, np.diag(dec.sigma), v


def test_svd_rank_one_column_pair_has_canonical_signs() -> None:
    h = np.array([[0.5], [0.5]])
    u, s, v = _signed_factors(h)
    assert s == pytest.approx([np.sqrt(0.5)])
    np.testing.assert_allclose(u[:, 0], [RT2, RT2], atol=1e-14)
    # the orthogonal complement column is +-[rt2, -rt2]; its sign obeys the
    # largest-entry rule on whatever floats the factorization produced
    comp = u[:, 1]
    np.testing.assert_allclose(np.abs(comp), [RT2, RT2], atol=1e-14)
    assert comp[0] * comp[1] < 0.0
    assert comp[int(np.argmax(np.abs(comp)))] >= 0.0
    np.testing.assert_allclose(v, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(_reconstruct(u, s, v.T), h, atol=1e-14)


def test_svd_is_deterministic_across_calls() -> None:
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 3))
    for got, want in zip(svd(a), svd(a.copy())):
        np.testing.assert_array_equal(got, want)


def test_svd_columns_obey_largest_entry_positive_rule() -> None:
    # paired columns are sign-keyed on u (v follows to preserve the product),
    # so the rule binds every u column but only v's unpaired columns
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        u, s, v = _signed_factors(rng.normal(size=(rows, cols)))
        k = s.size
        for j in range(rows):
            col = u[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0
        for j in range(k, cols):
            col = v[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0


def test_svd_random_matrices_reconstruct_and_are_orthonormal() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = rng.normal(size=(rows, cols)) * (10.0 ** rng.integers(-3, 4))
        u, s, vt = svd(a)
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        np.testing.assert_allclose(_reconstruct(u, s, vt), a, atol=1e-10 * scale)
        np.testing.assert_allclose(u.T @ u, np.eye(rows), atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(cols), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)


def test_svd_of_empty_shapes() -> None:
    u, s, vt = svd(np.zeros((2, 0)))
    assert u.shape == (2, 2)
    assert s.size == 0
    assert vt.shape == (0, 0)


def test_pinv_matches_normal_equation_solution_for_tall_full_rank() -> None:
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    # (a' a)^-1 a' worked out by hand: det(a'a) = 24
    expected = np.array(
        [
            [-4.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0],
            [13.0 / 12.0, 1.0 / 3.0, -5.0 / 12.0],
        ]
    )
    np.testing.assert_allclose(pinv(a), expected, atol=1e-12)


def test_pinv_satisfies_moore_penrose_identities() -> None:
    rng = np.random.default_rng(31)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        a = rng.normal(size=(rows, cols))
        if rng.uniform() < 0.3 and min(rows, cols) > 1:
            a[:, -1] = a[:, 0]  # force rank deficiency sometimes
        p = pinv(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-8)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-8)
        np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-8)
        np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-8)


def test_pinv_of_zero_and_empty_is_zero_of_transposed_shape() -> None:
    np.testing.assert_array_equal(pinv(np.zeros((3, 2))), np.zeros((2, 3)))
    assert pinv(np.zeros((0, 4))).shape == (4, 0)


def test_spectral_norm_against_eigenvalue_identity() -> None:
    # symmetric PSD case: norm equals the largest eigenvalue (5 + sqrt5)/2
    s = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert spectral_norm(s) == pytest.approx((5.0 + np.sqrt(5.0)) / 2.0, rel=1e-10)
    # nilpotent case: norm is the off-diagonal magnitude
    assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert spectral_norm(np.zeros((0, 5))) == 0.0


def test_spectral_norm_random_cross_check_against_gram_eigenvalues() -> None:
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        lam = np.max(np.linalg.eigvalsh(a.T @ a))
        assert spectral_norm(a) == pytest.approx(np.sqrt(max(lam, 0.0)), abs=1e-10)


def test_batched_spectral_norms_match_one_at_a_time() -> None:
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(40, 3, 5))
    stack[7] = 0.0
    norms = spectral_norms(stack)
    assert norms.shape == (40,)
    assert norms[7] == 0.0
    for a, nrm in zip(stack, norms):
        assert nrm == spectral_norm(a)
    # a mode without a feedthrough-free channel stacks 0-row blocks
    np.testing.assert_array_equal(spectral_norms(np.zeros((4, 0, 2))), np.zeros(4))
    np.testing.assert_array_equal(spectral_norms(np.zeros((4, 2, 0))), np.zeros(4))


def test_one_row_and_one_column_norms_match_the_svd_at_extreme_scales() -> None:
    rng = np.random.default_rng(7)
    for shape in ((30, 1, 9), (30, 6, 1), (30, 1, 1)):
        for scale in (1e-200, 1.0, 1e200):
            stack = scale * rng.normal(size=shape)
            stack[3] = 0.0
            stack[5] = 1e-12 * scale
            stack[5, 0, 0] = scale  # one dominant entry among tiny ones
            norms = spectral_norms(stack)
            expected = np.linalg.svd(stack, compute_uv=False)[:, 0]
            assert norms[3] == 0.0 and np.count_nonzero(expected) == 29
            np.testing.assert_allclose(norms, expected, rtol=1e-14, atol=0.0)
    assert spectral_norm(np.array([[3.0], [4.0]])) == 5.0


def test_vector_norms_read_inf_for_nonfinite_and_overflowed_blocks() -> None:
    stack = np.ones((4, 1, 3))
    stack[0, 0, 1] = np.inf
    stack[1, 0, 2] = np.nan
    stack[2] = 1.5e308  # the norm, sqrt(3) * 1.5e308, is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = spectral_norms(stack)
        column = spectral_norms(np.transpose(stack, (0, 2, 1)))
    np.testing.assert_array_equal(norms, [np.inf, np.inf, np.inf, np.sqrt(3.0)])
    np.testing.assert_array_equal(column, norms)
    # a stack in which no block is finite leaves nothing to take a norm of
    none_finite = stack[:3, :, :].copy()
    none_finite[2] = np.nan
    for block in (none_finite, np.transpose(none_finite, (0, 2, 1))):
        np.testing.assert_array_equal(spectral_norms(block), [np.inf] * 3)
    assert spectral_norm(np.array([[np.nan, 1.0]])) == np.inf


def test_rank_and_sigma_min_share_the_cutoff() -> None:
    a = np.diag([3.0, 2.0, 1e-20])
    assert ranks(a) == 2
    assert sigma_min(a) == pytest.approx(2.0)
    assert ranks(np.zeros((4, 2))) == 0
    assert ranks(np.zeros((0, 3))) == 0


def test_sigma_min_rejects_matrices_without_nontrivial_values() -> None:
    with pytest.raises(SigmaMinUndefinedError):
        sigma_min(np.zeros((3, 3)))
    with pytest.raises(SigmaMinUndefinedError):
        sigma_min(np.zeros((0, 2)))


def test_sigma_min_of_wide_full_row_rank_matrix() -> None:
    # singular values of [[1,0,0],[0,2,0]] are {2, 1}
    a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert sigma_min(a) == pytest.approx(1.0)


# The kernels as they were before the finite-stack fast path and the
# unsigned pseudoinverse: oracles for the bitwise checks below.
def _oracle_spectral_norms(stack) -> np.ndarray:
    a = np.asarray(stack, dtype=float)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2])
    finite = np.isfinite(a).all(axis=(-2, -1))
    norms = np.full(a.shape[:-2], np.inf)
    blocks = a[finite]
    if a.shape[-2] == 1 or a.shape[-1] == 1:
        v = np.abs(blocks.reshape(-1, a.shape[-2] * a.shape[-1]))
        top = v.max(axis=-1, keepdims=True)
        scaled = v / np.where(top > 0.0, top, 1.0)
        with np.errstate(over="ignore"):
            norms[finite] = top[:, 0] * np.sqrt(np.sum(scaled * scaled, axis=-1))
    else:
        norms[finite] = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    return norms


def _oracle_spectral_norm(m) -> float:
    return float(_oracle_spectral_norms(as_matrix(m)))


def _oracle_pinv(m) -> np.ndarray:
    a = as_matrix(m)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.zeros((cols, rows))
    # the sign-canonical factors the kernel once used: each paired column
    # u_j has its largest-magnitude entry made non-negative, v_j following
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    v = vt.T
    for j in range(s.size):
        col = u[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    cut = singular_value_cutoff(s, a.shape)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > cut), 0.0)
    k = s.size
    return v[:, :k] @ np.diag(inv) @ u[:, :k].T


def _random_matrix(rng, rows: int, cols: int) -> np.ndarray:
    """A matrix at a random magnitude in 1e-200..1e200: dense, rank-deficient,
    or sparse with exact zeros (diagonal-like, so its SVD factors carry
    exact zeros and sign flips)."""
    scale = 10.0 ** rng.uniform(-200.0, 200.0)
    kind = rng.integers(3)
    if kind == 0 or min(rows, cols) == 0:
        a = rng.normal(size=(rows, cols))
    elif kind == 1:
        r = int(rng.integers(0, min(rows, cols)))
        a = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
    else:
        a = np.where(rng.uniform(size=(rows, cols)) < 0.6, 0.0, rng.normal(size=(rows, cols)))
    return scale * a


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_norm_and_pinv_kernels_are_bitwise_equal_to_their_oracles() -> None:
    rng = np.random.default_rng(2026)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(600):
            rows, cols = (int(x) for x in rng.integers(0, 6, size=2))
            a = _random_matrix(rng, rows, cols)
            assert _same_bits(pinv(a), _oracle_pinv(a)), a
            assert _same_bits(spectral_norm(a), _oracle_spectral_norm(a)), a
            depth = int(rng.integers(0, 7))
            stack = np.array([_random_matrix(rng, rows, cols) for _ in range(depth)])
            stack = stack.reshape(depth, rows, cols)
            assert _same_bits(spectral_norms(stack), _oracle_spectral_norms(stack)), stack
            assert _same_bits(spectral_norms(a), _oracle_spectral_norms(a)), a


def test_norm_kernels_are_bitwise_equal_on_stacks_with_nonfinite_blocks() -> None:
    rng = np.random.default_rng(2027)
    for _ in range(300):
        rows, cols = (int(x) for x in rng.integers(1, 6, size=2))
        depth = int(rng.integers(1, 7))
        stack = np.stack([_random_matrix(rng, rows, cols) for _ in range(depth)])
        for b in range(depth):
            if rng.uniform() < 0.4:
                stack[b, rng.integers(rows), rng.integers(cols)] = rng.choice([np.inf, -np.inf, np.nan])
        assert _same_bits(spectral_norms(stack), _oracle_spectral_norms(stack)), stack
        for block in stack:
            assert _same_bits(spectral_norm(block), _oracle_spectral_norm(block)), block
    # batch shapes beyond one leading axis take the same path
    stack = rng.normal(size=(3, 4, 2, 3))
    stack[1, 2, 0, 0] = np.nan
    assert _same_bits(spectral_norms(stack), _oracle_spectral_norms(stack))


def test_column_wise_vector_norms_keep_the_axis_formula_bits() -> None:
    # blocks of width 1-7 are normed column by column, wider ones by a
    # reduction along the last axis; np.sum adds fewer than 8 entries in
    # order, so both give the oracle's axis-formula bits
    rng = np.random.default_rng(2028)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for width in range(1, 10):
            for _ in range(30):
                depth = int(rng.integers(1, 400))
                scales = 10.0 ** rng.uniform(-300.0, 300.0, size=(depth, 1, 1))
                stack = scales * rng.normal(size=(depth, 1, width))
                kind = rng.integers(0, 6, size=depth)
                stack[kind == 1] = 0.0
                stack[kind == 2] *= 1e-300  # tiny: underflows to subnormals or zero
                stack[kind == 3, 0, rng.integers(width)] = np.inf
                stack[kind == 4, 0, rng.integers(width)] = np.nan
                for block in (stack, np.swapaxes(stack, 1, 2)):
                    assert _same_bits(spectral_norms(block), _oracle_spectral_norms(block))
                    assert _same_bits(spectral_norm(block[0]), _oracle_spectral_norm(block[0]))


def test_pinv_reports_a_failed_factorization(monkeypatch) -> None:
    def diverging(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverging)
    with pytest.raises(NumericalFailure, match="did not converge"):
        pinv(np.eye(2))
