"""Feedthrough decomposition: rotations, empty-rank edge cases, invariants."""
from __future__ import annotations

import numpy as np
import pytest

from artifact.decomposition import decompose, split_output
from artifact.system import LinearField, ModeModel

ATOL = 1e-10


def _mode(h: np.ndarray, c: np.ndarray | None = None, g: np.ndarray | None = None) -> ModeModel:
    l, p = h.shape
    n = 2
    return ModeModel(
        field=LinearField(a=0.1 * np.eye(n)),
        b=np.zeros((n, 1)),
        g=np.arange(1.0, 1.0 + n * p).reshape(n, p) / 10.0 if g is None else g,
        c=np.ones((l, n)) if c is None else c,
        d=np.zeros((l, 1)),
        h=h,
    )


def assert_decomposition_invariants(mode: ModeModel) -> None:
    dec = decompose(mode)
    l, p = mode.h.shape
    r = dec.p_h
    u = np.hstack([dec.t1.T, dec.t2.T])
    v = np.hstack([dec.v1, dec.v2])
    np.testing.assert_allclose(u.T @ u, np.eye(l), atol=ATOL)
    np.testing.assert_allclose(v.T @ v, np.eye(p), atol=ATOL)
    np.testing.assert_allclose(dec.t2 @ mode.h, np.zeros((l - r, p)), atol=ATOL)
    np.testing.assert_allclose(mode.h @ dec.v1, dec.t1.T @ dec.sigma, atol=ATOL)
    np.testing.assert_allclose(dec.t1.T @ dec.sigma @ dec.v1.T, mode.h, atol=ATOL)
    assert np.all(np.diag(dec.sigma) > 0)
    np.testing.assert_allclose(dec.sigma, np.diag(np.diag(dec.sigma)), atol=ATOL)
    np.testing.assert_allclose(dec.c1, dec.t1 @ mode.c, atol=ATOL)
    np.testing.assert_allclose(dec.c2, dec.t2 @ mode.c, atol=ATOL)
    np.testing.assert_allclose(dec.g1, mode.g @ dec.v1, atol=ATOL)
    np.testing.assert_allclose(dec.g2, mode.g @ dec.v2, atol=ATOL)
    # the input rotation is a resolution of the identity
    np.testing.assert_allclose(dec.v1 @ dec.v1.T + dec.v2 @ dec.v2.T, np.eye(p), atol=ATOL)


def test_rank_one_feedthrough_splits_into_one_plus_one_channels() -> None:
    mode = _mode(h=np.array([[0.5], [0.5]]))
    dec = decompose(mode)
    assert dec.p_h == 1
    assert dec.sigma[0, 0] == pytest.approx(np.sqrt(0.5))
    assert dec.t2.shape == (1, 2)
    np.testing.assert_allclose(np.abs(dec.t2), [[np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-12)
    assert abs(dec.t2 @ mode.h) < 1e-14
    assert_decomposition_invariants(mode)


def test_zero_feedthrough_pins_rotations_to_identity() -> None:
    mode = _mode(h=np.zeros((3, 2)), c=np.ones((3, 2)), g=np.array([[0.4, 0.0], [-0.1, 0.2]]))
    dec = decompose(mode)
    assert dec.p_h == 0
    np.testing.assert_array_equal(dec.t2, np.eye(3))
    np.testing.assert_array_equal(dec.v2, np.eye(2))
    assert dec.sigma.shape == (0, 0)
    assert dec.t1.shape == (0, 3)
    assert dec.c1.shape == (0, 2)
    np.testing.assert_array_equal(dec.g2, mode.g)
    assert_decomposition_invariants(mode)


def test_full_feedthrough_leaves_no_free_channel() -> None:
    mode = _mode(h=np.eye(2))
    dec = decompose(mode)
    assert dec.p_h == 2
    assert dec.t2.shape == (0, 2)
    assert dec.v2.shape == (2, 0)
    z1, z2 = split_output(dec, np.array([1.0, -2.0]))
    assert z1.shape == (2,) and z2.shape == (0,)
    assert_decomposition_invariants(mode)


def test_split_output_preserves_measurement_energy() -> None:
    mode = _mode(h=np.array([[0.5], [0.5]]))
    dec = decompose(mode)
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.normal(size=2)
        z1, z2 = split_output(dec, y)
        assert z1.size + z2.size == 2
        assert np.hypot(np.linalg.norm(z1), np.linalg.norm(z2)) == pytest.approx(np.linalg.norm(y))


def test_invariants_hold_for_random_modes_of_mixed_rank() -> None:
    rng = np.random.default_rng(17)
    for _ in range(60):
        l = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        h = rng.normal(size=(l, p))
        if rng.uniform() < 0.4:
            # force rank deficiency via an outer product
            h = np.outer(rng.normal(size=l), rng.normal(size=p))
        if rng.uniform() < 0.15:
            h = np.zeros((l, p))
        mode = _mode(h=h, c=rng.normal(size=(l, 2)), g=rng.normal(size=(2, p)))
        assert_decomposition_invariants(mode)


def test_decomposition_is_deterministic() -> None:
    mode = _mode(h=np.array([[0.6], [-0.5]]))
    d1, d2 = decompose(mode), decompose(mode)
    np.testing.assert_array_equal(d1.t2, d2.t2)
    np.testing.assert_array_equal(d1.v2, d2.v2)
    np.testing.assert_array_equal(d1.sigma, d2.sigma)


# The sign convention as it stood when `linalg.svd` applied it and
# `decompose` re-applied it to the complements: a frozen oracle for the
# bitwise check below.
def _oracle_flip(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            out[:, j] = -col
    return out


def _oracle_rotations(h: np.ndarray):
    """(p_h, t1, t2, v1, v2) as the two-pass sign convention produced them."""
    l, p = h.shape
    if l == 0 or p == 0:
        u, s, v = np.eye(l), np.zeros(0), np.eye(p)
    else:
        u, s, vt = np.linalg.svd(h, full_matrices=True)
        v = vt.T
        k = s.size
        for j in range(k):
            col = u[:, j]
            if col[int(np.argmax(np.abs(col)))] < 0.0:
                u[:, j] = -col
                v[:, j] = -v[:, j]
        if l > k:
            u[:, k:] = _oracle_flip(u[:, k:])
        if p > k:
            v[:, k:] = _oracle_flip(v[:, k:])
    cut = 0.0 if s.size == 0 else max(h.shape) * float(s[0]) * 1e-12
    p_h = int(np.count_nonzero(s > cut))
    if p_h == 0:
        return 0, np.zeros((0, l)), np.eye(l), np.zeros((p, 0)), np.eye(p)
    u2, v2 = _oracle_flip(u[:, p_h:]), _oracle_flip(v[:, p_h:])
    return p_h, u[:, :p_h].T, u2.T, v[:, :p_h], v2


def _random_feedthrough(rng, kind: int) -> np.ndarray:
    l = int(rng.integers(1, 6))
    p = 0 if kind == 5 else int(rng.integers(1, 5))
    if kind == 0:
        return rng.normal(size=(l, p))
    if kind == 1:
        return np.outer(rng.normal(size=l), rng.normal(size=p))
    if kind == 2:
        h = np.zeros((l, p))
        h[rng.integers(l), rng.integers(p)] = rng.normal()
        return h
    if kind == 3:
        return rng.integers(-2, 3, size=(l, p)).astype(float)
    return np.zeros((l, p))  # H = 0, or zero-width when kind == 5


def _largest_entries_are_non_negative(columns: np.ndarray) -> bool:
    if columns.size == 0:
        return True
    top = np.argmax(np.abs(columns), axis=0)
    return bool(np.all(columns[top, np.arange(columns.shape[1])] >= 0.0))


def test_rotations_are_bitwise_equal_to_the_two_pass_sign_convention() -> None:
    # full-rank, rank-one, single-entry, integer-valued, zero and
    # zero-width feedthroughs
    rng = np.random.default_rng(41)
    for i in range(1200):
        h = _random_feedthrough(rng, i % 6)
        l, p = h.shape
        dec = decompose(_mode(h=h, c=rng.normal(size=(l, 2)), g=rng.normal(size=(2, p))))
        p_h, t1, t2, v1, v2 = _oracle_rotations(h.copy())
        assert dec.p_h == p_h, h
        for got, want in ((dec.t1, t1), (dec.t2, t2), (dec.v1, v1), (dec.v2, v2)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), h
        # the rule binds every output rotation row and every unpaired input
        # column; a paired input column follows its output row instead
        assert _largest_entries_are_non_negative(dec.t1.T), h
        assert _largest_entries_are_non_negative(dec.t2.T), h
        assert _largest_entries_are_non_negative(dec.v2), h
