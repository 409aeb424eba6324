"""Dense linear-algebra kernel with one shared tolerance rule.

Everything downstream (feedthrough decompositions, gain synthesis,
threshold tables) routes its SVD/pseudoinverse/rank queries through this
module so that "which singular values count" is answered exactly once.
Zero-row and zero-column matrices are first-class citizens here: they show
up whenever a mode has no feedthrough (or full feedthrough) and must flow
through products without special-casing at call sites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, SigmaMinUndefinedError

# Relative cutoff for treating a singular value as zero:
#   cutoff = max(rows, cols) * sigma_1 * RANK_TOL_FACTOR
RANK_TOL_FACTOR = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a float 2-D array, rejecting anything else."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def ensure_finite(a: np.ndarray, context: str) -> np.ndarray:
    """Pass `a` through, raising NumericalFailure if it holds NaN/inf."""
    if not np.all(np.isfinite(a)):
        raise NumericalFailure(f"non-finite values in {context}")
    return a


def singular_value_cutoff(s: np.ndarray, shape: tuple[int, int]) -> float:
    if s.size == 0:
        return 0.0
    return max(shape) * float(s[0]) * RANK_TOL_FACTOR


def flip_columns_canonical(m: np.ndarray) -> np.ndarray:
    """Return `m` with each column's sign fixed so that its
    largest-magnitude entry (first such row on ties) is non-negative.

    Columns of all zeros are returned unchanged.
    """
    out = m.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0.0:
            out[:, j] = -col
    return out


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``m = u @ diag_embed(singular_values) @ v.T``.

    ``u`` is (rows, rows), ``v`` is (cols, cols) and ``singular_values``
    has min(rows, cols) entries in non-increasing order.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        rows, cols = self.u.shape[0], self.v.shape[0]
        s = np.zeros((rows, cols))
        k = self.singular_values.size
        s[:k, :k] = np.diag(self.singular_values)
        return self.u @ s @ self.v.T


def svd(m) -> SvdResult:
    """Full SVD with a deterministic sign convention.

    For each paired column j < min(rows, cols), the largest-magnitude
    entry of u[:, j] (first index on ties) is made non-negative by
    flipping u[:, j] and v[:, j] together, which preserves the product.
    Unpaired columns (j >= min(rows, cols)) multiply a zero block and are
    sign-fixed independently by the same rule.

    Raises
    ------
    NumericalFailure
        If the underlying factorization does not converge.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return SvdResult(u=np.eye(rows), singular_values=np.zeros(0), v=np.eye(cols))
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    v = vt.T
    k = s.size
    for j in range(k):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0.0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    if rows > k:
        u[:, k:] = flip_columns_canonical(u[:, k:])
    if cols > k:
        v[:, k:] = flip_columns_canonical(v[:, k:])
    return SvdResult(u=u, singular_values=s, v=v)


def rank(m) -> int:
    """Number of singular values above the shared relative cutoff."""
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > singular_value_cutoff(s, a.shape)))


def pinv(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse, zeroing singular values <= tol.

    ``tol=None`` uses the shared cutoff, so ``pinv`` and ``rank`` always
    agree about the numerical rank.  The zero matrix (and any empty
    matrix) maps to the transposed-shape zero matrix.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.zeros((cols, rows))
    res = svd(a)
    s = res.singular_values
    cut = singular_value_cutoff(s, a.shape) if tol is None else float(tol)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > cut), 0.0)
    k = s.size
    return res.v[:, :k] @ np.diag(inv) @ res.u[:, :k].T


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (..., rows, cols) stack,
    from one batched SVD; 0.0 for matrices with a zero dimension and +inf
    for matrices holding inf or nan (an overflowed product)."""
    a = np.asarray(stack, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"stack must be at least 2-D, got shape {a.shape}")
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2])
    finite = np.isfinite(a).all(axis=(-2, -1))
    norms = np.full(a.shape[:-2], np.inf)
    norms[finite] = np.linalg.svd(a[finite], compute_uv=False)[..., 0]
    return norms


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for matrices with a zero dimension."""
    return float(spectral_norms(as_matrix(m)))


def sigma_min(m) -> float:
    """Smallest singular value above the rank cutoff.

    Raises
    ------
    SigmaMinUndefinedError
        For zero or empty matrices, where no singular value survives the
        cutoff and the quantity is undefined.
    """
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise SigmaMinUndefinedError(f"matrix of shape {a.shape} has no singular values")
    s = np.linalg.svd(a, compute_uv=False)
    above = s[s > singular_value_cutoff(s, a.shape)]
    if above.size == 0:
        raise SigmaMinUndefinedError("all singular values are below the rank cutoff")
    return float(above[-1])
