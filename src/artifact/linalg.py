"""Dense linear-algebra kernel with one shared tolerance rule.

Everything downstream (feedthrough decompositions, gain synthesis,
threshold tables) routes its SVD/pseudoinverse/rank queries through this
module so that "which singular values count" is answered exactly once.
Zero-row and zero-column matrices are first-class citizens here: they show
up whenever a mode has no feedthrough (or full feedthrough) and must flow
through products without special-casing at call sites.
"""
from __future__ import annotations

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


def singular_value_cutoff(s: np.ndarray, shape: tuple[int, int]) -> float:
    if s.size == 0:
        return 0.0
    return max(shape) * float(s[0]) * RANK_TOL_FACTOR


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``m = u @ diag_embed(s) @ vt`` as LAPACK returns it.

    ``u`` is (rows, rows), ``vt`` is (cols, cols) and ``s`` has
    min(rows, cols) entries in non-increasing order.  Column signs are
    LAPACK's; a caller that needs a deterministic convention applies it
    (``decomposition.decompose`` does, for the feedthrough rotations).
    Empty matrices factor as identities with no singular values.

    Raises
    ------
    NumericalFailure
        If the underlying factorization does not converge.
    """
    try:
        return np.linalg.svd(as_matrix(m), full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


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

    Column signs do not matter here: flipping u_j and v_j together
    negates both factors of every term v_j (1/s_j) u_j^T, which negation
    reproduces exactly.

    Raises
    ------
    NumericalFailure
        If the underlying factorization does not converge.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.zeros((cols, rows))
    u, s, vt = svd(a)
    cut = singular_value_cutoff(s, a.shape) if tol is None else float(tol)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > cut), 0.0)
    k = s.size
    return vt[:k].T @ np.diag(inv) @ u[:, :k].T


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (..., rows, cols) stack;
    0.0 for matrices with a zero dimension and +inf for matrices holding
    inf or nan (an overflowed product).

    A one-row or one-column matrix is a vector, whose only singular value
    is its Euclidean norm, taken as top * ||v / top|| with top = max |v_i|
    so that tiny entries do not underflow; a norm past the float range
    reads +inf.  Other stacks go through one batched SVD.  A stack of
    finite blocks, the usual case, is read in place; only a stack that
    mixes in non-finite blocks is split by a mask.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"stack must be at least 2-D, got shape {a.shape}")
    return _block_norms(a)


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for matrices with a zero dimension and
    +inf for a matrix holding inf or nan."""
    return float(_block_norms(as_matrix(m)))


def _block_norms(a: np.ndarray) -> np.ndarray:
    """`spectral_norms` of a float array with at least two dimensions."""
    rows, cols = a.shape[-2:]
    if rows == 0 or cols == 0:
        return np.zeros(a.shape[:-2])
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        norms = np.full(a.shape[:-2], np.inf)
        norms[finite] = _block_norms(a[finite])
        return norms
    if rows == 1 or cols == 1:
        v = np.abs(a.reshape(a.shape[:-2] + (rows * cols,)))
        top = v.max(axis=-1, keepdims=True)
        scaled = v / np.where(top > 0.0, top, 1.0)
        with np.errstate(over="ignore"):
            return top[..., 0] * np.sqrt(np.sum(scaled * scaled, axis=-1))
    return np.linalg.svd(a, compute_uv=False)[..., 0]


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
