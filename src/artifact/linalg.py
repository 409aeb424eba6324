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


def _as_stack(m, name: str = "stack") -> np.ndarray:
    """Coerce to a float array of at least two dimensions: a matrix or a
    (..., rows, cols) stack of them."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"{name} must be at least 2-D, got shape {a.shape}")
    return a


def singular_value_cutoff(s: np.ndarray, shape: tuple[int, int]):
    """The rank cutoff of a matrix of the given (rows, cols) shape with
    singular values `s`; a (..., k) stack of singular-value rows gives
    one cutoff per row."""
    if s.shape[-1] == 0:
        return 0.0 if s.ndim == 1 else np.zeros(s.shape[:-1])
    return max(shape) * s[..., 0] * RANK_TOL_FACTOR


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``m = u @ diag_embed(s) @ vt`` as LAPACK returns it.

    ``u`` is (rows, rows), ``vt`` is (cols, cols) and ``s`` has
    min(rows, cols) entries in non-increasing order.  A (..., rows, cols)
    stack factors matrix by matrix, each slice the factors of that
    matrix alone.  Column signs are LAPACK's; a caller that needs a
    deterministic convention applies it (``decomposition.decompose_stack``
    does, for the feedthrough rotations).  Empty matrices factor as
    identities with no singular values.

    Raises
    ------
    NumericalFailure
        If the underlying factorization does not converge.
    """
    try:
        return np.linalg.svd(_as_stack(m, "matrix"), full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def ranks(stack) -> np.ndarray:
    """Number of singular values above the shared relative cutoff, per
    matrix of a (..., rows, cols) stack."""
    a = _as_stack(stack)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2], dtype=int)
    s = np.linalg.svd(a, compute_uv=False)
    cut = singular_value_cutoff(s, a.shape[-2:])
    return np.count_nonzero(s > np.asarray(cut)[..., None], axis=-1)


def diag(values: np.ndarray) -> np.ndarray:
    """The diagonal matrix of each (..., k) row of `values`, row-major
    like ``np.diag``'s."""
    k = values.shape[-1]
    out = np.zeros(values.shape + (k,))
    out[..., range(k), range(k)] = values
    return out


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse, zeroing singular values at or below
    the shared cutoff, so ``pinv`` and ``ranks`` always agree about the
    numerical rank; a (..., rows, cols) stack maps to the stack of its
    matrices' inverses.  The zero matrix (and any empty matrix) maps to
    the transposed-shape zero matrix.

    Column signs do not matter here: flipping u_j and v_j together
    negates both factors of every term v_j (1/s_j) u_j^T, which negation
    reproduces exactly.

    Raises
    ------
    NumericalFailure
        If the underlying factorization does not converge.
    """
    a = _as_stack(m, "matrix")
    rows, cols = a.shape[-2:]
    if rows == 0 or cols == 0:
        return np.zeros(a.shape[:-2] + (cols, rows))
    u, s, vt = svd(a)
    cut = singular_value_cutoff(s, (rows, cols))
    kept = s > np.asarray(cut)[..., None]
    inv = np.where(kept, np.divide(1.0, s, out=np.zeros_like(s), where=kept), 0.0)
    k = s.shape[-1]
    return np.swapaxes(vt[..., :k, :], -1, -2) @ diag(inv) @ np.swapaxes(u[..., :k], -1, -2)


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
    return _block_norms(_as_stack(stack))


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
        width = rows * cols
        v = np.abs(a.reshape(a.shape[:-2] + (width,)))
        if width >= 8:
            top = v.max(axis=-1, keepdims=True)
            scaled = v / np.where(top > 0.0, top, 1.0)
            total = np.sum(scaled * scaled, axis=-1)
            top = top[..., 0]
        else:
            # column by column, which beats a reduction along a short last
            # axis; numpy sums fewer than 8 entries in order, so adding the
            # columns in order gives np.sum's bits
            top = v[..., 0]
            for i in range(1, width):
                top = np.maximum(top, v[..., i])
            scale = np.where(top > 0.0, top, 1.0)
            total = 0.0
            for i in range(width):
                scaled = v[..., i] / scale
                total = total + scaled * scaled
        with np.errstate(over="ignore"):
            return top * np.sqrt(total)
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
