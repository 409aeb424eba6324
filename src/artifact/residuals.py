"""Residual definition, stacked noise-word coefficients, and thresholds.

``compute_residual`` is the one place the feedthrough-free innovation is
written; ``observer.step_matrix`` applies it to identity blocks, so it
runs once per mode rather than per step.  The residual at step k is an
exact linear image of one long vector ("word") collecting everything
unknown up to k:

    t_k = [x_err_0 | v_0 .. v_k | w_0 .. w_{k-1} | df_0 .. df_{k-1}]

where df_j = f(x_j) - f(x-hat_{j|j}) is the realized drift mismatch.
The coefficient matrix is built from a first-step block and a one-step
downdate applied repeatedly, so all blocks for a whole horizon come out
of a single recursion.  Two computable residual-norm bounds follow:

* a triangle bound (block norms times per-block radii).  The block norms
  come from `spectral_norms`, a closed form for one-row blocks and one
  batched SVD per block family otherwise, and the bound for every
  k = 1..k_max comes out of one convolution and one cumulative sum; the
  threshold table and `check-detectability` share that one sequence;
* the exact maximum of the linear image over the hypercube of radii:
  a closed form for a one-row residual, otherwise vertex enumeration,
  exponential in the word length.  Both are capped by the same vertex
  budget, and the box and the dense word matrix are built only for the
  steps within it.

Their minimum is the elimination threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import ModeDecomposition
from .gains import ObserverGains
from .linalg import spectral_norms

INV_RT2 = 1.0 / math.sqrt(2.0)


def compute_residual(
    dec: ModeDecomposition, x: np.ndarray, u_k: np.ndarray, y_k: np.ndarray
) -> np.ndarray:
    """Feedthrough-free innovation t2 y - c2 x - d2 u of the estimate x.

    The arguments are vectors or blocks of column vectors.
    ``observer.step_matrix`` forms it twice, on identity blocks, when it
    builds a mode's step: against the time update to recover the
    state-coupled input, and against the pre-correction estimate, where
    it is the residual the mode observer tests.
    """
    return dec.t2 @ y_k - dec.c2 @ x - dec.d2 @ u_k


@dataclass(frozen=True)
class ResidualCoefficients:
    """Blocks of the residual's word coefficients up to a horizon.

    For step k the residual equals

        a_mats[k-1] @ x_err_0
        + sum_i f_mats[i] @ df_{k-1-i}
        + sum_i j_mats[i] @ [v_{k-1-i}/sqrt2; w_{k-1-i}; v_{k-i}/sqrt2]

    with i running over 0..k-1.  The blocks are stacked in
    (k_max, rows, cols) arrays.  Norm arrays are precomputed for the
    triangle bound; j-norms are split by the [l | n | l] sub-columns.
    """

    k_max: int
    n: int
    l: int
    a_mats: np.ndarray
    f_mats: np.ndarray
    j_mats: np.ndarray
    a_norms: np.ndarray
    f_norms: np.ndarray
    j_v_norms: np.ndarray
    j_w_norms: np.ndarray
    j_v_next_norms: np.ndarray


def build_coefficients(
    gains: ObserverGains, dec: ModeDecomposition, k_max: int
) -> ResidualCoefficients:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = dec.c2.shape[1]
    l = dec.t2.shape[1]
    c2phi = dec.c2 @ gains.phi
    downdate = -(gains.e @ gains.phi @ gains.psi)

    # only the downdate prefixes need a Python loop; a[i] is the (i+1)-th
    # prefix, and the f and j blocks are two batched products of them
    a = np.empty((k_max,) + c2phi.shape)
    f = np.empty((k_max,) + c2phi.shape)
    j = np.empty((k_max,) + gains.y_cal.shape)
    f[0], j[0] = c2phi, gains.y_cal
    # past an overflow (uncertified modes) blocks hold inf/nan; their norms read +inf
    with np.errstate(over="ignore", invalid="ignore"):
        a[0] = -c2phi @ gains.psi
        for prev, block in zip(a, a[1:]):
            np.matmul(prev, downdate, out=block)
        f[1:] = a[:-1] @ gains.e @ gains.phi
        j[1:] = a[:-1] @ gains.w_cal

    return ResidualCoefficients(
        k_max=k_max,
        n=n,
        l=l,
        a_mats=a,
        f_mats=f,
        j_mats=j,
        a_norms=spectral_norms(a),
        f_norms=spectral_norms(f),
        j_v_norms=spectral_norms(j[:, :, :l]),
        j_w_norms=spectral_norms(j[:, :, l : l + n]),
        j_v_next_norms=spectral_norms(j[:, :, l + n :]),
    )


def word_dim(k: int, n: int, l: int) -> int:
    return n + l * (k + 1) + 2 * n * k


def assemble_matrix(coeffs: ResidualCoefficients, k: int) -> np.ndarray:
    """Dense word-coefficient matrix for step k (sqrt2 factors folded in)."""
    if not 1 <= k <= coeffs.k_max:
        raise ValueError(f"k must be in 1..{coeffs.k_max}")
    n, l = coeffs.n, coeffs.l
    rows = coeffs.f_mats[0].shape[0]
    off_v = n
    off_w = n + l * (k + 1)
    off_f = off_w + n * k
    m = np.zeros((rows, word_dim(k, n, l)))
    m[:, :n] = coeffs.a_mats[k - 1]
    for i in range(k):
        j = coeffs.j_mats[i]
        step = k - 1 - i
        m[:, off_f + step * n : off_f + (step + 1) * n] += coeffs.f_mats[i]
        m[:, off_v + step * l : off_v + (step + 1) * l] += INV_RT2 * j[:, :l]
        m[:, off_w + step * n : off_w + (step + 1) * n] += j[:, l : l + n]
        m[:, off_v + (step + 1) * l : off_v + (step + 2) * l] += INV_RT2 * j[:, l + n :]
    return m


def box_radii(
    k: int, n: int, l: int, gains: ObserverGains, radius_seq: np.ndarray
) -> np.ndarray:
    """Per-coordinate radii of the word hypercube at step k.

    radius_seq holds the a-priori state radii [delta_0, delta_1, ...];
    the drift-mismatch group for step j gets radius lipschitz * delta_j.
    """
    return np.concatenate(
        [
            np.full(n, float(radius_seq[0])),
            np.full(l * (k + 1), gains.eta_v),
            np.full(n * k, gains.eta_w),
            np.repeat(gains.lipschitz * np.asarray(radius_seq[:k], dtype=float), n),
        ]
    )


def triangle_sequence(
    coeffs: ResidualCoefficients, gains: ObserverGains, radius_seq: np.ndarray
) -> np.ndarray:
    """Triangle-inequality residual bounds for k = 1..coeffs.k_max.

    Entry k-1 is

        sum_{i=0}^{k-2} lipschitz |f_i| delta_{k-1-i}
        + (|a_{k-1}| + lipschitz |f_{k-1}|) delta_0
        + sum_{i=0}^{k-1} j_i

    with j_i the noise-block term; the drift sum is empty at k = 1.
    lipschitz and the noise bounds are the gains' own; radius_seq holds
    the a-priori radii [delta_0, delta_1, ...] and needs at least k_max
    entries.  An overflowing uncertified mode saturates to +inf; a zero
    block times an infinite radius adds 0, never nan.
    """
    k_max = coeffs.k_max
    lipschitz, eta_v, eta_w = gains.lipschitz, gains.eta_v, gains.eta_w
    drift = np.zeros(k_max)
    with np.errstate(over="ignore"):
        # a linear mode's drift blocks add 0, even where their norms overflowed
        lf_f = lipschitz * coeffs.f_norms if lipschitz else np.zeros(k_max)
        if k_max > 1:
            radii = np.asarray(radius_seq[1:k_max], dtype=float)
            drift[1:] = _convolve(lf_f[:-1], radii)[: k_max - 1]
        j_terms = INV_RT2 * eta_v * (coeffs.j_v_norms + coeffs.j_v_next_norms) + (
            eta_w * coeffs.j_w_norms
        )
        return drift + np.cumsum(j_terms) + (coeffs.a_norms + lf_f) * float(radius_seq[0])


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution of non-negative sequences in which 0 * inf is 0."""
    a_inf, b_inf = np.isinf(a), np.isinf(b)
    out = np.convolve(np.where(a_inf, 0.0, a), np.where(b_inf, 0.0, b))
    if a_inf.any() or b_inf.any():
        # count infinite-times-nonzero pairs; integer counts survive FFT rounding
        n, f = 1 << out.size.bit_length(), np.fft.rfft
        pairs = f(a_inf, n) * f(b != 0.0, n) + f(a != 0.0, n) * f(b_inf, n)
        out[np.fft.irfft(pairs, n)[: out.size] > 0.5] = np.inf
    return out


def delta_inf(
    matrix: np.ndarray, box: np.ndarray, max_vertices: int
) -> tuple[float, int, bool]:
    """Exact max of ||matrix @ t|| over the hypercube |t_i| <= box_i.

    The maximum of a convex function over a box sits on a vertex, and the
    +-t symmetry halves the vertex set, so the maximum ranges over the
    2^(dim-1) sign patterns with the first coordinate pinned positive.
    One row has the closed form sum_i |m_i| box_i; more rows enumerate
    the sign patterns.  Returns (value, vertices_enumerated, capped),
    where the count is the 2^(dim-1) box vertices the maximum covers; the
    vertex budget applies to that count, and a capped query reports +inf
    and covers nothing.
    """
    box = np.asarray(box, dtype=float).reshape(-1)
    dim = box.size
    if dim == 0:
        return 0.0, 0, False
    total = 1 << (dim - 1)
    if total > max_vertices:
        return math.inf, 0, True
    scaled = matrix * box[None, :]
    if scaled.shape[0] == 0:
        return 0.0, total, False
    if scaled.shape[0] == 1:
        return float(np.sum(np.abs(scaled))), total, False
    base = scaled[:, 0]
    rest = scaled[:, 1:]
    free = dim - 1
    shifts = np.arange(free, dtype=np.uint64)[None, :]
    best = 0.0
    batch = 1 << 14
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.uint64)[:, None]
        signs = 1.0 - 2.0 * ((idx >> shifts) & np.uint64(1))
        pts = base[:, None] + rest @ signs.T
        best = max(best, float(np.sqrt(np.max(np.sum(pts * pts, axis=0)))))
    return best, total, False


@dataclass(frozen=True)
class ThresholdReport:
    """Elimination threshold data for one mode at one step."""

    k: int
    delta_tri: float
    delta_inf: float
    delta_hat: float
    vertices_enumerated: int
    capped: bool


def build_threshold_table(
    gains: ObserverGains,
    dec: ModeDecomposition,
    radius_seq: np.ndarray,
    max_vertices: int,
) -> list[ThresholdReport]:
    """Thresholds for k = 1..k_max, sharing one coefficient recursion.

    radius_seq is the mode's radius table [delta_0, ..., delta_kmax]
    from `radius_sequence`; its length sets k_max.  The word grows with
    k, so the steps within the vertex budget are a prefix; only those
    get a box and a dense matrix.
    """
    k_max = len(radius_seq) - 1
    coeffs = build_coefficients(gains, dec, k_max)
    tri = triangle_sequence(coeffs, gains, radius_seq)
    n, l = coeffs.n, coeffs.l
    enumerable = 0
    while enumerable < k_max and 1 << (word_dim(enumerable + 1, n, l) - 1) <= max_vertices:
        enumerable += 1
    table: list[ThresholdReport] = []
    for k, tri_k in enumerate(tri.tolist(), start=1):
        if k <= enumerable:
            box = box_radii(k, n, l, gains, radius_seq)
            inf_val, count, capped = delta_inf(assemble_matrix(coeffs, k), box, max_vertices)
        else:
            inf_val, count, capped = math.inf, 0, True
        table.append(
            ThresholdReport(
                k=k,
                delta_tri=tri_k,
                delta_inf=inf_val,
                delta_hat=min(tri_k, inf_val),
                vertices_enumerated=count,
                capped=capped,
            )
        )
    return table
