"""Residual definition, stacked noise-word coefficients, and thresholds.

The feedthrough-free residual at step k is an exact linear image of one
long vector ("word") collecting everything unknown up to k:

    t_k = [x_err_0 | v_0 .. v_k | w_0 .. w_{k-1} | df_0 .. df_{k-1}]

where df_j = f(x_j) - f(x-hat_{j|j}) is the realized drift mismatch.
The coefficient matrix is built from a first-step block and a one-step
downdate applied repeatedly, so all blocks for a whole horizon come out
of a single recursion.  Two computable residual-norm bounds follow:

* a triangle bound (block norms times per-block radii).  The block norms
  come from one batched SVD per block family, and the bound for every
  k = 1..k_max comes out of one convolution and one cumulative sum; the
  threshold table and `check-detectability` share that one sequence;
* the exact maximum of the linear image over the hypercube of radii,
  by vertex enumeration, exponential in the word length and therefore
  capped.  The box and the dense word matrix are built only for the
  steps within the vertex budget.

Their minimum is the elimination threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import ModeDecomposition
from .gains import ObserverGains
from .linalg import spectral_norms
from .observer import radius_sequence

INV_RT2 = 1.0 / math.sqrt(2.0)


def compute_residual(
    dec: ModeDecomposition, x_star: np.ndarray, u_k: np.ndarray, y_k: np.ndarray
) -> np.ndarray:
    """Feedthrough-free innovation against the pre-correction estimate."""
    y_k = np.asarray(y_k, dtype=float).reshape(-1)
    return dec.t2 @ y_k - dec.c2 @ x_star - dec.d2 @ np.asarray(u_k, dtype=float)


@dataclass(frozen=True)
class ResidualCoefficients:
    """Blocks of the residual's word coefficients up to a horizon.

    For step k the residual equals

        a_mats[k-1] @ x_err_0
        + sum_i f_mats[i] @ df_{k-1-i}
        + sum_i j_mats[i] @ [v_{k-1-i}/sqrt2; w_{k-1-i}; v_{k-i}/sqrt2]

    with i running over 0..k-1.  Norm arrays are precomputed for the
    triangle bound; j-norms are split by the [l | n | l] sub-columns.
    """

    k_max: int
    n: int
    l: int
    a_mats: tuple[np.ndarray, ...]
    f_mats: tuple[np.ndarray, ...]
    j_mats: tuple[np.ndarray, ...]
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
    ephipsi = gains.e @ gains.phi @ gains.psi

    a_mats: list[np.ndarray] = []
    f_mats: list[np.ndarray] = [c2phi]
    j_mats: list[np.ndarray] = [gains.y_cal]
    prefix = -c2phi @ gains.psi  # the i = 1 downdate prefix
    # past an overflow (uncertified modes) blocks hold inf/nan; their norms read +inf
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k_max + 1):
            a_mats.append(prefix)
            if i < k_max:
                f_mats.append(prefix @ gains.e @ gains.phi)
                j_mats.append(prefix @ gains.w_cal)
            prefix = -prefix @ ephipsi

    j_stack = np.stack(j_mats)
    return ResidualCoefficients(
        k_max=k_max,
        n=n,
        l=l,
        a_mats=tuple(a_mats),
        f_mats=tuple(f_mats),
        j_mats=tuple(j_mats),
        a_norms=spectral_norms(np.stack(a_mats)),
        f_norms=spectral_norms(np.stack(f_mats)),
        j_v_norms=spectral_norms(j_stack[:, :, :l]),
        j_w_norms=spectral_norms(j_stack[:, :, l : l + n]),
        j_v_next_norms=spectral_norms(j_stack[:, :, l + n :]),
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
    k: int,
    n: int,
    l: int,
    lipschitz: float,
    delta0: float,
    eta_v: float,
    eta_w: float,
    radius_seq: np.ndarray,
) -> np.ndarray:
    """Per-coordinate radii of the word hypercube at step k.

    radius_seq holds the a-priori state radii [delta_0, delta_1, ...];
    the drift-mismatch group for step j gets radius lipschitz * delta_j.
    """
    return np.concatenate(
        [
            np.full(n, float(delta0)),
            np.full(l * (k + 1), float(eta_v)),
            np.full(n * k, float(eta_w)),
            np.repeat(lipschitz * np.asarray(radius_seq[:k], dtype=float), n),
        ]
    )


def triangle_sequence(
    coeffs: ResidualCoefficients,
    lipschitz: float,
    delta0: float,
    eta_v: float,
    eta_w: float,
    radius_seq: np.ndarray,
) -> np.ndarray:
    """Triangle-inequality residual bounds for k = 1..coeffs.k_max.

    Entry k-1 is

        sum_{i=0}^{k-2} lipschitz |f_i| delta_{k-1-i}
        + (|a_{k-1}| + lipschitz |f_{k-1}|) delta0
        + sum_{i=0}^{k-1} j_i

    with j_i the noise-block term; the drift sum is empty at k = 1.
    radius_seq holds the a-priori radii [delta_0, delta_1, ...] and needs
    at least k_max entries.  An overflowing uncertified mode saturates
    to +inf; a zero block times an infinite radius adds 0, never nan.
    """
    k_max = coeffs.k_max
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
        return drift + np.cumsum(j_terms) + (coeffs.a_norms + lf_f) * float(delta0)


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
    +-t symmetry halves the vertex set, so 2^(dim-1) sign patterns are
    enumerated (first coordinate pinned positive).  Returns
    (value, vertices_enumerated, capped); a capped query reports +inf and
    enumerates nothing.
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


def eta_t(
    k: int,
    n: int,
    l: int,
    lipschitz: float,
    delta0: float,
    eta_v: float,
    eta_w: float,
    radius_seq: np.ndarray,
) -> float:
    """Common Euclidean norm of every vertex of the step-k word hypercube."""
    lf2 = lipschitz * lipschitz
    tail = sum(float(radius_seq[j]) ** 2 for j in range(1, k))
    return math.sqrt(
        n * ((1.0 + lf2) * delta0**2 + k * eta_w**2 + lf2 * tail)
        + l * (k + 1) * eta_v**2
    )


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
    delta0: float,
    k_max: int,
    max_vertices: int,
    radius_seq: np.ndarray | None = None,
) -> list[ThresholdReport]:
    """Thresholds for k = 1..k_max, sharing one coefficient recursion.

    The word grows with k, so the steps within the vertex budget are a
    prefix; only those get a box and a dense matrix.
    """
    if radius_seq is None:
        radius_seq = radius_sequence(gains, delta0, k_max)
    coeffs = build_coefficients(gains, dec, k_max)
    lf, eta_v, eta_w = gains.lipschitz, gains.eta_v, gains.eta_w
    tri = triangle_sequence(coeffs, lf, delta0, eta_v, eta_w, radius_seq)
    n, l = coeffs.n, coeffs.l
    enumerable = 0
    while enumerable < k_max and 1 << (word_dim(enumerable + 1, n, l) - 1) <= max_vertices:
        enumerable += 1
    table: list[ThresholdReport] = []
    for k, tri_k in enumerate(tri.tolist(), start=1):
        if k <= enumerable:
            box = box_radii(k, n, l, lf, delta0, eta_v, eta_w, radius_seq)
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
