"""Residual definition, stacked noise-word coefficients, and thresholds.

``compute_residual`` is the one place the feedthrough-free innovation is
written; ``observer.step_matrix_stack`` applies it to identity blocks,
so it runs once per group of modes rather than per step.  The residual
at step k is an exact linear image of one long vector ("word")
collecting everything unknown up to k:

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

Their minimum is the elimination threshold.  A group of modes that
shares every array shape is tabulated together: ``build_coefficients``
runs one recursion whose steps are stacked products, and
``triangle_sequences`` one pass, over a leading mode axis; each slice is
the call a lone mode makes, so its bits do not depend on the group.
A group's thresholds are held as (Q, k_max) arrays in a
``ThresholdStack``, and ``runner.run_bank`` reads a block of every row's
``delta_hat`` at once; row i is mode i's ``ThresholdTable``, and
iterating that yields per-step ``ThresholdReport``s.
``build_threshold_table``, the ``thresholds`` command's table, is the
stack of one; it stays one-mode because the benchmark's tracer wraps it
by name and reads its dec and its per-step reports.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .decomposition import DecompositionStack, ModeDecomposition
from .gains import INV_RT2, GainStack, ObserverGains, noise_offset, radius_sequences
from .linalg import spectral_norms
from .system import stack_of


def compute_residual(
    dec: ModeDecomposition, x: np.ndarray, u_k: np.ndarray, y_k: np.ndarray
) -> np.ndarray:
    """Feedthrough-free innovation t2 y - c2 x - d2 u of the estimate x.

    The arguments are vectors or blocks of column vectors, or stacks of
    them.  ``observer.step_matrix_stack`` forms it twice, on identity
    blocks, when it builds the modes' steps: against the time update to
    recover the state-coupled input, and against the pre-correction
    estimate, where it is the residual the mode observer tests.
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
    (k_max, rows, cols) arrays.  The triangle bound reads the norms of
    the a and f blocks and `noise_terms`, each j block's
    `gains.noise_offset`.
    """

    k_max: int
    n: int
    l: int
    a_mats: np.ndarray
    f_mats: np.ndarray
    j_mats: np.ndarray
    a_norms: np.ndarray
    f_norms: np.ndarray
    noise_terms: np.ndarray


@stack_of(ResidualCoefficients)
class CoefficientStack:
    """ResidualCoefficients of modes that share every array shape,
    stacked along a leading mode axis: blocks (Q, k_max, rows, cols),
    norms and noise terms (Q, k_max).  ``mode(i)`` is row i's
    ResidualCoefficients, its arrays views of the stack."""


def build_coefficients(
    gains: GainStack, dec: DecompositionStack, k_max: int
) -> CoefficientStack:
    """The coefficient blocks up to k_max of every mode of a stack, one
    recursion for all of them: each step is one stacked product whose
    slices are the products of a lone mode."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = dec.c2.shape[2]
    l = dec.t2.shape[2]
    c2phi = dec.c2 @ gains.phi
    downdate = -(gains.e @ gains.phi @ gains.psi)

    # only the downdate prefixes need a Python loop; a[i] is the (i+1)-th
    # prefix of every mode, and the f and j blocks are two batched products
    # of them.  The arrays run step-major, so each step of the loop writes
    # one contiguous block; the stack's fields are mode-major views.
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
        noise_terms = noise_offset(j, l, gains.eta_v, gains.eta_w)

    return CoefficientStack(
        k_max=k_max,
        n=n,
        l=l,
        a_mats=np.swapaxes(a, 0, 1),
        f_mats=np.swapaxes(f, 0, 1),
        j_mats=np.swapaxes(j, 0, 1),
        a_norms=spectral_norms(a).T,
        f_norms=spectral_norms(f).T,
        noise_terms=noise_terms.T,
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


def box_radii(k: int, n: int, l: int, gains: GainStack, radii: np.ndarray) -> np.ndarray:
    """Per-coordinate radii of the word hypercube at step k, one row per
    mode of the stack.

    radii holds each mode's a-priori state radii [delta_0, delta_1, ...];
    the drift-mismatch group for step j gets radius lipschitz * delta_j.
    """
    return np.concatenate(
        [
            np.repeat(radii[:, :1], n, axis=1),
            np.repeat(gains.eta_v[:, None], l * (k + 1), axis=1),
            np.repeat(gains.eta_w[:, None], n * k, axis=1),
            np.repeat(gains.lipschitz[:, None] * radii[:, :k], n, axis=1),
        ],
        axis=1,
    )


def triangle_sequences(
    coeffs: CoefficientStack, lipschitz: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Triangle-inequality residual bounds for k = 1..coeffs.k_max, one
    row per mode of the stack.

    Entry k-1 of a row is

        sum_{i=0}^{k-2} lipschitz |f_i| delta_{k-1-i}
        + (|a_{k-1}| + lipschitz |f_{k-1}|) delta_0
        + sum_{i=0}^{k-1} j_i

    with j_i the noise term of block i; the drift sum is empty at k = 1.
    lipschitz holds each mode's constant and radii each mode's a-priori
    radii [delta_0, delta_1, ...], at least k_max of them.  An
    overflowing uncertified mode saturates to +inf; a zero block times
    an infinite radius adds 0, never nan.
    """
    k_max = coeffs.k_max
    lipschitz = lipschitz[:, None]
    drift = np.zeros(coeffs.noise_terms.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # a linear mode's drift blocks add 0, even where their norms overflowed
        lf_f = np.where(lipschitz != 0.0, lipschitz * coeffs.f_norms, 0.0)
        if k_max > 1:
            for row, lf_row, radius_row in zip(drift, lf_f, radii):
                row[1:] = _convolve(lf_row[:-1], radius_row[1:k_max])[: k_max - 1]
        noise = np.cumsum(coeffs.noise_terms, axis=1)
        return drift + noise + (coeffs.a_norms + lf_f) * radii[:, :1]


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


@dataclass(frozen=True, eq=False)
class ThresholdTable:
    """One mode's thresholds for k = 1..k_max, held as arrays indexed by
    k - 1.

    delta_hat is the smaller bound, ``min(delta_tri, delta_inf)``: the
    vertex bound where it is below the triangle bound, else the triangle
    bound.  A capped step enumerated nothing and reads delta_inf = inf.
    Iterating the table yields a ThresholdReport per step, the form in
    which callers of ``build_threshold_table`` (the benchmark tracer's
    count hook among them) read it step by step.
    """

    delta_tri: np.ndarray
    delta_inf: np.ndarray
    delta_hat: np.ndarray
    vertices: np.ndarray
    capped: np.ndarray

    def __iter__(self) -> Iterator[ThresholdReport]:
        columns = (self.delta_tri, self.delta_inf, self.delta_hat, self.vertices, self.capped)
        for k, row in enumerate(zip(*(column.tolist() for column in columns)), start=1):
            yield ThresholdReport(k, *row)


@stack_of(ThresholdTable)
class ThresholdStack:
    """ThresholdTables of the modes of a stack: (Q, k_max) arrays, row i
    the thresholds of mode i.  ``mode(i)`` is row i's ThresholdTable, its
    arrays views of the stack."""


def build_threshold_tables(
    gains: GainStack,
    dec: DecompositionStack,
    radii: np.ndarray,
    max_vertices: int,
) -> ThresholdStack:
    """Thresholds for k = 1..k_max of every mode of a stack, sharing one
    coefficient recursion and one triangle pass.

    radii holds each mode's radius table [delta_0, ..., delta_kmax] from
    ``radius_sequences``, one row each; its length sets k_max.  The word
    grows with k, so the steps within the vertex budget are a prefix;
    only those get boxes (one stacked ``box_radii`` per step) and dense
    matrices, mode by mode.
    """
    k_max = radii.shape[1] - 1
    coeffs = build_coefficients(gains, dec, k_max)
    tri = triangle_sequences(coeffs, gains.lipschitz, radii)
    n, l = coeffs.n, coeffs.l
    enumerable = 0
    while enumerable < k_max and 1 << (word_dim(enumerable + 1, n, l) - 1) <= max_vertices:
        enumerable += 1
    inf = np.full(tri.shape, math.inf)
    vertices = np.zeros(tri.shape, dtype=int)
    capped = np.ones(tri.shape, dtype=bool)
    mode_coeffs = [coeffs.mode(i) for i in range(len(tri) if enumerable else 0)]
    for k in range(1, enumerable + 1):
        boxes = box_radii(k, n, l, gains, radii)
        for i, (mode, box) in enumerate(zip(mode_coeffs, boxes)):
            inf[i, k - 1], vertices[i, k - 1], capped[i, k - 1] = delta_inf(
                assemble_matrix(mode, k), box, max_vertices
            )
    # min(tri, inf): inf only where it is strictly smaller
    hat = np.where(inf < tri, inf, tri)
    return ThresholdStack(tri, inf, hat, vertices, capped)


def build_threshold_table(
    gains: ObserverGains,
    dec: ModeDecomposition,
    delta0: float,
    k_max: int,
    max_vertices: int,
) -> ThresholdTable:
    """One mode's thresholds for k = 1..k_max from the initial radius
    delta0: ``build_threshold_tables`` on the stack of one, with its
    radius table from ``gains.radius_sequences``."""
    stack = GainStack.of(gains)
    radii = radius_sequences(stack, delta0, k_max)
    return build_threshold_tables(stack, DecompositionStack.of(dec), radii, max_vertices).mode(0)
