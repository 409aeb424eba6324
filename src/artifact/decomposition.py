"""Output-channel decomposition along the unknown-input feedthrough.

An SVD of the feedthrough matrix H splits the measurement into a channel
z1 that sees the unknown input directly (through the invertible singular
block) and a channel z2 that is feedthrough-free.  The same rotation
splits the unknown input itself into the part d1 recoverable from z1 and
the remainder d2 that must be inferred through the state.  All later
stages (gains, residuals, thresholds, distinguishability) work in these
coordinates.  ``decompose_stack`` rotates a stack of modes of one shape
with one batched SVD and splits it by rank(H); a lone mode is a stack
of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .system import ModeStack, stack_of


@dataclass(frozen=True)
class ModeDecomposition:
    """Rotated measurement/input coordinates for one mode.

    With r = rank(H) and H = u1 sigma v1.T: sigma is (r, r) diagonal
    positive; t1 = u1.T maps y to the feedthrough-coupled channel z1
    (r rows) and t2 = u2.T to the feedthrough-free channel z2 (l - r
    rows, t2 @ h = 0).  v1/v2 split the unknown input; g1 = g @ v1,
    g2 = g @ v2.
    Degenerate ranks produce genuinely empty blocks: r = 0 pins t2 to the
    identity and v2 to the identity; r = p = l leaves t2 with zero rows.
    """

    p_h: int
    sigma: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    @property
    def z2_dim(self) -> int:
        return self.t2.shape[0]


@stack_of(ModeDecomposition)
class DecompositionStack:
    """ModeDecompositions of modes that share (n, m, l, p) and rank(H),
    stacked along a leading mode axis.  ``mode(i)`` is row i's
    ModeDecomposition; its blocks are views of the stack with the memory
    layouts a lone decomposition has (the last bit of a product can
    depend on its operands' layout)."""


# Entries of rotated blocks below this fraction of the source matrix's
# norm are cancellation dust, not structure; they are snapped to zero so
# that analytically blind channels stay exactly blind downstream.
CLEAN_TOL = 1e-13


def _clean(block: np.ndarray, source: np.ndarray) -> np.ndarray:
    """`block` with its dust zeroed, per matrix of a (Q, rows, cols) stack."""
    if block.size == 0 or source.size == 0:
        return block
    cut = CLEAN_TOL * np.abs(source).max(axis=(1, 2))
    out = block.copy()
    out[np.abs(out) < cut[:, None, None]] = 0.0
    return out


def _canonical_signs(m: np.ndarray) -> np.ndarray:
    """+1.0 or -1.0 per column of each matrix of a (Q, rows, cols) stack,
    making the column's largest-magnitude entry (first such row on ties)
    non-negative: the one sign convention for SVD factors.  A column and
    its negation map to the same bits."""
    q_count, _, cols = m.shape
    top = m[np.arange(q_count)[:, None], np.abs(m).argmax(axis=1), np.arange(cols)]
    return np.where(top < 0.0, -1.0, 1.0)


def decompose_stack(
    modes: ModeStack,
) -> list[tuple[list[int], ModeStack, DecompositionStack]]:
    """Split the output and unknown-input spaces of a stack of modes
    along rank(H): one batched SVD of H, then one DecompositionStack per
    rank, with the rows of `modes` it holds and their ModeStack, in
    order of each rank's first row.

    Each paired column u1_j gets the canonical sign and v1_j follows it,
    keeping H = u1 sigma v1.T; the complements u2 and v2 multiply a zero
    block, so each of their columns is signed on its own.
    """
    q_count, l, p = modes.h.shape
    if l == 0 or p == 0:
        return [(list(range(q_count)), modes, _rotate(modes, 0, None))]
    u, s, vt = linalg.svd(modes.h)
    cut = linalg.singular_value_cutoff(s, (l, p))
    p_hs = np.count_nonzero(s > cut[:, None], axis=1).tolist()
    groups: dict[int, list[int]] = {}
    for i, p_h in enumerate(p_hs):
        groups.setdefault(p_h, []).append(i)
    out = []
    for p_h, rows in groups.items():
        if len(rows) < q_count:
            part, factors = modes.take(rows), (u[rows], s[rows], vt[rows])
        else:
            part, factors = modes, (u, s, vt)
        out.append((rows, part, _rotate(part, p_h, factors)))
    return out


def _rotate(modes: ModeStack, p_h: int, factors) -> DecompositionStack:
    """The DecompositionStack of modes whose H all have rank p_h, from
    their SVD factors (u, s, vt)."""
    q_count, l, p = modes.h.shape
    if p_h == 0:
        # no feedthrough at all: fix the free rotations to the identity
        u1 = np.zeros((q_count, l, 0))
        u2 = np.repeat(np.eye(l)[None], q_count, axis=0)
        v1 = np.zeros((q_count, p, 0))
        v2 = np.repeat(np.eye(p)[None], q_count, axis=0)
        sigma = np.zeros((q_count, 0, 0))
    else:
        u, s, vt = factors
        v = np.swapaxes(vt, 1, 2)
        signs = _canonical_signs(u)
        u *= signs[:, None, :]
        v *= np.concatenate([signs[:, :p_h], _canonical_signs(v[:, :, p_h:])], axis=1)[:, None, :]
        u1, v1 = u[:, :, :p_h], v[:, :, :p_h]
        # row-major copies, the layout these blocks have always had: the
        # last bit of a product below can depend on its operands' layout
        u2, v2 = u[:, :, p_h:].copy(), v[:, :, p_h:].copy()
        sigma = linalg.diag(s[:, :p_h])
    t1 = np.swapaxes(u1, 1, 2)
    t2 = np.swapaxes(u2, 1, 2)
    return DecompositionStack(
        p_h=p_h,
        sigma=sigma,
        v1=v1,
        v2=v2,
        t1=t1,
        t2=t2,
        c1=_clean(t1 @ modes.c, modes.c),
        c2=_clean(t2 @ modes.c, modes.c),
        d1=_clean(t1 @ modes.d, modes.d),
        d2=_clean(t2 @ modes.d, modes.d),
        g1=_clean(modes.g @ v1, modes.g),
        g2=_clean(modes.g @ v2, modes.g),
    )

