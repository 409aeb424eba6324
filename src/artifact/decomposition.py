"""Output-channel decomposition along the unknown-input feedthrough.

An SVD of the feedthrough matrix H splits the measurement into a channel
z1 that sees the unknown input directly (through the invertible singular
block) and a channel z2 that is feedthrough-free.  The same rotation
splits the unknown input itself into the part d1 recoverable from z1 and
the remainder d2 that must be inferred through the state.  All later
stages (gains, residuals, thresholds, distinguishability) work in these
coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .system import ModeModel


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


# Entries of rotated blocks below this fraction of the source matrix's
# norm are cancellation dust, not structure; they are snapped to zero so
# that analytically blind channels stay exactly blind downstream.
CLEAN_TOL = 1e-13


def _clean(block: np.ndarray, source: np.ndarray) -> np.ndarray:
    if block.size == 0 or source.size == 0:
        return block
    cut = CLEAN_TOL * float(np.max(np.abs(source)))
    out = block.copy()
    out[np.abs(out) < cut] = 0.0
    return out


def _canonical_signs(m: np.ndarray) -> np.ndarray:
    """+1.0 or -1.0 per column of `m`, making the column's largest-magnitude
    entry (first such row on ties) non-negative: the one sign convention
    for SVD factors.  A column and its negation map to the same bits."""
    return np.array([-1.0 if col[np.abs(col).argmax()] < 0.0 else 1.0 for col in m.T])


def decompose(mode: ModeModel) -> ModeDecomposition:
    """Split a mode's output and unknown-input spaces along rank(H).

    Each paired column u1_j gets the canonical sign and v1_j follows it,
    keeping H = u1 sigma v1.T; the complements u2 and v2 multiply a zero
    block, so each of their columns is signed on its own.
    """
    h = mode.h
    l, p = h.shape
    u, s, vt = linalg.svd(h)
    cut = linalg.singular_value_cutoff(s, h.shape)
    p_h = int(np.count_nonzero(s > cut))
    if p_h == 0:
        # no feedthrough at all: fix the free rotations to the identity
        u1 = np.zeros((l, 0))
        u2 = np.eye(l)
        v1 = np.zeros((p, 0))
        v2 = np.eye(p)
        sigma = np.zeros((0, 0))
    else:
        v = vt.T
        signs = _canonical_signs(u)
        u *= signs
        v *= np.concatenate([signs[:p_h], _canonical_signs(v[:, p_h:])])
        u1, v1 = u[:, :p_h], v[:, :p_h]
        # row-major copies, the layout these blocks have always had: the
        # last bit of a product below can depend on its operands' layout
        u2, v2 = u[:, p_h:].copy(), v[:, p_h:].copy()
        sigma = np.diag(s[:p_h])
    t1 = u1.T
    t2 = u2.T
    return ModeDecomposition(
        p_h=p_h,
        sigma=sigma,
        v1=v1,
        v2=v2,
        t1=t1,
        t2=t2,
        c1=_clean(t1 @ mode.c, mode.c),
        c2=_clean(t2 @ mode.c, mode.c),
        d1=_clean(t1 @ mode.d, mode.d),
        d2=_clean(t2 @ mode.d, mode.d),
        g1=_clean(mode.g @ v1, mode.g),
        g2=_clean(mode.g @ v2, mode.g),
    )


def split_output(dec: ModeDecomposition, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a raw measurement, or a block of measurement columns, into
    (z1, z2)."""
    y = np.asarray(y, dtype=float)
    return dec.t1 @ y, dec.t2 @ y
