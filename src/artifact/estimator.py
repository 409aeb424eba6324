"""Mode elimination and fused set-valued output.

A mode hypothesis dies the moment its measured residual norm strictly
exceeds its threshold: the threshold is a sound bound on everything the
hypothesis could explain, so the exceedance is a proof of inconsistency,
not a heuristic.  Dead hypotheses never return.  An empty surviving set
is a first-class fault (the true plant matches no hypothesis) that the
caller reports; it is not an exception mid-pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ModeSet:
    """Surviving hypotheses (0-based indices) plus elimination history."""

    surviving: tuple[int, ...]
    eliminated_at: dict[int, int] = field(default_factory=dict)

    @property
    def faulted(self) -> bool:
        return len(self.surviving) == 0


def all_modes(count: int) -> ModeSet:
    if count < 1:
        raise ValueError("need at least one mode")
    return ModeSet(surviving=tuple(range(count)))


def eliminate_step(mode_set: ModeSet, k: int, checks: dict[int, tuple]) -> ModeSet:
    """Apply strict residual-vs-threshold elimination over consecutive
    steps from k; the package's one elimination rule.

    `checks` maps a mode to (residual_norms, thresholds): two floats for
    step k alone, or two equal-length arrays over steps k, k + 1, ....
    A surviving mode dies at its first step whose residual norm exceeds
    its threshold.  Retention is non-strict: a residual exactly on the
    threshold keeps the hypothesis alive, and so does a NaN norm.  A
    surviving mode without an entry is untouched.
    """
    kept: list[int] = []
    eliminated = dict(mode_set.eliminated_at)
    for q in mode_set.surviving:
        over = np.flatnonzero(np.greater(*checks[q])) if q in checks else ()
        if len(over):
            eliminated[q] = k + int(over[0])
        else:
            kept.append(q)
    return ModeSet(surviving=tuple(kept), eliminated_at=eliminated)


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball, the set-valued estimate primitive."""

    center: np.ndarray
    radius: float


def bounding_ball(balls: tuple[Ball, ...] | list[Ball]) -> Ball:
    """One ball containing the union of `balls`.

    Convenience only, and a strict over-approximation in general: the
    center is the plain centroid and the radius the worst
    center-distance-plus-radius.  Prefer the ball list itself.
    """
    if not balls:
        raise ValueError("no balls to bound")
    centers = np.stack([b.center for b in balls])
    center = centers.mean(axis=0)
    radius = max(float(np.linalg.norm(b.center - center)) + b.radius for b in balls)
    return Ball(center=center, radius=radius)
