"""Elimination semantics and fused set-valued outputs."""
from __future__ import annotations

import numpy as np
import pytest

from artifact.estimator import (
    Ball,
    all_modes,
    bounding_ball,
    eliminate_step,
)


def test_elimination_is_strict_and_boundary_retains() -> None:
    ms = all_modes(3)
    ms = eliminate_step(ms, 4, {0: (0.5, 0.5), 1: (0.5000001, 0.5), 2: (0.1, 0.5)})
    assert ms.surviving == (0, 2)
    assert ms.eliminated_at == {1: 4}


def test_eliminated_modes_never_return_and_history_accumulates() -> None:
    ms = all_modes(3)
    ms = eliminate_step(ms, 1, {0: (1.0, 0.5), 1: (0.0, 0.5), 2: (0.0, 0.5)})
    ms = eliminate_step(ms, 2, {1: (0.0, 0.5), 2: (2.0, 0.5)})
    assert ms.surviving == (1,)
    assert ms.eliminated_at == {0: 1, 2: 2}
    # later rounds only consult survivors
    ms = eliminate_step(ms, 3, {1: (0.0, 0.5)})
    assert ms.surviving == (1,) and not ms.faulted


def test_surviving_set_is_monotone_under_any_check_order() -> None:
    rng = np.random.default_rng(10)
    ms = all_modes(6)
    sizes = [6]
    for k in range(1, 8):
        checks = {q: (float(rng.uniform(0, 1)), 0.6) for q in ms.surviving}
        ms = eliminate_step(ms, k, checks)
        sizes.append(len(ms.surviving))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    for q, step in ms.eliminated_at.items():
        assert q not in ms.surviving and 1 <= step <= 7


def test_elimination_outcome_is_permutation_invariant() -> None:
    checks = {0: (0.9, 0.5), 1: (0.2, 0.5), 2: (0.7, 0.5), 3: (0.1, 0.5)}
    ms = all_modes(4)
    out_a = eliminate_step(ms, 2, checks)
    out_b = eliminate_step(ms, 2, dict(reversed(list(checks.items()))))
    assert out_a.surviving == out_b.surviving == (1, 3)
    assert out_a.eliminated_at == out_b.eliminated_at


def test_empty_surviving_set_is_a_fault_not_a_crash() -> None:
    ms = all_modes(2)
    ms = eliminate_step(ms, 5, {0: (1.0, 0.1), 1: (1.0, 0.1)})
    assert ms.faulted and ms.surviving == ()


def test_bounding_ball_contains_every_member_ball() -> None:
    rng = np.random.default_rng(3)
    for _ in range(30):
        balls = [
            Ball(center=rng.normal(size=2), radius=float(rng.uniform(0.05, 0.5)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        outer = bounding_ball(balls)
        for b in balls:
            # farthest point of b from the outer center stays inside
            assert (
                np.linalg.norm(b.center - outer.center) + b.radius
                <= outer.radius + 1e-12
            )
    with pytest.raises(ValueError):
        bounding_ball([])
