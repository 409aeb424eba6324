"""Fixed-gain recursive observers for a bank of mode hypotheses.

Each step runs three stages against the rotated measurement: time update
with the previous direct-feedthrough input estimate, recovery of the
state-coupled input component from the feedthrough-free channel, and a
gain correction on the same channel.  The direct component is then read
off the feedthrough channel.  Only the drift f is nonlinear, so the whole
update is linear in [f(x-hat_{k-1}); d1-hat_{k-1}; u_{k-1}; u_k; y_k]:
``step_matrix_stack`` runs the stages once per group of equally shaped
modes on identity column blocks.
Every mode consumes the same (u, y), so ``stack_observers`` stacks the
modes whose step matrices share a shape and whose drifts share a kind,
and ``step_observer`` advances all stacks with one stacked product each;
a stack of one is the single-mode observer.  A step updates only the
centers and emits its innovation, the residual the mode observer tests:
the error radii read no measurement, so ``gains.radius_sequence``
tabulates them once per mode.

The input estimate is inherently one step delayed: after processing y_k
the observer reports d-hat for step k-1.  Initialization already consumes
(y_0, u_0) because the first time update needs the direct component at
step 0; starting it at zero would both break the radius guarantee and
leave the step-1 residual unexplained by the noise word.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .decomposition import DecompositionStack, ModeDecomposition, split_output
from .errors import NumericalFailure
from .gains import GainStack, ObserverGains
from .residuals import compute_residual
from .system import ModeModel, ModeStack, drift, drift_matrices


@dataclass(frozen=True)
class ObserverState:
    """Observer outputs after processing the measurement at step k.

    `residual` is the feedthrough-free innovation against the
    pre-correction estimate (None at k = 0, where no step has run).
    `d_hat_prev` estimates the unknown input at step k-1 (None at k = 0,
    where no full input estimate exists yet).  `d1_hat` is the current
    direct-component estimate feeding the next time update.
    """

    k: int
    x_hat: np.ndarray
    d1_hat: np.ndarray
    d_hat_prev: np.ndarray | None
    residual: np.ndarray | None


def _direct_input(
    dec: ModeDecomposition, gains: ObserverGains, x: np.ndarray, u: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Direct-feedthrough input component m1 (z1 - c1 x - d1 u)."""
    z1, _ = split_output(dec, y)
    return gains.m1 @ (z1 - dec.c1 @ x - dec.d1 @ u)


def init_observer(
    dec: ModeDecomposition,
    gains: ObserverGains,
    x_hat0: np.ndarray,
    y0: np.ndarray,
    u0: np.ndarray,
) -> ObserverState:
    x_hat0 = np.asarray(x_hat0, dtype=float).reshape(-1)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    d1_hat = _direct_input(dec, gains, x_hat0, np.asarray(u0, dtype=float), y0)
    return ObserverState(k=0, x_hat=x_hat0, d1_hat=d1_hat, d_hat_prev=None, residual=None)


def step_matrix_stack(modes: ModeStack, dec: DecompositionStack, gains: GainStack) -> np.ndarray:
    """Each mode's linear step map from [f(x-hat); d1-hat; u_{k-1}; u_k; y_k]
    to [x-hat_k; d1-hat_k; d-hat_{k-1}; residual_k], stacked (Q, R, C).

    Each stage runs once, with every input replaced by its row block of
    the identity, so a stage's result is its coefficient block on the
    stacked input; the stages' products are stacked, each slice the
    product of a lone mode.
    """
    n, p1, m = modes.n, dec.p_h, modes.m
    f_x, d1_hat, u_prev, u_k, y_k = np.split(
        np.eye(n + p1 + 2 * m + modes.l), np.cumsum([n, p1, m, m])
    )
    x_pred = f_x + modes.b @ u_prev + dec.g1 @ d1_hat
    d2_prev = gains.m2 @ compute_residual(dec, x_pred, u_k, y_k)
    x_star = x_pred + dec.g2 @ d2_prev
    residual = compute_residual(dec, x_star, u_k, y_k)
    x_hat = x_star + gains.l_gain @ residual
    d1_next = _direct_input(dec, gains, x_hat, u_k, y_k)
    d_prev = dec.v1 @ d1_hat + dec.v2 @ d2_prev
    return np.concatenate([x_hat, d1_next, d_prev, residual], axis=1)


@dataclass(frozen=True)
class ObserverStack:
    """Observers of modes that share a step-matrix shape and drift kind,
    stacked along a leading axis: row i belongs to bank mode ``modes[i]``.

    A step's output row is [x-hat_k | d1-hat_k | d-hat_{k-1} | residual_k],
    of widths n, p1, p and the rest.  `a` and `a_tilde` stack the modes'
    ``system.drift_matrices``.
    """

    modes: tuple[int, ...]  # 0-based bank indices, ascending
    step: np.ndarray  # (Q, R, C): each mode's step map from ``step_matrix_stack``
    a: np.ndarray  # (Q, n, n)
    a_tilde: np.ndarray | None  # (Q, n, n), None for linear drifts
    n: int
    p1: int
    p: int

    def take(self, rows: np.ndarray) -> ObserverStack:
        """The stack of the given rows only."""
        return replace(
            self,
            modes=tuple(self.modes[i] for i in rows),
            step=self.step[rows],
            a=self.a[rows],
            a_tilde=None if self.a_tilde is None else self.a_tilde[rows],
        )

    def residual_norms(self, outputs: np.ndarray) -> np.ndarray:
        """The residual norm of every output row (the last axis) in
        `outputs`; each is the dot product a one-mode ``r @ r`` takes,
        under its square root."""
        res = outputs[..., None, self.n + self.p1 + self.p :]
        return np.sqrt(np.matmul(res, np.swapaxes(res, -1, -2)))[..., 0, 0]

    def state(self, row: np.ndarray, k: int) -> ObserverState:
        """The ObserverState of one output row after step k; at k = 0 the
        row holds only [x-hat_0 | d1-hat_0]."""
        n1 = self.n + self.p1
        n2 = n1 + self.p
        return ObserverState(
            k=k,
            x_hat=row[: self.n],
            d1_hat=row[self.n : n1],
            d_hat_prev=row[n1:n2] if k else None,
            residual=row[n2:] if k else None,
        )


def stack_observers(bank: Sequence[tuple[ModeModel, np.ndarray]]) -> list[ObserverStack]:
    """Group a bank of (mode, step matrix) pairs into stacks of equal
    step-matrix shape, input widths and drift kind, in order of each
    group's first mode."""
    groups: dict[tuple, list[int]] = {}
    for q, (mode, step) in enumerate(bank):
        p1 = step.shape[1] - mode.n - 2 * mode.m - mode.l
        linear = drift_matrices(mode.field)[1] is None
        groups.setdefault((step.shape, p1, mode.p, linear), []).append(q)
    stacks = []
    for (_, p1, p, linear), modes in groups.items():
        a, a_tilde = zip(*(drift_matrices(bank[q][0].field) for q in modes))
        stacks.append(
            ObserverStack(
                modes=tuple(modes),
                step=np.stack([bank[q][1] for q in modes]),
                a=np.stack(a),
                a_tilde=None if linear else np.stack(a_tilde),
                n=bank[modes[0]][0].n,
                p1=p1,
                p=p,
            )
        )
    return stacks


def step_observer(
    stacks: Sequence[ObserverStack],
    states: Sequence[np.ndarray],
    signal: np.ndarray,
    k: int,
) -> list[np.ndarray]:
    """Advance every stack to step k with signal = [u_{k-1}; u_k; y_k].

    `states[i]` holds stack i's rows whose leading columns are
    [x-hat_{k-1} | d1-hat_{k-1}]: its previous output, or its initial
    rows.  Returns each stack's (Q, R) output.  The drift and the step
    are stacked products, each slice the same BLAS call as one mode's
    ``a @ x`` or ``step @ z``, so a mode's numbers do not depend on its
    stack.

    A non-finite input reaches every output of its mode (0 * NaN and
    0 * inf are NaN), so one check of the outputs covers the inputs as
    well.  It raises NumericalFailure naming the first mode with a
    non-finite row, so numpy's own warnings about the products are
    silenced.
    """
    outs = []
    with np.errstate(invalid="ignore", over="ignore"):
        for stack, state in zip(stacks, states):
            n, n1 = stack.n, stack.n + stack.p1
            z = np.empty((len(state), stack.step.shape[2]))
            z[:, :n] = drift(stack.a, stack.a_tilde, state[:, :n, None])[:, :, 0]
            z[:, n:n1] = state[:, n:n1]
            z[:, n1:] = signal
            outs.append(np.matmul(stack.step, z[:, :, None])[:, :, 0])
    if not all(np.isfinite(out).all() for out in outs):
        q, stack, row = min(
            (
                (stack.modes[i], stack, out[i])
                for stack, out in zip(stacks, outs)
                for i in np.flatnonzero(~np.isfinite(out).all(axis=1))
            ),
            key=lambda bad: bad[0],
        )
        part = "input" if np.isfinite(row[: stack.n]).all() else "state"
        raise NumericalFailure(f"mode {q + 1}: non-finite values in {part} estimate at step {k}")
    return outs
