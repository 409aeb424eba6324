"""Fixed-gain recursive observers for a bank of mode hypotheses.

Each step runs three stages against the rotated measurement: time update
with the previous direct-feedthrough input estimate, recovery of the
state-coupled input component from the feedthrough-free channel, and a
gain correction on the same channel.  The direct component is then read
off the feedthrough channel.  Only the drift f is nonlinear, so the whole
update is linear in [f(x-hat_{k-1}); d1-hat_{k-1}; u_{k-1}; u_k; y_k]:
``step_matrix_stack`` runs the stages once per group of equally shaped
modes on identity column blocks.
Every mode consumes the same (u, y), so ``step_observer`` advances each
``ObserverStack`` with one stacked product; ``runner.prepare_modes``
builds one stack per ``gains.BankGroup``, and the stack reads its drift
matrices off the group's ``ModeStack``; a stack of one is the
single-mode observer.  A stack is never re-sliced: the bank steps a
mode it has eliminated with the rest of its stack and masks its rows,
so the rows of a stack are its group's rows throughout a run.  A step
updates only the centers and emits its
innovation, the residual the mode observer tests: the error radii read
no measurement, so ``gains.radius_sequences`` tabulates them once per
group.

The input estimate is inherently one step delayed: after processing y_k
the observer reports d-hat for step k-1.  Initialization already consumes
(y_0, u_0) because the first time update needs the direct component at
step 0; starting it at zero would both break the radius guarantee and
leave the step-1 residual unexplained by the noise word.
``init_observer`` reads it for a whole group at once, with the same
stage (``_direct_input``) a step ends on.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .decomposition import DecompositionStack
from .errors import NumericalFailure
from .gains import BankGroup, GainStack
from .linalg import spectral_norms
from .residuals import compute_residual
from .system import ModeStack, drift

_SMALLEST_NORMAL = np.finfo(float).smallest_normal


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
    dec: DecompositionStack, gains: GainStack, x: np.ndarray, u: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Direct-feedthrough input component m1 (t1 y - c1 x - d1 u) of every
    mode of the stacks; x, u and y are blocks of column vectors, or
    stacks of them."""
    return gains.m1 @ (dec.t1 @ y - dec.c1 @ x - dec.d1 @ u)


def init_observer(
    dec: DecompositionStack,
    gains: GainStack,
    x_hat0: np.ndarray,
    y0: np.ndarray,
    u0: np.ndarray,
) -> np.ndarray:
    """Initial rows [x-hat_0 | d1-hat_0], (Q, n + p1), of a group's
    stacks: d1-hat_0 is read off (y_0, u_0) by the stage a step ends on,
    each slice the matrix-vector products of a lone mode."""
    x_hat0 = np.asarray(x_hat0, dtype=float).reshape(-1)
    column = [np.asarray(v, dtype=float).reshape(-1, 1) for v in (x_hat0, u0, y0)]
    d1_hat = _direct_input(dec, gains, *column)[..., 0]
    return np.concatenate((np.broadcast_to(x_hat0, (len(d1_hat), len(x_hat0))), d1_hat), axis=1)


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
    """Observers of one ``BankGroup``, stacked along a leading axis: row i
    belongs to bank mode ``modes[i]``, and its drift is row i of the
    group's ``ModeStack``.

    A step's output row is [x-hat_k | d1-hat_k | d-hat_{k-1} | residual_k],
    of widths n, p1, p and the rest.
    """

    group: BankGroup
    step: np.ndarray  # (Q, R, C): each mode's step map from ``step_matrix_stack``

    @property
    def modes(self) -> tuple[int, ...]:
        return self.group.modes

    @property
    def n(self) -> int:
        return self.group.model.n

    @property
    def p1(self) -> int:
        return self.group.dec.p_h

    @property
    def p(self) -> int:
        return self.group.model.p

    def residual_norms(self, outputs: np.ndarray) -> np.ndarray:
        """The residual norm of every output row (the last axis) in
        `outputs`: sqrt of the dot product a one-mode ``r @ r`` takes where
        that is a normal float, else ``linalg.spectral_norms``'s rescaled
        norm, which neither overflows nor underflows."""
        res = outputs[..., None, self.n + self.p1 + self.p :]
        with np.errstate(over="ignore"):
            squares = np.matmul(res, np.swapaxes(res, -1, -2))[..., 0, 0]
        norms = np.sqrt(squares)
        values = squares.ravel().tolist()  # a short list's min/max beat numpy's reductions
        if values and not _SMALLEST_NORMAL <= min(values) <= max(values) < math.inf:
            odd = ~((squares >= _SMALLEST_NORMAL) & (squares < math.inf))
            norms[odd] = spectral_norms(res[odd])
        return norms

    def failure(self, i: int, row: np.ndarray, k: int) -> NumericalFailure:
        """The failure of row i, whose output `row` after step k is not
        finite: a non-finite x-hat is a state failure, else the input
        estimate failed."""
        part = "input" if np.isfinite(row[: self.n]).all() else "state"
        return NumericalFailure(
            f"mode {self.modes[i] + 1}: non-finite values in {part} estimate at step {k}"
        )

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
    0 * inf are NaN), so a check of the outputs covers the inputs as
    well.  The kernel returns such rows as they are, with numpy's
    warnings about the products silenced: ``runner.run_bank`` checks a
    block of steps at once, and a row of a mode it has already
    eliminated may be non-finite without failing the run.
    """
    outs = []
    with np.errstate(invalid="ignore", over="ignore"):
        for stack, state in zip(stacks, states):
            model = stack.group.model
            n, n1 = model.n, model.n + stack.p1
            z = np.empty((len(state), stack.step.shape[2]))
            z[:, :n] = drift(model.a, model.a_tilde, state[:, :n, None])[:, :, 0]
            z[:, n:n1] = state[:, n:n1]
            z[:, n1:] = signal
            outs.append(np.matmul(stack.step, z[:, :, None])[:, :, 0])
    return outs
