"""Observer gain synthesis and the fixed-gain error-dynamics constants.

For one mode (after the feedthrough decomposition) the observer uses
three gains: m1 inverts the singular block of the feedthrough channel,
m2 recovers the state-coupled input component from the feedthrough-free
channel, and l_gain is the measurement-update gain.  Everything the
threshold and containment machinery needs later is precomputed here:
the interconnection matrices (phi, psi, e), the noise maps, and the
scalar constants of the radius model delta_k = theta delta_{k-1} +
eta_bar.  That model is the only one: ``radius_sequences`` tabulates the
state radii, and ``GainStack.input_radii`` derives the lagged input
radii from them.  theta bounds the error map itself,
(L_f + ||psi||) ||e phi||; a contraction factor that does not evaluate
this map certifies nothing.

The noise maps are the observer's own, over the word [v_{k-1}/sqrt2;
w_{k-1}; v_k/sqrt2]: w_cal to the state error, d_cal to the lagged
input error, y_cal to the residual.  ``noise_offset`` is the one offset
rule: eta_bar reads w_cal, alpha_bar d_cal, a threshold its j blocks.

Synthesis runs on a group of modes that shares every array shape at
once: ``synthesize_gain_stack`` forms each product, pseudoinverse and
norm as one batched call over a leading mode axis, each slice the call a
lone mode makes (a lone mode is a stack of one), and
``synthesis_errors`` says beforehand which modes cannot get gains.
Every function here takes a stack; a lone mode is lifted with ``GainStack.of``.
A ``BankGroup`` is one such group of the bank with its model,
decomposition and gain stacks, the unit the run path works in.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomposition import DecompositionStack
from .errors import ConfigurationError, SynthesisError
from .system import ModeStack, stack_of

# the noise word [v_{k-1}/sqrt2; w_{k-1}; v_k/sqrt2] weights each v block
INV_RT2 = 1.0 / math.sqrt(2.0)


def noise_offset(stack: np.ndarray, l: int, eta_v: float, eta_w: float) -> np.ndarray:
    """Radius offset INV_RT2 eta_v (||B_v|| + ||B_v+||) + eta_w ||B_w|| of
    each map of a (..., rows, 2l + n) stack laid out over the noise word
    [v_{k-1}/sqrt2 | w_{k-1} | v_k/sqrt2], with ||v|| <= eta_v, ||w|| <= eta_w."""
    n = stack.shape[-1] - 2 * l
    v_norms = linalg.spectral_norms(stack[..., :l])
    w_norms = linalg.spectral_norms(stack[..., l : l + n])
    v_next_norms = linalg.spectral_norms(stack[..., l + n :])
    return INV_RT2 * eta_v * (v_norms + v_next_norms) + eta_w * w_norms


def heuristic_gain(dec: DecompositionStack, phi: np.ndarray) -> np.ndarray:
    """Default measurement-update gain phi @ pinv(c2 @ phi).

    Among all gains L this minimizes ||(I - L c2) phi|| in the Frobenius
    norm (it implements the orthogonal projection of phi's columns onto
    the nullspace-complement of c2 phi), and it zeroes the correction
    interconnection entirely whenever c2 @ phi has full column rank.
    """
    return phi @ linalg.pinv(dec.c2 @ phi)


@dataclass(frozen=True)
class ObserverGains:
    """Gains plus derived error-dynamics data for one mode.

    theta/eta_bar drive the state radius recursion
    delta_k = theta * delta_{k-1} + eta_bar, and beta/alpha_bar the
    lagged input radius delta_d_{k-1} = beta * delta_{k-1} + alpha_bar.
    `meas_contraction` is the bare ||(I - l_gain c2) phi|| factor without
    the Lipschitz amplification; it is reported but does not drive the
    recursion.

    w_cal maps the noise word [v_{k-1}/sqrt2; w_{k-1}; v_k/sqrt2] to
    the post-update state error and y_cal to the feedthrough-free
    residual.  w_cal = e @ r_mat + l_gain @ q, where
    r_mat = [-sqrt2 phi g1 m1 t1 | phi w | -sqrt2 g2 m2 t2] is the
    pre-update layer and q = [0 | 0 | -sqrt2 t2] the measurement-noise
    layer.
    """

    m1: np.ndarray
    m2: np.ndarray
    l_gain: np.ndarray
    e: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    w_cal: np.ndarray
    y_cal: np.ndarray
    lipschitz: float
    eta_w: float
    eta_v: float
    theta: float
    meas_contraction: float
    eta_bar: float
    beta: float
    alpha_bar: float


@stack_of(ObserverGains)
class GainStack:
    """ObserverGains of modes that share every array shape, stacked along
    a leading mode axis; each scalar field is a (Q,) array.  ``mode(i)``
    is row i's ObserverGains, its matrices views of the stack."""

    @property
    def certified(self) -> np.ndarray:
        """Whether each mode's radius recursion contracts, theta < 1."""
        return self.theta < 1.0

    def input_radii(self, delta_x: np.ndarray) -> np.ndarray:
        """Lagged input radii beta delta_x + alpha_bar for each row of the
        (Q, K) state radii delta_x, each one step earlier; they saturate
        to inf with delta_x, and a zero beta reads alpha_bar, never the
        NaN of 0 * inf."""
        beta, alpha_bar = self.beta[:, None], self.alpha_bar[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(beta == 0.0, alpha_bar, beta * delta_x + alpha_bar)


@dataclass(frozen=True)
class BankGroup:
    """Modes of the bank that share every array shape, (n, m, l, p) and
    rank(H), and a drift kind, prepared as stacks; row i of each stack is
    bank mode ``modes[i]``.  ``runner.gain_bank`` builds them, and the
    bank is prepared, stepped and written group by group."""

    modes: tuple[int, ...]  # 0-based bank indices, ascending
    model: ModeStack
    dec: DecompositionStack
    gains: GainStack


def radius_sequences(gains: GainStack, delta0: float, k_max: int) -> np.ndarray:
    """A-priori state radii [delta_0, ..., delta_kmax] of every mode of
    the stack, one row each, from the recursion
    delta_k = theta delta_{k-1} + eta_bar.  An uncertified mode saturates
    to inf where the recursion overflows (a Python float does so
    silently); that is the honest answer there.  Once a step returns its
    own input, a float fixed point (inf after an overflow), every later
    step would too, so the rest of the row is filled with it."""
    return np.array(
        [
            _radii(theta, eta_bar, delta0, k_max)
            for theta, eta_bar in zip(gains.theta.tolist(), gains.eta_bar.tolist())
        ]
    )


def _radii(theta: float, eta_bar: float, delta0: float, k_max: int) -> np.ndarray:
    delta = float(delta0)
    radii = [delta]
    for _ in range(k_max):
        step = theta * delta + eta_bar
        if step == delta:
            break
        radii.append(step)
        delta = step
    table = np.full(k_max + 1, delta)
    table[: len(radii)] = radii
    return table


def synthesis_errors(
    dec: DecompositionStack, user_gains: Sequence[object | None]
) -> list[Exception | None]:
    """Why each mode of the stack cannot get gains, or None where it can:
    a SynthesisError when rank(c2 @ g2) falls short, so no unbiased
    recovery of the state-coupled input component exists, else a
    ConfigurationError when its user-supplied gain has the wrong shape
    (a ValueError when that gain is not a matrix)."""
    needed = dec.g2.shape[2]
    shape = (dec.c2.shape[2], dec.t2.shape[1])
    errors: list[Exception | None] = []
    ranks = linalg.ranks(dec.c2 @ dec.g2).tolist()
    for rank, user_gain in zip(ranks, user_gains):
        error = None
        if rank != needed:
            error = SynthesisError(
                f"rank(c2 @ g2) = {rank} < {needed}: "
                "state-coupled input component is not recoverable"
            )
        elif user_gain is not None:
            try:
                gain = linalg.as_matrix(user_gain, "gain")
            except ValueError as exc:
                error = exc
            else:
                if gain.shape != shape:
                    error = ConfigurationError(f"gain must have shape {shape}, got {gain.shape}")
        errors.append(error)
    return errors


def synthesize_gain_stack(
    modes: ModeStack,
    dec: DecompositionStack,
    eta_w: np.ndarray,
    eta_v: np.ndarray,
    user_gains: Sequence[np.ndarray | None],
    factor: float | None = None,
) -> GainStack:
    """Build the gains and radius constants of every mode of a stack in
    one batched pass; the modes' ``synthesis_errors`` must all be None.

    eta_w and eta_v hold each mode's noise bounds.  A mode's gain is its
    user gain when it has one, else the heuristic gain, times `factor`
    when one is given.  Each row is the product by product arithmetic of
    a lone mode, so its bits do not depend on the stack.
    """
    n, l, r = modes.n, modes.l, dec.t2.shape[1]
    eye_n = np.eye(n)
    c2g2 = dec.c2 @ dec.g2
    m1 = linalg.pinv(dec.sigma)  # diagonal positive, so this is the inverse
    m2 = linalg.pinv(c2g2)
    phi = eye_n - dec.g2 @ m2 @ dec.c2
    psi = dec.g1 @ m1 @ dec.c1
    l_gain = heuristic_gain(dec, phi)
    if factor is not None:
        # the scaled gain is a multiple of the heuristic one
        l_gain = factor * l_gain
    for i, gain in enumerate(user_gains):
        if gain is not None:
            l_gain[i] = gain
    e = eye_n - l_gain @ dec.c2

    rt2 = 1.0 / INV_RT2  # exactly sqrt(2.0)
    t1, t2 = dec.t1, dec.t2
    g1m1t1 = dec.g1 @ m1 @ t1
    g2m2t2 = dec.g2 @ m2 @ t2
    v2m2c2 = dec.v2 @ m2 @ dec.c2
    r_mat = np.concatenate([-rt2 * phi @ g1m1t1, phi @ modes.w, -rt2 * g2m2t2], axis=2)
    q_mat = np.concatenate([np.zeros((len(eta_w), r, l + n)), -rt2 * t2], axis=2)
    w_cal = e @ r_mat + l_gain @ q_mat
    y_cal = np.concatenate(
        [-rt2 * dec.c2 @ phi @ g1m1t1, dec.c2 @ phi @ modes.w, rt2 * (np.eye(r) - c2g2 @ m2) @ t2],
        axis=2,
    )
    d_cal = np.concatenate(
        [rt2 * (v2m2c2 @ dec.g1 - dec.v1) @ m1 @ t1, -v2m2c2 @ modes.w, -rt2 * dec.v2 @ m2 @ t2],
        axis=2,
    )

    lf = modes.lipschitz
    meas = linalg.spectral_norms(e @ phi)
    theta = (lf + linalg.spectral_norms(psi)) * meas
    beta_psi = linalg.spectral_norms(dec.v1 @ m1 @ dec.c1 - v2m2c2 @ psi)
    beta = beta_psi + lf * linalg.spectral_norms(v2m2c2)
    return GainStack(
        m1=m1,
        m2=m2,
        l_gain=l_gain,
        e=e,
        phi=phi,
        psi=psi,
        w_cal=w_cal,
        y_cal=y_cal,
        lipschitz=lf,
        eta_w=eta_w,
        eta_v=eta_v,
        theta=theta,
        meas_contraction=meas,
        eta_bar=noise_offset(w_cal, l, eta_v, eta_w),
        beta=beta,
        alpha_bar=noise_offset(d_cal, l, eta_v, eta_w),
    )

