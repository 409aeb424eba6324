"""Observer gain synthesis and the fixed-gain error-dynamics constants.

For one mode (after the feedthrough decomposition) the observer uses
three gains: m1 inverts the singular block of the feedthrough channel,
m2 recovers the state-coupled input component from the feedthrough-free
channel, and l_gain is the measurement-update gain.  Everything the
threshold and containment machinery needs later is precomputed here:
the interconnection matrices (phi, psi, e), the noise maps, and the
scalar constants of the radius model delta_k = theta delta_{k-1} +
eta_bar.  That model is the only one: ``radius_sequence`` tabulates the
state radii, and ``ObserverGains.input_radius`` derives the lagged input
radius from them.  theta bounds the error map itself,
(L_f + ||psi||) ||e phi||; a contraction factor that does not evaluate
this map certifies nothing.

The noise maps are the observer's own, over the word [v_{k-1}/sqrt2;
w_{k-1}; v_k/sqrt2]: w_cal to the state error, d_cal to the lagged
input error, y_cal to the residual.  ``noise_offset`` is the one offset
rule: eta_bar reads w_cal, alpha_bar d_cal, a threshold its j blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomposition import ModeDecomposition
from .errors import ConfigurationError, SynthesisError
from .system import ModeModel

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


def check_rank_condition(dec: ModeDecomposition) -> bool:
    """True when the state-coupled input component is recoverable:
    rank(c2 @ g2) must equal the number of d2 components."""
    needed = dec.g2.shape[1]
    return linalg.rank(dec.c2 @ dec.g2) == needed


def heuristic_gain(dec: ModeDecomposition, phi: np.ndarray) -> np.ndarray:
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
    recursion.  `certified` means theta < 1 (the recursion contracts).

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

    @property
    def certified(self) -> bool:
        return self.theta < 1.0

    def input_radius(self, delta_x: float) -> float:
        """Lagged input radius beta * delta_x + alpha_bar for the state
        radius delta_x one step earlier.  It saturates to inf with
        delta_x, and a zero beta ignores an infinite delta_x instead of
        turning it into NaN."""
        if self.beta == 0.0:
            return self.alpha_bar
        return self.beta * float(delta_x) + self.alpha_bar


def radius_sequence(gains: ObserverGains, delta0: float, k_max: int) -> np.ndarray:
    """A-priori state radii [delta_0, ..., delta_kmax] from the recursion
    delta_k = theta delta_{k-1} + eta_bar.  An uncertified mode saturates
    to inf where the recursion overflows (a Python float does so
    silently); that is the honest answer there.  Once a step returns its
    own input, a float fixed point (inf after an overflow), every later
    step would too, so the rest of the table is filled with it."""
    theta, eta_bar = gains.theta, gains.eta_bar
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


def synthesize_gains(
    mode: ModeModel,
    dec: ModeDecomposition,
    eta_w: float,
    eta_v: float,
    user_gain: np.ndarray | None = None,
) -> ObserverGains:
    """Build the per-mode gains and radius constants.

    Raises
    ------
    SynthesisError
        When rank(c2 @ g2) falls short, so no unbiased recovery of the
        state-coupled input component exists.
    ConfigurationError
        When a user-supplied gain has the wrong shape.
    """
    if not check_rank_condition(dec):
        raise SynthesisError(
            "rank(c2 @ g2) = "
            f"{linalg.rank(dec.c2 @ dec.g2)} < {dec.g2.shape[1]}: "
            "state-coupled input component is not recoverable"
        )
    n, l, r = mode.n, mode.l, dec.z2_dim
    m1 = linalg.pinv(dec.sigma)  # diagonal positive, so this is the inverse
    m2 = linalg.pinv(dec.c2 @ dec.g2)
    phi = np.eye(n) - dec.g2 @ m2 @ dec.c2
    psi = dec.g1 @ m1 @ dec.c1
    if user_gain is None:
        l_gain = heuristic_gain(dec, phi)
    else:
        l_gain = linalg.as_matrix(user_gain, "gain")
        if l_gain.shape != (n, r):
            raise ConfigurationError(f"gain must have shape {(n, r)}, got {l_gain.shape}")
    e = np.eye(n) - l_gain @ dec.c2

    rt2 = 1.0 / INV_RT2  # exactly sqrt(2.0)
    g1m1t1 = dec.g1 @ m1 @ dec.t1
    g2m2t2 = dec.g2 @ m2 @ dec.t2
    v2m2c2 = dec.v2 @ m2 @ dec.c2
    r_mat = np.hstack([-rt2 * phi @ g1m1t1, phi @ mode.w, -rt2 * g2m2t2])
    q_mat = np.hstack([np.zeros((r, l)), np.zeros((r, n)), -rt2 * dec.t2])
    w_cal = e @ r_mat + l_gain @ q_mat
    y_cal = np.hstack(
        [-rt2 * dec.c2 @ phi @ g1m1t1, dec.c2 @ phi @ mode.w, rt2 * (np.eye(r) - dec.c2 @ dec.g2 @ m2) @ dec.t2]
    )
    d_cal = np.hstack(
        [rt2 * (v2m2c2 @ dec.g1 - dec.v1) @ m1 @ dec.t1, -v2m2c2 @ mode.w, -rt2 * dec.v2 @ m2 @ dec.t2]
    )

    lf = float(mode.lipschitz)
    meas = linalg.spectral_norm(e @ phi)
    theta = (lf + linalg.spectral_norm(psi)) * meas
    eta_bar = noise_offset(w_cal, l, eta_v, eta_w)
    beta = linalg.spectral_norm(dec.v1 @ m1 @ dec.c1 - v2m2c2 @ psi) + lf * linalg.spectral_norm(v2m2c2)
    alpha_bar = noise_offset(d_cal, l, eta_v, eta_w)

    return ObserverGains(
        m1=m1,
        m2=m2,
        l_gain=l_gain,
        e=e,
        phi=phi,
        psi=psi,
        w_cal=w_cal,
        y_cal=y_cal,
        lipschitz=lf,
        eta_w=float(eta_w),
        eta_v=float(eta_v),
        theta=float(theta),
        meas_contraction=float(meas),
        eta_bar=float(eta_bar),
        beta=float(beta),
        alpha_bar=float(alpha_bar),
    )
