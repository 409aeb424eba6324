"""A-priori mode-distinguishability checks.

Two complementary routes decide whether wrong hypotheses can be expected
to die:

* a quantitative route needing global state/output magnitude bounds:
  a stacked difference matrix of the two hypotheses' free channels must
  have a smallest nontrivial singular value exceeding a threshold built
  from both modes' asymptotic residual bounds;
* a structural route under a persistent-excitation assumption that the
  unknown input carries unlimited energy: pairwise distinct free-channel
  rotations, an origin Jacobian inside the unit ball, and bounded
  curvature.  This route is conditional: the excitation assumption is
  recorded, never verified from data.

The asymptotic residual bound itself is obtained numerically by
scanning the triangle-bound sequence (the same one the threshold tables
use) for relative stagnation, or for blow-up past 1e100, up to a cap of
STEADY_K_CAP steps; that scanned value is the one steady threshold every
verdict reads.  The scan reads a prefix of the sequence, and entries
1..K come out bitwise equal whatever length the sequence is built to, so
it is built on at most two prefix lengths ("rungs"), stopping at the
first where the scan reaches a verdict: k_stop and the cap when k_stop
falls before the cap, otherwise STEADY_FIRST_RUNG and the cap.  k_stop
is where the scan must have stopped by blow-up: the drift convolution's
i = 0 term alone gives tri_k >= L_f ||c2 phi|| delta_{k-1}, read off the
radius table.  The last rung is always the cap, so the verdict never
rests on that bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomposition import ModeDecomposition
from .errors import SigmaMinUndefinedError
from .gains import ObserverGains, radius_sequence
from .residuals import build_coefficients, triangle_sequence
from .system import SwitchedSystem, jacobian_hessian_data

T2_DISTINCT_TOL = 1e-9
# relative change between successive triangle bounds that counts as stagnation
STEADY_REL_TOL = 1e-8
# a triangle bound above this counts as blow-up
STEADY_BLOWUP = 1e100
# longest scan; a sequence still moving there reads as not converged
STEADY_K_CAP = 2000
# first prefix length scanned when no blow-up is predicted before the cap:
# every bundled certified mode stagnates by k = 27
STEADY_FIRST_RUNG = 64


@dataclass(frozen=True)
class SteadyTriReport:
    """Limit behavior of one mode's triangle threshold sequence."""

    mode: int
    converged: bool
    value: float
    iterations: int


def steady_tri(
    mode_index: int,
    gains: ObserverGains,
    dec: ModeDecomposition,
    delta0: float,
    k_cap: int = STEADY_K_CAP,
) -> SteadyTriReport:
    """Scan the triangle bound until relative stagnation or blow-up."""
    slope = gains.lipschitz * linalg.spectral_norm(dec.c2 @ gains.phi)
    # the radius table grows, doubling, only until it shows the blow-up
    # bound (or reaches the cap), and then as far as each rung reads
    radii = radius_sequence(gains, delta0, min(STEADY_FIRST_RUNG, k_cap))
    k_stop = _blowup_bound(slope, radii, k_cap)
    while slope and k_stop == k_cap and len(radii) <= k_cap:
        radii = _extend_radii(gains, radii, min(2 * (len(radii) - 1), k_cap))
        k_stop = _blowup_bound(slope, radii, k_cap)
    first = k_stop if k_stop < k_cap else min(STEADY_FIRST_RUNG, k_cap)
    for k_max in sorted({first, k_cap}):
        if len(radii) <= k_max:
            radii = _extend_radii(gains, radii, k_max)
        tri_seq = triangle_sequence(
            build_coefficients(gains, dec, k_max), gains, radii[: k_max + 1]
        )
        verdict = _scan_steady(tri_seq)
        if verdict is not None:
            break
    else:
        # no stagnation within the cap: any finite number would be an
        # unsound limit claim
        verdict = (False, math.inf, k_cap)
    return SteadyTriReport(mode_index, *verdict)


def _scan_steady(tri_seq: np.ndarray) -> tuple[bool, float, int] | None:
    """(converged, value, iterations) at the first stagnation or blow-up
    of the sequence, or None when it ends before either.  Blow-up wins
    when both first occur at the same k."""
    with np.errstate(invalid="ignore"):
        blown = ~np.isfinite(tri_seq) | (tri_seq > STEADY_BLOWUP)
        stalled = np.abs(np.diff(tri_seq)) <= STEADY_REL_TOL * np.maximum(
            np.abs(tri_seq[1:]), 1e-300
        )
    # entry i is step k = i + 1; stagnation at entry i compares it with entry i - 1
    end = len(tri_seq)
    first_blown = int(blown.argmax()) if blown.any() else end
    first_stalled = int(stalled.argmax()) + 1 if stalled.any() else end
    if first_blown < end and first_blown <= first_stalled:
        return False, math.inf, first_blown + 1
    if first_stalled < end:
        return True, float(tri_seq[first_stalled]), first_stalled + 1
    return None


def _extend_radii(gains: ObserverGains, radii: np.ndarray, k_max: int) -> np.ndarray:
    """The radius table [delta_0, ..., delta_kmax] from its prefix
    `radii`.  The recursion reads only the previous radius, so continuing
    it from the last entry gives the entries a full-length table holds."""
    more = radius_sequence(gains, radii[-1], k_max - (len(radii) - 1))
    return np.concatenate((radii, more[1:]))


def _blowup_bound(slope: float, radii: np.ndarray, k_cap: int) -> int:
    """First k with slope * delta_{k-1} > 2 STEADY_BLOWUP, else k_cap;
    a prefix of the radius table answers for the steps it holds.

    With slope = L_f ||c2 phi|| that product is the drift convolution's
    i = 0 term, a lower bound on the triangle bound tri_k, so the scan
    stops by blow-up at this k at the latest; the factor 2 covers
    rounding in the norm and the sums.
    """
    if slope == 0.0:
        return k_cap
    with np.errstate(over="ignore"):
        past = np.flatnonzero(slope * radii[:k_cap] > 2.0 * STEADY_BLOWUP)
    return int(past[0]) + 1 if past.size else k_cap


@dataclass(frozen=True)
class PairReport:
    """Quantitative separation verdict for one ordered mode pair."""

    q: int
    q_other: int
    applicable: bool
    passed: bool
    sigma_min_w: float
    required: float
    r_z: float
    reason: str = ""


def check_condition_i(
    system: SwitchedSystem,
    decs: list[ModeDecomposition],
    steady: list[SteadyTriReport],
) -> list[PairReport]:
    """Quantitative pairwise check; needs global r_x / r_y bounds."""
    count = system.mode_count
    reports: list[PairReport] = []
    missing = system.r_x is None or system.r_y is None
    for q in range(count):
        for qp in range(q + 1, count):
            da, db = decs[q], decs[qp]
            if missing or da.p_h != db.p_h:
                reports.append(
                    PairReport(
                        q=q,
                        q_other=qp,
                        applicable=False,
                        passed=False,
                        sigma_min_w=math.nan,
                        required=math.nan,
                        r_z=math.nan,
                        reason=(
                            "r_x / r_y magnitude bounds not configured"
                            if missing
                            else "feedthrough ranks differ; stacked blocks do not conform"
                        ),
                    )
                )
                continue
            r = da.z2_dim
            stacked = np.hstack(
                [
                    da.c2 - db.c2,
                    da.t2 - db.t2,
                    -np.eye(r),
                    np.eye(r),
                    da.d2,
                    -db.d2,
                ]
            )
            try:
                sig = linalg.sigma_min(stacked)
            except SigmaMinUndefinedError:
                sig = 0.0
            r_z = float(system.r_y) * linalg.spectral_norm(da.t2 - db.t2)
            eta_v = min(system.eta_v[q], system.eta_v[qp])
            denom = math.sqrt(float(system.r_x) ** 2 + eta_v**2)
            required = (steady[q].value + steady[qp].value + r_z) / denom
            passed = math.isfinite(required) and sig > required
            reason = "" if math.isfinite(required) else "a threshold sequence diverges"
            reports.append(
                PairReport(
                    q=q,
                    q_other=qp,
                    applicable=True,
                    passed=passed,
                    sigma_min_w=sig,
                    required=required,
                    r_z=r_z,
                    reason=reason,
                )
            )
    return reports


@dataclass(frozen=True)
class StructureReport:
    """Structural route: rotation distinctness plus drift regularity."""

    t2_distinct_pairs: tuple[tuple[int, int, bool], ...]
    jacobian_norms: tuple[float, ...]
    hessian_bounds: tuple[float, ...]
    requires_unlimited_energy: bool
    passed: bool


def check_condition_ii(
    system: SwitchedSystem, decs: list[ModeDecomposition]
) -> StructureReport:
    count = system.mode_count
    pairs: list[tuple[int, int, bool]] = []
    for q in range(count):
        for qp in range(q + 1, count):
            ta, tb = decs[q].t2, decs[qp].t2
            if ta.shape != tb.shape:
                distinct = True
            else:
                distinct = linalg.spectral_norm(ta - tb) > T2_DISTINCT_TOL
            pairs.append((q, qp, distinct))
    jac_norms = []
    hess = []
    for mode in system.modes:
        j0, hb = jacobian_hessian_data(mode.field)
        jac_norms.append(linalg.spectral_norm(j0))
        hess.append(hb)
    passed = (
        all(d for _, _, d in pairs)
        and all(jn < 1.0 for jn in jac_norms)
        and all(math.isfinite(hb) for hb in hess)
    )
    return StructureReport(
        t2_distinct_pairs=tuple(pairs),
        jacobian_norms=tuple(jac_norms),
        hessian_bounds=tuple(hess),
        requires_unlimited_energy=True,
        passed=passed,
    )


@dataclass(frozen=True)
class DetectabilityReport:
    steady: tuple[SteadyTriReport, ...]
    condition_i: tuple[PairReport, ...]
    condition_ii: StructureReport
    overall: str  # "pass" | "conditional" | "fail"


def report_detectability(
    system: SwitchedSystem,
    decs: list[ModeDecomposition],
    gains_list: list[ObserverGains],
    k_cap: int = STEADY_K_CAP,
) -> DetectabilityReport:
    steady = [
        steady_tri(q, gains_list[q], decs[q], system.delta_x0, k_cap=k_cap)
        for q in range(system.mode_count)
    ]
    cond_i = check_condition_i(system, decs, steady)
    cond_ii = check_condition_ii(system, decs)
    if cond_i and all(r.applicable and r.passed for r in cond_i):
        overall = "pass"
    elif not cond_i:
        overall = "pass"  # a single hypothesis has nothing to confuse
    elif cond_ii.passed:
        overall = "conditional"
    else:
        overall = "fail"
    return DetectabilityReport(
        steady=tuple(steady),
        condition_i=tuple(cond_i),
        condition_ii=cond_ii,
        overall=overall,
    )
