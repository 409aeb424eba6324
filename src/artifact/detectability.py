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
1..K come out bitwise equal whatever length the sequence is built to,
so each mode is scanned on at most two prefix lengths ("rungs"), stopping
at the first where the scan reaches a verdict: its first rung, then the
cap.  ``_first_rung`` predicts where a mode must stop by blow-up from
the radius model in closed form; the cap stays the last rung, so the
prediction sets only how much is built, never a verdict.

``report_detectability`` takes the ``runner.gain_bank`` groups, and
``steady_reports`` scans a group's stack.  Each round is one stacked
recursion (``gains.radius_sequences``, ``residuals.build_coefficients``,
then ``residuals.triangle_sequences``) over the rows it builds, the
first over every row to the longest of their first rungs, the second
over the rows still without a verdict to the cap.  Each row's radii
past its rung are zeroed first: entry k of the triangle bound reads
only delta_0 .. delta_{k-1}, so no scanned entry reads them.  Each
slice of a stacked product is the call a lone mode makes, so a row's
scanned prefix holds a lone mode's bits.  ``steady_tri`` scans one
row's prefix into its report, once per row per round: a prefix short of
the cap without a verdict raises ValueError, which sends the row to the
cap round.  It stays a one-mode entry point because the benchmark's
tracer wraps it by name and reads each call's ``iterations``.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomposition import DecompositionStack, ModeDecomposition
from .errors import SigmaMinUndefinedError
from .gains import BankGroup, GainStack, radius_sequences
from .residuals import build_coefficients, triangle_sequences
from .system import SwitchedSystem

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


def steady_reports(
    gains: GainStack,
    dec: DecompositionStack,
    modes: Sequence[int],
    delta0: float,
    k_cap: int = STEADY_K_CAP,
) -> list[SteadyTriReport]:
    """Each row's ``steady_tri`` report, in row order, for a stack whose
    row i is mode ``modes[i]``: every round one stacked recursion over
    the rows it builds."""
    slopes = (gains.lipschitz * linalg.spectral_norms(dec.c2 @ gains.phi)).tolist()
    rungs = zip(gains.theta.tolist(), gains.eta_bar.tolist(), slopes)
    reach = [_first_rung(*rung, delta0, k_cap) for rung in rungs]
    reports: dict[int, SteadyTriReport] = {}
    rows = list(range(len(slopes)))
    while rows:
        k_max = max(reach[i] for i in rows)
        if len(rows) == len(slopes):
            rows_gains, rows_dec = gains, dec
        else:
            rows_gains, rows_dec = gains.take(rows), dec.take(rows)
        coeffs = build_coefficients(rows_gains, rows_dec, k_max)
        radii = radius_sequences(rows_gains, delta0, k_max)
        for i, radius_row in zip(rows, radii):
            # past its rung a radius may overflow; zeroed, it stays off the convolution's
            # inf path, and entry k reads only delta_0 .. delta_{k-1}, so no scan reads it
            radius_row[reach[i] :] = 0.0
        tri = triangle_sequences(coeffs, rows_gains.lipschitz, radii)
        for i, row in zip(rows, tri):
            try:
                reports[i] = steady_tri(modes[i], row[: reach[i]], k_cap)
            except ValueError:  # no verdict short of the cap: the row goes to the cap round
                if reach[i] == k_cap:
                    raise
        rows = [i for i in rows if i not in reports]
        for i in rows:
            reach[i] = k_cap
    return [reports[i] for i in range(len(slopes))]


def _first_rung(theta: float, eta_bar: float, slope: float, delta0: float, k_cap: int) -> int:
    """The prefix length a row is first scanned on: one step past the
    first j at which slope * delta_j passes 2 STEADY_BLOWUP, when that
    falls before the cap, else STEADY_FIRST_RUNG (at most the cap).

    With slope = L_f ||c2 phi||, slope * delta_{k-1} is the drift
    convolution's i = 0 term, a lower bound on the triangle bound tri_k,
    so the scan stops by blow-up at that k at the latest; the factor 2
    covers rounding.  j comes in closed form from the radius model,
    delta_j = theta^j (delta_0 + c) - c with c = eta_bar / (theta - 1),
    not from the radius table, so it may be off by a rounding step: a
    short rung leaves the row to the cap round, a long one builds a few
    steps more, and no verdict moves.  theta <= 1, a zero slope or a
    non-finite intermediate predicts no blow-up.
    """
    first = min(STEADY_FIRST_RUNG, k_cap)
    if not (theta > 1.0 and slope > 0.0):
        return first
    c = eta_bar / (theta - 1.0)
    ratio = (2.0 * STEADY_BLOWUP / slope + c) / (delta0 + c) if delta0 + c > 0.0 else math.nan
    if not 0.0 < ratio < math.inf:
        return first
    # the first j with theta^j > ratio; delta_0 itself is past the target when ratio < 1
    j = max(math.floor(math.log(ratio) / math.log(theta)) + 1, 0)
    return j + 1 if j + 1 < k_cap else first


def steady_tri(
    mode_index: int, tri_seq: np.ndarray, k_cap: int = STEADY_K_CAP
) -> SteadyTriReport:
    """One mode's report from a prefix of its triangle-bound sequence:
    the scan's verdict, or, when a prefix of k_cap entries has none, not
    converged within the cap."""
    verdict = _scan_steady(tri_seq)
    if verdict is None:
        if len(tri_seq) < k_cap:
            raise ValueError(f"a prefix of {len(tri_seq)} < k_cap = {k_cap} entries has no verdict")
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
            sig = required = r_z = math.nan
            if missing:
                applicable, reason = False, "r_x / r_y magnitude bounds not configured"
            elif da.p_h != db.p_h:
                applicable = False
                reason = "feedthrough ranks differ; stacked blocks do not conform"
            else:
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
                applicable = True
                reason = "" if math.isfinite(required) else "a threshold sequence diverges"
            passed = applicable and math.isfinite(required) and sig > required
            reports.append(
                PairReport(
                    q=q,
                    q_other=qp,
                    applicable=applicable,
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
        j0, hb = mode.jacobian_hessian()
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
    groups: Sequence[BankGroup],
    k_cap: int = STEADY_K_CAP,
) -> DetectabilityReport:
    """The detectability verdict of the bank whose ``runner.gain_bank``
    groups are `groups`; the steady thresholds are scanned group by group."""
    steady: dict[int, SteadyTriReport] = {}
    decs: dict[int, ModeDecomposition] = {}
    for group in groups:
        reports = steady_reports(group.gains, group.dec, group.modes, system.delta_x0, k_cap)
        for i, (q, report) in enumerate(zip(group.modes, reports)):
            steady[q], decs[q] = report, group.dec.mode(i)
    order = range(system.mode_count)
    steady_list = [steady[q] for q in order]
    dec_list = [decs[q] for q in order]
    cond_i = check_condition_i(system, dec_list, steady_list)
    cond_ii = check_condition_ii(system, dec_list)
    # a single hypothesis has no pair, so nothing to confuse: all([]) passes
    if all(r.applicable and r.passed for r in cond_i):
        overall = "pass"
    elif cond_ii.passed:
        overall = "conditional"
    else:
        overall = "fail"
    return DetectabilityReport(
        steady=tuple(steady_list),
        condition_i=tuple(cond_i),
        condition_ii=cond_ii,
        overall=overall,
    )
