"""End-to-end acceptance checks for the estimation pipeline.

Each test pins one externally visible guarantee: true-mode safety,
containment of the set-valued estimates, the exact residual
decomposition, threshold soundness, enumeration exactness, the
two-sided bound ||M diag(box)||_F <= delta_inf <= sigma_max(M) * eta_t on
every enumerated benchmark threshold, threshold limit behavior, the
bundled benchmark scenarios, the mode-distinctness checker, and rotation
invariants.  Byte-level reproducibility lives in test_runner_cli.py.

Four checks fail by design on the five-mode benchmark and document
known limits: the heuristic gain cannot contract a planar error through
a single free output row (so four of the five thresholds and every
radius recursion diverge, breaking the settle, isolation, and plateau
checks), and two of the five
modes have parallel feedthrough directions (so their free-channel
rotations coincide and pairwise distinctness cannot hold). The README
walks through each mechanism.
"""
from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from artifact import runner
from artifact.config import load_config
from artifact.detectability import check_condition_ii
from artifact.estimator import Ball, bounding_ball
from artifact.residuals import (
    assemble_matrix,
    box_radii,
    delta_inf,
)
from artifact.scenarios import list_scenarios, scenario_path

from conftest import (
    bank_steps,
    coefficients,
    eta_t,
    mode_bank,
    prepared_rows,
    run_closed_loop,
    stacked_word,
)

SWEEP_RUNS = 100


def _bank_sweep(config, seeds):
    """Run the full observer bank for many seeds, collecting violations.

    Thresholds and gains are seed-independent, so they are prepared once;
    each seed runs runner.run_bank without the file output and walks its
    steps with bank_steps.
    """
    prepared = runner.prepare_modes(config)
    true_q = config.true_mode - 1
    true_row = prepared_rows(config, prepared)[true_q]
    gains, radius_seq = true_row.gains, true_row.radius_seq
    stats = {
        "elapsed": 0.0,
        "true_mode_eliminations": 0,
        "state_containment_violations": 0,
        "input_containment_violations": 0,
        "residual_bound_violations": 0,
        "residual_record_mismatches": 0,
        "steps_checked": 0,
    }
    t0 = time.perf_counter()
    for seed in seeds:
        truth = runner.simulate_truth(config, seed)
        bank = runner.run_bank(config, prepared, truth)
        for record in itertools.islice(bank_steps(bank), 1, None):
            k = record.k
            # the bank reports each stepped mode's own innovation, unrecomputed
            stats["residual_record_mismatches"] += sum(
                res_norm != np.linalg.norm(record.states[q].residual)
                for q, res_norm in record.residuals.items()
            )
            if true_q in record.mode_set.eliminated_at:
                stats["true_mode_eliminations"] += 1
                break
            state = record.states[true_q]
            stats["steps_checked"] += 1
            if np.linalg.norm(truth.x[k] - state.x_hat) > radius_seq[k]:
                stats["state_containment_violations"] += 1
            if (
                np.linalg.norm(truth.d[k - 1] - state.d_hat_prev)
                > float(gains.input_radii(radius_seq[k - 1]))
            ):
                stats["input_containment_violations"] += 1
            if record.residuals[true_q] > true_row.thresholds.delta_hat[k - 1]:
                stats["residual_bound_violations"] += 1
    stats["elapsed"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def certified_sweep():
    config = load_config(scenario_path("test_system_a"))
    return _bank_sweep(config, range(SWEEP_RUNS))


@pytest.fixture(scope="module")
def scenario1_prepared():
    config = load_config(scenario_path("scenario1"))
    t0 = time.perf_counter()
    prepared = runner.prepare_modes(config)
    elapsed = time.perf_counter() - t0
    return config, prepared_rows(config, prepared), elapsed


def test_true_mode_is_never_eliminated_across_certified_runs(certified_sweep) -> None:
    assert certified_sweep["true_mode_eliminations"] == 0
    assert certified_sweep["steps_checked"] == SWEEP_RUNS * 100
    assert certified_sweep["elapsed"] < 30.0


def test_state_and_input_balls_contain_the_truth_at_every_step(certified_sweep) -> None:
    assert certified_sweep["state_containment_violations"] == 0
    assert certified_sweep["input_containment_violations"] == 0


def test_true_mode_residual_never_exceeds_threshold_under_certified_gains(
    certified_sweep,
) -> None:
    assert certified_sweep["residual_bound_violations"] == 0
    assert certified_sweep["residual_record_mismatches"] == 0


def test_residual_equals_coefficient_matrix_times_realized_word() -> None:
    config = load_config(scenario_path("linear_bench"))
    mode = config.system.modes[0]
    worst = 0.0
    for seed in range(50):
        trace = run_closed_loop(
            mode, steps=10, seed=seed, eta_w=0.04, eta_v=0.04, delta0=0.25
        )
        coeffs = coefficients(trace.gains, trace.dec, k_max=10)
        for k in range(1, 11):
            predicted = assemble_matrix(coeffs, k) @ stacked_word(trace, k)
            err = float(np.linalg.norm(trace.residuals[k - 1] - predicted))
            worst = max(worst, err)
    assert worst <= 1e-7


def _naive_box_max(matrix: np.ndarray, box: np.ndarray) -> float:
    """Max of ||matrix @ t|| over all 2^dim box vertices, no reductions."""
    dim = box.size
    scaled = matrix * box[None, :]
    idx = np.arange(1 << dim, dtype=np.uint64)[:, None]
    shifts = np.arange(dim, dtype=np.uint64)[None, :]
    signs = 1.0 - 2.0 * ((idx >> shifts) & np.uint64(1))
    pts = scaled @ signs.T
    return float(np.sqrt(np.max(np.sum(pts * pts, axis=0))))


def test_reduced_vertex_enumeration_matches_naive_enumeration() -> None:
    rng = np.random.default_rng(17)
    for _ in range(20):
        rows = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 17))
        matrix = rng.normal(size=(rows, dim))
        box = rng.uniform(0.1, 2.0, size=dim)
        reduced, count, capped = delta_inf(matrix, box, max_vertices=1 << 16)
        assert not capped and count == 1 << (dim - 1)
        assert reduced == pytest.approx(_naive_box_max(matrix, box), abs=1e-12)


def test_threshold_tables_for_the_five_mode_benchmark_build_inside_two_minutes(
    scenario1_prepared,
) -> None:
    _, prepared, elapsed = scenario1_prepared
    assert elapsed < 120.0
    assert all(len(pm.thresholds.delta_hat) == 100 for pm in prepared)


def test_triangle_threshold_sequences_settle_beyond_a_finite_horizon(
    scenario1_prepared,
) -> None:
    # Known failure for modes 2-5: their contraction factors exceed one
    # under the heuristic gain, so the sequences diverge (see README).
    _, prepared, _ = scenario1_prepared
    diverging = []
    for pm in prepared:
        tri = pm.thresholds.delta_tri
        rel = np.abs(np.diff(tri)) / np.maximum(np.abs(tri[:-1]), 1e-300)
        settled = rel < 1e-6
        # a settle horizon exists iff some suffix is entirely settled
        if not settled[-1] or not np.any(np.cumprod(settled[::-1])):
            diverging.append(pm.index + 1)
    assert diverging == []


def test_enumeration_bound_dominates_the_scaled_word_norm_floor(
    scenario1_prepared,
) -> None:
    # Sandwich on the exact vertex maximum, from the word's own radii:
    # ||M diag(box)||_F <= delta_inf <= sigma_max(M) * eta_t.  The left
    # side is the root-mean-square of ||M t|| over all vertices t (the
    # cross terms cancel over the sign patterns), so it cannot exceed
    # their maximum; the right side is Cauchy-Schwarz, since every vertex
    # has norm eta_t.
    config, prepared, _ = scenario1_prepared
    system = config.system
    checked = 0
    failures = []
    for pm in prepared:
        k_max = len(pm.thresholds.delta_hat)
        coeffs = coefficients(pm.gains, pm.dec, k_max)
        lf = pm.mode.lipschitz
        eta_w = system.eta_w[pm.index]
        eta_v = system.eta_v[pm.index]
        for report in pm.thresholds:
            if report.capped:
                continue
            k = report.k
            matrix = assemble_matrix(coeffs, k)
            box = box_radii(k, pm.mode.n, pm.mode.l, pm.gains, pm.radius_seq)
            floor = float(np.linalg.norm(matrix * box[None, :]))
            ceiling = eta_t(
                k, pm.mode.n, pm.mode.l, lf, system.delta_x0, eta_v, eta_w,
                pm.radius_seq,
            ) * float(np.linalg.norm(matrix, 2))
            checked += 1
            if not (
                floor * (1.0 - 1e-12)
                <= report.delta_inf
                <= ceiling * (1.0 + 1e-12)
            ):
                failures.append((pm.index + 1, k, floor, report.delta_inf, ceiling))
    assert checked > 0
    assert failures == []


def test_enumeration_bound_exceeds_triangle_bound_at_last_enumerated_step(
    scenario1_prepared,
) -> None:
    _, prepared, _ = scenario1_prepared
    for pm in prepared:
        enumerated = [t for t in pm.thresholds if not t.capped]
        assert enumerated, f"mode {pm.index + 1} never enumerated"
        last = enumerated[-1]
        assert last.delta_inf > last.delta_tri


def _surviving_and_fused_radii(name: str):
    config = load_config(scenario_path(name))
    prepared = runner.prepare_modes(config)
    rows = prepared_rows(config, prepared)
    truth = runner.simulate_truth(config, config.seed)
    records = list(bank_steps(runner.run_bank(config, prepared, truth)))
    final = records[-1].mode_set
    assert not final.faulted
    radii = [
        bounding_ball(
            [Ball(center=record.states[q].x_hat, radius=rows[q].radius_seq[record.k])
             for q in record.mode_set.surviving]
        ).radius
        for record in records[1:]
    ]
    return len(final.surviving), np.array(radii)


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_benchmark_run_isolates_the_true_mode_with_plateaued_radius(name) -> None:
    # Known failure: mode 5 survives both benchmarks (its threshold is
    # several times any residual the true mode's data can produce, and it
    # diverges), so the count stays at two; and since no benchmark mode
    # certifies, every surviving radius recursion diverges and the fused
    # radius cannot plateau (see README).
    surviving_count, radii = _surviving_and_fused_radii(name)
    assert surviving_count == 1
    assert np.all(np.isfinite(radii))
    tail = radii[-20:]
    assert (tail.max() - tail.min()) <= 0.05 * tail.min()


def test_rotation_distinctness_passes_on_benchmark_and_fails_on_twins() -> None:
    # Known failure for pair (3, 5): those modes' feedthrough vectors are
    # parallel, so any deterministic rotation construction gives them the
    # same free-channel row and distinctness cannot hold (see README).
    twins = load_config(scenario_path("duplicate_modes"))
    twin_decs = [dec for dec, _ in mode_bank(twins)]
    twin_structure = check_condition_ii(twins.system, twin_decs)
    assert not twin_structure.passed
    assert any(not distinct for _, _, distinct in twin_structure.t2_distinct_pairs)

    config = load_config(scenario_path("scenario1"))
    decs = [pm.dec for pm in prepared_rows(config, runner.prepare_modes(config))]
    structure = check_condition_ii(config.system, decs)
    assert len(structure.t2_distinct_pairs) == 10
    assert all(distinct for _, _, distinct in structure.t2_distinct_pairs)


def test_rotation_invariants_hold_for_every_bundled_mode() -> None:
    rng = np.random.default_rng(3)
    for name in list_scenarios():
        config = load_config(scenario_path(name))
        for q, (dec, _) in enumerate(mode_bank(config)):
            mode = config.system.modes[q]
            label = f"{name} mode {q + 1}"
            # feedthrough-free channel is exactly blind to the input
            assert np.max(np.abs(dec.t2 @ mode.h)) <= 1e-10, label
            stacked = np.vstack([dec.t1, dec.t2])
            np.testing.assert_allclose(
                stacked @ stacked.T, np.eye(mode.l), atol=1e-10, err_msg=label
            )
            v = np.hstack([dec.v1, dec.v2])
            np.testing.assert_allclose(
                v.T @ v, np.eye(mode.p), atol=1e-10, err_msg=label
            )
            sample = rng.normal(size=mode.l)
            assert np.linalg.norm(stacked @ sample) == pytest.approx(
                np.linalg.norm(sample), abs=1e-10
            ), label
