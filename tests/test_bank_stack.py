"""The stacked observer bank, the stacked plant and the joined CSV rows
against their frozen one-at-a-time oracles in ``conftest``.

Every comparison is for equal bits: the stacked products run each mode's
slice through the same BLAS call as the one-mode product, so a state, a
residual norm, an elimination step or an output byte that differs is a
changed result, not rounding.
"""
from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import yaml
from conftest import (
    bank_steps,
    blind_row_mode,
    full_feedthrough_mode,
    full_pipeline_mode,
    oracle_bank,
    oracle_steps_csv,
    oracle_threshold_csv,
    oracle_truth,
    prepared_rows,
    stack_of_one,
    tampered_truth,
)

from artifact import runner
from artifact.config import load_config, parse_config
from artifact.errors import NumericalFailure
from artifact.observer import ObserverStack, step_matrix_stack, step_observer
from artifact.scenarios import list_scenarios, scenario_path
from artifact.system import SwitchedSystem

SEEDS = range(50)


def _same_bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_bank_matches_oracle(config, prepared, truth, label) -> int:
    """Compare run_bank with oracle_bank step by step, and check that its
    arrays stay NaN after each mode's last step; returns the number of
    eliminations."""
    bank = runner.run_bank(config, prepared, truth)
    records = list(bank_steps(bank))
    expected = list(oracle_bank(config, prepared, truth))
    assert len(records) == len(expected), label
    for got, want in zip(records, expected):
        where = (label, got.k)
        assert got.k == want.k, where
        assert got.mode_set == want.mode_set, where
        assert got.residuals == want.residuals, where
        assert list(got.residuals) == list(want.residuals), where
        for state, ref in zip(got.states, want.states, strict=True):
            assert state.k == ref.k, where
            for name in ("x_hat", "d1_hat", "d_hat_prev", "residual"):
                assert _same_bits(getattr(state, name), getattr(ref, name)), (*where, name)
    for stack, outputs, norms in zip(bank.stacks, bank.outputs, bank.norms):
        for j, q in enumerate(stack.modes):
            k = bank.last_step(q)
            assert np.isnan(outputs[k + 1 :, j]).all(), (label, q)
            assert np.isnan(norms[k:, j]).all(), (label, q)
    return len(bank.mode_set.eliminated_at)


def test_stacked_bank_matches_the_per_mode_product_on_every_bundled_scenario() -> None:
    eliminations = 0
    for name in list_scenarios():
        config = load_config(scenario_path(name))
        prepared = runner.prepare_modes(config)
        for seed in SEEDS:
            truth = runner.simulate_truth(config, seed)
            eliminations += _assert_bank_matches_oracle(config, prepared, truth, (name, seed))
    assert eliminations > 0


def _twin(mode, scale: float):
    """The mode with its drift scaled: same shapes, other numbers."""
    a_tilde = None if mode.a_tilde is None else scale * mode.a_tilde
    return dataclasses.replace(mode, a=scale * mode.a, a_tilde=a_tilde, lipschitz=None)


def _mixed_config():
    """Five modes with two outputs in three stacks: full_pipeline_mode cut
    to its first two outputs (p = 2, r = 1, the true mode) and a twin,
    full_feedthrough_mode (p = 2, r = 0) and a twin, and blind_row_mode
    (p = 1).  The bank holds uncertified modes, so it is for equal bits
    only, not for soundness."""
    pipeline = full_pipeline_mode()
    pipeline = dataclasses.replace(pipeline, c=pipeline.c[:2], d=pipeline.d[:2], h=pipeline.h[:2])
    modes = (
        pipeline,
        full_feedthrough_mode(),
        blind_row_mode(),
        _twin(pipeline, 0.5),
        _twin(full_feedthrough_mode(), 0.8),
    )
    system = SwitchedSystem(
        modes=modes, eta_w=(0.02,) * 5, eta_v=(0.02,) * 5, delta_x0=0.2, x_hat0=np.zeros(2)
    )
    base = load_config(scenario_path("test_system_a"))
    return dataclasses.replace(
        base, system=system, true_mode=1, horizon=30, allow_uncertified=True
    )


def test_mixed_bank_stacks_by_shape_and_matches_the_per_mode_product() -> None:
    config = _mixed_config()
    prepared = runner.prepare_modes(config)
    assert [stack.modes for stack in prepared] == [(0, 3), (1, 4), (2,)]
    assert [pm.dec.z2_dim for pm in prepared_rows(config, prepared)] == [1, 0, 1, 1, 0]
    assert [stack.p for stack in prepared] == [2, 2, 1]
    eliminated = set()
    for seed in range(30):
        truth = runner.simulate_truth(config, seed)
        _assert_bank_matches_oracle(config, prepared, truth, ("mixed", seed))
        last = runner.run_bank(config, prepared, truth)
        eliminated |= set(last.mode_set.eliminated_at)
    # rows leave a stack of two, and a stack of one empties
    assert {0, 2, 3} <= eliminated


def _same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_the_bank_steps_the_stacks_preparation_builds(monkeypatch) -> None:
    """One unit: prepare_modes gives one ObserverStack per gain_bank
    group, in group order, holding that group, step matrices that are the
    step_matrix_stack output itself and the group's tables; run_bank
    steps exactly those stack objects, never a re-sliced copy, all of
    them at step 1."""
    built, groups, stepped = [], [], []
    gain_bank = runner.gain_bank

    def bank(config):
        groups.extend(gain_bank(config))
        return groups

    def build(*args):
        built.append(step_matrix_stack(*args))
        return built[-1]

    def step(stacks, *args):
        stepped.append(list(stacks))
        return step_observer(stacks, *args)

    monkeypatch.setattr(runner, "gain_bank", bank)
    monkeypatch.setattr(runner, "step_matrix_stack", build)
    monkeypatch.setattr(runner, "step_observer", step)
    configs = [(name, load_config(scenario_path(name))) for name in list_scenarios()]
    for label, config in [*configs, ("mixed", _mixed_config())]:
        built.clear()
        groups.clear()
        stepped.clear()
        prepared = runner.prepare_modes(config)
        if label == "test_system_a":  # one shape, two drift kinds
            assert [group.modes for group in groups] == [(0,), (1,)]
        assert all(type(stack) is ObserverStack for stack in prepared), label
        assert _same_objects([stack.group for stack in prepared], groups), label
        assert _same_objects([stack.step for stack in prepared], built), label
        for stack in prepared:
            rows, horizon = len(stack.modes), config.horizon
            assert stack.radii.shape == (rows, horizon + 1), label
            assert stack.input_radii.shape == (rows, horizon), label
            assert stack.thresholds.delta_hat.shape == (rows, horizon), label
        truth = runner.simulate_truth(config, config.seed)
        bank = runner.run_bank(config, prepared, truth)
        assert _same_objects(bank.stacks, prepared), label
        assert _same_objects(stepped[0], prepared), label
        for at_k in stepped:
            assert all(any(stack is s for s in prepared) for stack in at_k), label
        if label == "test_system_a":  # mode 2 dies at step 1, alone in its stack
            assert bank.mode_set.eliminated_at == {1: 1}
            assert [len(at_k) for at_k in stepped] == [2] * runner.BLOCK + [1] * 36


def test_residual_norms_rescale_only_rows_whose_square_is_not_normal() -> None:
    """sqrt(r @ r) keeps its bits where r @ r is a normal float; a row
    whose square overflows or underflows reads its true norm, without a
    RuntimeWarning."""
    config = load_config(scenario_path("test_system_a"))
    pm = prepared_rows(config, runner.prepare_modes(config))[0]
    stack = stack_of_one(pm.mode, pm.dec, pm.gains)
    start = stack.n + stack.p1 + stack.p
    residuals = np.array([[1e200, -2e200], [1e-200, 3e-200], [0.3, -0.4], [0.0, 0.0]])
    outputs = np.ones((len(residuals), stack.step.shape[1]))
    outputs[:, start:] = residuals
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norms = stack.residual_norms(outputs).tolist()
    for norm, res in zip(norms[:2], residuals.tolist()):
        assert math.isclose(norm, math.hypot(*res), rel_tol=1e-15, abs_tol=0.0), (norm, res)
    normal = residuals[2]
    assert norms[2:] == [math.sqrt(normal @ normal), 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("step", [1, 7, 64, 65, 100])
def test_non_finite_measurement_names_the_first_surviving_mode(bad, step) -> None:
    # 64 and 65 end and begin the second block of scenario1's H = 100
    configs = (load_config(scenario_path("scenario1")), _mixed_config())
    for config in (config for config in configs if step <= config.horizon):
        prepared = runner.prepare_modes(config)
        truth = runner.simulate_truth(config, 3)
        y = truth.y.copy()
        y[step, 0] = bad
        truth = dataclasses.replace(truth, y=y)
        with pytest.raises(NumericalFailure) as expected:
            list(oracle_bank(config, prepared, truth))
        with pytest.raises(NumericalFailure) as got:
            runner.run_bank(config, prepared, truth)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("mode ") and f"at step {step}" in str(got.value)


def test_kernel_names_the_first_mode_across_stacks(monkeypatch) -> None:
    """Modes 4 (second row of the first stack) and 2 (first row of the
    second stack) read a non-finite state at step 5; the run names mode 2,
    the first surviving one, and mode 4 when it goes bad alone."""
    config = _mixed_config()
    prepared = runner.prepare_modes(config)
    truth = runner.simulate_truth(config, 0)
    # zero data from x-hat_0 = 0: every residual is 0, so no mode dies
    assert not config.system.x_hat0.any()
    truth = dataclasses.replace(truth, u=np.zeros_like(truth.u), y=np.zeros_like(truth.y))
    poison = {}  # bank mode -> (state column, value) at step 5

    def step(stacks, states, signal, k):
        if k == 5:
            states = [state.copy() for state in states]
            for stack, state in zip(stacks, states):
                for i, q in enumerate(stack.modes):
                    if q in poison:
                        column, value = poison[q]
                        state[i, column] = value
        return step_observer(stacks, states, signal, k)

    monkeypatch.setattr(runner, "step_observer", step)
    poison.update({3: (0, np.nan), 1: (1, np.inf)})
    message = "^mode 2: non-finite values in state estimate at step 5$"
    with pytest.raises(NumericalFailure, match=message):
        runner.run_bank(config, prepared, truth)
    del poison[1]
    with pytest.raises(NumericalFailure, match="^mode 4: "):
        runner.run_bank(config, prepared, truth)


def _dead_mode_run(config) -> tuple[int, int, int]:
    """(seed, mode, elimination step) of the first eliminated mode of the
    first seed whose run eliminates a mode while another survives to the
    horizon."""
    prepared = runner.prepare_modes(config)
    for seed in range(100):
        truth = runner.simulate_truth(config, runner.master_seed(seed))
        last = runner.run_bank(config, prepared, truth)
        if last.k == config.horizon and last.mode_set.eliminated_at:
            return seed, *min(last.mode_set.eliminated_at.items(), key=lambda item: item[::-1])
    raise AssertionError("no seed below 100 eliminates a mode and survives")


def _outputs(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", ["scenario1", "mixed"])
def test_rows_stepped_after_their_elimination_are_never_read(name, tmp_path, monkeypatch) -> None:
    """A block steps an eliminated mode to the block's end.  Output rows
    of a mode after its elimination step are discarded unread: poisoning
    them with NaN changes no byte, while a NaN state at the elimination
    step itself fails the run as a lone mode-by-mode step would."""
    config = _mixed_config() if name == "mixed" else load_config(scenario_path(name))
    seed, mode, step = _dead_mode_run(config)
    assert step < config.horizon
    runner.run(config, seed=seed, out_dir=tmp_path / "clean")
    poison = {}

    def poisoned(stacks, states, signal, k):
        if k == poison.get("input_at"):
            states = [state.copy() for state in states]
            for stack, state in zip(stacks, states):
                state[[i for i, q in enumerate(stack.modes) if q == mode]] = np.nan
        outs = step_observer(stacks, states, signal, k)
        if k > poison.get("outputs_after", math.inf):
            for stack, out in zip(stacks, outs):
                out[[i for i, q in enumerate(stack.modes) if q == mode]] = np.nan
        return outs

    monkeypatch.setattr(runner, "step_observer", poisoned)
    poison["outputs_after"] = step
    runner.run(config, seed=seed, out_dir=tmp_path / "poisoned")
    assert _outputs(tmp_path / "poisoned") == _outputs(tmp_path / "clean")
    # the input of the row at its elimination step: its output there is NaN
    poison.update(input_at=step, outputs_after=math.inf)
    message = f"^mode {mode + 1}: non-finite values in state estimate at step {step}$"
    with pytest.raises(NumericalFailure, match=message):
        runner.run(config, seed=seed, out_dir=tmp_path / "failed")


def test_a_mode_dead_since_the_first_block_is_masked_in_later_blocks(tmp_path, monkeypatch) -> None:
    """A mode eliminated in the first block stays in its stack: later
    blocks step its rows with the rest and mask them.  Poisoning those
    rows with NaN, going in and coming out, from the second block on
    changes no output byte and raises nothing."""
    config = load_config(scenario_path("scenario1"))
    config = dataclasses.replace(config, horizon=2 * runner.BLOCK + 1)
    seed, mode, step = _dead_mode_run(config)
    assert step <= runner.BLOCK
    runner.run(config, seed=seed, out_dir=tmp_path / "clean")
    poisoned_rows = []

    def poisoned(stacks, states, signal, k):
        if k <= runner.BLOCK:
            return step_observer(stacks, states, signal, k)
        states = [state.copy() for state in states]
        rows = [[i for i, q in enumerate(stack.modes) if q == mode] for stack in stacks]
        for state, row in zip(states, rows):
            state[row] = np.nan
        outs = step_observer(stacks, states, signal, k)
        for out, row in zip(outs, rows):
            out[row] = np.nan
        poisoned_rows.extend(row for row in rows if row)
        return outs

    monkeypatch.setattr(runner, "step_observer", poisoned)
    runner.run(config, seed=seed, out_dir=tmp_path / "poisoned")
    assert len(poisoned_rows) == config.horizon - runner.BLOCK
    assert _outputs(tmp_path / "poisoned") == _outputs(tmp_path / "clean")


@pytest.mark.parametrize("step, calls", [(3, 64), (64, 64), (65, 128), (70, 128)])
def test_a_faulted_bank_matches_the_oracle_and_steps_to_the_end_of_its_block(
    step, calls, monkeypatch
) -> None:
    """Measurements biased by 5 from a step eliminate every mode of
    test_system_a at that step: the steps are oracle_bank's, and at
    horizon 1000 the run ends there after the kernel calls of the blocks
    up to the fault's, which it steps to its end."""
    config = dataclasses.replace(load_config(scenario_path("test_system_a")), horizon=1000)
    faulted = tampered_truth(step, 5.0)
    prepared = runner.prepare_modes(config)
    truth = faulted(config, config.seed)
    _assert_bank_matches_oracle(config, prepared, truth, "faulted")
    steps = []

    def counted(stacks, states, signal, k):
        steps.append(k)
        return step_observer(stacks, states, signal, k)

    monkeypatch.setattr(runner, "step_observer", counted)
    last = runner.run_bank(config, prepared, truth)
    assert last.k == step and last.mode_set.faulted
    assert steps == list(range(1, calls + 1))


def test_a_faulted_run_writes_the_oracle_steps_csv(tmp_path, monkeypatch) -> None:
    """The files of a run that faults at step 3: steps.csv is the
    oracle's, rows k = 0..3, and report.json names the fault step."""
    config = load_config(scenario_path("test_system_a"))
    faulted = tampered_truth(3, 5.0)
    monkeypatch.setattr(runner, "simulate_truth", faulted)
    result = runner.run(config, out_dir=tmp_path)
    truth = faulted(config, config.seed)
    expected = oracle_steps_csv(config, runner.prepare_modes(config), truth)
    assert result.steps_path.read_bytes() == expected.encode()
    assert len(expected.splitlines()) == 1 + 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["faulted"] is True and report["fault_step"] == 3


def _eliminating_seed(config) -> int:
    prepared = runner.prepare_modes(config)
    for seed in range(100):
        truth = runner.simulate_truth(config, runner.master_seed(seed))
        last = runner.run_bank(config, prepared, truth)
        if last.mode_set.eliminated_at:
            return seed
    raise AssertionError("no seed below 100 eliminates a mode")


@pytest.mark.parametrize("name", list_scenarios())
def test_csv_files_are_the_bytes_csv_writer_writes(name, tmp_path) -> None:
    config = load_config(scenario_path(name))
    prepared = runner.prepare_modes(config)
    seeds = {config.seed, 1}
    if name != "linear_bench":  # one mode: nothing to eliminate
        seeds.add(_eliminating_seed(config))
    for seed in sorted(seeds):
        out = tmp_path / str(seed)
        runner.run(config, seed=seed, out_dir=out)
        truth = runner.simulate_truth(config, runner.master_seed(seed))
        steps = (out / "steps.csv").read_bytes()
        assert steps == oracle_steps_csv(config, prepared, truth).encode(), (name, seed)
        for pm in prepared_rows(config, prepared):
            table = (out / f"thresholds_q{pm.index + 1}.csv").read_bytes()
            assert table == oracle_threshold_csv(pm.thresholds).encode(), (name, pm.index)


def _sequence(rng: np.random.Generator, horizon: int) -> dict:
    return {"kind": "sequence", "values": rng.normal(size=(horizon + 1, 1)).tolist()}


def _truth_configs():
    for name in list_scenarios():
        yield name, load_config(scenario_path(name))
    rng = np.random.default_rng(0)
    data = yaml.safe_load(scenario_path("test_system_a").read_text())
    data["unknown_input"] = _sequence(rng, data["horizon"])
    yield "sequence", parse_config(data)
    data["known_input"] = _sequence(rng, data["horizon"])
    yield "sequence-known", parse_config(data)
    data = yaml.safe_load(scenario_path("scenario2").read_text())
    data["known_input"] = _sequence(rng, data["horizon"])
    yield "growing_ramp-known", parse_config(data)


def test_truth_matches_the_step_by_step_plant() -> None:
    kinds = set()
    for label, config in _truth_configs():
        kinds.add((type(config.unknown_input).__name__, type(config.known_input).__name__))
        for seed in range(20):
            got, want = runner.simulate_truth(config, seed), oracle_truth(config, seed)
            for name in ("x", "y", "u", "d", "w", "v"):
                assert _same_bits(getattr(got, name), getattr(want, name)), (label, seed, name)
    assert {kind for kind, _ in kinds} == {
        "BoundedRandomInput", "GrowingRampInput", "SequenceInput"
    }
    assert {kind for _, kind in kinds} == {"ZeroInput", "SequenceInput"}
