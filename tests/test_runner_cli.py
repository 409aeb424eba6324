"""Config parsing, scenario execution, and CLI surface."""
from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import artifact
from artifact import cli, config, runner
from artifact.config import GainsSpec, ZeroInput, load_config, parse_config
from artifact.errors import ConfigurationError
from artifact.gains import GainStack
from artifact.observer import step_observer
from artifact.scenarios import list_scenarios, scenario_path
from conftest import decompose, synthesize_gains, tampered_truth, mode_bank


def _minimal_config_data(**overrides) -> dict:
    data = {
        "system": {
            "eta_w": 0.05,
            "eta_v": 0.05,
            "delta_x0": 0.3,
            "x_hat0": [0.2, -0.1],
            "modes": [
                {
                    "field": {"kind": "linear", "a": [[0.3, 0.1], [0.0, 0.25]]},
                    "b": [[0.0], [0.0]],
                    "g": [[0.5], [-0.3]],
                    "c": [[1.0, 0.2], [-0.1, 1.0], [0.0, 0.0]],
                    "d": [[0.0], [0.0], [0.0]],
                    "h": [[0.0], [0.0], [1.0]],
                }
            ],
        },
        "true_mode": 1,
        "horizon": 8,
        "seed": 11,
        "unknown_input": {"kind": "bounded_random", "bound": 0.4},
        "max_vertices": 4096,
    }
    data.update(overrides)
    return data


def test_parse_config_rejects_unknown_top_level_key() -> None:
    data = _minimal_config_data(horizont=10)
    with pytest.raises(ConfigurationError, match="horizont"):
        parse_config(data)


def test_parse_config_rejects_unknown_field_kind() -> None:
    data = _minimal_config_data()
    data["system"]["modes"][0]["field"] = {"kind": "cubic", "a": [[1.0]]}
    with pytest.raises(ConfigurationError, match="cubic"):
        parse_config(data)


def test_parse_config_names_the_mode_of_a_mode_model_error() -> None:
    data = yaml.safe_load(scenario_path("scenario1").read_text())
    data["system"]["modes"][2]["d"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(
        ConfigurationError, match=r"^system\.modes\[3\]: d must be \(2, 1\), got \(2, 2\)$"
    ):
        parse_config(data)


def test_parse_config_rejects_out_of_range_true_mode() -> None:
    with pytest.raises(ConfigurationError, match="true_mode"):
        parse_config(_minimal_config_data(true_mode=2))


def test_per_mode_noise_list_must_match_mode_count() -> None:
    data = _minimal_config_data()
    data["system"]["eta_w"] = [0.05, 0.05]
    with pytest.raises(ConfigurationError, match="one entry per mode"):
        parse_config(data)


def test_sequence_input_must_cover_horizon_plus_one() -> None:
    data = _minimal_config_data(
        unknown_input={"kind": "sequence", "values": [[0.1]] * 5}
    )
    with pytest.raises(ConfigurationError, match="horizon"):
        parse_config(data)


def test_parse_config_defaults() -> None:
    config = parse_config(_minimal_config_data(), name="fallback")
    assert config.name == "fallback"
    assert isinstance(config.known_input, ZeroInput)
    assert config.gains.kind == "heuristic"
    assert not config.allow_uncertified
    assert config.output_dir is None


def test_gains_file_kind_reads_matrices_relative_to_config(tmp_path) -> None:
    gains_file = tmp_path / "gains.yaml"
    gains_file.write_text(
        "matrices:\n  - [[0.1, 0.0], [0.0, 0.1]]\n"
    )
    data = _minimal_config_data(gains={"kind": "file", "path": "gains.yaml"})
    config = parse_config(data, base_dir=tmp_path)
    assert config.gains.kind == "user"
    assert config.gains.matrices[0].shape == (2, 2)


def test_config_loader_parses_bundled_scenarios_like_the_pure_python_loader() -> None:
    # the loader may be libyaml's; it must build the same objects as SafeLoader
    names = list_scenarios()
    assert len(names) == 5
    for name in names:
        text = scenario_path(name).read_text()
        assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.load(
            text, Loader=yaml.SafeLoader
        ), name


def test_a_duplicated_key_is_a_config_error_naming_the_key_and_its_line(tmp_path) -> None:
    text = scenario_path("scenario1").read_text()
    line = text.count("\n") + 1
    path = tmp_path / "scenario1.yaml"
    path.write_text(text + "horizon: 5\n")
    with pytest.raises(ConfigurationError, match=rf"duplicate key 'horizon'\n.*line {line},"):
        load_config(path)
    # a nested mapping and a gains file are read by the same loader
    path.write_text(text.replace("bound: 0.4", "bound: 0.4\n  bound: 0.3"))
    with pytest.raises(ConfigurationError, match="duplicate key 'bound'"):
        load_config(path)
    (tmp_path / "gains.yaml").write_text("matrices: [[[0.1]]]\nmatrices: [[[0.2]]]\n")
    data = _minimal_config_data(gains={"kind": "file", "path": "gains.yaml"})
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigurationError, match=r"duplicate key 'matrices'\n.*line 2,"):
        load_config(path)
    # a key merged in with << may still be overridden
    merged = "base: &base {kind: bounded_random, bound: 0.4}\nd: {<<: *base, bound: 0.2}\n"
    assert yaml.load(merged, Loader=config._YAML_LOADER)["d"] == {
        "kind": "bounded_random", "bound": 0.2
    }


def test_a_yaml_error_mark_names_the_file(tmp_path, capsys) -> None:
    text = scenario_path("scenario1").read_text()
    path = tmp_path / "scenario1.yaml"
    path.write_text(text + "horizon: 5\n")
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    first, mark = str(info.value).splitlines()
    assert first == f"invalid YAML in {path}: found duplicate key 'horizon'"
    assert mark.strip() == f'in "{path}", line {text.count(chr(10)) + 1}, column 1'
    # bytes that are not UTF-8 are a YAML error of the file, not a traceback
    path.write_bytes(text.encode() + b"name: caf\xe9\n")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: invalid YAML in {path}" in err and f'in "{path}"' in err


def test_cli_unknown_keys_of_mixed_types_are_exit_2(tmp_path, capsys) -> None:
    data = _minimal_config_data()
    data.update({1: "a", "zzz": "b"})
    path = tmp_path / "mixed.yaml"
    path.write_text(yaml.safe_dump(data))
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key(s) ['zzz', 1] in config" in capsys.readouterr().err


def test_cli_malformed_gains_file_is_exit_2(tmp_path, capsys) -> None:
    data = yaml.safe_load(scenario_path("linear_bench").read_text())
    data["gains"] = {"kind": "file", "path": "gains.yaml"}
    path = tmp_path / "linear_bench.yaml"
    path.write_text(yaml.safe_dump(data))
    gains_path = tmp_path / "gains.yaml"
    gains_path.write_text("matrices: [[[0.1, 0.0], [0.0, 0.1]]\n")  # unclosed bracket
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"invalid YAML in {gains_path}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gain_bank_user_gains_match_direct_synthesis() -> None:
    data = _minimal_config_data()
    first = data["system"]["modes"][0]
    second = dict(first, field={"kind": "linear", "a": [[0.2, 0.0], [0.1, 0.3]]})
    data["system"]["modes"] = [first, second]
    user = [[0.3, 0.1], [-0.2, 0.4]]
    data["gains"] = {"kind": "user", "matrices": [user, None]}
    config = parse_config(data)
    bank = mode_bank(config)
    assert len(bank) == 2
    for mode, (dec, gains), user_gain in zip(config.system.modes, bank, (user, None)):
        direct = synthesize_gains(mode, decompose(mode), 0.05, 0.05, user_gain=user_gain)
        for field in dataclasses.fields(direct):
            np.testing.assert_array_equal(
                getattr(gains, field.name), getattr(direct, field.name), err_msg=field.name
            )
    np.testing.assert_array_equal(bank[0][1].l_gain, np.array(user))


def test_bundled_scenarios_all_parse() -> None:
    names = list_scenarios()
    assert {"scenario1", "scenario2", "test_system_a", "linear_bench",
            "duplicate_modes"} <= set(names)
    for name in names:
        config = load_config(scenario_path(name))
        assert config.horizon >= 1
        assert 1 <= config.true_mode <= config.system.mode_count


def test_truth_draws_respect_all_bounds() -> None:
    config = parse_config(_minimal_config_data(horizon=25))
    truth = runner.simulate_truth(config, seed=4)
    system = config.system
    assert np.linalg.norm(truth.x[0] - system.x_hat0) <= system.delta_x0
    assert all(np.linalg.norm(w) <= system.eta_w[0] + 1e-15 for w in truth.w)
    assert all(np.linalg.norm(v) <= system.eta_v[0] + 1e-15 for v in truth.v)
    assert all(np.linalg.norm(d) <= 0.4 + 1e-15 for d in truth.d)
    # measurements must satisfy the true-mode output map exactly
    mode = system.modes[0]
    for k in range(config.horizon + 1):
        expected = mode.c @ truth.x[k] + mode.h @ truth.d[k] + truth.v[k]
        np.testing.assert_allclose(truth.y[k], expected, atol=1e-14)


def test_ramp_input_grows_linearly_along_fixed_direction() -> None:
    config = parse_config(
        _minimal_config_data(unknown_input={"kind": "growing_ramp", "rate": 0.05})
    )
    truth = runner.simulate_truth(config, seed=9)
    norms = np.linalg.norm(truth.d, axis=1)
    np.testing.assert_allclose(norms, 0.05 * np.arange(config.horizon + 1), atol=1e-12)


def test_truth_is_reproducible_and_seed_sensitive() -> None:
    config = parse_config(_minimal_config_data())
    a = runner.simulate_truth(config, seed=7)
    b = runner.simulate_truth(config, seed=7)
    c = runner.simulate_truth(config, seed=8)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)
    assert not np.array_equal(a.x, c.x)


def test_known_input_sequence_is_used_verbatim() -> None:
    values = [[0.1 * k] for k in range(9)]
    config = parse_config(
        _minimal_config_data(known_input={"kind": "sequence", "values": values})
    )
    truth = runner.simulate_truth(config, seed=0)
    np.testing.assert_allclose(truth.u[:, 0], [0.1 * k for k in range(9)])
    # a one-dimensional signal may list bare numbers instead of one-entry lists
    bare = parse_config(
        _minimal_config_data(known_input={"kind": "sequence", "values": [v[0] for v in values]})
    )
    assert bare.known_input == config.known_input


def test_plant_step_at_rest_with_no_excitation_stays_at_rest() -> None:
    mode = parse_config(_minimal_config_data()).system.modes[0]
    zero = np.zeros
    # one step: signals carry rows k = 0, 1 and the process noise row k = 0
    x, y = runner.simulate_plant(
        mode, zero(2), zero((2, 1)), zero((2, 1)), zero((1, 2)), zero((2, 3))
    )
    np.testing.assert_array_equal(x, np.zeros((2, 2)))
    np.testing.assert_array_equal(y, np.zeros((2, 3)))


def test_identity_feedthrough_copies_unknown_input_into_output() -> None:
    data = _minimal_config_data()
    data["system"]["modes"][0].update(
        c=np.zeros((3, 2)).tolist(),
        g=np.zeros((2, 3)).tolist(),
        h=np.eye(3).tolist(),
    )
    mode = parse_config(data).system.modes[0]
    d_k = np.array([1.0, 0.0, 0.0])
    _, y = runner.simulate_plant(
        mode, np.zeros(2), np.zeros((1, 1)), d_k[None], np.zeros((0, 2)), np.zeros((1, 3))
    )
    np.testing.assert_array_equal(y, d_k[None])


def test_benchmark_truth_trajectories_stay_bounded() -> None:
    # stable drift fields keep the state small even though the unknown
    # input is only ball-bounded (scenario1) or grows without bound
    # (scenario2); margins sit well above a 100-seed scan
    for name, cap, seeds in (("scenario1", 2.0, 50), ("scenario2", 5.0, 20)):
        config = load_config(scenario_path(name))
        for seed in range(seeds):
            truth = runner.simulate_truth(config, seed)
            assert np.max(np.linalg.norm(truth.x, axis=1)) < cap


def test_benchmark_run_never_eliminates_or_resurrects_the_true_mode(tmp_path) -> None:
    config = load_config(scenario_path("scenario1"))
    result = runner.run(config, out_dir=tmp_path / "s1")
    assert not result.faulted
    assert 1 in result.surviving
    with (result.out_dir / "steps.csv").open(newline="") as fh:
        counts = [int(row["surv_count"]) for row in csv.DictReader(fh)]
    assert len(counts) == config.horizon + 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_run_single_mode_always_keeps_the_only_hypothesis(tmp_path) -> None:
    config = load_config(scenario_path("linear_bench"))
    result = runner.run(config, out_dir=tmp_path / "bench")
    assert not result.faulted
    assert result.surviving == (1,)
    for name in ("steps.csv", "thresholds_q1.csv", "report.json", "report.txt"):
        assert (result.out_dir / name).exists()
    report = json.loads((result.out_dir / "report.json").read_text())
    assert report["surviving"] == [1]
    # detuned gain: certified but no longer deadbeat
    assert report["modes"][0]["certified"] is True
    assert report["modes"][0]["theta"] == pytest.approx(0.5156, abs=1e-3)


def test_uncertified_gains_require_explicit_opt_in() -> None:
    config = load_config(scenario_path("linear_bench"))
    strict = dataclasses.replace(
        config, gains=GainsSpec(kind="scaled", factor=3.0), allow_uncertified=False
    )
    with pytest.raises(ConfigurationError, match="allow_uncertified"):
        runner.prepare_modes(strict)


def test_steps_csv_layout_and_empty_field_conventions(tmp_path) -> None:
    config = load_config(scenario_path("test_system_a"))
    result = runner.run(config, seed=2024, out_dir=tmp_path / "a")
    with result.steps_path.open() as fh:
        rows = list(csv.DictReader(fh))

    assert rows[0]["k"] == "0"
    # no residual or threshold exists before the first update
    assert rows[0]["r_q1"] == "" and rows[0]["hat_q2"] == ""
    assert rows[0]["elim_q1"] == "0" and rows[0]["surv_count"] == "2"
    assert rows[0]["xhat1_q1"] == repr(0.2)

    # mode 2 is eliminated at k=1 under this seed: the violating row keeps
    # its values with the flag set, later rows blank the mode out
    assert rows[1]["elim_q2"] == "1"
    assert float(rows[1]["r_q2"]) > float(rows[1]["hat_q2"])
    assert rows[1]["surv_count"] == "1"
    assert rows[2]["elim_q2"] == "1" and rows[2]["r_q2"] == ""
    assert rows[2]["xhat1_q2"] == ""

    # vertex enumeration is capped from k=2 on (word dim 19 > 2^14 cap)
    assert rows[1]["inf_q1"] != ""
    assert rows[2]["inf_q1"] == "" and rows[2]["tri_q1"] != ""

    assert len(rows) == config.horizon + 1


@pytest.mark.parametrize("name, seed", [("linear_bench", 3), ("test_system_a", 41)])
def test_rerun_with_same_seed_is_byte_identical(tmp_path, name, seed) -> None:
    config = load_config(scenario_path(name))
    first = runner.run(config, seed=seed, out_dir=tmp_path / "one")
    second = runner.run(config, seed=seed, out_dir=tmp_path / "two")
    assert first.steps_path.read_bytes() == second.steps_path.read_bytes()
    third = runner.run(config, seed=seed + 1, out_dir=tmp_path / "three")
    assert first.steps_path.read_bytes() != third.steps_path.read_bytes()


@pytest.mark.parametrize("seed", [2.7, True, -1], ids=["fractional", "bool", "negative"])
def test_run_rejects_a_seed_that_is_not_a_non_negative_integer(tmp_path, seed) -> None:
    config = load_config(scenario_path("test_system_a"))
    with pytest.raises(ConfigurationError, match="^seed must be"):
        runner.run(config, seed=seed, out_dir=tmp_path)


def test_run_reads_an_integral_seed_of_any_number_type_as_that_integer(tmp_path) -> None:
    config = load_config(scenario_path("test_system_a"))
    outputs = []
    for i, seed in enumerate((3, 3.0, np.int64(3))):
        out = runner.run(config, seed=seed, out_dir=tmp_path / str(i)).out_dir
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert json.loads(outputs[0]["report.json"])["seed"] == 3


@pytest.mark.parametrize("name", ["scenario1", "test_system_a"])
def test_run_reads_the_gain_groups_arrays_without_per_mode_gains(
    tmp_path, monkeypatch, name
) -> None:
    # the run path reads each group's arrays; no ObserverGains is built
    config = load_config(scenario_path(name))
    want = runner.run(config, out_dir=tmp_path / "plain").out_dir

    def refuse(self, i):
        raise AssertionError(f"GainStack.mode({i}) on the run path")

    monkeypatch.setattr(GainStack, "mode", refuse)
    got = runner.run(config, out_dir=tmp_path / "guarded").out_dir
    assert _files(got) == _files(want)


def test_run_reports_fault_when_every_mode_is_eliminated(tmp_path, monkeypatch) -> None:
    config = load_config(scenario_path("test_system_a"))
    monkeypatch.setattr(runner, "simulate_truth", tampered_truth(3, 5.0))
    result = runner.run(config, seed=2024, out_dir=tmp_path / "fault")
    assert result.faulted
    assert result.fault_step == 3
    assert result.surviving == ()
    report = json.loads((result.out_dir / "report.json").read_text())
    assert report["faulted"] is True and report["fault_step"] == 3
    assert report["surviving"] == []
    # the step loop stops at the fault
    with result.steps_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["k"] == "3" and rows[-1]["surv_count"] == "0"


def test_cli_run_accepts_bundled_name(tmp_path, capsys) -> None:
    code = cli.main(
        ["run", "--config", "linear_bench", "--out", str(tmp_path / "cli")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "surviving modes: [1]" in out


def test_cli_rejects_unknown_config_with_exit_2(tmp_path, capsys) -> None:
    code = cli.main(["run", "--config", "no_such_thing", "--out", str(tmp_path)])
    assert code == 2
    assert "bundled" in capsys.readouterr().err


def test_cli_maps_fault_to_exit_3(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setattr(runner, "simulate_truth", tampered_truth(3, 5.0))
    code = cli.main(
        ["run", "--config", "test_system_a", "--out", str(tmp_path / "f")]
    )
    assert code == 3
    assert "every mode eliminated" in capsys.readouterr().err


def test_cli_maps_numerical_failure_to_exit_4(tmp_path, monkeypatch, capsys) -> None:
    # the bank's one step kernel reads an infinite signal at step 3
    def poisoned(stacks, states, signal, k):
        signal = np.full_like(signal, np.inf) if k == 3 else signal
        return step_observer(stacks, states, signal, k)

    monkeypatch.setattr(runner, "step_observer", poisoned)
    code = cli.main(
        ["run", "--config", "linear_bench", "--out", str(tmp_path / "nf")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "mode 1" in err
    assert "step 3" in err


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_cli_run_saturates_a_diverged_radius_at_long_horizon(tmp_path, name) -> None:
    # mode 5's radius overflows at step 435 and mode 1's at 967; neither is
    # a numerical failure, and the true mode's threshold stays finite
    data = yaml.safe_load(scenario_path(name).read_text())
    data["horizon"] = 1000
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    for table in out.glob("*.csv"):
        with table.open() as fh:
            assert not any(cell == "nan" for row in csv.reader(fh) for cell in row)
    with (out / "steps.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1001
    assert float(rows[434]["dx_q5"]) < float("inf") and rows[435]["dx_q5"] == "inf"
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert 1 in report["surviving"]


def test_cli_uncertified_without_opt_in_is_exit_2(tmp_path, capsys) -> None:
    data = _minimal_config_data(
        gains={"kind": "scaled", "factor": 5.0}, allow_uncertified=False
    )
    path = tmp_path / "strict.yaml"
    path.write_text(yaml.safe_dump(data))
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "allow_uncertified" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("path", "value", "message"),
    [
        (("seed",), -5, "seed must be >= 0"),
        ((), ["--seed", "-1"], "seed must be >= 0"),
        (("allow_uncertified",), "false", "allow_uncertified must be true or false"),
        (("horizon",), 2.7, "horizon must be an integer"),
        (("true_mode",), True, "true_mode must be an integer"),
        (("seed",), "7", "seed must be an integer"),
        (("max_vertices",), 4096.5, "max_vertices must be an integer"),
        (("system", "eta_w"), float("nan"), "noise bounds must be finite and positive"),
        (("system", "eta_v"), float("inf"), "noise bounds must be finite and positive"),
        (("unknown_input", "bound"), float("nan"), "unknown_input.bound must be finite"),
        (("unknown_input", "bound"), float("inf"), "unknown_input.bound must be finite"),
        (("system", "delta_x0"), float("inf"), "system.delta_x0 must be finite"),
        (("system", "r_x"), float("inf"), "system.r_x must be finite"),
        (("system", "modes", 1, "g"), [[float("inf")], [0.2]], "modes[2].g must be finite"),
        (("system", "eta_w"), True, "system.eta_w must be a number"),
        (("system", "delta_x0"), True, "system.delta_x0 must be a number"),
        (("system", "x_hat0"), [True, 0.0], "system.x_hat0 must be a number"),
        (("system", "x_hat0"), [[0.0], [0.0]], "system.x_hat0 must be a flat list"),
        (("name",), [1, 2], "name must be a string"),
        (("output_dir",), True, "output_dir must be a string"),
        (("gains",), {"kind": "file", "path": 5}, "gains.path must be a string"),
        (
            ("unknown_input",),
            {"kind": "sequence", "values": [[[0.1]]] * 101},
            "unknown_input.values[0] must be a flat list of 1 numbers, got shape (1, 1)",
        ),
        (
            ("known_input",),
            {"kind": "sequence", "values": [[0.0]] * 100 + [[[0.0]]]},
            "known_input.values[100] must be a flat list of 1 numbers, got shape (1, 1)",
        ),
        (
            ("system", "modes", 0, "field", "kind"),
            ["linear"],
            "modes[1].field.kind must be 'linear' or 'linear_sinusoidal', got ['linear']",
        ),
        (
            ("known_input",),
            {"kind": {"zero": None}},
            "known_input.kind must be 'zero' or 'sequence', got {'zero': None}",
        ),
    ],
    ids=["negative-seed", "negative-seed-flag", "quoted-bool", "fractional-horizon", "bool-true-mode", "string-seed",
         "fractional-max-vertices", "nan-eta-w", "inf-eta-v", "nan-bound", "inf-bound",
         "inf-delta-x0", "inf-r-x", "inf-g-entry", "bool-eta-w", "bool-delta-x0",
         "bool-x-hat0-entry", "nested-x-hat0", "list-name", "bool-output-dir",
         "int-gains-path", "nested-unknown-sequence", "nested-known-sequence", "list-field-kind",
         "mapping-known-kind"],
)
def test_cli_rejects_mistyped_scalars_with_exit_2(tmp_path, capsys, path, value, message) -> None:
    # each value once ran, died later with exit 4 or crashed instead of
    # failing to parse; an empty path passes the value as extra arguments
    data = yaml.safe_load(scenario_path("test_system_a").read_text())
    extra = value if not path else []
    if path:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    config_path = tmp_path / "typed.yaml"
    config_path.write_text(yaml.safe_dump(data))
    code = cli.main(
        ["run", "--config", str(config_path), "--out", str(tmp_path / "o"), *extra]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("flag", "bounds"),
    [("--mode", ["--mode", "9", "--kmax", "5"]), ("--kmax", ["--mode", "1", "--kmax", "0"])],
    ids=["mode", "kmax"],
)
def test_cli_thresholds_validates_mode_and_kmax(tmp_path, capsys, flag, bounds) -> None:
    code = cli.main(
        ["thresholds", "--config", "linear_bench", "--out", str(tmp_path), *bounds]
    )
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--config", "test_system_a"],
        ["check-detectability", "--config", "test_system_a"],
        ["thresholds", "--config", "test_system_a", "--mode", "1", "--kmax", "3"],
    ],
    ids=["run", "check-detectability", "thresholds"],
)
def test_cli_out_naming_an_existing_file_is_exit_2(tmp_path, capsys, command) -> None:
    # the file itself and a path below it once died with a FileExistsError
    # or NotADirectoryError traceback
    occupied = tmp_path / "occupied"
    occupied.write_text("keep\n")
    for out in (occupied, occupied / "below"):
        assert cli.main([*command, "--out", str(out)]) == 2
        assert f"cannot create output directory {str(out)!r}" in capsys.readouterr().err
    assert occupied.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == [occupied]


@pytest.mark.parametrize(
    ("command", "name"),
    [
        (["run", "--config", "test_system_a"], "steps.csv"),
        (["check-detectability", "--config", "test_system_a"], "detectability.json"),
        (
            ["thresholds", "--config", "test_system_a", "--mode", "1", "--kmax", "3"],
            "thresholds_q1.csv",
        ),
    ],
    ids=["run", "check-detectability", "thresholds"],
)
def test_cli_an_output_file_that_cannot_be_written_is_exit_2(
    tmp_path, capsys, command, name
) -> None:
    # a directory at the path of an output file once died with an
    # IsADirectoryError traceback
    blocked = tmp_path / name
    blocked.mkdir()
    assert cli.main([*command, "--out", str(tmp_path)]) == 2
    assert f"error: cannot write {str(blocked)!r}: Is a directory" in capsys.readouterr().err
    assert blocked.is_dir() and not any(blocked.iterdir())


def test_cli_thresholds_writes_requested_horizon(tmp_path) -> None:
    code = cli.main(
        [
            "thresholds",
            "--config",
            "test_system_a",
            "--mode",
            "2",
            "--kmax",
            "7",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    with (tmp_path / "thresholds_q2.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["k"] for row in rows] == [str(k) for k in range(1, 8)]
    assert all(float(row["delta_hat"]) > 0 for row in rows)


@pytest.mark.parametrize("scenario", ["test_system_a", "linear_bench"])
def test_cli_thresholds_reproduce_the_tables_of_a_run(tmp_path, scenario) -> None:
    # `thresholds` tabulates its own radii; over the run's horizon every
    # table must match the run's byte for byte
    config = load_config(scenario_path(scenario))
    assert cli.main(["run", "--config", scenario, "--out", str(tmp_path / "run")]) == 0
    for q in range(1, config.system.mode_count + 1):
        args = ["--mode", str(q), "--kmax", str(config.horizon), "--out", str(tmp_path / "thr")]
        assert cli.main(["thresholds", "--config", scenario, *args]) == 0
        name = f"thresholds_q{q}.csv"
        assert (tmp_path / "thr" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_cli_check_detectability_writes_strict_json(tmp_path, capsys) -> None:
    code = cli.main(
        ["check-detectability", "--config", "duplicate_modes", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "detectability.json").read_text())
    assert payload["overall"] == "fail"
    assert "overall: fail" in capsys.readouterr().out
    text = (tmp_path / "detectability.txt").read_text()
    assert "structural: fail" in text


_SUBCOMMANDS = [
    ["run", "--config", "scenario2", "--seed", "4"],
    ["check-detectability", "--config", "scenario1"],
    ["thresholds", "--config", "test_system_a", "--mode", "2", "--kmax", "9"],
]


def _fresh_main(args: list[str]) -> tuple[int, str]:
    """`artifact` in a new interpreter, so with a parser of its own."""
    src = str(Path(artifact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "artifact.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def _files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_repeated_main_calls_share_one_parser_and_match_fresh_processes(tmp_path, capsys) -> None:
    # every subcommand twice in this process, a parse error (exit 2 from
    # argparse) between the rounds, and each against a fresh process
    for round_ in range(2):
        for i, args in enumerate(_SUBCOMMANDS):
            out = tmp_path / f"in{round_}_{i}"
            assert cli.main([*args, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            fresh = tmp_path / f"fresh{round_}_{i}"
            code, fresh_stdout = _fresh_main([*args, "--out", str(fresh)])
            assert code == 0
            assert stdout == fresh_stdout.replace(str(fresh), "OUT"), args
            assert _files(out) == _files(fresh), args
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--seed", "1"])  # --config is required
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
