"""Mode drifts, Lipschitz data, and model validation."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.config import load_config
from artifact.errors import ConfigurationError
from artifact.scenarios import scenario_path
from artifact.system import ModeModel, ModeStack, SwitchedSystem


def _mode(**overrides) -> ModeModel:
    base = dict(
        a=0.2 * np.eye(2),
        b=np.zeros((2, 1)),
        g=np.array([[0.4], [-0.1]]),
        c=np.array([[0.8, 0.1], [0.8, 0.1]]),
        d=np.zeros((2, 1)),
        h=np.array([[0.5], [0.5]]),
    )
    base.update(overrides)
    return ModeModel(**base)


def _sinusoidal() -> ModeModel:
    return _mode(
        a=np.array([[0.3, 0.0], [0.4, -0.7]]),
        a_tilde=np.array([[0.8, -0.4], [0.4, -0.8]]),
    )


def test_linear_field_evaluates_and_vanishes_at_origin() -> None:
    mode = _mode(a=np.array([[0.5, 0.1], [0.0, -0.2]]))
    np.testing.assert_allclose(mode.f(np.array([2.0, -1.0])), [0.9, 0.2])
    np.testing.assert_allclose(mode.f(np.zeros(2)), np.zeros(2))


def test_sinusoidal_field_matches_hand_evaluation() -> None:
    mode = _sinusoidal()
    x = np.array([0.5, -1.2])
    expected = mode.a @ x + mode.a_tilde @ (0.5 * np.sin(x))
    np.testing.assert_allclose(mode.f(x), expected)
    np.testing.assert_allclose(mode.f(np.zeros(2)), np.zeros(2), atol=1e-15)


def test_lipschitz_constants_are_the_documented_norm_combinations() -> None:
    lin = _mode(a=np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert lin.lipschitz == pytest.approx(2.0)
    mode = _sinusoidal()
    expected = np.linalg.norm(mode.a, 2) + 0.5 * np.linalg.norm(mode.a_tilde, 2)
    assert mode.lipschitz == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4).map(np.asarray), st.lists(st.floats(-5, 5), min_size=4, max_size=4).map(np.asarray))
def test_lipschitz_bound_holds_on_sampled_pairs(raw_a: np.ndarray, raw_b: np.ndarray) -> None:
    mode = _sinusoidal()
    xa, xb = raw_a[:2], raw_b[:2]
    gap = np.linalg.norm(mode.f(xa) - mode.f(xb))
    lf = mode.lipschitz
    assert gap <= lf * np.linalg.norm(xa - xb) + 1e-9


def test_jacobian_at_origin_matches_finite_differences() -> None:
    mode = _sinusoidal()
    j0, hbound = mode.jacobian_hessian()
    eps = 1e-7
    fd = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd[:, j] = (mode.f(e) - mode.f(-e)) / (2 * eps)
    np.testing.assert_allclose(j0, fd, atol=1e-8)
    assert hbound == pytest.approx(0.5 * np.linalg.norm(mode.a_tilde, 2), rel=1e-12)
    j_lin, h_lin = _mode(a=np.eye(2) * 0.3).jacobian_hessian()
    np.testing.assert_allclose(j_lin, 0.3 * np.eye(2))
    assert h_lin == 0.0


def test_mode_model_defaults_w_to_identity_and_computes_lipschitz() -> None:
    m = _mode()
    np.testing.assert_array_equal(m.w, np.eye(2))
    assert m.lipschitz == pytest.approx(0.2)
    assert (m.n, m.l, m.m, m.p) == (2, 2, 1, 1)


def test_mode_model_rejects_understated_lipschitz_and_bad_shapes() -> None:
    with pytest.raises(ConfigurationError):
        _mode(lipschitz=0.1)
    with pytest.raises(ConfigurationError):
        _mode(h=np.array([[0.5], [0.5], [0.5]]))
    with pytest.raises(ConfigurationError):
        _mode(d=np.zeros((2, 3)))
    # loosening the constant is allowed
    assert _mode(lipschitz=1.0).lipschitz == 1.0


@pytest.mark.parametrize("lipschitz", [math.nan, math.inf])
def test_mode_model_rejects_a_declared_lipschitz_that_is_not_finite(lipschitz: float) -> None:
    """A NaN constant would pass the below-analytic check and fill the
    thresholds with NaN; an infinite one would overflow them."""
    mode = load_config(scenario_path("linear_bench")).system.modes[0]
    with pytest.raises(ConfigurationError, match="must be finite"):
        dataclasses.replace(mode, lipschitz=lipschitz)


@pytest.mark.parametrize("field", ["a", "a_tilde", "b", "g", "c", "d", "h", "w"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mode_model_names_a_matrix_with_a_non_finite_entry(field: str, bad: float) -> None:
    """A library caller gets the config loader's check: a NaN or inf
    entry is refused by name, not read as an infinite Lipschitz constant
    or passed on to the gains."""
    base = _sinusoidal()
    matrix = np.array(getattr(base, field), dtype=float)
    matrix[0, 0] = bad
    with pytest.raises(ConfigurationError, match=f"^{field} must have finite entries$"):
        dataclasses.replace(base, **{field: matrix}, lipschitz=None)


def test_mode_stack_stacks_the_drift_once_and_rejects_mixed_kinds() -> None:
    lin, sin = _mode(), _sinusoidal()
    alone = ModeStack.of([sin])
    assert np.shares_memory(alone.a, sin.a) and np.shares_memory(alone.a_tilde, sin.a_tilde)
    assert ModeStack.of([lin, lin]).a_tilde is None
    pair = ModeStack.of([sin, _sinusoidal()]).take([1])
    np.testing.assert_array_equal(pair.a_tilde, alone.a_tilde)
    with pytest.raises(ValueError, match="one drift kind"):
        ModeStack.of([lin, sin])


def test_switched_system_validates_shared_dimensions_and_bounds() -> None:
    modes = (_mode(), _mode(g=np.array([[-0.2], [0.1]])))
    sys2 = SwitchedSystem(
        modes=modes,
        eta_w=(0.02, 0.02),
        eta_v=(0.02, 0.02),
        delta_x0=0.5,
        x_hat0=np.array([0.4, 0.4]),
    )
    assert sys2.mode_count == 2 and (sys2.n, sys2.l, sys2.m) == (2, 2, 1)
    with pytest.raises(ConfigurationError):
        SwitchedSystem(modes=modes, eta_w=(0.02,), eta_v=(0.02, 0.02), delta_x0=0.5, x_hat0=np.zeros(2))
    with pytest.raises(ConfigurationError):
        SwitchedSystem(modes=modes, eta_w=(0.02, 0.0), eta_v=(0.02, 0.02), delta_x0=0.5, x_hat0=np.zeros(2))
    with pytest.raises(ConfigurationError):
        SwitchedSystem(modes=(), eta_w=(), eta_v=(), delta_x0=0.5, x_hat0=np.zeros(2))
    wide = _mode(c=np.array([[1.0, 0.0]]), d=np.zeros((1, 1)), h=np.zeros((1, 1)))
    with pytest.raises(ConfigurationError):
        SwitchedSystem(modes=(modes[0], wide), eta_w=(0.02, 0.02), eta_v=(0.02, 0.02), delta_x0=0.5, x_hat0=np.zeros(2))


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        ({"delta_x0": math.inf}, "^delta_x0 must be finite$"),
        ({"r_x": math.inf}, "^r_x must be finite when given$"),
        ({"r_y": math.inf}, "^r_y must be finite when given$"),
        ({"x_hat0": np.array([0.0, math.nan])}, "^x_hat0 must have finite entries$"),
        ({"x_hat0": np.array([math.inf, 0.0])}, "^x_hat0 must have finite entries$"),
    ],
)
def test_switched_system_names_a_non_finite_bound_or_initial_center(overrides, message) -> None:
    """The config loader refuses these before SwitchedSystem sees them;
    a library caller gets the same refusal from SwitchedSystem itself."""
    spec = dict(
        modes=(_mode(),), eta_w=(0.02,), eta_v=(0.02,), delta_x0=0.5, x_hat0=np.zeros(2)
    )
    with pytest.raises(ConfigurationError, match=message):
        SwitchedSystem(**dict(spec, **overrides))
