"""Observer stepping, its emitted residual, and the tabulated radius recursion."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import (
    mode_bank,
    decompose,
    synthesize_gains,
    blind_row_mode,
    full_feedthrough_mode,
    full_pipeline_mode,
    input_radius_table,
    invertible_channel_mode,
    run_closed_loop,
    sample_ball,
    scalar_channel_mode,
    radius_table,
    stack_of_one,
    stacked_init,
    stacked_step,
    stagewise_init,
    stagewise_step,
    step_matrix,
)

from artifact.config import load_config
from artifact.errors import NumericalFailure
from artifact.scenarios import list_scenarios, scenario_path
from artifact.system import ModeModel


def test_init_consumes_the_first_measurement_for_the_direct_component() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    x_hat0 = np.array([0.4, 0.4])
    y0 = np.array([0.3, -0.2])
    state = stacked_init(dec, gains, x_hat0, y0, np.zeros(1))
    np.testing.assert_allclose(
        state.d1_hat, gains.m1 @ (dec.t1 @ y0 - dec.c1 @ x_hat0), atol=1e-14
    )
    assert state.k == 0 and state.d_hat_prev is None and state.residual is None
    np.testing.assert_array_equal(state.x_hat, x_hat0)


def test_noise_free_consistent_run_is_tracked_exactly() -> None:
    # exact init, no noise, no unknown input: estimates reproduce the truth
    mode = invertible_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    stack = stack_of_one(mode, dec, gains)
    x = np.array([0.2, -0.1])
    state = stacked_init(dec, gains, x, mode.c @ x, np.zeros(1))
    for k in range(1, 8):
        x = mode.f(x)
        y = mode.c @ x
        state = stacked_step(state, stack, np.zeros(1), np.zeros(1), y)
        np.testing.assert_allclose(state.x_hat, x, atol=1e-12)
        np.testing.assert_allclose(state.d_hat_prev, np.zeros(1), atol=1e-12)
        # a consistent noise-free measurement leaves no innovation
        assert state.residual.shape == (dec.z2_dim,)
        np.testing.assert_allclose(state.residual, np.zeros(dec.z2_dim), atol=1e-12)


def test_unknown_input_is_reconstructed_one_step_late_when_error_collapses() -> None:
    # this mode's gain zeroes the state error up to measurement noise; with
    # zero noise the lagged input estimate must match the truth exactly
    mode = invertible_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    stack = stack_of_one(mode, dec, gains)
    rng = np.random.default_rng(5)
    x = np.array([0.1, 0.3])
    state = stacked_init(dec, gains, x, mode.c @ x + mode.h @ np.array([0.7]), np.zeros(1))
    d_seq = [np.array([0.7])]
    for k in range(1, 6):
        d_seq.append(rng.normal(size=1))
        x = mode.f(x) + mode.g @ d_seq[k - 1]
        y = mode.c @ x + mode.h @ d_seq[k]
        state = stacked_step(state, stack, np.zeros(1), np.zeros(1), y)
        np.testing.assert_allclose(state.d_hat_prev, d_seq[k - 1], atol=1e-10)


def test_radius_recursion_agrees_with_closed_form() -> None:
    mode = scalar_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    seq = radius_table(gains, 0.5, 40)
    input_radii = input_radius_table(gains, seq)
    th = gains.theta
    assert th != 1.0 and gains.beta != 0.0
    for k in (0, 1, 5, 17, 40):
        # geometric sum of delta_k = theta delta_{k-1} + eta_bar
        closed = 0.5 * th**k + gains.eta_bar * (1.0 - th**k) / (1.0 - th)
        assert seq[k] == pytest.approx(closed, rel=1e-12, abs=1e-12)
        # the lagged input radius is the affine image of the state radius
        assert input_radii[k] == gains.beta * seq[k] + gains.alpha_bar


def test_radii_upper_bound_errors_on_certified_mode() -> None:
    mode = invertible_channel_mode()
    for seed in range(40, 46):
        trace = run_closed_loop(mode, steps=25, seed=seed, eta_w=0.05, eta_v=0.05, delta0=0.3)
        seq = radius_table(trace.gains, 0.3, 25)
        input_radii = input_radius_table(trace.gains, seq[:-1])
        for k in range(26):
            st = trace.states[k]
            assert np.linalg.norm(trace.x[k] - st.x_hat) <= seq[k] + 1e-12
            if k >= 1:
                gap = np.linalg.norm(trace.d[k - 1] - st.d_hat_prev)
                assert gap <= input_radii[k - 1] + 1e-12


def test_lagged_input_radius_stays_alpha_bar_where_the_state_radius_overflows() -> None:
    # an overdriven gain diverges (theta ~ 2.69) but zeroes beta, so the
    # input radius must not inherit 0 * inf = NaN from the state radius
    mode = invertible_channel_mode()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05, user_gain=5 * np.eye(2))
    assert gains.theta > 1.0 and gains.beta == 0.0
    seq = radius_table(gains, 0.3, 800)
    overflowed = np.flatnonzero(np.isinf(seq))
    assert overflowed.size and overflowed[0] == 718
    input_radii = input_radius_table(gains, seq)
    for k in overflowed:
        assert input_radii[k] == gains.alpha_bar


@pytest.mark.parametrize(
    ("u_prev", "y_k"),
    [
        ([0.0], [np.nan, 0.0]),
        ([0.0], [np.inf, 0.0]),
        # the step matrix's u_{k-1} column is zero here; only 0 * NaN = NaN
        # carries the bad input into the outputs
        ([np.nan], [0.0, 0.0]),
    ],
    ids=["nan-measurement", "inf-measurement", "nan-unused-input"],
)
def test_non_finite_measurement_raises_numerical_failure_with_step(u_prev, y_k) -> None:
    mode = scalar_channel_mode()
    assert not mode.b.any() and not mode.d.any()
    dec = decompose(mode)
    gains = synthesize_gains(mode, dec, eta_w=0.02, eta_v=0.02)
    step = step_matrix(mode, dec, gains)
    u_prev_cols = slice(mode.n + dec.p_h, mode.n + dec.p_h + mode.m)
    assert not step[:, u_prev_cols].any()
    state = stacked_init(dec, gains, np.zeros(2), np.zeros(2), np.zeros(1))
    with pytest.raises(NumericalFailure, match="^mode 1: .*state estimate at step 1$"):
        stacked_step(
            state, stack_of_one(mode, dec, gains), np.array(u_prev), np.zeros(1), np.array(y_k)
        )


def _no_feedthrough_mode() -> ModeModel:
    """H = 0: the direct input component d1-hat has zero width."""
    return ModeModel(
        a=np.array([[0.5, 0.2], [-0.1, 0.4]]),
        b=np.array([[0.3], [0.1]]),
        g=np.array([[0.4], [-0.2]]),
        c=np.array([[1.0, 0.0], [0.3, 0.8]]),
        d=np.array([[0.1], [0.0]]),
        h=np.zeros((2, 1)),
    )


def _observer_cases():
    for build in (
        invertible_channel_mode, scalar_channel_mode, full_pipeline_mode, blind_row_mode,
        _no_feedthrough_mode, full_feedthrough_mode,
    ):
        mode = build()
        dec = decompose(mode)
        yield build.__name__, mode, dec, synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05)
    for name in list_scenarios():
        config = load_config(scenario_path(name))
        for q, (dec, gains) in enumerate(mode_bank(config)):
            yield f"{name}-q{q + 1}", config.system.modes[q], dec, gains


# Both steps compute the same linear map in a different order, so they
# may differ by rounding only: a few ulps of |step| @ |inputs|, the sum of
# the magnitudes that enter an output.  The worst case over these cases
# is 4.6e-16 (about 2 ulps); a dropped stage term differs at order one.
STEP_REL = 1e-14


def test_fused_step_matches_the_stagewise_reference() -> None:
    cases = list(_observer_cases())
    widths = {(dec.p_h, dec.z2_dim) for _, _, dec, _ in cases}
    assert any(p_h == 0 for p_h, _ in widths) and any(rows == 0 for _, rows in widths)
    for label, mode, dec, gains in cases:
        step = step_matrix(mode, dec, gains)
        stack = stack_of_one(mode, dec, gains)
        rng = np.random.default_rng(3)
        x = rng.normal(size=mode.n) * 0.3

        def measure(x, u):
            d = rng.normal(size=mode.p) * 0.5
            return mode.c @ x + mode.d @ u + mode.h @ d + sample_ball(rng, 0.05, mode.l), d

        u_prev = rng.normal(size=mode.m) * 0.2
        y, d = measure(x, u_prev)
        ref = stacked_init(dec, gains, np.zeros(mode.n), y, u_prev)
        want = stagewise_init(dec, gains, np.zeros(mode.n), y, u_prev)
        for block in ("x_hat", "d1_hat"):
            assert getattr(ref, block).tobytes() == getattr(want, block).tobytes(), (label, block)
        for k in range(1, 101):
            x = mode.f(x) + mode.b @ u_prev + mode.g @ d
            u_k = rng.normal(size=mode.m) * 0.2
            y, d = measure(x, u_k)
            got = stacked_step(ref, stack, u_prev, u_k, y)
            want = stagewise_step(ref, mode, dec, gains, u_prev, u_k, y)
            inputs = np.concatenate((mode.f(ref.x_hat), ref.d1_hat, u_prev, u_k, y))
            bound = STEP_REL * np.max(np.abs(step) @ np.abs(inputs))
            for block in ("x_hat", "d1_hat", "d_hat_prev", "residual"):
                a, b = getattr(got, block), getattr(want, block)
                assert a.shape == b.shape, (label, block)
                assert np.max(np.abs(a - b), initial=0.0) <= bound, (label, k, block)
            assert got.k == want.k == k
            ref, u_prev = want, u_k


def test_ball_sampler_stays_inside_radius() -> None:
    rng = np.random.default_rng(77)
    for _ in range(200):
        assert np.linalg.norm(sample_ball(rng, 0.4, 3)) <= 0.4 + 1e-15
