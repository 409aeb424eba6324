"""Worst-case soundness of the state radius, the lagged-input radius and
the elimination threshold on linear modes.

For a linear mode the observer's state error, lagged-input error and
residual at step K are linear in the unknowns (e_0, w_0..w_{K-1},
v_0..v_K); the known and unknown inputs and the initial estimate cancel.
Each unknown's coefficient block is read off the real observer
(``init_observer`` / ``step_observer`` on a stack of one against a
hand-written plant) by a
unit perturbation, never from the gains' formulas.  The norm of the
image is then maximized over the product of the unknowns' balls by
alternating ascent, and every value found must lie within the bound the
package computes for that step.  The ascent only finds feasible points,
so a value above a bound is a witness that the bound is unsound.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from conftest import (
    mode_bank,
    decompose,
    full_pipeline_mode,
    radius_table,
    stack_of_one,
    stacked_init,
    stacked_step,
    synthesize_gains,
)

from artifact.config import load_config
from artifact.gains import INV_RT2, noise_offset
from artifact.residuals import build_threshold_table
from artifact.scenarios import scenario_path

REL = 1e-9


@functools.lru_cache(maxsize=None)
def _case(label: str):
    """(mode, dec, gains, bundled delta0, horizon, max_vertices) of a
    certified linear mode: every bundled one, and full_pipeline_mode with
    its noise shaped by W = 2 I."""
    if label == "full_pipeline_w2":
        mode = dataclasses.replace(full_pipeline_mode(), w=2.0 * np.eye(2))
        dec = decompose(mode)
        return mode, dec, synthesize_gains(mode, dec, eta_w=0.05, eta_v=0.05), 0.3, 30, 1 << 14
    name, q = label.rsplit("-q", 1)
    config = load_config(scenario_path(name))
    dec, gains = mode_bank(config)[int(q) - 1]
    mode = config.system.modes[int(q) - 1]
    return mode, dec, gains, config.system.delta_x0, config.horizon, config.max_vertices


CASES = ["linear_bench-q1", "duplicate_modes-q2", "test_system_a-q2", "full_pipeline_w2"]


def _run(mode, stack, signals, k, x, state, horizon):
    """The plant and the real observer from step k + 1 to the horizon,
    starting from the true state x_k and the observer state after step k;
    returns [(x_j, state_j) for j = k + 1..horizon]."""
    u, d, w, v = signals
    out = []
    for j in range(k + 1, horizon + 1):
        x = mode.f(x) + mode.b @ u[j - 1] + mode.g @ d[j - 1] + mode.w @ w[j - 1]
        y = mode.c @ x + mode.d @ u[j] + mode.h @ d[j] + v[j]
        state = stacked_step(state, stack, u[j - 1], u[j], y)
        out.append((x, state))
    return out


def _errors(trajectory, d):
    """State errors, lagged-input errors and residuals at steps 1..H."""
    return (
        np.array([x - state.x_hat for x, state in trajectory[1:]]),
        np.array([d[j] - state.d_hat_prev for j, (_, state) in enumerate(trajectory[1:])]),
        np.array([state.residual for _, state in trajectory[1:]]),
    )


@functools.lru_cache(maxsize=None)
def _responses(label: str):
    """Per unknown coordinate, in the order [e_0 | w_0..w_{H-1} | v_0..v_H],
    the change of the three errors at steps 1..H when that coordinate
    alone moves by one; arrays of shape (coords, H, rows).

    A unit in w_j first moves step j + 1 and one in v_j step j, so its
    run repeats the unperturbed one until then and continues from there;
    e_0 and v_0 reach the initialization."""
    mode, dec, gains, _, horizon, _ = _case(label)
    n, l = mode.n, mode.l
    rng = np.random.default_rng(7)
    x_hat0 = rng.normal(size=n)
    u = rng.normal(size=(horizon + 1, mode.m))
    d = rng.normal(size=(horizon + 1, mode.p))
    stack = stack_of_one(mode, dec, gains)

    def trajectory(x0, w, v, k=0):
        """(x_j, state_j) for j = 0..H; the first k steps are the base run's."""
        if k:
            start = base[: k + 1]
        else:
            y0 = mode.c @ x0 + mode.d @ u[0] + mode.h @ d[0] + v[0]
            start = [(x0, stacked_init(dec, gains, x_hat0, y0, u[0]))]
        return [*start, *_run(mode, stack, (u, d, w, v), k, *start[-1], horizon)]

    base = trajectory(x_hat0, np.zeros((horizon, n)), np.zeros((horizon + 1, l)))
    base_errors = _errors(base, d)
    # the inputs and the initial estimate cancel: no noise, no error
    for part in base_errors:
        np.testing.assert_allclose(part, 0.0, atol=1e-12)
    v_at = n + n * horizon
    out = []
    for i, coord in enumerate(np.eye(v_at + l * (horizon + 1))):
        e0, w, v = np.split(coord, [n, v_at])
        k = 0 if i < n else (i - n) // n if i < v_at else max((i - v_at) // l - 1, 0)
        run = trajectory(x_hat0 + e0, w.reshape(horizon, n), v.reshape(horizon + 1, l), k)
        out.append([got - want for got, want in zip(_errors(run, d), base_errors)])
    return [np.array(part) for part in zip(*out)]


def _blocks(response: np.ndarray, k: int, n: int, l: int, horizon: int) -> list[np.ndarray]:
    """Coefficient blocks at step k of e_0, w_0..w_{k-1} and v_0..v_k,
    each of shape (rows, block width)."""
    at_k = response[:, k - 1, :].T
    w_at, v_at = n, n + n * horizon
    return (
        [at_k[:, :n]]
        + [at_k[:, w_at + j * n : w_at + (j + 1) * n] for j in range(k)]
        + [at_k[:, v_at + j * l : v_at + (j + 1) * l] for j in range(k + 1)]
    )


def worst_norm(
    blocks: list[np.ndarray], radii: np.ndarray, restarts: int = 16, iters: int = 300
) -> float:
    """A feasible value of max ||sum_b B_b z_b|| over ||z_b|| <= r_b.

    Alternating ascent from random unit directions u: each z_b is set to
    r_b B_b^T u / ||B_b^T u||, the maximizer for the fixed u, and u to the
    normalized image.  The blocks are zero-padded to one width so each
    round is two batched products over all blocks and restarts.
    """
    rows = blocks[0].shape[0]
    if rows == 0:
        return 0.0
    width = max(b.shape[1] for b in blocks)
    stack = np.zeros((len(blocks), rows, width))
    for b, block in enumerate(blocks):
        stack[b, :, : block.shape[1]] = block
    u = np.random.default_rng(11).normal(size=(restarts, rows))
    found = np.zeros(restarts)
    for _ in range(iters):
        u /= np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), 1e-300)
        g = np.einsum("brd,Rr->Rbd", stack, u)
        gn = np.linalg.norm(g, axis=-1, keepdims=True)
        z = radii[None, :, None] * g / np.where(gn > 0.0, gn, 1.0)
        u = np.einsum("brd,Rbd->Rr", stack, z)
        # each restart's value never decreases; stop once none moves
        previous, found = found, np.linalg.norm(u, axis=-1)
        if np.all(found <= previous * (1.0 + 1e-14)):
            break
    return float(found.max())


def test_worst_norm_reaches_the_closed_forms() -> None:
    rng = np.random.default_rng(3)
    one = rng.normal(size=(3, 4))
    assert worst_norm([one], np.array([0.7])) == pytest.approx(0.7 * np.linalg.norm(one, 2), rel=1e-9)
    rows = [rng.normal(size=(1, int(k))) for k in (2, 3, 1, 2)]
    radii = rng.uniform(0.1, 1.0, size=4)
    exact = sum(r * np.linalg.norm(b) for r, b in zip(radii, rows))
    assert worst_norm(rows, radii) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("label", CASES)
def test_offsets_read_the_noise_maps_the_observer_implements(label: str) -> None:
    # the step-1 blocks of (v_0, w_0, v_1), with the word's sqrt2 weighting
    # folded back in, are the maps of the word [v_0/sqrt2; w_0; v_1/sqrt2]
    mode, _, gains, _, horizon, _ = _case(label)
    n, l = mode.n, mode.l
    err_x, err_d, _ = _responses(label)
    maps = []
    for response in (err_x, err_d):
        _, w0, v0, v1 = _blocks(response, 1, n, l, horizon)
        maps.append(np.hstack([v0 / INV_RT2, w0, v1 / INV_RT2]))
    np.testing.assert_allclose(maps[0], gains.w_cal, rtol=0, atol=1e-15)
    for word_map, offset in zip(maps, (gains.eta_bar, gains.alpha_bar)):
        assert float(noise_offset(word_map, l, gains.eta_v, gains.eta_w)) == pytest.approx(
            offset, rel=1e-12
        )


@pytest.mark.parametrize("delta0", [1e-6, None], ids=["delta0-tiny", "delta0-bundled"])
@pytest.mark.parametrize("label", CASES)
def test_radii_and_thresholds_bound_the_worst_case_errors(label: str, delta0) -> None:
    mode, dec, gains, bundled, horizon, max_vertices = _case(label)
    assert gains.certified
    delta0 = bundled if delta0 is None else delta0
    n, l = mode.n, mode.l
    radius_seq = radius_table(gains, delta0, horizon)
    thresholds = build_threshold_table(gains, dec, delta0, horizon, max_vertices)
    err_x, err_d, res = _responses(label)
    violations = []
    for k in sorted({1, 2, 5, horizon}):
        radii = np.array([delta0] + [gains.eta_w] * k + [gains.eta_v] * (k + 1))
        for what, response, bound in (
            ("state", err_x, radius_seq[k]),
            ("input", err_d, float(gains.input_radii(radius_seq[k - 1]))),
            ("residual", res, float(thresholds.delta_hat[k - 1])),
        ):
            found = worst_norm(_blocks(response, k, n, l, horizon), radii)
            if found > bound * (1.0 + REL):
                violations.append(f"{what} k={k}: {found:.4f} > {bound:.4f}")
    assert violations == []
