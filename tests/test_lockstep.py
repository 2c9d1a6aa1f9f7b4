"""The one-cell march against the reference loop it must reproduce.

scalar_run_to_time spells the per-cell time loop out without the package's
kernel: one 1-D state per species, two single-RHS solves per step.
run_to_time must agree with it bit for bit in every cell of a 4x4 grid of
rates that settle at different steps or not at all.
"""

import math

import numpy as np
import pytest

from harvestcomp import HarvestRates, PopulationState, SimulationConfig, run_to_time
from harvestcomp import dynamics
from harvestcomp.errors import ConfigurationError, UnstableStepError
from harvestcomp.grid import as_field
from harvestcomp.operators import build_operator, shifted_solver
from harvestcomp.sweep import sweep_grid

from conftest import load_example, threshold_classify

RATES = np.linspace(0.0, 1.0, 4)
# settles the off-diagonal cells at different steps; the alpha = beta cells
# (P proportional to K, so sigma_v = 0) are still moving at t_final
QUICK = SimulationConfig(dt=0.05, t_final=150.0, steady_tol=1e-7)


def scalar_run_to_time(u0, v0, env, rates, cfg):
    """The reference one-cell march: returns (u, v, t, steady, dudt_inf)."""
    u = as_field(u0, env.grid).copy()
    v = as_field(v0, env.grid).copy()
    if np.any(u < 0) or np.any(v < 0):
        raise ConfigurationError("initial conditions must be nonnegative")

    dt = cfg.dt
    inv_dt = 1.0 / dt
    solve_u = shifted_solver(build_operator(env.a, env.P, env.grid), inv_dt)
    solve_v = shifted_solver(build_operator(env.b, env.Q, env.grid), inv_dt)
    grow_u = dt * env.r * (1.0 - rates.alpha)
    grow_v = dt * env.r * (1.0 - rates.beta)
    susc = dt * env.r / env.K

    delta = math.inf
    steps = 0
    for steps in range(1, cfg.n_steps + 1):
        u1 = solve_u(u * inv_dt)
        v1 = solve_v(v * inv_dt)
        total = u1 + v1
        u2 = u1 * (1.0 + grow_u - susc * total)
        v2 = v1 * (1.0 + grow_v - susc * total)
        np.maximum(u2, 0.0, out=u2)
        np.maximum(v2, 0.0, out=v2)
        delta = max(np.max(np.abs(u2 - u)), np.max(np.abs(v2 - v))) * inv_dt
        u, v = u2, v2
        if not math.isfinite(delta):
            raise UnstableStepError(f"non-finite state at t = {steps * dt:g} with dt = {dt}")
        if delta < cfg.steady_tol:
            return u, v, steps * dt, True, float(delta)
    return u, v, steps * dt, False, float(delta)


@pytest.fixture(scope="module")
def example1_48():
    _, grid, env, _ = load_example("example1", n_cells=48)
    u0 = np.full(grid.n_cells, 2.1)
    v0 = 2.1 + 0.1 * np.cos(np.pi * grid.centers / grid.length)
    return env, u0, v0


@pytest.fixture(scope="module")
def reference(example1_48):
    env, u0, v0 = example1_48
    return {(a, b): scalar_run_to_time(u0, v0, env, HarvestRates(a, b), QUICK)
            for b in RATES for a in RATES}


def _fields(state):
    return state.u, state.v, state.t, state.steady, state.dudt_inf


def _assert_bitwise(state, ref):
    u, v, t, steady, dudt_inf = _fields(state)
    assert np.array_equal(u, ref[0]) and np.array_equal(v, ref[1])
    assert (t, steady, dudt_inf) == ref[2:]


def test_reference_cells_settle_at_different_steps(reference):
    # the early exit is exercised at several steps, and the horizon too
    settled = {ab: r[2] for ab, r in reference.items() if r[3]}
    assert len(set(settled.values())) >= 3
    assert all(not reference[(a, a)][3] for a in RATES)


def test_run_to_time_is_bitwise_the_scalar_loop(example1_48, reference):
    env, u0, v0 = example1_48
    for ab, ref in reference.items():
        _assert_bitwise(run_to_time(u0, v0, env, HarvestRates(*ab), QUICK), ref)


def test_sweep_records_agree_with_the_scalar_loop(example1_48, reference):
    # the sweep takes outcomes from the invasion criterion; wherever the
    # reference march settled, each cell has its outcome and, to 1e-6, its
    # averages
    env, u0, v0 = example1_48
    sg = sweep_grid(RATES, RATES, env, QUICK, u0=u0, v0=v0)
    checked = 0
    for i, b in enumerate(RATES):
        for j, a in enumerate(RATES):
            u, v, t, steady, dudt_inf = reference[(a, b)]
            if not steady:
                continue
            state = PopulationState(u=u, v=v, t=t, steady=steady, dudt_inf=dudt_inf)
            oracle = threshold_classify(state, env, HarvestRates(a, b))
            record = sg.records[i][j]
            assert record.outcome is oracle.outcome
            assert abs(record.avg_u - oracle.avg_u) <= 1e-6
            assert abs(record.avg_v - oracle.avg_v) <= 1e-6
            checked += 1
    assert checked == 12  # every cell off the diagonal, where the reference settled


def test_non_finite_state_fails_the_march(example1_48, monkeypatch):
    # a solve that puts a NaN into one entry of its third result, in u's
    # march and in v's: the march fails at step 3 with the step error
    env, u0, v0 = example1_48
    real = dynamics.shifted_solver

    def poisoned(op, s):
        solve = real(op, s)
        calls = []

        def solve_with_nan(rhs):
            x = solve(rhs)
            calls.append(None)
            if len(calls) == 3:
                x[1] = np.nan
            return x

        return solve_with_nan

    monkeypatch.setattr(dynamics, "shifted_solver", poisoned)
    with pytest.raises(UnstableStepError) as failure:
        run_to_time(u0, v0, env, HarvestRates(RATES[1], 0.0), QUICK)
    assert str(failure.value) == "non-finite state at t = 0.15 with dt = 0.05"


def test_bad_initial_data_fail_every_cell(example1_48):
    # the march and the sweep reject initial data by the one check, before
    # any step or cell
    env, u0, _ = example1_48
    with pytest.raises(ConfigurationError, match="initial condition v0 must be nonnegative"):
        run_to_time(u0, -u0, env, HarvestRates(0.1, 0.2), QUICK)
    with pytest.raises(ConfigurationError, match=r"initial condition v0 / dt is not finite"):
        sweep_grid([0.1, 0.3], [0.2], env, QUICK, u0=u0, v0=np.full_like(u0, np.nan))
