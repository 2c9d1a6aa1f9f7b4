import numpy as np
import pytest
from hypothesis import given, settings, strategies

from harvestcomp import (
    ConfigurationError,
    ConvergenceError,
    HarvestRates,
    NumericalError,
    Outcome,
    PopulationState,
    SimulationConfig,
    average,
    integrate,
    run_to_time,
    solve_coexistence,
    solve_semitrivial,
)
from harvestcomp import dynamics
from harvestcomp.operators import apply as op_apply
from harvestcomp.operators import build_operator, gershgorin_bound, shifted_solver

from conftest import environments, load_example, one_step, threshold_classify


# --------------------------------------------------------------------- step


def test_step_keeps_trivial_equilibrium():
    _, grid, env, sim = load_example("example1", n_cells=32)
    zero = np.zeros(grid.n_cells)
    out = one_step(zero, zero, env, HarvestRates(0, 0), sim.dt)
    assert np.array_equal(out.u, zero) and np.array_equal(out.v, zero)


def test_step_keeps_capacity_tracking_equilibrium():
    # P proportional to K: (K, 0) is stationary
    _, grid, env, sim = load_example("example1", n_cells=64)
    out = one_step(env.K.copy(), np.zeros(grid.n_cells), env, HarvestRates(0, 0), sim.dt)
    assert np.max(np.abs(out.u - env.K)) <= 1e-12
    assert np.max(np.abs(out.v)) == 0.0


def test_step_keeps_ideal_free_pair_equilibrium():
    _, grid, env, sim = load_example("example3", n_cells=64)
    out = one_step(env.P.copy(), env.Q.copy(), env, HarvestRates(0, 0), sim.dt)
    assert np.max(np.abs(out.u - env.P)) <= 1e-12
    assert np.max(np.abs(out.v - env.Q)) <= 1e-12


def test_step_preserves_positivity(rng):
    _, grid, env, sim = load_example("example1", n_cells=48)
    st = PopulationState(
        u=rng.uniform(0, 6, grid.n_cells), v=rng.uniform(0, 6, grid.n_cells), t=0.0
    )
    for _ in range(200):
        st = one_step(st.u, st.v, env, HarvestRates(0.3, 0.1), sim.dt)
        assert np.all(st.u >= 0) and np.all(st.v >= 0)


def test_absent_species_stays_absent(rng):
    _, grid, env, sim = load_example("example1", n_cells=48)
    st = PopulationState(u=rng.uniform(0.5, 3, grid.n_cells), v=np.zeros(grid.n_cells), t=0.0)
    for _ in range(50):
        st = one_step(st.u, st.v, env, HarvestRates(0, 0), sim.dt)
    assert np.all(st.v == 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(env=environments(), alpha=strategies.floats(0.0, 0.95), beta=strategies.floats(0.0, 0.95))
def test_swap_symmetry_is_exact(env, alpha, beta):
    swapped = env.swapped()
    back = swapped.swapped()
    assert back.grid is env.grid
    for name in ("K", "r", "P", "Q", "a", "b"):
        assert np.array_equal(getattr(back, name), getattr(env, name)), name
    assert swapped.K is env.K and swapped.r is env.r  # shared, not copied

    rng = np.random.default_rng(env.grid.n_cells)
    u0 = rng.uniform(0.2, 3, env.grid.n_cells)
    v0 = rng.uniform(0.2, 3, env.grid.n_cells)
    cfg = SimulationConfig(dt=0.05, t_final=5.0, steady_tol=1e-14)
    out = run_to_time(u0, v0, env, HarvestRates(alpha, beta), cfg)
    mirrored = run_to_time(v0, u0, swapped, HarvestRates(beta, alpha), cfg)
    assert np.array_equal(out.u, mirrored.v)
    assert np.array_equal(out.v, mirrored.u)

    # the v-branch meets the v equation assembled from (b, Q) directly
    sim = SimulationConfig()
    w = solve_semitrivial("v", env, beta, sim)
    op = build_operator(env.b, env.Q, env.grid)
    limit = 4 * np.finfo(float).eps * gershgorin_bound(op) * np.max(w)
    assert residual("v", env, beta, w) < max(sim.steady_tol, limit)
    assert np.all(w > 0)


def test_run_rejects_negative_initial_condition():
    _, grid, env, sim = load_example("example1", n_cells=16)
    bad = np.full(grid.n_cells, -0.1)
    with pytest.raises(ConfigurationError):
        run_to_time(bad, bad, env, HarvestRates(0, 0), sim)


# -------------------------------------------------- long-run classification


def test_exclusion_without_harvesting_small_grid():
    _, grid, env, sim = load_example("example1", n_cells=100)
    rates = HarvestRates(0.0, 0.0)
    final = run_to_time(np.full(100, 2.1), np.full(100, 2.1), env, rates, sim)
    record = threshold_classify(final, env, rates)
    assert record.outcome is Outcome.ONLY_U
    assert record.avg_u == pytest.approx(2.0, abs=0.02)


def test_small_harvesting_restores_coexistence_small_grid():
    _, grid, env, sim = load_example("example1", n_cells=100)
    rates = HarvestRates(0.1, 0.0)
    final = run_to_time(np.full(100, 2.1), np.full(100, 2.1), env, rates, sim)
    record = threshold_classify(final, env, rates)
    assert record.outcome is Outcome.COEXISTENCE
    assert final.steady


def test_over_exploitation_kills_both_small_grid():
    _, grid, env, sim = load_example("example1", n_cells=100)
    rates = HarvestRates(1.2, 1.1)
    final = run_to_time(np.full(100, 2.1), np.full(100, 2.1), env, rates, sim)
    record = threshold_classify(final, env, rates)
    assert record.outcome is Outcome.EXTINCTION


# ------------------------------------------------------------- semi-trivial


def residual(which, env, rate, w):
    """Stationary residual of the branch harvested at `rate`, in the
    untransformed form r*w*(1 - w/K) - rate*r*w."""
    d, R = (env.a, env.P) if which == "u" else (env.b, env.Q)
    op = build_operator(d, R, env.grid)
    return np.max(np.abs(op_apply(op, w) + env.r * w * (1 - w / env.K) - rate * env.r * w))


def test_semitrivial_proportional_branch_is_capacity():
    _, grid, env, sim = load_example("example1", n_cells=200)
    w = solve_semitrivial("u", env, 0.0, sim)
    assert np.max(np.abs(w - env.K)) <= 1e-10
    assert residual("u", env, 0.0, w) <= sim.steady_tol


def test_semitrivial_constant_branch_is_capacity():
    # constant K and Q: the branch harvested at rate x sits at (1 - x)*K
    from harvestcomp.config import parse_config_text, build_environment, simulation_config

    cfg = parse_config_text(
        "L = 4\nn_cells = 64\nK = 1.7\nr = 1.1\nP = 2+cos(pi*x)\nQ = 1\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    w = solve_semitrivial("v", env, 0.2, simulation_config(cfg))
    assert np.allclose(w, 0.8 * env.K, atol=1e-9)
    assert residual("v", env, 0.2, w) <= 1e-9


def test_semitrivial_regular_diffusion_average_below_capacity():
    _, grid, env, sim = load_example("example1", n_cells=200)
    w = solve_semitrivial("v", env, 0.0, sim)
    assert residual("v", env, 0.0, w) <= sim.steady_tol
    assert integrate(env.r * w, grid) < integrate(env.r * env.K, grid)


def test_semitrivial_lou_inequality_nonproportional_branch():
    _, grid, env, sim = load_example("example1", n_cells=200)
    w = solve_semitrivial("v", env, 0.0, sim)
    assert integrate(env.r * env.Q * (w / env.K - 1.0), grid) > 0


def test_semitrivial_fisher_average_exceeds_capacity():
    # constant a, P with r = K: classical higher-average property
    from harvestcomp.config import parse_config_text, build_environment, simulation_config

    cfg = parse_config_text(
        "L = 4\nn_cells = 200\nK = 2+cos(pi*x)\nr = 2+cos(pi*x)\nP = 1\nQ = 1\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = simulation_config(cfg)
    w = solve_semitrivial("u", env, 0.0, sim)
    assert integrate(w, env.grid) > integrate(env.K, env.grid)


def test_semitrivial_grid_refinement_second_order():
    # r is constant and the midpoint average of K is exact here, so at
    # rate 0.4 this is also the refinement of alpha_star(0.4) = 1 - avg(v)/avg(K)
    for rate in (0.0, 0.4):
        averages = []
        for n in (100, 200, 400, 800):
            _, grid, env, sim = load_example("example1", n_cells=n)
            averages.append(average(solve_semitrivial("v", env, rate, sim), grid))
        diffs = np.diff(averages)
        for coarse, fine in zip(diffs, diffs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.3), rate


def semitrivial_by_march(which, env, rate, cfg):
    """The reference: the split-step march solve_semitrivial used to run,
    from w = (1-rate)*K to the post-dispersal iterate of its fixed point."""
    d, R = (env.a, env.P) if which == "u" else (env.b, env.Q)
    inv_dt = 1.0 / cfg.dt
    solve = shifted_solver(build_operator(d, R, env.grid), inv_dt)
    rr = (1.0 - rate) * env.r
    K_s = (1.0 - rate) * env.K
    w = K_s.copy()
    for _ in range(cfg.n_steps):
        w1 = solve(w * inv_dt)
        react = rr * w1 * (1.0 - w1 / K_s)
        if np.max(np.abs((w1 - w) * inv_dt + react)) < cfg.steady_tol:
            return w1
        w = np.maximum(w1 + cfg.dt * react, 0.0)
    raise AssertionError(f"reference march of the {which}-branch did not settle")


@pytest.mark.parametrize("diffusivity", ["1", "0.01"])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b"]
)
def test_semitrivial_newton_matches_marched_fixed_point(name, diffusivity):
    _, grid, env, sim = load_example(name, n_cells=100, a=diffusivity, b=diffusivity)
    other_steps = SimulationConfig(dt=0.2, t_final=1.0, steady_tol=sim.steady_tol)
    for which in ("u", "v"):
        for rate in (0.0, 0.4, 0.8):
            w = solve_semitrivial(which, env, rate, sim)
            assert residual(which, env, rate, w) <= sim.steady_tol
            assert np.all(w > 0)
            ref = semitrivial_by_march(which, env, rate, sim)
            assert np.allclose(w, ref, rtol=1e-6, atol=0.0), (which, rate)
            # dt and t_final do not enter the solve
            assert np.array_equal(solve_semitrivial(which, env, rate, other_steps), w)


@pytest.mark.parametrize(
    "overrides", [{"n_cells": 12800}, {"n_cells": 800, "L": 0.25}], ids=["n12800", "L0.25"]
)
def test_semitrivial_stops_at_rounding_on_fine_grids(overrides):
    # rounding in D w alone exceeds steady_tol = 1e-9 here, as it grows
    # like (n/L)^2; the march this solve replaced settled on both grids
    _, grid, env, sim = load_example("example1", **overrides)
    op = build_operator(env.b, env.Q, env.grid)
    for rate in (0.0, 0.4, 0.8):
        w = solve_semitrivial("v", env, rate, sim)
        limit = 4 * np.finfo(float).eps * gershgorin_bound(op) * np.max(w)
        assert residual("v", env, rate, w) < max(sim.steady_tol, limit)
        assert np.all(w > 0)
        ref = semitrivial_by_march("v", env, rate, sim)
        assert np.allclose(w, ref, rtol=1e-6, atol=0.0), rate


def test_semitrivial_reports_nonconvergence():
    # K spans 52 decades: the first Newton step overshoots the branch by
    # ~1e47 where K is smallest, and from there each step only halves the
    # excess, so the step cap ends the solve
    _, grid, env, sim = load_example("example1", n_cells=32, K="exp(60*cos(pi*x))")
    with pytest.raises(ConvergenceError, match="did not converge in 50 Newton steps"):
        solve_semitrivial("v", env, 0.0, sim)


def test_semitrivial_validates_arguments():
    _, grid, env, sim = load_example("example1", n_cells=16)
    with pytest.raises(ConfigurationError, match="branch must be 'u' or 'v'"):
        solve_semitrivial("w", env, 0.0, sim)
    with pytest.raises(ConfigurationError, match="u-branch needs a nonnegative harvesting rate"):
        solve_semitrivial("u", env, -0.1, sim)
    below_one = "-branch needs a harvesting rate below 1, got"
    with pytest.raises(ConfigurationError, match=f"v{below_one} 1.0"):
        solve_semitrivial("v", env, 1.0, sim)
    with pytest.raises(ConfigurationError, match=f"u{below_one} nan"):
        solve_semitrivial("u", env, float("nan"), sim)


# ------------------------------------------------------- coexistence states


def test_coexistence_state_of_an_ideal_free_pair_is_the_pair():
    # K = P + Q and no harvest: (P, Q) is stationary, and continuation from
    # the flat start reaches it
    _, grid, env, sim = load_example("example3", n_cells=200)
    start = np.full(grid.n_cells, 2.1)
    u, v = solve_coexistence(start, start, env, HarvestRates(0.0, 0.0), sim)
    assert np.allclose(u, env.P, rtol=0.0, atol=1e-8)
    assert np.allclose(v, env.Q, rtol=0.0, atol=1e-8)


def test_coexistence_requires_both_species_positive():
    # v absent at the start stays absent, so the limit is (u_alpha, 0)
    _, grid, env, sim = load_example("example1", n_cells=48)
    start = np.full(grid.n_cells, 2.1)
    with pytest.raises(NumericalError, match="not a coexistence state: min v = 0"):
        solve_coexistence(start, np.zeros(grid.n_cells), env, HarvestRates(0.1, 0.0), sim)


def test_coexistence_reports_nonconvergence():
    # the capacity of test_semitrivial_reports_nonconvergence: the late
    # steps shrink the residual only fourfold each, and the cap ends the solve
    _, grid, env, sim = load_example("example1", n_cells=32, K="exp(60*cos(pi*x))")
    start = np.full(grid.n_cells, 2.1)
    with pytest.raises(ConvergenceError, match="did not converge in 50 pseudo-transient steps"):
        solve_coexistence(start, start, env, HarvestRates(0.1, 0.0), sim)


def test_coexistence_rejects_a_collapsed_state(monkeypatch):
    # K spans 18 decades: the absolute stop test passes a state whose v has
    # collapsed to max v = 7.9e-13, far below max K = 4.8e8, and only the
    # step cap stops the solve before it gets there
    _, grid, env, sim = load_example("example1", n_cells=200, K="exp(20*cos(pi*x))")
    start = np.full(grid.n_cells, 2.1)
    rates = HarvestRates(0.1, 0.0)
    with pytest.raises(ConvergenceError, match="did not converge in 50 pseudo-transient steps"):
        solve_coexistence(start, start, env, rates, sim)
    monkeypatch.setattr(dynamics, "_PTC_CAP", 400)
    with pytest.raises(NumericalError, match=r"collapsed: max v = 7\.8\d*e-13 is below 4\.267e-07"):
        solve_coexistence(start, start, env, rates, sim)
