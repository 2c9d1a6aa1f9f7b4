import numpy as np
import pytest

from harvestcomp import (
    ConfigurationError,
    ConvergenceError,
    HarvestRates,
    Outcome,
    PopulationState,
    SimulationConfig,
    average,
    integrate,
    classify,
    run_to_time,
    solve_semitrivial,
    step,
    transform,
)
from harvestcomp.operators import apply as op_apply
from harvestcomp.operators import build_operator
from harvestcomp.profiles import EnvironmentProfile

from conftest import load_example, random_positive_profile, random_grid


def build_ops(env):
    return (
        build_operator(env.a, env.P, env.grid),
        build_operator(env.b, env.Q, env.grid),
    )


# ---------------------------------------------------------------- transform


def test_transform_identity_without_harvesting():
    _, _, env, _ = load_example("example1", n_cells=16)
    tp = transform(0.0, 0.0, env)
    assert tp.c == 1.0 and tp.r1 == 1.0 and tp.r2 == 1.0
    assert np.array_equal(tp.K1, env.K) and np.array_equal(tp.K2, env.K)


def test_transform_harvest_u_only():
    _, _, env, _ = load_example("example1", n_cells=16)
    tp = transform(0.1, 0.0, env)
    assert tp.c == pytest.approx(0.9)
    assert tp.r1 == pytest.approx(0.9)
    assert tp.r2 == pytest.approx(1.0)


def test_transform_both_harvested():
    _, _, env, _ = load_example("example1", n_cells=16)
    tp = transform(0.6, 0.2, env)
    assert tp.c == pytest.approx(0.5)
    assert tp.r1 == pytest.approx(0.4)
    assert tp.r2 == pytest.approx(0.8)
    assert np.allclose(tp.K2, 0.8 * env.K)


def test_transform_undefined_for_over_exploited_competitor():
    _, _, env, _ = load_example("example1", n_cells=16)
    with pytest.raises(ConfigurationError):
        transform(0.2, 1.0, env)


# --------------------------------------------------------------------- step


def test_step_keeps_trivial_equilibrium():
    _, grid, env, sim = load_example("example1", n_cells=32)
    zero = np.zeros(grid.n_cells)
    out = step(PopulationState(u=zero, v=zero, t=0.0), env, HarvestRates(0, 0), build_ops(env), sim.dt)
    assert np.array_equal(out.u, zero) and np.array_equal(out.v, zero)


def test_step_keeps_capacity_tracking_equilibrium():
    # P proportional to K: (K, 0) is stationary
    _, grid, env, sim = load_example("example1", n_cells=64)
    st = PopulationState(u=env.K.copy(), v=np.zeros(grid.n_cells), t=0.0)
    out = step(st, env, HarvestRates(0, 0), build_ops(env), sim.dt)
    assert np.max(np.abs(out.u - env.K)) <= 1e-12
    assert np.max(np.abs(out.v)) == 0.0


def test_step_keeps_ideal_free_pair_equilibrium():
    _, grid, env, sim = load_example("example3", n_cells=64)
    st = PopulationState(u=env.P.copy(), v=env.Q.copy(), t=0.0)
    out = step(st, env, HarvestRates(0, 0), build_ops(env), sim.dt)
    assert np.max(np.abs(out.u - env.P)) <= 1e-12
    assert np.max(np.abs(out.v - env.Q)) <= 1e-12


def test_step_preserves_positivity(rng):
    _, grid, env, sim = load_example("example1", n_cells=48)
    ops = build_ops(env)
    st = PopulationState(
        u=rng.uniform(0, 6, grid.n_cells), v=rng.uniform(0, 6, grid.n_cells), t=0.0
    )
    for _ in range(200):
        st = step(st, env, HarvestRates(0.3, 0.1), ops, sim.dt)
        assert np.all(st.u >= 0) and np.all(st.v >= 0)


def test_absent_species_stays_absent(rng):
    _, grid, env, sim = load_example("example1", n_cells=48)
    ops = build_ops(env)
    st = PopulationState(u=rng.uniform(0.5, 3, grid.n_cells), v=np.zeros(grid.n_cells), t=0.0)
    for _ in range(50):
        st = step(st, env, HarvestRates(0, 0), ops, sim.dt)
    assert np.all(st.v == 0.0)


def _swap_env(env):
    return EnvironmentProfile(
        grid=env.grid, K=env.K, r=env.r, P=env.Q, Q=env.P, a=env.b, b=env.a
    )


def test_swap_symmetry_is_exact(rng):
    g = random_grid(rng, 16, 40)
    env = EnvironmentProfile(
        grid=g,
        K=random_positive_profile(rng, g),
        r=random_positive_profile(rng, g),
        P=random_positive_profile(rng, g),
        Q=random_positive_profile(rng, g),
        a=random_positive_profile(rng, g),
        b=random_positive_profile(rng, g),
    )
    u0 = rng.uniform(0.2, 3, g.n_cells)
    v0 = rng.uniform(0.2, 3, g.n_cells)
    cfg = SimulationConfig(dt=0.05, t_final=5.0, steady_tol=1e-14)
    out = run_to_time(u0, v0, env, HarvestRates(0.3, 0.7), cfg)
    swapped = run_to_time(v0, u0, _swap_env(env), HarvestRates(0.7, 0.3), cfg)
    assert np.array_equal(out.u, swapped.v)
    assert np.array_equal(out.v, swapped.u)


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
    record = classify(final, env, rates, sim)
    assert record.outcome is Outcome.ONLY_U
    assert record.avg_u == pytest.approx(2.0, abs=0.02)


def test_small_harvesting_restores_coexistence_small_grid():
    _, grid, env, sim = load_example("example1", n_cells=100)
    rates = HarvestRates(0.1, 0.0)
    final = run_to_time(np.full(100, 2.1), np.full(100, 2.1), env, rates, sim)
    record = classify(final, env, rates, sim)
    assert record.outcome is Outcome.COEXISTENCE
    assert final.steady


def test_over_exploitation_kills_both_small_grid():
    _, grid, env, sim = load_example("example1", n_cells=100)
    rates = HarvestRates(1.2, 1.1)
    final = run_to_time(np.full(100, 2.1), np.full(100, 2.1), env, rates, sim)
    record = classify(final, env, rates, sim)
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
    averages = {}
    for n in (100, 200, 400):
        _, grid, env, sim = load_example("example1", n_cells=n)
        averages[n] = average(solve_semitrivial("v", env, 0.0, sim), grid)
    e1 = abs(averages[100] - averages[200])
    e2 = abs(averages[200] - averages[400])
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


def test_semitrivial_reports_nonconvergence():
    _, grid, env, _ = load_example("example1", n_cells=32)
    tight = SimulationConfig(dt=0.05, t_final=0.5, steady_tol=1e-12)
    with pytest.raises(ConvergenceError):
        solve_semitrivial("v", env, 0.0, tight)


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
