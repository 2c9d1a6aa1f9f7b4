import numpy as np
import pytest

from harvestcomp import (
    HarvestRates,
    Outcome,
    SimulationConfig,
    alpha_star,
    principal_eigen,
    solve_semitrivial,
)
from harvestcomp.analysis import invasion_potential
from harvestcomp.config import build_environment, parse_config_text
from harvestcomp.operators import build_operator
from harvestcomp.sweep import (
    CellFailure,
    find_switch,
    simulate_cell,
    sweep_grid,
)

from conftest import load_example

ORDER = {Outcome.ONLY_U: 0, Outcome.COEXISTENCE: 1, Outcome.ONLY_V: 2}


@pytest.fixture(scope="module")
def example1_small():
    _, grid, env, _ = load_example("example1", n_cells=60)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    return grid, env, sim


def test_sweep_alpha_endpoints(example1_small):
    grid, env, sim = example1_small
    records = sweep_grid([0.0, 0.1, 0.99], [0.0], env, sim, jobs=1).records[0]
    assert records[0].outcome is Outcome.ONLY_U
    assert records[1].outcome is Outcome.COEXISTENCE
    assert records[2].outcome is Outcome.ONLY_V


def test_sweep_record_matches_long_horizon_rerun(example1_small):
    grid, env, sim = example1_small
    (record,) = sweep_grid([0.3], [0.0], env, sim, jobs=1).records[0]
    longer = SimulationConfig(dt=sim.dt, t_final=2 * sim.t_final, steady_tol=sim.steady_tol)
    (rerun,) = sweep_grid([0.3], [0.0], env, longer, jobs=1).records[0]
    assert record.avg_u == pytest.approx(rerun.avg_u, rel=0.01, abs=1e-6)
    assert record.avg_v == pytest.approx(rerun.avg_v, rel=0.01, abs=1e-6)


def test_monotone_outcome_ordering_along_alpha(example1_small):
    grid, env, sim = example1_small
    for beta in (0.0, 0.4):
        records = sweep_grid(np.linspace(0, 0.99, 12), [beta], env, sim, jobs=1).records[0]
        ranks = [ORDER[r.outcome] for r in records]
        assert ranks == sorted(ranks)


def invasion_sigma1(alpha, beta, env, sim):
    """Principal eigenvalue of u invading the harvested state (0, v_beta)."""
    v_beta = solve_semitrivial("v", env, beta, sim)
    potential = invasion_potential("u", v_beta, env, HarvestRates(alpha, beta))
    return principal_eigen(build_operator(env.a, env.P, env.grid), potential, env.P).sigma1


def test_find_switch_brackets_the_exclusion_boundary(example1_small):
    grid, env, sim = example1_small
    sp = find_switch(0.0, env, sim, tol=2e-3)
    assert sp is not None
    assert sp.bracket_width <= 2e-3
    assert sp.alpha_double_star >= alpha_star(0.0, env, sim).alpha_star
    # the invasion eigenvalue changes sign across the bracket
    half = 0.5 * sp.bracket_width
    assert invasion_sigma1(sp.alpha_double_star - half, 0.0, env, sim) > 0
    assert invasion_sigma1(sp.alpha_double_star + half, 0.0, env, sim) < 0
    # simulation cross-check a little away from the switch, where the runs
    # settle: u coexists below alpha** and is excluded above it. Closer in,
    # avg_u falls below the extinction threshold before u is excluded
    # (avg_u = 0.0298 at alpha** - 2e-3, run unsettled)
    lo = simulate_cell(sp.alpha_double_star - 0.01, 0.0, env, sim)
    hi = simulate_cell(sp.alpha_double_star + 0.01, 0.0, env, sim)
    assert lo.outcome is Outcome.COEXISTENCE and lo.resolved
    assert hi.outcome is Outcome.ONLY_V and hi.resolved


def test_find_switch_independent_of_starting_bracket(example1_small):
    grid, env, sim = example1_small
    tol = 2e-3
    a = find_switch(0.0, env, sim, tol=tol, eps=tol)
    b = find_switch(0.0, env, sim, tol=tol, eps=0.05)
    assert abs(a.alpha_double_star - b.alpha_double_star) <= 2 * tol


def test_find_switch_exists_for_flat_capacity_control():
    # flat capacity, u tracks it exactly (P = K), v disperses along a
    # nonuniform profile: the competitor is strictly disadvantaged, so the
    # exclusion switch sits inside (beta, 1)
    cfg = parse_config_text(
        "L = 4\nn_cells = 48\nK = 1\nr = 1.1\nP = 1\nQ = 1+0.5*cos(pi*x)\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    sp = find_switch(0.2, env, sim, tol=5e-3)
    assert sp is not None
    assert 0.2 < sp.alpha_double_star < 1.0


def test_find_switch_reports_no_switch_when_bracket_degenerates(example1_small):
    grid, env, sim = example1_small
    assert find_switch(0.999, env, sim, tol=1e-3) is None


def test_effective_alpha_star_below_switch_on_bundled_configs():
    # the guaranteed-coexistence bound never exceeds the switch point. beta
    # = 0.8 is left out: on example3 its root (~0.8007) lies inside
    # (beta, beta + eps], so find_switch returns None there
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        _, grid, env, sim = load_example(name, n_cells=200)
        for beta in (0.0, 0.4, 0.6):
            sp = find_switch(beta, env, sim)
            assert sp is not None, (name, beta)
            a_star = alpha_star(beta, env, sim).effective_alpha_star
            assert a_star <= sp.alpha_double_star, (name, beta)


def test_find_switch_ideal_free_pair_dominates_estimate():
    # the exclusion switch sits above the analytic coexistence bound 0.2024
    _, grid, env, _ = load_example("example3", n_cells=100)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    sp = find_switch(0.2, env, sim, tol=2e-3, eps=1e-3)
    assert sp is not None
    assert sp.alpha_double_star >= 0.2024


def test_sweep_grid_shape_and_indexing(example1_small):
    grid, env, sim = example1_small
    alphas = np.array([0.0, 0.5, 0.9])
    betas = np.array([0.0, 0.6])
    sg = sweep_grid(alphas, betas, env, sim, jobs=1)
    assert len(sg.records) == 2 and len(sg.records[0]) == 3
    for i, beta in enumerate(betas):
        for j, alpha in enumerate(alphas):
            assert sg.records[i][j].alpha == alpha
            assert sg.records[i][j].beta == beta


def test_sweep_grid_deterministic_across_worker_counts(example1_small):
    grid, env, sim = example1_small
    quick = SimulationConfig(dt=0.05, t_final=40.0, steady_tol=1e-9)
    alphas = np.linspace(0, 1, 4)
    serial = sweep_grid(alphas, alphas, env, quick, jobs=1)
    parallel = sweep_grid(alphas, alphas, env, quick, jobs=2)
    assert serial.records == parallel.records


def test_sweep_symmetric_environment_mirrors_records():
    cfg = parse_config_text(
        "L = 4\nn_cells = 48\nK = 2+cos(pi*x)\nr = 1.1\n"
        "P = 1+0.5*cos(pi*x)\nQ = 1+0.5*cos(pi*x)\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = SimulationConfig(dt=0.05, t_final=300.0, steady_tol=1e-9)
    sg = sweep_grid([0.1, 0.3], [0.1, 0.3], env, sim, jobs=1)
    for i in range(2):
        for j in range(2):
            rec = sg.records[i][j]  # (alpha_j, beta_i)
            mirror = sg.records[j][i]  # (alpha_i, beta_j)
            assert rec.avg_u == mirror.avg_v
            assert rec.avg_v == mirror.avg_u
            assert rec.yield_u == mirror.yield_v


def test_sweep_records_failures_in_place(example1_small):
    grid, env, sim = example1_small
    bad_u0 = np.full(grid.n_cells, -1.0)  # rejected by the integrator
    sg = sweep_grid([0.0, 0.5], [0.0], env, sim, jobs=1, u0=bad_u0)
    assert all(isinstance(c, CellFailure) for c in sg.records[0])
    assert len(sg.failures()) == 2
    assert "nonnegative" in sg.failures()[0].message
