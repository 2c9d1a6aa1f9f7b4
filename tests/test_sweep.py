import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq

from harvestcomp import (
    ConfigurationError,
    ConvergenceError,
    HarvestCompError,
    HarvestRates,
    Outcome,
    SimulationConfig,
    alpha_star,
    average,
    integrate,
    principal_eigen,
    solve_semitrivial,
)
from harvestcomp import spectral, sweep
from harvestcomp.analysis import invasion_potential
from harvestcomp.cli import main
from harvestcomp.config import build_environment, parse_config_text
from harvestcomp.operators import build_operator
from harvestcomp.sweep import (
    CellFailure,
    find_switch,
    simulate_cell,
    sweep_grid,
)

from conftest import (
    assert_sweep_matches_march,
    bundled_config,
    environments,
    ideal_free_environments,
    load_example,
    per_cell_sweep,
    record_of_march,
)

ORDER = {Outcome.ONLY_U: 0, Outcome.COEXISTENCE: 1, Outcome.ONLY_V: 2}


@pytest.fixture(scope="module")
def example1_small():
    _, grid, env, _ = load_example("example1", n_cells=60)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    return grid, env, sim


def test_sweep_alpha_endpoints(example1_small):
    grid, env, sim = example1_small
    records = sweep_grid([0.0, 0.1, 0.99], [0.0], env, sim).records[0]
    assert records[0].outcome is Outcome.ONLY_U
    assert records[1].outcome is Outcome.COEXISTENCE
    assert records[2].outcome is Outcome.ONLY_V


def test_sweep_record_matches_long_horizon_rerun(example1_small):
    # t_final does not enter the sweep; the rerun is the march oracle, to
    # twice the sweep config's horizon
    grid, env, sim = example1_small
    sg = sweep_grid([0.1, 0.3], [0.0], env, sim)
    longer = SimulationConfig(dt=sim.dt, t_final=2 * sim.t_final, steady_tol=1e-10)
    assert assert_sweep_matches_march(sg, env, longer) == 2


def test_monotone_outcome_ordering_along_alpha(example1_small):
    grid, env, sim = example1_small
    for beta in (0.0, 0.4):
        records = sweep_grid(np.linspace(0, 0.99, 12), [beta], env, sim).records[0]
        ranks = [ORDER[r.outcome] for r in records]
        assert ranks == sorted(ranks)


def invasion_sigma1(alpha, beta, env, sim):
    """Principal eigenvalue of u invading the harvested state (0, v_beta)."""
    v_beta = solve_semitrivial("v", env, beta, sim)
    potential = invasion_potential("u", v_beta, env, HarvestRates(alpha, beta))
    return principal_eigen(build_operator(env.a, env.P, env.grid), potential, env.P).sigma1


def brentq_switch(beta, env, sim, tol=1e-3):
    """Oracle for find_switch: alpha** by bracketing, None when sigma1 has one
    sign at the two ends of [beta + tol, 1 - tol]. xtol is tighter than
    brentq's default, so that the oracle's own tolerance does not count
    against the match."""
    lo, hi = beta + tol, 1.0 - tol

    def sigma1(alpha):
        return invasion_sigma1(alpha, beta, env, sim)

    if lo >= hi or (sigma1(lo) < 0) == (sigma1(hi) < 0):
        return None
    return brentq(sigma1, lo, hi, xtol=1e-15)


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
    lo = record_of_march(sp.alpha_double_star - 0.01, 0.0, env, sim)
    hi = record_of_march(sp.alpha_double_star + 0.01, 0.0, env, sim)
    assert lo.outcome is Outcome.COEXISTENCE and lo.resolved
    assert hi.outcome is Outcome.ONLY_V and hi.resolved


def test_find_switch_independent_of_starting_bracket(example1_small):
    grid, env, sim = example1_small
    tol = 2e-3
    a = find_switch(0.0, env, sim, tol=tol)
    b = find_switch(0.0, env, sim, tol=0.05)
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


@pytest.mark.parametrize("diffusion", [1.0, 0.01])
def test_find_switch_matches_brentq_on_bundled_configs(diffusion):
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        _, grid, env, sim = load_example(name, a=diffusion, b=diffusion)
        for beta in (0.0, 0.4, 0.6, 0.8):
            sp = find_switch(beta, env, sim)
            ref = brentq_switch(beta, env, sim)
            assert (sp is None) == (ref is None), (name, beta, sp, ref)
            if sp is not None:
                assert abs(sp.alpha_double_star - ref) <= 1e-12, (name, beta)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(env=environments(), beta=strategies.floats(0.0, 0.9))
def test_find_switch_matches_brentq_on_random_environments(env, beta):
    # r varies here, so sigma1 is not affine in alpha and Newton takes
    # more than one step
    sim = SimulationConfig()
    sp = find_switch(beta, env, sim)
    ref = brentq_switch(beta, env, sim)
    assert (sp is None) == (ref is None), (sp, ref)
    if sp is not None:
        assert abs(sp.alpha_double_star - ref) <= 1e-11


def test_find_switch_takes_one_eigenpair_on_example1(monkeypatch):
    # r is constant on example1, so sigma1 is affine in alpha: the tangent
    # at beta + tol and the slope bound -min r meet at the root, which the
    # climb returns without a second eigenpair to confirm it
    _, grid, env, sim = load_example("example1")
    calls = []

    def counting(*args):
        calls.append(args)
        return principal_eigen(*args)

    monkeypatch.setattr(spectral, "principal_eigen", counting)
    assert find_switch(0.4, env, sim) is not None
    assert len(calls) == 1


def test_find_switch_reports_no_switch_when_root_lies_above_the_interval():
    # u tracks K, v gathers where K is low: alpha** = 0.806 at beta = 0. With
    # tol = 0.3 the search interval (0.3, 0.7) lies below it, sigma1 is
    # positive at both ends and Newton's iterate reaches 1 - tol
    cfg = parse_config_text(
        "L = 1\nn_cells = 60\nK = 1+0.9*cos(pi*x)\nr = 1+0.5*x\n"
        "P = 1+0.9*cos(pi*x)\nQ = 1-0.9*cos(pi*x)\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = SimulationConfig()
    assert find_switch(0.0, env, sim, tol=0.3) is None
    assert invasion_sigma1(0.7, 0.0, env, sim) > 0
    sp = find_switch(0.0, env, sim, tol=0.1)
    assert sp is not None
    assert sp.alpha_double_star == pytest.approx(0.8063186, abs=1e-6)


def test_effective_alpha_star_below_switch_on_bundled_configs():
    # the guaranteed-coexistence bound never exceeds the switch point. beta
    # = 0.8 is left out: on example3 its root (~0.8007) lies inside
    # (beta, beta + tol], so find_switch returns None there
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        _, grid, env, sim = load_example(name, n_cells=200)
        for beta in (0.0, 0.4, 0.6):
            sp = find_switch(beta, env, sim)
            assert sp is not None, (name, beta)
            a_star = alpha_star(beta, env, sim).effective_alpha_star
            assert a_star <= sp.alpha_double_star, (name, beta)


def test_example5_paper_formula_bounds_the_switch_with_varying_growth(monkeypatch):
    # example2's habitat with r = 0.6+0.5cos(pi x): P is proportional to K,
    # so the paper's formula is alpha_P and a bound; r varies, so sigma1 is
    # no longer affine in alpha and the climb takes Newton steps
    _, _, env, sim = load_example("example5", n_cells=200)
    calls = []

    def counting(*args):
        calls.append(args)
        return principal_eigen(*args)

    monkeypatch.setattr(spectral, "principal_eigen", counting)
    for beta in (0.0, 0.4, 0.8):
        report = alpha_star(beta, env, sim)
        assert report.alpha_star_ifp is None
        calls.clear()
        sp = find_switch(beta, env, sim)
        assert len(calls) > 1, beta
        assert abs(sp.alpha_double_star - brentq_switch(beta, env, sim)) <= 1e-11, beta
        assert report.alpha_star <= sp.alpha_double_star, beta


def test_example5_sweep_cells_match_the_march():
    # coexist, only_u and only_v cells, all settled by the march oracle
    _, _, env, sim = load_example("example5", n_cells=200)
    sg = sweep_grid([0.1, 0.35, 0.7], [0.0, 0.4], env, sim)
    outcomes = {rec.outcome for row in sg.records for rec in row}
    assert outcomes == {Outcome.COEXISTENCE, Outcome.ONLY_U, Outcome.ONLY_V}
    assert assert_sweep_matches_march(sg, env) == 6


def test_find_switch_ideal_free_pair_dominates_estimate():
    # the exclusion switch sits above the analytic coexistence bound 0.2024
    _, grid, env, _ = load_example("example3", n_cells=100)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    sp = find_switch(0.2, env, sim, tol=1e-3)
    assert sp is not None
    assert sp.alpha_double_star >= 0.2024


def test_sweep_grid_shape_and_indexing(example1_small):
    grid, env, sim = example1_small
    alphas = np.array([0.0, 0.5, 0.9])
    betas = np.array([0.0, 0.6])
    sg = sweep_grid(alphas, betas, env, sim)
    assert len(sg.records) == 2 and len(sg.records[0]) == 3
    for i, beta in enumerate(betas):
        for j, alpha in enumerate(alphas):
            assert sg.records[i][j].alpha == alpha
            assert sg.records[i][j].beta == beta


def test_sweep_grid_deterministic_across_worker_counts(example1_small):
    # jobs is accepted and unused: the sweep runs in one process, and each
    # cell has the outcome and averages of the march wherever that settles
    grid, env, sim = example1_small
    alphas = np.linspace(0, 1, 4)
    serial = sweep_grid(alphas, alphas, env, sim, jobs=1)
    assert sweep_grid(alphas, alphas, env, sim, jobs=2).records == serial.records
    assert not serial.failures()
    assert assert_sweep_matches_march(serial, env) == 12  # all but the 4 alpha = beta cells


def test_sweep_symmetric_environment_mirrors_records():
    cfg = parse_config_text(
        "L = 4\nn_cells = 48\nK = 2+cos(pi*x)\nr = 1.1\n"
        "P = 1+0.5*cos(pi*x)\nQ = 1+0.5*cos(pi*x)\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = SimulationConfig(dt=0.05, t_final=300.0, steady_tol=1e-9)
    sg = sweep_grid([0.1, 0.3], [0.1, 0.3], env, sim)
    for i in range(2):
        # equal rates: the species are the same, so both sigmas are 0 and
        # the cell is a neutral failure that names them
        message = sg.records[i][i].message
        assert message.startswith("neutral cell, not decided by the invasion criterion")
        assert "sigma_u = " in message and "sigma_v = " in message
    rec = sg.records[0][1]  # (alpha = 0.3, beta = 0.1)
    mirror = sg.records[1][0]  # (alpha = 0.1, beta = 0.3)
    assert rec.outcome is Outcome.ONLY_V and mirror.outcome is Outcome.ONLY_U
    assert rec.avg_u == mirror.avg_v
    assert rec.avg_v == mirror.avg_u
    assert rec.yield_v == mirror.yield_u


def test_sweep_records_failures_in_place(example1_small, monkeypatch):
    # a cell whose solve fails is a CellFailure in its place, and the cells
    # around it keep their records
    grid, env, sim = example1_small
    real = sweep.solve_semitrivial

    def failing(which, env, rate, cfg):
        if (which, rate) == ("u", 0.5):
            raise ConvergenceError("no u-branch at alpha = 0.5")
        return real(which, env, rate, cfg)

    monkeypatch.setattr(sweep, "solve_semitrivial", failing)
    sg = sweep_grid([0.0, 0.5, 1.0], [0.0], env, sim)
    assert sg.failures() == [CellFailure(alpha=0.5, beta=0.0, message="no u-branch at alpha = 0.5")]
    assert sg.records[0][1] is sg.failures()[0]
    assert [c.outcome for c in sg.records[0][::2]] == [Outcome.ONLY_U, Outcome.ONLY_V]


def test_a_failed_cell_keeps_the_class_of_its_error(example1_small, monkeypatch, capsys):
    # simulate_cell and msy raise the failed solve's ConvergenceError, not a
    # bare HarvestCompError, so the CLI reports it as a numerical failure
    grid, env, sim = example1_small

    def failing(which, env, rate, cfg):
        raise ConvergenceError(f"no {which}-branch at rate {rate}")

    monkeypatch.setattr(sweep, "solve_semitrivial", failing)
    (failure,) = sweep_grid([0.2], [0.1], env, sim).failures()
    assert failure.error is ConvergenceError
    with pytest.raises(ConvergenceError, match=re.escape(failure.message)):
        simulate_cell(0.2, 0.1, env, sim)
    code = main(["msy", "--config", str(bundled_config("example1")), "--set", "n_cells=30",
                 "--set", "alpha=0.2", "--set", "beta=0.1"])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {failure.message}\n"


@pytest.mark.parametrize(
    "alphas, betas, name, rate",
    [
        ([-0.1, 0.2, math.nan, math.inf], [0.1, math.inf], "alpha", -0.1),
        ([0.2, math.nan, -0.1], [-1.0], "alpha", math.nan),
        ([0.2, 1.5], [0.1, math.inf, -1.0], "beta", math.inf),
        ([0.2], [-0.3, math.nan], "beta", -0.3),
    ],
    ids=["negative_alpha", "nan_alpha", "infinite_beta", "negative_beta"],
)
def test_sweep_grid_raises_the_first_rejected_rate_before_any_solve(
    example1_small, monkeypatch, alphas, betas, name, rate
):
    # HarvestRates rejects a negative or non-finite rate: sweep_grid checks
    # every alpha, then every beta, and raises HarvestRates' message for the
    # first it rejects before solving anything; a rate >= 1 is valid
    grid, env, sim = example1_small
    real = sweep.solve_semitrivial
    calls = []

    def counting(which, env, rate, cfg):
        calls.append((which, rate))
        return real(which, env, rate, cfg)

    monkeypatch.setattr(sweep, "solve_semitrivial", counting)
    with pytest.raises(ConfigurationError) as rejected:
        sweep_grid(alphas, betas, env, sim)
    assert str(rejected.value) == f"harvest rate {name} must be finite and >= 0, got {rate}"
    assert calls == []


def test_simulate_cell_raises_the_harvest_rate_message_of_a_rejected_rate(example1_small):
    # alpha's message when both rates are bad; initial data are checked first
    grid, env, sim = example1_small
    for alpha, beta, name, rate in [(-0.1, 0.1, "alpha", -0.1), (0.2, math.inf, "beta", math.inf),
                                    (math.nan, -1.0, "alpha", math.nan)]:
        with pytest.raises(ConfigurationError) as rejected:
            simulate_cell(alpha, beta, env, sim)
        assert str(rejected.value) == f"harvest rate {name} must be finite and >= 0, got {rate}"
    with pytest.raises(ConfigurationError, match="initial condition u0 must be nonnegative"):
        simulate_cell(-0.1, 0.1, env, sim, u0=np.full(grid.n_cells, -1.0))


def test_a_failing_semitrivial_solve_runs_once_per_sweep(example1_small, monkeypatch):
    # the column climb at alpha = 0.5 and each of that column's 11 cells
    # need u_alpha; the failed solve is kept, and every cell there fails
    # with its message while the other cells keep their records
    grid, env, sim = example1_small
    rates = np.linspace(0.0, 1.0, 11)
    expected = sweep_grid(rates, rates, env, sim).records
    real = sweep.solve_semitrivial
    calls = []

    def failing(which, env, rate, cfg):
        calls.append((which, rate))
        if (which, rate) == ("u", 0.5):
            raise ConvergenceError("no u-branch at alpha = 0.5")
        return real(which, env, rate, cfg)

    monkeypatch.setattr(sweep, "solve_semitrivial", failing)
    sg = sweep_grid(rates, rates, env, sim)
    assert calls.count(("u", 0.5)) == 1
    assert sg.failures() == [CellFailure(alpha=0.5, beta=float(beta),
                                         message="no u-branch at alpha = 0.5") for beta in rates]
    for got, want in zip(sg.records, expected):
        assert got[:5] + got[6:] == want[:5] + want[6:]


@pytest.mark.parametrize(
    "which, value, message",
    [
        ("u0", -1.0, "initial condition u0 must be nonnegative (min u0 = -1)"),
        ("v0", np.nan, "initial condition v0 / dt is not finite (max v0 = nan, dt = 0.05)"),
        ("u0", 1e308, "initial condition u0 / dt is not finite (max u0 = 1e+308, dt = 0.05)"),
    ],
    ids=["negative", "nan", "overflow"],
)
def test_sweep_grid_raises_rejected_initial_data(example1_small, which, value, message):
    # rejected before any cell is solved, even where no cell needs them
    # (alpha = 1 leaves u no state to seek)
    grid, env, sim = example1_small
    with pytest.raises(ConfigurationError) as rejected:
        sweep_grid([0.5, 1.0], [0.0], env, sim, **{which: np.full(grid.n_cells, value)})
    assert str(rejected.value) == message


def test_flat_environment_at_equal_rates_is_a_named_neutral_failure():
    # K = P = Q: at alpha = beta neither species can invade the other's
    # state nor is excluded by it (both sigmas 0), so the cell is not decided
    cfg = parse_config_text("L = 4\nn_cells = 48\nK = 1\nr = 1.1\nP = 1\nQ = 1\na = 1\nb = 0.5\n")
    _, env = build_environment(cfg)
    sim = SimulationConfig()
    neutral, harder = sweep_grid([0.2, 0.4], [0.2], env, sim).records[0]
    assert isinstance(neutral, CellFailure)
    assert neutral.message.startswith("neutral cell, not decided by the invasion criterion")
    sigmas = re.findall(r"sigma_[uv] = ([-+.e\d]+)", neutral.message)
    assert len(sigmas) == 2 and all(abs(float(s)) < 1e-12 for s in sigmas)
    assert harder.outcome is Outcome.ONLY_V  # u harvested harder loses
    with pytest.raises(HarvestCompError, match=re.escape(neutral.message)):
        simulate_cell(0.2, 0.2, env, sim)


def test_simulate_cell_is_the_sweep_record_where_the_march_settles_below_threshold():
    # the march settles in this coexistence cell with avg_u = 0.0447, under
    # the 1.5 % of average(K) (0.0636) that an extinction threshold would
    # call extinct; the cell's record is the invasion criterion's
    _, grid, env, sim = load_example("example4", n_cells=240)
    (swept,) = sweep_grid([0.3], [0.15], env, sim).records[0]
    record = simulate_cell(0.3, 0.15, env, sim)
    assert record.outcome is swept.outcome is Outcome.COEXISTENCE
    assert abs(record.avg_u - swept.avg_u) <= 1e-12
    assert abs(record.avg_v - swept.avg_v) <= 1e-12
    assert 0.04 < record.avg_u < 0.05


def test_simulate_cell_raises_bad_initial_data_as_configuration_errors(example1_small):
    # simulate_cell is a 1x1 sweep, and sweep_grid raises check_initial_data's
    # ConfigurationError itself
    grid, env, sim = example1_small
    with pytest.raises(ConfigurationError, match=r"initial condition u0 / dt is not finite"):
        simulate_cell(0.1, 0.0, env, sim, u0=np.full(grid.n_cells, 1e308))
    with pytest.raises(ConfigurationError, match="initial condition v0 must be nonnegative"):
        simulate_cell(0.1, 0.0, env, sim, v0=np.full(grid.n_cells, -1.0))


def test_over_exploited_cells_need_no_solve(example1_small, monkeypatch):
    grid, env, sim = example1_small

    def fail(*args):
        raise AssertionError("solved a state for a cell with both rates >= 1")

    monkeypatch.setattr(sweep, "solve_semitrivial", fail)
    (both,) = sweep_grid([1.0], [1.2], env, sim).records[0]
    assert both.outcome is Outcome.EXTINCTION
    assert (both.avg_u, both.avg_v, both.total_yield) == (0.0, 0.0, 0.0)


def test_one_species_records_hold_the_semitrivial_state_bitwise():
    # the kept species' average and yield are those of its state alone, the
    # yield as integral(rate * r * w); the absent species' are +0.0
    _, grid, env, sim = load_example("example4", n_cells=200)
    sg = sweep_grid([0.3, 1.0], [0.6, 1.2], env, sim)
    records = [rec for row in sg.records for rec in row]
    assert [rec.outcome for rec in records] == [Outcome.ONLY_U, Outcome.ONLY_V,
                                                Outcome.ONLY_U, Outcome.EXTINCTION]
    kept = {Outcome.ONLY_U: "u", Outcome.ONLY_V: "v", Outcome.EXTINCTION: None}
    for rec in records:
        for which, rate, avg, yield_ in (("u", rec.alpha, rec.avg_u, rec.yield_u),
                                         ("v", rec.beta, rec.avg_v, rec.yield_v)):
            if kept[rec.outcome] == which:
                w = solve_semitrivial(which, env, rate, sim)
                assert (avg, yield_) == (average(w, grid), integrate(rate * env.r * w, grid))
            else:
                assert (avg, yield_) == (0.0, 0.0)
                assert math.copysign(1.0, avg) == math.copysign(1.0, yield_) == 1.0


@pytest.mark.parametrize("tol", [0.0, -0.5, math.nan])
def test_find_switch_rejects_tolerance_not_positive(example1_small, tol):
    grid, env, sim = example1_small
    message = f"switch tolerance tol must be finite and positive, got {tol}"
    with pytest.raises(ConfigurationError, match=message):
        find_switch(0.2, env, sim, tol=tol)


def test_a_climb_past_its_cap_fails_find_switch_and_leaves_the_sweep_per_cell(monkeypatch):
    # with no Newton step allowed, a climb that does not stop at its first
    # point raises: find_switch names the rate, and sweep_grid computes each
    # cell of that line alone. r varies, so the first point's bounds leave
    # its iterate open and the climb goes on
    _, grid, env, sim = load_example("example1", n_cells=200, r="1.1+0.5*cos(pi*x)")
    monkeypatch.setattr(sweep, "_NEWTON_CAP", 0)
    message = "switch point not resolved after 0 Newton steps: rate near 0.401, sigma1 = "
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        find_switch(0.4, env, sim)
    rates = np.linspace(0.0, 1.0, 6)
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    env=environments(),
    alphas=strategies.lists(strategies.floats(0.0, 0.95), min_size=2, max_size=2),
    betas=strategies.lists(strategies.floats(0.0, 0.95), min_size=2, max_size=2),
)
def test_sweep_agrees_with_march_on_random_environments(env, alphas, betas):
    # the invasion criterion leaves out extra coexistence states when one
    # semi-trivial state is stable; the march is the oracle for that
    rng = np.random.default_rng(env.grid.n_cells)
    u0 = rng.uniform(0.2, 3, env.grid.n_cells)
    v0 = rng.uniform(0.2, 3, env.grid.n_cells)
    sg = sweep_grid(alphas, betas, env, SimulationConfig(), u0=u0, v0=v0)
    for failure in sg.failures():
        assert "not decided by the invasion criterion" in failure.message
    assert_sweep_matches_march(sg, env, u0=u0, v0=v0)


@pytest.mark.parametrize("diffusion", [1.0, 0.01])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example4b"])
def test_sweep_is_the_per_cell_sweep_on_bundled_configs(name, diffusion):
    # the climbs' sign certificates decide most cells; every record, failure
    # messages included, is the one of computing both sigmas in every cell
    _, grid, env, sim = load_example(name, n_cells=200, a=diffusion, b=diffusion)
    rates = np.linspace(0.0, 1.0, 41)
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)



@pytest.mark.parametrize("r_min, expected", [(0.5, None), (2.0, -1)])
def test_certified_sign_falls_at_least_at_the_smallest_growth_rate(r_min, expected):
    # from the single point (0, 1) with slope -2, sigma(1.5) is at most
    # 1 - 1.5 * r_min: 0.25 proves no sign, -2 proves -1. The tangent's
    # -2 is no upper bound, so a bound using the point's own slope would
    # certify -1 for both
    assert sweep._certified_sign([(0.0, 1.0, -2.0)], 1.5, r_min, 1e-6) == expected


@pytest.mark.parametrize("offset, expected", [
    (0.0, 0), (0.5, 0), (-0.5, 0), (0.75, None), (-0.75, None), (2.0, None), (-2.0, None),
    (2.5, 1), (-2.5, -1),
])
def test_certified_sign_is_neutral_where_both_bounds_lie_within_half_the_level(offset, expected):
    # one affine point (0, 0.5 + offset) with slope -1 = -r_min: both bounds
    # at x = 0.5 are offset, for a level of 1. Within level / 2 of 0 they
    # prove neutral; beyond it, and short of the 2 * level a sign of +1 or
    # -1 needs, they prove nothing
    assert sweep._certified_sign([(0.0, 0.5 + offset, -1.0)], 0.5, 1.0, 1.0) == expected


def test_certified_sign_needs_a_point_left_of_the_node_to_prove_neutral():
    # right of x, only the tangent bounds sigma: from below, by 0 here
    assert sweep._certified_sign([(1.0, -0.5, -1.0)], 0.5, 1.0, 1.0) is None


def test_sweep_bounds_the_slope_by_min_r(monkeypatch):
    # with r not constant, every certificate gets min r, not max r or a mean
    _, grid, env, sim = load_example("example2", n_cells=100, r="1+0.5*cos(pi*x)")
    assert np.min(env.r) < np.max(env.r)
    real = sweep._certified_sign
    slopes = []

    def spy(points, x, r_min, level):
        slopes.append(r_min)
        return real(points, x, r_min, level)

    monkeypatch.setattr(sweep, "_certified_sign", spy)
    rates = np.linspace(0.0, 1.0, 5)
    sweep_grid(rates, rates, env, sim)
    assert slopes and set(slopes) == {float(np.min(env.r))}

@settings(max_examples=10, deadline=None, derandomize=True)
@given(env=environments())
def test_sweep_is_the_per_cell_sweep_on_random_environments(env):
    # r varies here, so the climbs take several Newton steps and the
    # certificate's slope bound min r is not the slope
    rates = np.linspace(0.0, 1.0, 15)
    sim = SimulationConfig()
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)


def assert_sweep_scales_with_the_capacity(env, rates, sim, k):
    """K -> 2^k K with the initial data 2^k times as large keeps every
    outcome, and every average and yield becomes exactly 2^k times as large:
    the invasion potentials are unchanged, and each stationary solve stops
    relative to its state. A failed cell fails with the same error."""
    scale = 2.0**k
    start = np.full(env.grid.n_cells, sweep.DEFAULT_INITIAL_DENSITY)
    scaled = sweep_grid(rates, rates, replace(env, K=scale * env.K), sim,
                        u0=scale * start, v0=scale * start)
    for row, scaled_row in zip(sweep_grid(rates, rates, env, sim).records, scaled.records):
        for rec, got in zip(row, scaled_row):
            if isinstance(rec, CellFailure):
                assert isinstance(got, CellFailure) and got.error is rec.error, (rec, got)
            else:
                assert got == replace(rec, avg_u=scale * rec.avg_u, avg_v=scale * rec.avg_v,
                                      yield_u=scale * rec.yield_u,
                                      yield_v=scale * rec.yield_v), (rec, got)


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b", "example5"]
)
def test_sweep_scales_exactly_with_the_capacity_on_bundled_configs(name):
    _, _, env, sim = load_example(name, n_cells=200)
    assert_sweep_scales_with_the_capacity(env, np.linspace(0.0, 1.0, 21), sim, 3)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(env=environments(), k=strategies.integers(-20, 20))
def test_sweep_scales_exactly_with_the_capacity_on_random_environments(env, k):
    assert_sweep_scales_with_the_capacity(env, np.linspace(0.0, 1.0, 11), SimulationConfig(), k)


def _row_climb_rates(monkeypatch, env, sim) -> list:
    """The alphas at which the climb along the row beta = 0 of a sweep over
    alphas [0, 0.9] evaluates sigma_u, in order."""
    real = sweep.invasion_eigen
    row_rates = []

    def spy(invader, rates, resident):
        if invader is env:
            row_rates.append(rates.alpha)
        return real(invader, rates, resident)

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "invasion_eigen", spy)
        sweep_grid([0.0, 0.9], [0.0], env, sim)
    return row_rates


def test_a_solve_failing_mid_climb_fails_only_its_own_cell(monkeypatch):
    # r varies, so the row's climb evaluates 4 points: its first node, then
    # its Newton iterates
    _, grid, env, sim = load_example("example1", n_cells=200, r="1.1+0.5*cos(pi*x)")
    real = sweep.invasion_eigen
    climb = _row_climb_rates(monkeypatch, env, sim)
    assert len(climb) == 4
    start, iterate = climb[:2]
    assert start == 0.0 and 0.0 < iterate < 0.9

    def failing(invader, rates, resident):
        if invader is env and rates == HarvestRates(iterate, 0.0):
            raise ConvergenceError("no eigenpair at the climb's iterate")
        return real(invader, rates, resident)

    # put the iterate on the grid: the climb of row beta = 0 fails at its
    # second point, and that row's cells are computed one by one
    monkeypatch.setattr(sweep, "invasion_eigen", failing)
    alphas, betas = [0.0, iterate, 0.5, 0.9], [0.0, 0.3]
    sg = sweep_grid(alphas, betas, env, sim)
    failure = CellFailure(alpha=iterate, beta=0.0, message="no eigenpair at the climb's iterate")
    assert sg.failures() == [failure]
    assert sg.records[0][1] == failure
    assert sg.records == per_cell_sweep(alphas, betas, env, sim)


@pytest.mark.parametrize("r", ["1.1+0.5*cos(pi*x)", "1+0.5*cos(pi*x)", "1.1+0.3*sin(pi*x/2)"])
def test_the_climb_iterate_is_left_open_by_the_min_r_slope_bound(monkeypatch, r):
    # on alphas [0, x1], x1 the climb's first Newton iterate, the row's
    # climb stops at its first point: its iterate reaches the last node.
    # That point's tangent is 0 at x1 up to rounding, and sigma_u(x1) is
    # small and positive. The slope bound -min r leaves x1 open, so the
    # cell computes both sigmas and coexists; -max r would certify
    # sigma_u(x1) < 0 and make the cell only_v
    _, grid, env, sim = load_example("example1", n_cells=200, r=r)
    assert np.min(env.r) < np.max(env.r)
    x1 = _row_climb_rates(monkeypatch, env, sim)[1]
    alphas, betas = [0.0, x1], [0.0, 0.3]
    sg = sweep_grid(alphas, betas, env, sim)
    assert sg.records[0][1].outcome is Outcome.COEXISTENCE
    assert sg.records == per_cell_sweep(alphas, betas, env, sim)


@functools.cache
def _bundled(name: str, diffusion: float):
    return load_example(name, n_cells=200, a=diffusion, b=diffusion)[2]


def _climb_of_row(env, beta: float, start: float):
    """The climb of sigma_u(alpha) at beta from start toward 1, as a
    sweep_grid row runs it: its points, its last iterate and its level, and
    sigma_u at that iterate when the climb stopped by its bounds without
    evaluating it (None when another rule stopped it)."""
    v_beta = solve_semitrivial("v", env, beta, SimulationConfig())
    level = env.neutral_level

    def eigen(alpha):
        return sweep.invasion_eigen(env, HarvestRates(alpha=alpha, beta=beta), v_beta)

    points, iterate = sweep._newton_climb(eigen, env, start, 1.0, level, float(np.min(env.r)))
    sigma = points[-1][1]
    if sigma < 0 or iterate >= 1.0 or abs(sigma) <= level:
        return points, iterate, level, None
    return points, iterate, level, eigen(iterate).sigma1


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=strategies.sampled_from(["example1", "example2", "example3", "example4", "example4b"]),
    diffusion=strategies.sampled_from([1.0, 0.01]),
    beta=strategies.floats(0.0, 0.9),
    start=strategies.floats(0.0, 0.9),
)
def test_a_climb_stopped_by_its_bounds_skips_a_neutral_iterate_on_bundled_configs(
    name, diffusion, beta, start
):
    # r is constant, so sigma_u is affine in alpha and the first point's
    # bounds meet at its iterate: a climb that goes on from its first point
    # stops there, and the iterate it skips is neutral
    env = _bundled(name, diffusion)
    points, iterate, level, skipped = _climb_of_row(env, beta, start)
    sigma = points[0][1]
    if sigma > level and iterate < 1.0:
        assert len(points) == 1 and skipped is not None
    if skipped is not None:
        assert abs(skipped) <= level, (skipped, level)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(env=environments(), beta=strategies.floats(0.0, 0.9))
def test_a_climb_stopped_by_its_bounds_skips_a_neutral_iterate_on_random_environments(
    env, beta
):
    # r varies, so the bounds meet only near the root, after Newton steps;
    # 5 of these 100 climbs from alpha = 0 stop so
    _, _, level, skipped = _climb_of_row(env, beta, 0.0)
    if skipped is not None:
        assert abs(skipped) <= level, (skipped, level)


def _eigenpairs_of_sweep(monkeypatch, rates, env, sim) -> int:
    """The number of eigenpairs sweep_grid(rates, rates, env, sim) computes,
    checking that no cell fails."""
    calls = []

    def counting(*args):
        calls.append(args)
        return principal_eigen(*args)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "principal_eigen", counting)
        sg = sweep_grid(rates, rates, env, sim)
    assert not sg.failures()
    return len(calls)


@pytest.mark.parametrize("points, count", [(1, 2), (11, 20), (41, 80)])
def test_sweep_eigenpair_counts_on_example1(monkeypatch, points, count):
    # computing both sigmas in every cell with both rates below 1 takes
    # 2, 200 and 3,200 eigenpairs. r is constant, so each climb takes one
    # eigenpair, whose bounds decide every node of its line: the diagonal
    # alpha = beta too, where u disperses ideally and sigma_v is neutral
    _, grid, env, sim = load_example("example1", n_cells=200)
    rates = [0.3] if points == 1 else np.linspace(0.0, 1.0, points)
    assert _eigenpairs_of_sweep(monkeypatch, rates, env, sim) == count


@pytest.mark.parametrize("points", [11, 41])
@pytest.mark.parametrize("diffusion", [1.0, 0.01])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example4b"])
def test_sweep_takes_one_eigenpair_per_climb_on_bundled_configs(monkeypatch, name, diffusion,
                                                                 points):
    # one climb per row and per column with its rate below 1
    rates = np.linspace(0.0, 1.0, points)
    count = _eigenpairs_of_sweep(monkeypatch, rates, _bundled(name, diffusion), SimulationConfig())
    assert count == 2 * (points - 1)


def _certified_neutral_sigmas(env, rates) -> list:
    """(sigma, level) at each node of each line that sweep_grid(rates, rates,
    env, ...) certifies neutral, sigma computed there: sigma_u on the rows,
    sigma_v on the columns."""
    sim = SimulationConfig()
    r_min = float(np.min(env.r))
    nodes = sorted({float(x) for x in rates if 0 <= x < 1})
    found = []
    for invader_env, resident in ((env, "v"), (env.swapped(), "u")):
        level = invader_env.neutral_level
        for other in nodes:
            w = solve_semitrivial(resident, env, other, sim)

            def eigen(own):
                return sweep.invasion_eigen(invader_env, HarvestRates(alpha=own, beta=other), w)

            points, _ = sweep._newton_climb(eigen, invader_env, nodes[0], nodes[-1], level,
                                            r_min)
            found += [(eigen(x).sigma1, level) for x in nodes
                      if sweep._certified_sign(points, x, r_min, level) == 0]
    return found


@pytest.mark.parametrize("diffusion", [1.0, 0.01])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example4b"])
def test_a_node_certified_neutral_has_a_neutral_sigma_on_bundled_configs(name, diffusion):
    # u disperses ideally on examples 1, 2 and 4b, so sigma_v vanishes on
    # the diagonal: the 40 nodes alpha = beta below 1 are certified there
    found = _certified_neutral_sigmas(_bundled(name, diffusion), np.linspace(0.0, 1.0, 41))
    assert len(found) == (40 if name in ("example1", "example2", "example4b") else 0)
    for sigma, level in found:
        assert abs(sigma) <= level, (sigma, level)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(env=ideal_free_environments())
def test_a_node_certified_neutral_has_a_neutral_sigma_on_ideal_free_environments(env):
    # one species disperses ideally, so the other's sigma vanishes on the
    # diagonal alpha = beta; where r varies, the climbs reach those nodes by
    # Newton steps, and the certificate rests on their tangents. The climb
    # on the line through (0, 0) starts there, so that node is certified
    found = _certified_neutral_sigmas(env, np.linspace(0.0, 1.0, 21))
    assert found
    for sigma, level in found:
        assert abs(sigma) <= level, (sigma, level)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(env=ideal_free_environments())
def test_sweep_is_the_per_cell_sweep_on_ideal_free_environments(env):
    # one species disperses ideally, so the other's sigma is neutral on the
    # diagonal; with r varying, the climbs reach it by Newton steps. The
    # climb on the line through (0, 0) starts there, so that node is
    # certified neutral at least
    rates = np.linspace(0.0, 1.0, 15)
    sim = SimulationConfig()
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)
    found = _certified_neutral_sigmas(env, rates)
    assert found
    for sigma, level in found:
        assert abs(sigma) <= level, (sigma, level)
