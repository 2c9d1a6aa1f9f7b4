import functools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

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
    detect_ideal_free_pair,
    integrate,
    principal_eigen,
    solve_semitrivial,
)
from harvestcomp import spectral, sweep
from harvestcomp.analysis import invasion_potential
from harvestcomp.cli import main
from harvestcomp.config import build_environment, parse_config_text
from harvestcomp.operators import annihilates, build_operator
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
    ideal_free_pairs,
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


def brentq_root(sigma1, level: float):
    """Oracle for a line's root: the root of the decreasing sigma1 on
    [0, 1] by bracketing, None when sigma1(0) < -level and 0 when
    |sigma1(0)| <= level. xtol is tighter than brentq's default, so that the
    oracle's own tolerance does not count against the match."""
    at_zero = sigma1(0.0)
    if at_zero < -level:
        return None
    if at_zero <= level:
        return 0.0
    return brentq(sigma1, 0.0, 1.0, xtol=1e-15)


def brentq_switch(beta, env, sim):
    """Oracle for find_switch: alpha** by brentq_root at env.neutral_level,
    so None when sigma1(0) < -level and 0 when |sigma1(0)| <= level.
    sigma1(1) < 0 always, since the potential r * (-v_beta / K) is <= 0 and
    negative where v_beta is. sigma1 is invasion_sigma1's, with v_beta
    solved once."""
    v_beta = solve_semitrivial("v", env, beta, sim)
    op = build_operator(env.a, env.P, env.grid)

    def sigma1(alpha):
        potential = invasion_potential("u", v_beta, env, HarvestRates(alpha, beta))
        return principal_eigen(op, potential, env.P).sigma1

    return brentq_root(sigma1, env.neutral_level)


def assert_bracket_holds(sp, ref, width: float = 1e-8):
    """sp's bracket holds its root and the oracle's root ref, and is at
    most width wide."""
    assert sp.lo <= sp.alpha_double_star <= sp.hi, sp
    assert sp.lo <= ref <= sp.hi, (sp, ref)
    assert sp.bracket_width <= width, sp


def brentq_switch_v(alpha, env, sim):
    """Oracle for SweepGrid.switch_v: beta_v(alpha), the root of sigma_v,
    the principal eigenvalue of v invading (u_alpha, 0), by brentq_root at
    v's level env.swapped().neutral_level. sigma_v is computed on v's own
    operator div[b grad(./Q)], not through env.swapped()."""
    u_alpha = solve_semitrivial("u", env, alpha, sim)
    op = build_operator(env.b, env.Q, env.grid)

    def sigma_v(beta):
        potential = invasion_potential("v", u_alpha, env, HarvestRates(alpha, beta))
        return principal_eigen(op, potential, env.Q).sigma1

    return brentq_root(sigma_v, env.swapped().neutral_level)


def test_find_switch_brackets_the_exclusion_boundary(example1_small):
    grid, env, sim = example1_small
    sp = find_switch(0.0, env, sim)
    assert sp is not None
    assert_bracket_holds(sp, brentq_switch(0.0, env, sim))
    assert sp.alpha_double_star >= alpha_star(0.0, env, sim).alpha_star
    # the invasion eigenvalue changes sign across the bracket
    assert invasion_sigma1(sp.lo, 0.0, env, sim) > 0
    assert invasion_sigma1(sp.hi, 0.0, env, sim) < 0
    # simulation cross-check a little away from the switch, where the runs
    # settle: u coexists below alpha** and is excluded above it. Closer in,
    # avg_u falls below the extinction threshold before u is excluded
    # (avg_u = 0.0298 at alpha** - 2e-3, run unsettled)
    lo = record_of_march(sp.alpha_double_star - 0.01, 0.0, env, sim)
    hi = record_of_march(sp.alpha_double_star + 0.01, 0.0, env, sim)
    assert lo.outcome is Outcome.COEXISTENCE and lo.resolved
    assert hi.outcome is Outcome.ONLY_V and hi.resolved


def test_find_switch_independent_of_starting_bracket(example1_small):
    # every search is one eigenpair of the row's pencil, and its bracket is
    # the one that eigenpair proves: tol, still accepted, changes nothing
    grid, env, sim = example1_small
    a = find_switch(0.0, env, sim, tol=2e-3)
    b = find_switch(0.0, env, sim, tol=0.05)
    assert a == b == find_switch(0.0, env, sim)
    assert_bracket_holds(a, brentq_switch(0.0, env, sim))


def test_find_switch_exists_for_flat_capacity_control():
    # flat capacity, u tracks it exactly (P = K), v disperses along a
    # nonuniform profile: the competitor is strictly disadvantaged, so the
    # exclusion switch sits inside (beta, 1)
    cfg = parse_config_text(
        "L = 4\nn_cells = 48\nK = 1\nr = 1.1\nP = 1\nQ = 1+0.5*cos(pi*x)\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    sp = find_switch(0.2, env, sim)
    assert sp is not None
    assert 0.2 < sp.alpha_double_star < 1.0


def test_find_switch_reports_no_switch_when_bracket_degenerates(example1_small):
    # alpha** lies less than 1e-3 above beta and below 1; the row's
    # eigenpair finds it, and its bracket lies inside (beta, 1)
    grid, env, sim = example1_small
    sp = find_switch(0.999, env, sim)
    assert 0.999 < sp.lo <= sp.alpha_double_star <= sp.hi < 1.0
    assert_bracket_holds(sp, brentq_switch(0.999, env, sim))


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


@pytest.mark.parametrize("diffusion", [None, 0.01])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b", "example5"]
)
def test_find_switch_bracket_holds_the_brentq_root_on_bundled_configs(name, diffusion):
    # at n = 800 the brackets are 4e-13 to 4e-9 wide, the widest on example5,
    # where r varies
    overrides = {} if diffusion is None else {"a": diffusion, "b": diffusion}
    _, grid, env, sim = load_example(name, **overrides)
    assert grid.n_cells == 800
    for beta in (0.0, 0.4, 0.8):
        sp = find_switch(beta, env, sim)
        ref = brentq_switch(beta, env, sim)
        assert sp is not None and ref is not None, (name, beta)
        assert_bracket_holds(sp, ref)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(env=strategies.one_of(environments(), ideal_free_environments()),
       beta=strategies.floats(0.0, 0.9))
def test_find_switch_bracket_holds_the_brentq_root_on_random_environments(env, beta):
    sim = SimulationConfig()
    sp = find_switch(beta, env, sim)
    ref = brentq_switch(beta, env, sim)
    if sp is not None and ref is not None:
        assert_bracket_holds(sp, ref)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(env=environments(), beta=strategies.floats(0.0, 0.9))
def test_find_switch_matches_brentq_on_random_environments(env, beta):
    # r varies here, so sigma1 is not affine in alpha; the pencil's root
    # is still one eigenpair
    sim = SimulationConfig()
    sp = find_switch(beta, env, sim)
    ref = brentq_switch(beta, env, sim)
    assert (sp is None) == (ref is None), (sp, ref)
    if sp is not None:
        assert abs(sp.alpha_double_star - ref) <= 1e-11


def test_find_switch_takes_one_eigenpair_on_example1(monkeypatch):
    # alpha** is the principal eigenvalue of the r-weighted pencil: one
    # eigenpair, with no second one to confirm it
    _, grid, env, sim = load_example("example1")
    calls = []

    def counting(*args):
        calls.append(args)
        return principal_eigen(*args)

    monkeypatch.setattr(spectral, "principal_eigen", counting)
    assert find_switch(0.4, env, sim) is not None
    assert len(calls) == 1


def test_find_switch_reports_no_switch_when_root_lies_above_the_interval():
    # u tracks K, v gathers where K is low: alpha** = 0.806 at beta = 0, far
    # from both ends of [0, 1). r varies, so sigma1 is not affine in alpha
    cfg = parse_config_text(
        "L = 1\nn_cells = 60\nK = 1+0.9*cos(pi*x)\nr = 1+0.5*x\n"
        "P = 1+0.9*cos(pi*x)\nQ = 1-0.9*cos(pi*x)\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    sim = SimulationConfig()
    assert invasion_sigma1(0.7, 0.0, env, sim) > 0
    sp = find_switch(0.0, env, sim)
    assert sp.alpha_double_star == pytest.approx(0.8063186, abs=1e-6)
    assert_bracket_holds(sp, brentq_switch(0.0, env, sim))


def test_effective_alpha_star_below_switch_on_bundled_configs():
    # the guaranteed-coexistence bound never exceeds the switch point; on
    # example3 the root at beta = 0.8 (~0.8007) lies just above beta
    for name in ("example1", "example2", "example3", "example4", "example4b", "example5"):
        _, grid, env, sim = load_example(name, n_cells=200)
        for beta in (0.0, 0.4, 0.6, 0.8):
            sp = find_switch(beta, env, sim)
            assert sp is not None, (name, beta)
            a_star = alpha_star(beta, env, sim).effective_alpha_star
            assert a_star <= sp.alpha_double_star, (name, beta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(env=strategies.one_of(environments(), ideal_free_environments()),
       beta=strategies.floats(0.0, 0.9))
def test_effective_alpha_star_is_below_the_proven_switch_on_random_environments(env, beta):
    # alpha_P lies below alpha**; where P or Q is a multiple of K the two are
    # one number and alpha_P may round above the computed root, but never
    # above hi, the end of the bracket the row's eigenpair proves
    sim = SimulationConfig()
    sp = find_switch(beta, env, sim)
    if sp is not None:
        assert alpha_star(beta, env, sim).effective_alpha_star <= sp.hi, sp


def test_harvest_on_the_winner_rescues_the_loser():
    # u and v disperse alike but u 100 times faster, so v excludes u
    # unharvested: u cannot invade (0, v_0) at any alpha, and any harvest on
    # v opens a strip alpha < alpha**(beta) on which u invades
    _, _, env, sim = load_example("example2", n_cells=200, P=1, Q=1, a=1, b=0.01)
    assert find_switch(0.0, env, sim) is None
    for beta in (0.1, 0.3, 0.6):
        sp = find_switch(beta, env, sim)
        assert 0.0 < sp.lo <= sp.alpha_double_star <= sp.hi < 1.0, beta
        assert invasion_sigma1(sp.lo, beta, env, sim) > 0, beta
        assert invasion_sigma1(sp.hi, beta, env, sim) < 0, beta


def test_alpha_p_lies_below_the_switch_where_p_is_not_proportional_to_k():
    # sigma1(alpha_P) >= 0, so alpha_P <= alpha**, also where alpha** lies
    # just above beta. u loses unharvested on example1, 4 and 4b: at
    # beta = 0 there is no switch, and alpha_P < 0 claims no coexistence
    for name in ("example1", "example2", "example3", "example4", "example4b", "example5"):
        _, _, env, sim = load_example(name, n_cells=200, P="1+0.5*sin(pi*x/4)")
        for beta in (0.0, 0.4, 0.8):
            alpha_p = alpha_star(beta, env, sim).effective_alpha_star
            sp = find_switch(beta, env, sim)
            if sp is None:
                assert name in ("example1", "example4", "example4b") and beta == 0.0, name
                assert alpha_p < 0.0, name
            else:
                assert alpha_p <= sp.alpha_double_star, (name, beta)


def test_example5_paper_formula_bounds_the_switch_with_varying_growth(monkeypatch):
    # example2's habitat with r = 0.6+0.5cos(pi x): P is proportional to K,
    # so the paper's formula is alpha_P and a bound; r varies, so sigma1 is
    # no longer affine in alpha, and alpha** is still one eigenpair, that of
    # the r-weighted pencil
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
        assert len(calls) == 1, beta
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
    sp = find_switch(0.2, env, sim)
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
    # the column's eigenpair at alpha = 0.5 and each of that column's 11 cells
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


def test_a_line_whose_eigenpair_fails_fails_find_switch_and_leaves_the_sweep_per_cell(
    monkeypatch
):
    # a line's eigenpair that raises: find_switch raises its error, and
    # sweep_grid computes each cell of every line alone
    _, grid, env, sim = load_example("example1", n_cells=200, r="1.1+0.5*cos(pi*x)")

    def failing(invader_env, resident):
        raise ConvergenceError("no eigenpair on the line")

    monkeypatch.setattr(sweep, "switch_eigen", failing)
    with pytest.raises(ConvergenceError, match="no eigenpair on the line"):
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
    # the lines' bracket signs decide most cells; every record, failure
    # messages included, is the one of computing both sigmas in every cell
    _, grid, env, sim = load_example(name, n_cells=200, a=diffusion, b=diffusion)
    rates = np.linspace(0.0, 1.0, 41)
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)



@pytest.mark.parametrize("r_min, expected", [(0.5, None), (2.0, -1)])
def test_bracket_sign_falls_at_least_at_the_smallest_growth_rate(r_min, expected):
    # the root at 0 with slope -2 there: sigma(1) is at most -r_min, so
    # -0.5 proves no sign at a level of 0.5 and -2 proves -1. The tangent's
    # -2 is no upper bound, so a bound using the root's own slope would
    # certify -1 for both
    assert sweep._bracket_sign(1.0, 0.0, 0.0, -2.0, r_min, 2.0, 0.5) == expected


@pytest.mark.parametrize("offset, expected", [
    (0.0, 0), (0.5, 0), (-0.5, 0), (0.75, None), (-0.75, None), (2.0, None), (-2.0, None),
    (2.5, 1), (-2.5, -1),
])
def test_bracket_sign_is_neutral_where_both_bounds_lie_within_half_the_level(offset, expected):
    # a root at 0.5 + offset with slope -1 = -r_min = -r_max, bracketed
    # exactly: both bounds at x = 0.5 are offset, for a level of 1. Within
    # level / 2 of 0 they prove neutral; beyond it, and short of the
    # 2 * level a sign of +1 or -1 needs, they prove nothing
    root = 0.5 + offset
    assert sweep._bracket_sign(0.5, root, root, -1.0, 1.0, 1.0, 1.0) == expected


def test_bracket_sign_needs_both_ends_of_the_bracket_near_the_node_to_prove_neutral():
    # the root may lie anywhere in [0.5, 1.5]: at x = 0.5 sigma is between
    # 0 and 1, so a near end alone proves nothing
    assert sweep._bracket_sign(0.5, 0.5, 1.5, -1.0, 1.0, 1.0, 1.0) is None
    assert sweep._bracket_sign(0.5, 0.25, 0.75, -1.0, 1.0, 1.0, 1.0) == 0


def test_sweep_bounds_the_slope_by_min_r_and_max_r(monkeypatch):
    # with r not constant, every sign falls at least at min r and at most at
    # max r, not at a mean
    _, grid, env, sim = load_example("example2", n_cells=100, r="1+0.5*cos(pi*x)")
    assert np.min(env.r) < np.max(env.r)
    real = sweep._bracket_sign
    slopes = []

    def spy(x, lo, hi, slope, r_min, r_max, level):
        slopes.append((r_min, r_max))
        return real(x, lo, hi, slope, r_min, r_max, level)

    monkeypatch.setattr(sweep, "_bracket_sign", spy)
    rates = np.linspace(0.0, 1.0, 5)
    sweep_grid(rates, rates, env, sim)
    assert slopes and set(slopes) == {(float(np.min(env.r)), float(np.max(env.r)))}

@settings(max_examples=10, deadline=None, derandomize=True)
@given(env=environments())
def test_sweep_is_the_per_cell_sweep_on_random_environments(env):
    # r varies here, so the slope bounds min r and max r are not the slope
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


@pytest.mark.parametrize("r", ["1.1+0.5*cos(pi*x)", "1+0.5*cos(pi*x)", "1.1+0.3*sin(pi*x/2)"])
def test_nodes_at_the_ends_of_the_row_bracket_are_the_per_cell_sweep(r):
    # nodes on alpha**(0) and a hair either side of it, which the row's
    # bracket proves neutral; one 1.5 level / min r above it, which the
    # slope bound -min r leaves open, though -max r would prove -1; and one
    # past where -min r proves -1. Every record is the one of computing
    # every cell, the neutral cells' failure messages included
    _, grid, env, sim = load_example("example1", n_cells=200, r=r)
    r_min = float(np.min(env.r))
    assert r_min < np.max(env.r)
    sp = find_switch(0.0, env, sim)
    root, level = sp.alpha_double_star, env.neutral_level
    alphas = [0.0, root - 1e-12, root, root + 1e-12, root + 1.5 * level / r_min,
              sp.hi + 3.0 * level / r_min]
    betas = [0.0, 0.3]
    assert sweep_grid(alphas, betas, env, sim).records == per_cell_sweep(alphas, betas, env, sim)


@functools.cache
def _bundled(name: str, diffusion: float):
    return load_example(name, n_cells=200, a=diffusion, b=diffusion)[2]


def _sigma_at_the_line_root(env, beta: float):
    """sigma_u at the root that the row beta of a sweep reports, computed
    there, and its level; None where the row reports no root."""
    v_beta = solve_semitrivial("v", env, beta, SimulationConfig())
    res = sweep.switch_eigen(env, v_beta)
    root = sweep._line_root(res, spectral.rate_slope(res, env.r), env.neutral_level)
    if root is None:
        return None, env.neutral_level
    rates = HarvestRates(alpha=root, beta=beta)
    return sweep.invasion_eigen(env, rates, v_beta).sigma1, env.neutral_level


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=strategies.sampled_from(["example1", "example2", "example3", "example4", "example4b"]),
    diffusion=strategies.sampled_from([1.0, 0.01]),
    beta=strategies.floats(0.0, 0.9),
)
def test_the_line_root_is_neutral_on_bundled_configs(name, diffusion, beta):
    # the pencil's eigenvalue is the rate at which sigma_u is 0: computed
    # there, sigma_u is neutral
    sigma, level = _sigma_at_the_line_root(_bundled(name, diffusion), beta)
    if sigma is not None:
        assert abs(sigma) <= level, (sigma, level)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(env=environments(), beta=strategies.floats(0.0, 0.9))
def test_the_line_root_is_neutral_on_random_environments(env, beta):
    # r varies, so sigma_u is not affine in alpha
    sigma, level = _sigma_at_the_line_root(env, beta)
    if sigma is not None:
        assert abs(sigma) <= level, (sigma, level)


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
    # 2, 200 and 3,200 eigenpairs. Each line takes one eigenpair, whose
    # bracket decides every node of it: the diagonal alpha = beta too,
    # where u disperses ideally and sigma_v is neutral
    _, grid, env, sim = load_example("example1", n_cells=200)
    rates = [0.3] if points == 1 else np.linspace(0.0, 1.0, points)
    assert _eigenpairs_of_sweep(monkeypatch, rates, env, sim) == count


@pytest.mark.parametrize("points", [11, 41])
@pytest.mark.parametrize("diffusion", [1.0, 0.01])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example4b"])
def test_sweep_takes_one_eigenpair_per_line_on_bundled_configs(monkeypatch, name, diffusion,
                                                                points):
    # one eigenpair per row and per column with its rate below 1
    rates = np.linspace(0.0, 1.0, points)
    count = _eigenpairs_of_sweep(monkeypatch, rates, _bundled(name, diffusion), SimulationConfig())
    assert count == 2 * (points - 1)


def _certified_neutral_sigmas(env, rates) -> list:
    """(sigma, level) at each node of each line that sweep_grid(rates, rates,
    env, ...) certifies neutral, sigma computed there: sigma_u on the rows,
    sigma_v on the columns, each line's sign read from its eigenpair's
    bracket as the sweep's is."""
    sim = SimulationConfig()
    r_min, r_max = float(np.min(env.r)), float(np.max(env.r))
    nodes = sorted({float(x) for x in rates if 0 <= x < 1})
    found = []
    for invader_env, resident in ((env, "v"), (env.swapped(), "u")):
        level = invader_env.neutral_level
        for other in nodes:
            w = solve_semitrivial(resident, env, other, sim)
            res = sweep.switch_eigen(invader_env, w)
            slope = spectral.rate_slope(res, env.r)
            found += [
                (sweep.invasion_eigen(invader_env, HarvestRates(alpha=x, beta=other), w).sigma1,
                 level)
                for x in nodes
                if sweep._bracket_sign(x, res.sigma1, res.hi, slope, r_min, r_max, level) == 0]
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
    # diagonal alpha = beta, where each line's root lies; where r varies,
    # the certificate rests on max r and the bracket's width
    found = _certified_neutral_sigmas(env, np.linspace(0.0, 1.0, 21))
    assert found
    for sigma, level in found:
        assert abs(sigma) <= level, (sigma, level)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(env=ideal_free_environments())
def test_sweep_is_the_per_cell_sweep_on_ideal_free_environments(env):
    # one species disperses ideally, so the other's sigma is neutral on the
    # diagonal, where each line's root lies, and some of those nodes are
    # certified neutral
    rates = np.linspace(0.0, 1.0, 15)
    sim = SimulationConfig()
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)
    found = _certified_neutral_sigmas(env, rates)
    assert found
    for sigma, level in found:
        assert abs(sigma) <= level, (sigma, level)


@pytest.mark.parametrize("n_cells", [48, 200, 800])
@pytest.mark.parametrize("P", ["1", "1+0.5*cos(x)"])
def test_a_neutral_start_is_the_root_whatever_the_sign_of_its_rounding(P, n_cells):
    # Q ~ K, so v alone at beta = 0 is K and sigma_u(0) is 0 in exact
    # arithmetic. Computed, it is 0 or a rounding of either sign within the
    # level (-2.2e-15 at n = 48 with the second P): alpha** is 0 either
    # way, and the sweep calls the cell only_v, v dispersing ideally
    cfg = parse_config_text(f"L = 4\nn_cells = {n_cells}\nK = 2+cos(pi*x)\nr = 1.1\n"
                            f"P = {P}\nQ = 2+cos(pi*x)\na = 1\nb = 1\n")
    _, env = build_environment(cfg)
    sim = SimulationConfig()
    assert abs(invasion_sigma1(0.0, 0.0, env, sim)) <= env.neutral_level
    sp = find_switch(0.0, env, sim)
    assert (sp.alpha_double_star, sp.lo) == (0.0, 0.0)
    assert brentq_switch(0.0, env, sim) == 0.0
    assert_bracket_holds(sp, 0.0)
    sg = sweep_grid([0.0], [0.0], env, sim)
    assert sg.switch_u == [0.0]
    assert sg.records[0][0].outcome is Outcome.ONLY_V


@pytest.mark.parametrize("n_cells,P", [(48, "1"), (200, "1+0.5*cos(x)")],
                         ids=["uniform_u", "cli_matrix_bounds_neutral"])
def test_a_neutral_row_brackets_beta(n_cells, P):
    # example1's habitat with Q = K: v alone at beta is (1 - beta) K, and u's
    # invasion potential r * (beta - alpha) is constant, so sigma_u(alpha) =
    # r * (beta - alpha) and alpha**(beta) = beta exactly, which each bracket
    # holds
    _, _, env, sim = load_example("example1", n_cells=n_cells, P=P, Q="2+cos(pi*x)")
    for beta in (0.0, 0.4, 0.8):
        assert_bracket_holds(find_switch(beta, env, sim), beta)


def assert_curves_are_the_line_roots(env, alphas, betas, sim):
    """sweep_grid(alphas, betas, env, sim)'s curves hold each line's root,
    whatever the grids: switch_u[i] is find_switch(betas[i]) to the bit,
    switch_v[j] the brentq root of sigma_v on its column, and a rate of 1
    has none. Returns the sweep."""
    sg = sweep_grid(alphas, betas, env, sim)
    assert (len(sg.switch_u), len(sg.switch_v)) == (len(betas), len(alphas))
    for beta, got in zip(betas.tolist(), sg.switch_u):
        sp = find_switch(beta, env, sim) if beta < 1 else None
        assert got == (None if sp is None else sp.alpha_double_star), (beta, got, sp)
    for alpha, got in zip(alphas.tolist(), sg.switch_v):
        ref = brentq_switch_v(alpha, env, sim) if alpha < 1 else None
        assert (got is None) == (ref is None), (alpha, got, ref)
        if got is not None:
            assert abs(got - ref) <= 1e-11, (alpha, got, ref)
    return sg


@pytest.mark.parametrize("diffusion", [None, 0.01])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b", "example5"]
)
def test_sweep_curves_are_the_line_roots_on_bundled_configs(name, diffusion):
    overrides = {} if diffusion is None else {"a": diffusion, "b": diffusion}
    _, _, env, sim = load_example(name, n_cells=200, **overrides)
    rates = np.linspace(0.0, 1.0, 21)
    sg = assert_curves_are_the_line_roots(env, rates, rates, sim)
    if name in ("example1", "example2", "example4b"):
        # u disperses ideally, so sigma_v is neutral on the diagonal: the
        # column alpha = 0 has its root at rate 0
        assert sg.switch_v[0] == 0.0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(env=environments())
def test_sweep_curves_are_the_line_roots_on_random_environments(env):
    # r varies, so sigma is not affine along a line
    rates = np.linspace(0.0, 1.0, 11)
    assert_curves_are_the_line_roots(env, rates, rates, SimulationConfig())


@pytest.mark.parametrize("name", ["example1", "example5"])
def test_sweep_curves_are_the_line_roots_on_grids_without_zero(name):
    # every line reports its root in [0, 1), as find_switch does, whatever
    # its nodes: the rows beta = 0.2 (both configs) and 0.4 (example1) have
    # alpha** below the smallest alpha node, 0.302 and 0.478 on example1
    _, _, env, sim = load_example(name, n_cells=200)
    alphas, betas = np.linspace(0.6, 0.9, 4), np.linspace(0.2, 0.8, 4)
    sg = assert_curves_are_the_line_roots(env, alphas, betas, sim)
    assert None not in sg.switch_u
    assert sg.switch_u[0] < alphas[0]
    assert sg.records == per_cell_sweep(alphas, betas, env, sim)


def test_a_row_reports_its_root_above_its_last_node():
    # the row beta = 0.975 of a 41-point map: its last alpha node below 1 is
    # 0.975, and alpha** lies above it. The row reports the root, as
    # find_switch does
    _, _, env, sim = load_example("example1", n_cells=200)
    rates = np.linspace(0.0, 1.0, 41)
    sg = sweep_grid(rates, rates[39:40], env, sim)
    assert sg.switch_u[0] == find_switch(rates[39], env, sim).alpha_double_star
    assert rates[39] < sg.switch_u[0] < 1.0


def test_a_cell_where_r_vanishes_leaves_the_bracket_open_above():
    # r = 0 on cell 400 at n = 800: sigma need not fall at the rate min r = 0,
    # so no rounding widening exists above and hi is inf; lo is alpha**
    # widened by the level over its own slope, a tangent bound
    _, _, env, sim = load_example("example1", r="1.1*abs(x-2.0025)")
    assert env.r[400] == 0.0
    sp = find_switch(0.4, env, sim)
    ref = brentq_switch(0.4, env, sim)
    assert abs(ref - 0.4754967705261) <= 1e-12
    assert sp.lo <= sp.alpha_double_star <= sp.hi
    assert sp.lo <= ref and sp.hi == sp.bracket_width == math.inf
    assert ref - sp.lo <= 1e-8


def test_find_switch_brackets_the_benchmark_reference_root():
    # bench/references.json holds alpha**(0.4) on example1 at n = 800; the
    # benchmark checks the bracket's width only, so this checks that it
    # holds the root
    refs = json.loads((Path(__file__).resolve().parent.parent / "bench" / "references.json")
                      .read_text())["switch_root"]
    assert (refs["config"], refs["beta"], refs["n_cells"]) == ("example1", 0.4, 800)
    _, grid, env, sim = load_example("example1")
    assert grid.n_cells == 800
    sp = find_switch(0.4, env, sim)
    assert sp.lo <= refs["alpha"] <= sp.hi, (sp, refs["alpha"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(env=strategies.one_of(environments(), ideal_free_environments()),
       beta=strategies.floats(0.0, 0.9))
def test_the_paper_estimates_lie_either_side_of_the_proven_switch_on_random_environments(
    env, beta
):
    # alpha_P <= alpha** <= alpha_up = 1 - min(v_beta / K): sigma_u >= 0 at
    # alpha_P (analysis.alpha_star), and at alpha_up the potential is <= 0
    # in every cell, so sigma_u <= 0. The proven bracket holds the brentq
    # root and meets both estimates. Where v_beta / K is constant, alpha**
    # and alpha_up are one number and alpha** may round above alpha_up, but
    # lo never does. The same holds for v on env.swapped()
    sim = SimulationConfig()
    for side in (env, env.swapped()):
        sp = find_switch(beta, side, sim)
        ref = brentq_switch(beta, side, sim)
        assert (sp is None) == (ref is None), (sp, ref)
        if sp is None:
            continue
        assert sp.lo <= ref <= sp.hi, (sp, ref)
        report = alpha_star(beta, side, sim)
        assert report.effective_alpha_star <= sp.hi, (sp, report)
        alpha_up = 1.0 - float(np.min(report.v_beta_star / side.K))
        assert sp.lo <= alpha_up, (sp, alpha_up)


def test_a_run_of_cells_where_r_vanishes_is_bracketed_and_swept_per_cell():
    # r = |x - 1| + |x - 3| - 2 vanishes on [1, 3], 400 cells at n = 800:
    # the r-weighted pencil brackets the brentq root with no elimination of
    # those cells, and hi is inf
    _, grid, env, sim = load_example("example1", r="abs(x-1)+abs(x-3)-2")
    assert int(np.sum(env.r == 0.0)) == 400
    sp = find_switch(0.4, env, sim)
    ref = brentq_switch(0.4, env, sim)
    assert abs(ref - 0.4451070457746) <= 1e-12
    assert sp.lo <= sp.alpha_double_star <= sp.hi == math.inf
    assert sp.lo <= ref and ref - sp.lo <= 1e-8
    _, _, env, sim = load_example("example1", n_cells=200, r="abs(x-1)+abs(x-3)-2")
    rates = np.linspace(0.0, 1.0, 11)
    assert sweep_grid(rates, rates, env, sim).records == per_cell_sweep(rates, rates, env, sim)


@pytest.mark.parametrize("alpha, beta, count", [(0.5, 0.6, 2), (1.0, 0.3, 1)])
def test_simulate_cell_takes_the_eigenpairs_of_its_two_lines_on_example5(monkeypatch, alpha,
                                                                         beta, count):
    # r varies on example5. The cell (0.5, 0.6) takes its row's and its
    # column's eigenpair, whose brackets decide it; at (1.0, 0.3) u is
    # over-exploited, and the one eigenpair is the row's, for switch_u
    _, grid, env, sim = load_example("example5")
    assert grid.n_cells == 800
    calls = []

    def counting(*args):
        calls.append(args)
        return principal_eigen(*args)

    monkeypatch.setattr(spectral, "principal_eigen", counting)
    simulate_cell(alpha, beta, env, sim)
    assert len(calls) == count <= 5


@settings(max_examples=30, deadline=None, derandomize=True)
@given(env=ideal_free_environments(), rate=strategies.floats(0.01, 0.99))
def test_harvesting_the_ideal_free_winner_rescues_the_loser(env, rate):
    # the species whose profile is a multiple of K is alone (1 - rate) K at
    # its rate, so its competitor's invasion potential is rate * r and the
    # competitor invades at sigma >= rate * min r: the one-cell sweep with
    # the winner harvested at rate, the loser not, is not the winner's
    # alone. With P the multiple, u is the winner and sigma is sigma_v;
    # with Q, v is and sigma is sigma_u
    sim = SimulationConfig()
    u_wins = annihilates(env.dispersal, env.K)
    winner, loser_env = ("u", env.swapped()) if u_wins else ("v", env)
    resident = solve_semitrivial(winner, env, rate, sim)
    # the loser's rate is 0 and the winner's rate, both ways round
    sigma = sweep.invasion_eigen(loser_env, HarvestRates(alpha=0.0, beta=rate), resident).sigma1
    assert sigma >= rate * float(np.min(env.r)) - loser_env.neutral_level, (sigma, rate)
    alphas, betas = ([rate], [0.0]) if u_wins else ([0.0], [rate])
    (record,) = sweep_grid(alphas, betas, env, sim).records[0]
    assert not isinstance(record, CellFailure), record
    assert record.outcome is not (Outcome.ONLY_U if u_wins else Outcome.ONLY_V), record


@pytest.mark.parametrize("name", ["example3", "example4"])
def test_coexistence_yields_on_the_diagonal_of_an_ideal_free_pair_are_exact(name):
    # K = gamma P + delta Q, so the state on alpha = beta is (1 - alpha)
    # (gamma P, delta Q) and its yield alpha (1 - alpha) integral(r K); all
    # 10 diagonal cells below 1 coexist
    _, grid, env, sim = load_example(name, n_cells=200)
    rates = np.linspace(0.0, 1.0, 11)
    records = sweep_grid(rates, rates, env, sim).records
    diagonal = [records[i][i] for i in range(len(rates))]
    coexisting = [rec for rec in diagonal
                  if not isinstance(rec, CellFailure) and rec.outcome is Outcome.COEXISTENCE]
    assert len(coexisting) == 10
    capacity_yield = integrate(env.r * env.K, grid)
    for rec in coexisting:
        exact = rec.alpha * (1.0 - rec.alpha) * capacity_yield
        assert rec.total_yield == pytest.approx(exact, rel=1e-8), (rec, exact)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(env=ideal_free_pairs())
def test_coexistence_yields_on_the_diagonal_of_random_ideal_free_pairs_are_exact(env):
    # the coexistence strip holds the whole diagonal below 1, and there the
    # state (1 - alpha)(gamma P, delta Q) yields alpha (1 - alpha) integral(r K)
    assert detect_ideal_free_pair(env) is not None
    rates = [0.0, 0.3, 0.6, 0.9]
    records = sweep_grid(rates, rates, env, SimulationConfig()).records
    capacity_yield = integrate(env.r * env.K, env.grid)
    for i, alpha in enumerate(rates):
        rec = records[i][i]
        assert not isinstance(rec, CellFailure), rec
        assert rec.outcome is Outcome.COEXISTENCE, rec
        exact = alpha * (1.0 - alpha) * capacity_yield
        assert rec.total_yield == pytest.approx(exact, rel=1e-8), (rec, exact)
