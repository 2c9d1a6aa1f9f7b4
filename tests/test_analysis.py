import numpy as np
import pytest

from harvestcomp import (
    ConfigurationError,
    HarvestRates,
    Outcome,
    PopulationState,
    SimulationConfig,
    alpha_star,
    classify,
    detect_ideal_free_pair,
    fit_convex_hull,
    inequality_suite,
    sustainable_yield,
)
from harvestcomp.analysis import invasion_potential
from harvestcomp.config import build_environment, parse_config_text, simulation_config

from conftest import load_example

CONSTANT_ENV = "L = 4\nn_cells = 64\nK = 1\nr = 1.1\nP = 1\nQ = 1\na = 1\nb = 1\n"


def constant_env():
    cfg = parse_config_text(CONSTANT_ENV)
    _, env = build_environment(cfg)
    return env, simulation_config(cfg)


# ------------------------------------------------------- ideal free pair


def test_ideal_free_pair_detected_for_complementary_profiles():
    _, _, env, _ = load_example("example3", n_cells=200)
    pair = detect_ideal_free_pair(env)
    assert pair is not None
    assert pair.gamma == pytest.approx(1.0, abs=1e-10)
    assert pair.delta == pytest.approx(1.0, abs=1e-10)
    assert pair.residual < 1e-12


def test_ideal_free_pair_rejected_when_one_species_tracks_capacity():
    _, _, env, _ = load_example("example1", n_cells=200)
    fit = fit_convex_hull(env)
    assert detect_ideal_free_pair(env) is None
    assert fit.gamma == pytest.approx(1.0, abs=1e-10)
    assert fit.delta == pytest.approx(0.0, abs=1e-12)
    assert not fit.nonprop_u  # dispersal of u annihilates K


def test_ideal_free_pair_detected_for_gaussian_bumps():
    _, _, env, _ = load_example("example4", n_cells=200)
    pair = detect_ideal_free_pair(env)
    assert pair is not None
    assert pair.gamma == pytest.approx(1.0, abs=1e-8)
    assert pair.delta == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------- alpha_star


def test_alpha_star_collapses_for_spatially_flat_environment():
    env, sim = constant_env()
    for beta in (0.0, 0.3, 0.7):
        report = alpha_star(beta, env, sim)
        assert report.alpha_star == pytest.approx(beta, abs=1e-9)
        assert 0 < report.c_star <= 1 + 1e-12
        assert report.alpha_star_ifp is None  # constant profiles are no ideal free pair


def test_alpha_star_rejects_bad_beta():
    env, sim = constant_env()
    with pytest.raises(ConfigurationError):
        alpha_star(1.0, env, sim)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_alpha_star_is_increasing_and_above_beta(name):
    _, _, env, sim = load_example(name, n_cells=200)
    betas = [0.0, 0.2, 0.4, 0.6, 0.8]
    reports = [alpha_star(b, env, sim) for b in betas]
    values = [r.effective_alpha_star for r in reports]
    assert all(v > b for v, b in zip(values, betas))
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    # ties the two presentations together: alpha* = 1 - c*(1 - beta)
    for b, r in zip(betas, reports):
        assert r.alpha_star == pytest.approx(1 - r.c_star * (1 - b), abs=1e-12)
        assert 0 < r.c_star < 1


# ---------------------------------------------------------------- classify


def _state(grid, u_level, v_level, steady=True):
    return PopulationState(
        u=np.full(grid.n_cells, u_level),
        v=np.full(grid.n_cells, v_level),
        t=100.0,
        steady=steady,
        dudt_inf=0.0,
    )


def test_classify_four_outcomes():
    _, grid, env, sim = load_example("example1", n_cells=32)
    rates = HarvestRates(0.2, 0.1)
    cases = [
        (1.0, 1.0, Outcome.COEXISTENCE),
        (1.0, 1e-4, Outcome.ONLY_U),
        (1e-4, 1.0, Outcome.ONLY_V),
        (1e-4, 1e-4, Outcome.EXTINCTION),
    ]
    for u_level, v_level, expected in cases:
        record = classify(_state(grid, u_level, v_level), env, rates, sim)
        assert record.outcome is expected
        assert record.alpha == 0.2 and record.beta == 0.1


def test_classify_threshold_is_relative_to_capacity():
    _, grid, env, sim = load_example("example1", n_cells=32)
    # threshold = fraction * avg K = 1.5e-2 * 2
    rates = HarvestRates(0, 0)
    assert classify(_state(grid, 0.031, 1.0), env, rates, sim).outcome is Outcome.COEXISTENCE
    assert classify(_state(grid, 0.029, 1.0), env, rates, sim).outcome is Outcome.ONLY_V


def test_classify_scale_consistency_no_direct_coexistence_to_extinction_flip():
    _, grid, env, sim = load_example("example1", n_cells=100)
    from harvestcomp.sweep import simulate_cell

    for alpha, beta in [(0.0, 0.0), (0.1, 0.0), (0.5, 0.6), (1.2, 1.1)]:
        base = simulate_cell(alpha, beta, env, sim)
        wide = SimulationConfig(
            dt=sim.dt,
            t_final=sim.t_final,
            steady_tol=sim.steady_tol,
            extinction_fraction=10 * sim.extinction_fraction,
        )
        rerun = simulate_cell(alpha, beta, env, wide)
        if base.outcome is Outcome.COEXISTENCE:
            assert rerun.outcome is not Outcome.EXTINCTION


def test_classify_unresolved_flag_carried():
    _, grid, env, sim = load_example("example1", n_cells=32)
    record = classify(_state(grid, 1.0, 1.0, steady=False), env, HarvestRates(0, 0), sim)
    assert not record.resolved


# -------------------------------------------------------------------- yield


def test_sustainable_yield_formula_and_reference():
    _, grid, env, sim = load_example("example1", n_cells=400)
    rates = HarvestRates(0.5, 0.6)
    final = _state(grid, 1.0, 0.0)
    report = sustainable_yield(final, env, rates)
    # r = 1.1 constant: sy = 0.5 * 1.1 * integral(u) = 0.5 * 1.1 * 4
    assert report.sy == pytest.approx(0.5 * 1.1 * 4.0, rel=1e-12)
    assert report.msy_reference == pytest.approx(0.25 * 1.1 * 8.0, rel=1e-9)


def test_sustainable_yield_zero_without_harvesting():
    _, grid, env, sim = load_example("example1", n_cells=64)
    report = sustainable_yield(_state(grid, 1.0, 1.0), env, HarvestRates(0, 0))
    assert report.sy == 0.0


def test_sustainable_yield_warns_on_transient():
    _, grid, env, sim = load_example("example1", n_cells=64)
    with pytest.warns(UserWarning, match="transient"):
        sustainable_yield(_state(grid, 1.0, 1.0, steady=False), env, HarvestRates(0.5, 0))


def test_sustainable_yield_ideal_free_pair_attains_ceiling():
    # complementary dispersal with equal half-harvesting realizes the
    # maximum: total density settles at K/2
    _, grid, env, sim = load_example("example3", n_cells=200)
    rates = HarvestRates(0.5, 0.5)
    from harvestcomp import run_to_time

    final = run_to_time(
        np.full(grid.n_cells, 2.1), np.full(grid.n_cells, 2.1), env, rates, sim
    )
    with pytest.warns(UserWarning):  # a weakly damped exchange mode lingers
        report = sustainable_yield(final, env, rates)
    assert report.sy == pytest.approx(report.msy_reference, rel=0.01)
    assert report.msy_reference == pytest.approx(2.2, rel=1e-9)


# -------------------------------------------------------- inequality suite


def test_inequality_suite_skips_proportional_branch():
    _, grid, env, sim = load_example("example1", n_cells=200)
    report = inequality_suite(env, sim)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["u_average_below_capacity"].applicable
    assert by_name["v_average_below_capacity"].holds
    assert by_name["v_average_below_capacity"].margin > 0
    assert not by_name["invader_growth_at_u_branch"].applicable
    assert report.all_hold()


def test_inequality_suite_ideal_free_pair_invasion_margin():
    _, grid, env, sim = load_example("example3", n_cells=200)
    report = inequality_suite(env, sim)
    by_name = {c.name: c for c in report.checks}
    assert by_name["invader_growth_at_u_branch"].applicable
    assert by_name["invader_growth_at_u_branch"].margin > 0
    assert report.all_hold()


def test_inequality_suite_diagnostics_present():
    _, grid, env, sim = load_example("example1", n_cells=64)
    diag = inequality_suite(env, sim).diagnostics
    assert diag["K_min"] == pytest.approx(np.min(env.K))
    assert diag["K_max"] == pytest.approx(np.max(env.K))
    assert set(diag) >= {"v_star_min", "v_star_max", "K_over_P_min", "K_over_P_max"}


# ------------------------------------------------------ invasion potential


def test_invasion_potential_formula():
    _, grid, env, _ = load_example("example1", n_cells=16)
    w = 0.5 * env.K
    rates = HarvestRates(0.3, 0.2)
    pot_u = invasion_potential("u", w, env, rates)
    assert np.allclose(pot_u, env.r * (1 - 0.3 - w / env.K))
    pot_v = invasion_potential("v", w, env, rates)
    assert np.allclose(pot_v, env.r * (1 - 0.2 - w / env.K))
    with pytest.raises(ConfigurationError):
        invasion_potential("w", w, env, rates)
