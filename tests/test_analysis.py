import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import nnls

from harvestcomp import (
    ConfigurationError,
    HarvestCompError,
    HarvestRates,
    Outcome,
    alpha_star,
    classify,
    detect_ideal_free_pair,
    fit_convex_hull,
    inequality_suite,
)
from harvestcomp import analysis
from harvestcomp.analysis import invasion_potential
from harvestcomp.config import build_environment, parse_config_text, simulation_config
from harvestcomp.grid import SpatialGrid
from harvestcomp.operators import annihilates
from harvestcomp.profiles import EnvironmentProfile

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=strategies.integers(3, 60),
    seed=strategies.integers(0, 2**32 - 1),
    gamma=strategies.floats(-1.0, 2.0),
    delta=strategies.floats(-1.0, 2.0),
    noise=strategies.floats(0.0, 1.0),
)
def test_pair_fit_matches_nnls(n, seed, gamma, delta, noise):
    # a negative gamma or delta makes the unconstrained fit infeasible in
    # most draws, so both branches of the exact two-column fit are taken
    rng = np.random.default_rng(seed)
    P, Q = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    K = np.abs(gamma * P + delta * Q + noise * rng.normal(size=n)) + 0.01
    ones = np.ones(n)
    env = EnvironmentProfile(grid=SpatialGrid(1.0, n), K=K, r=ones, P=P, Q=Q, a=ones, b=ones)
    fit = fit_convex_hull(env)
    ref, rnorm = nnls(np.column_stack([P, Q]), K)
    scale = float(np.max(ref))  # > 0: K, P and Q are positive
    assert abs(fit.gamma - ref[0]) <= 1e-12 * scale
    assert abs(fit.delta - ref[1]) <= 1e-12 * scale
    assert np.linalg.norm(K - fit.gamma * P - fit.delta * Q) <= rnorm * (1 + 1e-12)


@pytest.mark.parametrize("diffusion", [1.0, 0.01])
def test_ideal_free_pair_verdict_matches_nnls_on_bundled_configs(diffusion):
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        _, _, env, _ = load_example(name, a=diffusion, b=diffusion)
        fit = fit_convex_hull(env)
        (gamma, delta), _ = nnls(np.column_stack([env.P, env.Q]), env.K)
        residual = np.max(np.abs(env.K - gamma * env.P - delta * env.Q)) / np.max(env.K)
        ref = dataclasses.replace(fit, gamma=gamma, delta=delta, residual=residual)
        assert fit.is_ideal_free_pair() == ref.is_ideal_free_pair(), name
        assert fit.is_ideal_free_pair() == (name in ("example3", "example4")), name


def test_hull_fit_is_computed_once_per_environment(monkeypatch):
    # K = P + 2Q: an ideal free pair with gamma != delta
    _, _, env, sim = load_example("example3", n_cells=100, Q="0.45+0.25*cos(pi*x)")
    calls = []
    pair_nnls = analysis._pair_nnls

    def counting(p, q, k):
        calls.append(k)
        return pair_nnls(p, q, k)

    monkeypatch.setattr(analysis, "_pair_nnls", counting)
    fit = fit_convex_hull(env)
    assert fit_convex_hull(env) is fit
    for beta in (0.0, 0.2, 0.4, 0.6):
        assert alpha_star(beta, env, sim).alpha_star_ifp is not None
    inequality_suite(env, sim)
    assert len(calls) == 1
    swapped = fit_convex_hull(env.swapped())
    assert len(calls) == 2
    assert fit_convex_hull(env.swapped()) is swapped  # swapped() is one kept instance
    assert fit.gamma == pytest.approx(1.0, abs=1e-10)
    assert fit.delta == pytest.approx(2.0, abs=1e-10)
    assert swapped.gamma == pytest.approx(fit.delta, abs=1e-12)
    assert swapped.delta == pytest.approx(fit.gamma, abs=1e-12)


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
    # ties the two presentations of the applied estimate together:
    # alpha* = 1 - c*(1 - beta)
    for b, r in zip(betas, reports):
        assert r.effective_alpha_star == pytest.approx(1 - r.c_star * (1 - b), abs=1e-12)
        assert 0 < r.c_star < 1


# ---------------------------------------------------------------- classify


def test_classify_truth_table(monkeypatch):
    # u disperses toward P, v toward Q; u_alpha = 2P and v_beta = 3Q are
    # ideal free states (their operator annihilates them), K is neither
    _, grid, env, _ = load_example("example3", n_cells=32)
    op_u, op_v = env.dispersal, env.swapped().dispersal
    free_u, free_v = 2.0 * env.P, 3.0 * env.Q
    level = 1e-12
    calls = []

    def counting(op, w):
        calls.append(op)
        return annihilates(op, w)

    monkeypatch.setattr(analysis, "annihilates", counting)
    cases = [
        # sigma_u, sigma_v, u_alpha, v_beta, outcome or failure kind, ideal-free tests run
        (0.3, 0.2, env.K, env.K, Outcome.COEXISTENCE, 0),
        (0.3, -0.2, env.K, env.K, Outcome.ONLY_U, 0),
        (-0.3, 0.2, env.K, env.K, Outcome.ONLY_V, 0),
        (0.3, 5e-13, free_u, env.K, Outcome.ONLY_U, 1),
        (-5e-13, 0.2, env.K, free_v, Outcome.ONLY_V, 1),
        (0.3, 0.0, env.K, free_v, "neutral", 1),
        (0.0, 0.2, free_u, env.K, "neutral", 1),
        (0.0, -0.0, free_u, free_v, "neutral", 0),
        (-0.3, -0.2, free_u, free_v, "bistable", 0),
    ]
    for sigma_u, sigma_v, u_alpha, v_beta, expected, tests in cases:
        calls.clear()
        args = (sigma_u, sigma_v, level, level, env, u_alpha, v_beta)
        if isinstance(expected, Outcome):
            assert classify(*args) is expected, (sigma_u, sigma_v)
        else:
            with pytest.raises(HarvestCompError) as failure:
                classify(*args)
            message = str(failure.value)
            assert message.startswith(f"{expected} cell, not decided by the invasion criterion")
            assert f"sigma_u = {sigma_u:.3e}" in message and f"sigma_v = {sigma_v:.3e}" in message
        assert len(calls) == tests, (sigma_u, sigma_v)
        assert all(op is (op_u if sigma_u > 0 else op_v) for op in calls)


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
