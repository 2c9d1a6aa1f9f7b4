import numpy as np
import pytest

from harvestcomp import (
    ConfigurationError,
    HarvestRates,
    PopulationState,
    integrate,
    principal_eigen,
    rayleigh_lower_bound,
    solve_semitrivial,
    step,
)
from harvestcomp.analysis import invasion_potential
from harvestcomp.operators import build_operator

from conftest import load_example, random_grid, random_positive_profile


def dense_sigma1(op, potential):
    """Dense symmetric eigensolver oracle in the symmetrized basis."""
    D = np.diag(op.diag + potential) + np.diag(op.sub[1:], -1) + np.diag(op.sup[:-1], 1)
    s = np.sqrt(op.P)
    H = D * s[None, :] / s[:, None]
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])


def test_zero_potential_gives_neutral_mode():
    g = random_grid(np.random.default_rng(3), 30, 50)
    rng = np.random.default_rng(5)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    res = principal_eigen(op, np.zeros(g.n_cells), R)
    assert abs(res.sigma1) < 1e-10
    ratio = res.psi / R
    assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, abs=1e-8)
    assert np.all(res.psi > 0)


def test_constant_potential_shifts_eigenvalue():
    rng = np.random.default_rng(11)
    g = random_grid(rng, 20, 40)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    res = principal_eigen(op, np.full(g.n_cells, 0.37), R)
    assert res.sigma1 == pytest.approx(0.37, abs=1e-10)
    ratio = res.psi / R
    assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, abs=1e-8)


def test_matches_dense_oracle_on_small_grids(rng):
    for _ in range(25):
        g = random_grid(rng, 8, 64)
        R = random_positive_profile(rng, g)
        op = build_operator(random_positive_profile(rng, g), R, g)
        potential = rng.normal(0, 1) + rng.uniform(-1, 1) * np.cos(
            np.pi * g.centers / g.length
        )
        potential = np.broadcast_to(potential, (g.n_cells,)).copy()
        res = principal_eigen(op, potential, R)
        assert res.sigma1 == pytest.approx(dense_sigma1(op, potential), abs=1e-8)
        assert np.all(res.psi > 0)
        # normalization: quadrature of psi^2 / R is one
        assert integrate(res.psi**2 / R, g) == pytest.approx(1.0, abs=1e-10)


def test_rayleigh_at_eigenfunction_recovers_sigma1(rng):
    g = random_grid(rng, 16, 48)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    potential = np.cos(np.pi * g.centers / g.length)
    res = principal_eigen(op, potential, R)
    assert rayleigh_lower_bound(op, potential, R, res.psi) == pytest.approx(
        res.sigma1, abs=1e-9
    )


def test_rayleigh_of_kernel_field_with_zero_potential():
    g = random_grid(np.random.default_rng(2), 16, 32)
    rng = np.random.default_rng(4)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    assert rayleigh_lower_bound(op, np.zeros(g.n_cells), R, R) == pytest.approx(0.0, abs=1e-13)


def test_rayleigh_is_a_lower_bound(rng):
    g = random_grid(rng, 12, 40)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    potential = rng.normal(0, 0.8, g.n_cells)
    sigma1 = principal_eigen(op, potential, R).sigma1
    for _ in range(30):
        trial = rng.normal(size=g.n_cells)
        assert rayleigh_lower_bound(op, potential, R, trial) <= sigma1 + 1e-10


def test_zero_trial_field_rejected(rng):
    g = random_grid(rng, 10, 20)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    with pytest.raises(ConfigurationError):
        rayleigh_lower_bound(op, np.zeros(g.n_cells), R, np.zeros(g.n_cells))


def test_weak_diffusion_matches_dense_oracle():
    # a = b = 0.01 sharpens the eigenfunction (its minimum falls to ~1e-6 of
    # its maximum on example2) and crowds the top of the spectrum
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        _, grid, env, sim = load_example(name, a=0.01, b=0.01)
        v_star = solve_semitrivial("v", env, 0.0, sim)
        potential = invasion_potential("u", v_star, env, HarvestRates(0.0, 0.0))
        op = build_operator(env.a, env.P, grid)
        res = principal_eigen(op, potential, env.P)
        assert res.sigma1 == pytest.approx(dense_sigma1(op, potential), abs=1e-10), name
        assert np.all(res.psi > 0), name
        assert integrate(res.psi**2 / env.P, grid) == pytest.approx(1.0, abs=1e-10), name


def test_invasion_predicted_unstable_at_regular_competitor():
    # linearization of the tracking species at (0, v*) with effort keeping
    # the capacity ratio at 0.95: above the coexistence ratio, so unstable
    _, grid, env, sim = load_example("example1", n_cells=64)
    v_star = solve_semitrivial("v", env, 0.0, sim)
    c = 0.95
    potential = c * env.r * (1.0 - v_star / (c * env.K))
    op = build_operator(env.a, env.P, grid)
    res = principal_eigen(op, potential, env.P)
    assert res.sigma1 > 0
    assert res.sigma1 == pytest.approx(dense_sigma1(op, potential), abs=1e-8)
    # the capacity profile as a trial function already certifies instability
    assert rayleigh_lower_bound(op, potential, env.P, env.K) > 0


def test_positive_sigma1_agrees_with_dynamics():
    _, grid, env, sim = load_example("example1", n_cells=64)
    beta = 0.0
    alpha = 0.05  # capacity ratio 0.95 above the coexistence threshold
    rates = HarvestRates(alpha, beta)
    v_star = solve_semitrivial("v", env, beta, sim)
    potential = invasion_potential("u", v_star, env, rates)
    op = build_operator(env.a, env.P, grid)
    res = principal_eigen(op, potential, env.P)
    assert res.sigma1 > 0

    ops = (op, build_operator(env.b, env.Q, grid))
    state = PopulationState(u=1e-4 * env.P, v=v_star.copy(), t=0.0)
    mass0 = integrate(state.u, grid)
    horizon = 10.0 / res.sigma1
    n_steps = int(horizon / sim.dt)
    for _ in range(n_steps):
        state = step(state, env, rates, ops, sim.dt)
    assert integrate(state.u, grid) > 10 * mass0
