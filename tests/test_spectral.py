import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from harvestcomp import (
    ConfigurationError,
    ConvergenceError,
    HarvestRates,
    integrate,
    principal_eigen,
    solve_semitrivial,
)
from harvestcomp import spectral
from harvestcomp.analysis import invasion_potential
from harvestcomp.operators import build_operator
from harvestcomp.spectral import _NODA_CAP, neutral_level

from conftest import (
    environments,
    load_example,
    one_step,
    random_grid,
    random_positive_profile,
    rayleigh_lower_bound,
)


def dense_sigma1(op, potential):
    """Dense symmetric eigensolver oracle in the symmetrized basis."""
    return float(np.linalg.eigvalsh(symmetrized_dense(op, potential))[-1])


def symmetrized_dense(op, potential):
    """H = S^-1 (D + diag(q)) S with S = diag(sqrt(P)), as a dense matrix."""
    D = np.diag(op.diag + potential) + np.diag(op.sub[1:], -1) + np.diag(op.sup[:-1], 1)
    s = np.sqrt(op.P)
    H = D * s[None, :] / s[:, None]
    return 0.5 * (H + H.T)


def lapack_sigma1(op, potential):
    """Bisection oracle: LAPACK stebz on the symmetrized bands, whose
    off-diagonal is the geometric mean of D's sub- and superdiagonal."""
    n = op.grid.n_cells
    off = np.sqrt(op.sup[:-1] * op.sub[1:])
    w = eigh_tridiagonal(op.diag + potential, off, select="i", select_range=(n - 1, n - 1),
                         eigvals_only=True)
    return float(w[0])


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


def test_noda_past_its_cap_names_the_unclosed_bracket(monkeypatch):
    _, grid, env, sim = load_example("example1", n_cells=64)
    v_star = solve_semitrivial("v", env, 0.0, sim)
    potential = invasion_potential("u", v_star, env, HarvestRates(0.05, 0.0))
    assert principal_eigen(env.dispersal, potential, env.P).iterations > 0
    monkeypatch.setattr(spectral, "_NODA_CAP", 0)
    with pytest.raises(ConvergenceError) as failure:
        principal_eigen(env.dispersal, potential, env.P)
    message = str(failure.value)
    assert message.startswith("principal eigenvalue not resolved after 0 Noda steps: sigma1 in [")
    lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]$", message).groups())
    assert lo < hi


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

    u, v = 1e-4 * env.P, v_star.copy()
    mass0 = integrate(u, grid)
    horizon = 10.0 / res.sigma1
    n_steps = int(horizon / sim.dt)
    for _ in range(n_steps):
        state = one_step(u, v, env, rates, sim.dt)
        u, v = state.u, state.v
    assert integrate(u, grid) > 10 * mass0


@pytest.mark.filterwarnings("error")
def test_residual_stays_finite_under_a_huge_potential():
    # sigma1 near 1e300: the squares of H phi - sigma1 phi overflow unless
    # the residual is scaled first. D is below the rounding of H here, so
    # the eigenpair is poor, and the finite residual must say so: it is the
    # dense residual of the returned pair, taken in units of 1e300.
    _, grid, env, _ = load_example("example1", n_cells=30)
    op = env.dispersal
    potential = 1e300 * (1.5 + np.cos(np.pi * grid.centers / grid.length))
    res = principal_eigen(op, potential, env.P)
    assert math.isfinite(res.residual)
    phi = res.psi / np.sqrt(env.P)
    phi /= np.linalg.norm(phi)
    scaled = (symmetrized_dense(op, potential) / 1e300) @ phi - (res.sigma1 / 1e300) * phi
    assert res.residual == pytest.approx(1e300 * np.linalg.norm(scaled), rel=1e-12)


def test_a_failed_factorization_keeps_sigma1_within_stop_of_the_largest_eigenvalue():
    # the potential above: hi*I - H does not factor on the first Noda step,
    # which proves sigma1 >= hi - stop, stop = eps * gershgorin(H), while the
    # start's Rayleigh quotient, 1.50e300, is far below the largest
    # eigenvalue, 2.4986e300
    _, grid, env, _ = load_example("example1", n_cells=30)
    op = env.dispersal
    potential = 1e300 * (1.5 + np.cos(np.pi * grid.centers / grid.length))
    res = principal_eigen(op, potential, env.P)
    assert res.iterations == 0
    H = symmetrized_dense(op, potential)
    stop = np.finfo(float).eps * float(np.abs(H).sum(axis=1).max())
    dense = dense_sigma1(op, potential)
    # up to the rounding of hi - stop
    assert abs(res.sigma1 - dense) <= stop + 0.5 * math.ulp(dense)


def test_the_residual_is_computed_when_first_read():
    # the residual is no field: it is computed on its first read and kept;
    # sigma1 and the residual are pinned bit for bit
    _, grid, env, sim = load_example("example2", n_cells=200)
    v_beta = solve_semitrivial("v", env, 0.4, sim)
    potential = invasion_potential("u", v_beta, env, HarvestRates(0.6, 0.4))
    res = principal_eigen(env.dispersal, potential, env.P)
    assert {name for name in dir(res) if not name.startswith("_")} == {
        "sigma1", "psi", "iterations", "residual", "lo", "hi"}
    assert "residual" not in vars(res)
    assert res.sigma1.hex() == "-0x1.5cd3ecdc7fca8p-5"
    assert res.residual.hex() == "0x1.6bdb3eb709e56p-41"
    assert vars(res)["residual"] is res.residual
    # the dense residual of the unit phi agrees to the rounding of H
    phi = res.psi / np.sqrt(env.P)
    phi /= np.linalg.norm(phi)
    H = symmetrized_dense(env.dispersal, potential)
    dense = float(np.linalg.norm(H @ phi - res.sigma1 * phi))
    assert abs(res.residual - dense) <= np.finfo(float).eps * float(np.abs(H).sum(axis=1).max())


def test_psi_is_computed_when_first_read():
    # psi is no field either: computed on its first read and kept, with
    # the bits it had when principal_eigen computed it
    _, grid, env, sim = load_example("example2", n_cells=200)
    v_beta = solve_semitrivial("v", env, 0.4, sim)
    potential = invasion_potential("u", v_beta, env, HarvestRates(0.6, 0.4))
    res = principal_eigen(env.dispersal, potential, env.P)
    assert "psi" not in vars(res)
    assert hashlib.sha256(res.psi.tobytes()).hexdigest() == (
        "906a9eccb80d9accb8cca73d6550f1144e0e0416e191938a337c616a9d1bc99c")
    assert vars(res)["psi"] is res.psi
    assert integrate(res.psi**2 / env.P, grid) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_potential_is_a_configuration_error(bad):
    g = random_grid(np.random.default_rng(8), 10, 20)
    rng = np.random.default_rng(9)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    potential = np.zeros(g.n_cells)
    potential[g.n_cells // 2] = bad
    with pytest.raises(ConfigurationError, match="potential"):
        principal_eigen(op, potential, R)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["potential", "trial"])
def test_rayleigh_rejects_non_finite_fields(field, bad):
    g = random_grid(np.random.default_rng(8), 10, 20)
    rng = np.random.default_rng(9)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    fields = {"potential": np.zeros(g.n_cells), "trial": R.copy()}
    fields[field][g.n_cells // 2] = bad
    with pytest.raises(ConfigurationError, match=f"{field}.* must be finite"):
        rayleigh_lower_bound(op, fields["potential"], R, fields["trial"])


@pytest.mark.parametrize("diffusion", [1.0, 0.01])
def test_matches_lapack_bisection_on_bundled_configs(diffusion):
    rates = (0.0, 0.4, 0.8)
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        _, grid, env, sim = load_example(name, a=diffusion, b=diffusion)
        for invader, resident in (("u", "v"), ("v", "u")):
            inv_env = env if invader == "u" else env.swapped()
            op = build_operator(inv_env.a, inv_env.P, grid)
            level = neutral_level(inv_env)
            for resident_rate in rates:
                w = solve_semitrivial(resident, env, resident_rate, sim)
                for invader_rate in rates:
                    if invader == "u":
                        hr = HarvestRates(invader_rate, resident_rate)
                    else:
                        hr = HarvestRates(resident_rate, invader_rate)
                    potential = invasion_potential(invader, w, env, hr)
                    res = principal_eigen(op, potential, inv_env.P)
                    where = f"{name} {invader} invading at {hr}"
                    assert abs(res.sigma1 - lapack_sigma1(op, potential)) <= level / 4, where
                    assert np.all(res.psi > 0), where
                    assert res.iterations < _NODA_CAP, where
                    if name == "example1" and invader == "v" and invader_rate == resident_rate:
                        # P = K makes u_alpha = (1 - alpha) K ideal free, so
                        # sigma_v is 0 at alpha = beta
                        assert abs(res.sigma1) <= level, where


@settings(max_examples=30, deadline=None, derandomize=True)
@given(env=environments(), seed=strategies.integers(0, 2**32 - 1))
def test_sigma1_lies_in_collatz_wielandt_brackets(env, seed):
    op = build_operator(env.a, env.P, env.grid)
    potential = env.r * (1.0 - env.Q / env.K)
    res = principal_eigen(op, potential, env.P)
    H = symmetrized_dense(op, potential)
    assert res.sigma1 == pytest.approx(float(np.linalg.eigvalsh(H)[-1]), abs=1e-10)
    rng = np.random.default_rng(seed)
    slack = 1e-12 * np.max(np.sum(np.abs(H), axis=1))
    for phi in (np.sqrt(env.P), rng.uniform(0.1, 1.0, env.grid.n_cells)):
        ratios = (H @ phi) / phi
        assert np.min(ratios) - slack <= res.sigma1 <= np.max(ratios) + slack



@settings(max_examples=30, deadline=None, derandomize=True)
@given(env=environments(), alpha=strategies.floats(0.0, 1.0))
def test_rate_slope_is_the_hellmann_feynman_slope_of_psi(env, alpha):
    # on the symmetric form, without psi: -h * sum(r * psi^2 / P) to
    # rounding, a weighted mean of -r, and the derivative of sigma1 in the
    # rate (central differences, sigma1 being smooth in it)
    potential = env.r * (1.0 - alpha - env.Q / env.K)
    res = principal_eigen(env.dispersal, potential, env.P)
    slope = spectral.rate_slope(res, env.r)
    h = env.grid.h
    assert slope == pytest.approx(-h * float(np.sum(env.r * res.psi**2 / env.P)), rel=1e-13)
    assert -np.max(env.r) * (1 + 1e-15) <= slope <= -np.min(env.r) * (1 - 1e-15)
    dx = 1e-5
    up, down = (principal_eigen(env.dispersal, potential - x * env.r, env.P).sigma1
                for x in (dx, -dx))
    assert slope == pytest.approx((up - down) / (2 * dx), rel=1e-6)

_pttrf = get_lapack_funcs("pttrf", (np.zeros(3),))


def assert_bracket(res, op, potential, where=""):
    """res carries the final Collatz-Wielandt bracket of principal_eigen:
    lo <= sigma1 <= hi to the stop width eps * gershgorin(H), and hi - lo
    below that width unless hi*I - H no longer factors as positive definite,
    the iteration's other exit. Returns whether it ended on the bracket."""
    off = op.eigen_invariants.off
    diag = op.diag + potential
    row = np.abs(diag)
    row[:-1] += off
    row[1:] += off
    stop = np.finfo(float).eps * float(row.max())
    assert res.lo - stop <= res.sigma1 <= res.hi + stop, where
    on_bracket = res.hi - res.lo <= stop
    if not on_bracket:
        assert _pttrf(res.hi - diag, -off)[-1] != 0, where
    return on_bracket


def test_eigen_result_carries_its_bracket_on_bundled_configs():
    ended = []
    for name, diffusion in itertools.product(
        ("example1", "example2", "example3", "example4", "example4b"), (1.0, 0.01)
    ):
        _, grid, env, sim = load_example(name, n_cells=200, a=diffusion, b=diffusion)
        for invader, resident in (("u", "v"), ("v", "u")):
            inv_env = env if invader == "u" else env.swapped()
            for resident_rate in (0.0, 0.4, 0.8):
                w = solve_semitrivial(resident, env, resident_rate, sim)
                for invader_rate in (0.0, 0.4, 0.8):
                    rates = (invader_rate, resident_rate)
                    hr = HarvestRates(*rates if invader == "u" else rates[::-1])
                    potential = invasion_potential(invader, w, env, hr)
                    res = principal_eigen(inv_env.dispersal, potential, inv_env.P)
                    ended.append(assert_bracket(res, inv_env.dispersal, potential,
                                                f"{name} {invader} invading at {hr}"))
    # both exits are taken (the factorization's only with weak diffusion),
    # so each clause is exercised
    assert any(ended) and not all(ended)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(env=environments(), alpha=strategies.floats(0.0, 1.0))
def test_eigen_result_carries_its_bracket_on_random_environments(env, alpha):
    potential = env.r * (1.0 - alpha - env.Q / env.K)
    res = principal_eigen(env.dispersal, potential, env.P)
    assert_bracket(res, env.dispersal, potential)


# ------------------------------------------------- per-operator invariants


def test_principal_eigen_on_a_used_operator_matches_a_fresh_one():
    # op.eigen_invariants is kept from the first call on; an operator that has
    # already served other potentials, the zero potential among them (0 Noda
    # steps, so phi is sqrt(R) itself), gives the fresh operator's eigenpair
    # bit for bit
    _, grid, env, sim = load_example("example2", n_cells=200)
    v_beta = solve_semitrivial("v", env, 0.4, sim)
    used = build_operator(env.a, env.P, grid)
    for potential in (np.zeros(grid.n_cells),
                      invasion_potential("u", v_beta, env, HarvestRates(0.1, 0.4))):
        principal_eigen(used, potential, env.P)
    potential = invasion_potential("u", v_beta, env, HarvestRates(0.6, 0.4))
    again = principal_eigen(used, potential, env.P)
    fresh = principal_eigen(build_operator(env.a, env.P, grid), potential, env.P)
    assert again.sigma1.hex() == fresh.sigma1.hex()
    assert again.psi.tobytes() == fresh.psi.tobytes()
    assert again.iterations == fresh.iterations > 0
    assert again.residual.hex() == fresh.residual.hex()
    assert np.array_equal(used.eigen_invariants.sqrt_P, np.sqrt(env.P))


def test_eigen_invariants_are_read_only_and_belong_to_one_operator():
    rng = np.random.default_rng(21)
    g = random_grid(rng, 10, 20)
    a = random_positive_profile(rng, g)
    op1 = build_operator(a, random_positive_profile(rng, g), g)
    op2 = build_operator(a, random_positive_profile(rng, g), g)
    parts1, parts2 = op1.eigen_invariants, op2.eigen_invariants
    assert op1.eigen_invariants is parts1
    for x, y in zip(parts1, parts2):
        with pytest.raises(ValueError):
            x[0] = 1.0
        assert not np.shares_memory(x, y)
        assert not np.array_equal(x, y)
    assert np.array_equal(parts2.sqrt_P, np.sqrt(op2.P))


def test_profile_argument_is_checked_on_a_used_operator():
    rng = np.random.default_rng(22)
    g = random_grid(rng, 10, 20)
    R = random_positive_profile(rng, g)
    op = build_operator(random_positive_profile(rng, g), R, g)
    potential = np.cos(np.pi * g.centers / g.length)
    res = principal_eigen(op, potential, op.P)
    copy = principal_eigen(op, potential, R.copy())
    assert copy.sigma1 == res.sigma1 and np.array_equal(copy.psi, res.psi)
    other = R.copy()
    other[0] *= 1.5
    with pytest.raises(ConfigurationError, match="dispersal profile"):
        principal_eigen(op, potential, other)
    potential[1] = np.nan
    with pytest.raises(ConfigurationError, match="potential"):
        principal_eigen(op, potential, op.P)
