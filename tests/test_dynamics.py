import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.linalg import solve_banded

from harvestcomp import (
    ConfigurationError,
    ConvergenceError,
    HarvestCompError,
    HarvestRates,
    NumericalError,
    Outcome,
    PopulationState,
    SimulationConfig,
    SingularSystemError,
    UnstableStepError,
    average,
    integrate,
    run_to_time,
    solve_coexistence,
    solve_semitrivial,
    sweep_grid,
)
from harvestcomp import dynamics
from harvestcomp.operators import apply as op_apply
from harvestcomp.operators import annihilates, build_operator, shifted_solver


from conftest import (
    coexistence_by_species,
    environments,
    ideal_free_environments,
    load_example,
    one_step,
    semitrivial_by_evaluated_newton,
    semitrivial_by_newton,
    threshold_classify,
)


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
    limit = 4 * np.finfo(float).eps * op.gershgorin
    assert residual("v", env, beta, w) < max(sim.steady_tol, limit) * np.max(w)
    assert np.all(w > 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HarvestRates(-0.1, 0), "harvest rate alpha must be finite and >= 0, got -0.1"),
        (lambda: HarvestRates(float("nan"), 0), "harvest rate alpha must be finite and >= 0, got nan"),
        (lambda: SimulationConfig(dt=0), "dt must be positive, got 0"),
    ],
    ids=["negative_alpha", "nan_alpha", "zero_dt"],
)
def test_rates_and_simulation_config_name_the_rejected_field(build, message):
    with pytest.raises(ConfigurationError) as rejected:
        build()
    assert str(rejected.value) == message


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(env=ideal_free_environments(), rate=strategies.floats(0.0, 0.95))
def test_an_ideal_free_species_alone_is_its_harvested_capacity_exactly(env, rate):
    # the species whose profile is a multiple of K: its dispersal annihilates
    # K, so (1 - rate) K is its stationary state, and Newton starts there
    which = "u" if annihilates(env.dispersal, env.K) else "v"
    w = solve_semitrivial(which, env, rate, SimulationConfig())
    np.testing.assert_array_equal(w, (1.0 - rate) * env.K)


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
            assert residual(which, env, rate, w) <= sim.steady_tol * np.max(w)
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
        limit = 4 * np.finfo(float).eps * op.gershgorin * np.max(w)
        assert residual("v", env, rate, w) < max(sim.steady_tol, limit)
        assert np.all(w > 0)
        ref = semitrivial_by_march("v", env, rate, sim)
        assert np.allclose(w, ref, rtol=1e-6, atol=0.0), rate


@pytest.mark.parametrize("diffusivity", [None, "0.01"])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b", "example5"]
)
def test_semitrivial_is_accurate_relative_to_its_size_near_rate_one(name, diffusivity):
    # near rate 1 the state is about (1 - rate) K; against the solve down to
    # the rounding level (steady_tol 1e-300) its error meets the bounds its
    # residual F gives. -J at w has its eigenvalues at least m = min(r w / K),
    # so the error is about max|F| / m, with a factor 2 for the max norm; and
    # the cellwise relative error is at most max|F| / min(r w w_ref / K)
    # (solve_semitrivial). Relative to the state it is small: at most 1e-4 up
    # to rate 1 - 1e-4 and 1e-3 at 1 - 1e-6.
    overrides = {} if diffusivity is None else {"a": diffusivity, "b": diffusivity}
    _, _, env, sim = load_example(name, n_cells=800, **overrides)
    floor = replace(sim, steady_tol=1e-300)
    for which in ("u", "v"):
        for rate, rel_tol in ((0.975, 1e-4), (0.99, 1e-4), (1 - 1e-4, 1e-4), (1 - 1e-6, 1e-3)):
            w = solve_semitrivial(which, env, rate, sim)
            ref = solve_semitrivial(which, env, rate, floor)
            res = residual(which, env, rate, w)
            err = np.abs(w - ref)
            assert np.max(err) <= 2 * res / np.min(env.r * w / env.K), (which, rate)
            assert np.max(err / ref) <= res / np.min(env.r * w * ref / env.K), (which, rate)
            assert np.max(err / ref) <= rel_tol, (which, rate)


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b", "example5"]
)
def test_semitrivial_state_scales_exactly_with_the_capacity_on_bundled_configs(name):
    # K -> 2^k K maps the state to 2^k times it, and the stop is relative
    # to the state, so the solve makes the same steps on values 2^k as large
    _, _, env, sim = load_example(name, n_cells=800)
    for k in (-3, 5):
        scaled = replace(env, K=2.0**k * env.K)
        for which in ("u", "v"):
            for rate in (0.0, 0.4, 0.9, 0.99):
                w = solve_semitrivial(which, env, rate, sim)
                assert np.array_equal(solve_semitrivial(which, scaled, rate, sim), 2.0**k * w), (
                    k, which, rate)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(env=environments(), k=strategies.integers(-20, 20), rate=strategies.floats(0.0, 0.99),
       alpha=strategies.floats(0.0, 0.95), beta=strategies.floats(0.0, 0.95),
       seed=strategies.integers(0, 2**32 - 1))
def test_stationary_states_scale_exactly_with_the_capacity_on_random_environments(
    env, k, rate, alpha, beta, seed
):
    # K -> 2^k K with the initial data 2^k times as large: both stationary
    # solves return exactly 2^k times the state, or fail with the same error
    scale = 2.0**k
    scaled = replace(env, K=scale * env.K)
    sim = SimulationConfig()
    for which in ("u", "v"):
        w = solve_semitrivial(which, env, rate, sim)
        assert np.array_equal(solve_semitrivial(which, scaled, rate, sim), scale * w)
    u0, v0 = np.random.default_rng(seed).uniform(0.05, 3.0, (2, env.grid.n_cells))
    rates = HarvestRates(alpha, beta)
    try:
        state = solve_coexistence(u0, v0, env, rates, sim)
    except HarvestCompError as exc:
        with pytest.raises(type(exc)):
            solve_coexistence(scale * u0, scale * v0, scaled, rates, sim)
        return
    for x, x_scaled in zip(state, solve_coexistence(scale * u0, scale * v0, scaled, rates, sim)):
        assert np.array_equal(x_scaled, scale * x)


def test_semitrivial_reports_nonconvergence():
    # K spans 52 decades: the first Newton step overshoots the branch by
    # ~1e47 where K is smallest, and from there each step only halves the
    # excess, so the step cap ends the solve
    _, grid, env, sim = load_example("example1", n_cells=32, K="exp(60*cos(pi*x))")
    with pytest.raises(ConvergenceError, match=r"did not converge in 50 Newton steps "
                       r"\(v: relative residual \S+ above 1\.000e-09, max v = \S+\)$"):
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


def record_ptsv_steps(monkeypatch):
    """Wrap dynamics._ptsv; each Newton step appends (d, e, b, z) as they
    entered and left the call."""
    real = dynamics._ptsv
    steps = []

    def recorded(d, e, b, **kwargs):
        entering = d.copy(), e.copy(), b.copy()
        out = real(d, e, b, **kwargs)
        steps.append((*entering, out[2].copy()))
        return out

    monkeypatch.setattr(dynamics, "_ptsv", recorded)
    return steps


def agreement_bound(env, which, rate):
    """Relative bound on the gap between solve_semitrivial and the banded
    Newton oracle. Both solve each step backward stably, so they agree to
    1e-13 where the steps are well conditioned; near rate 1 the first step
    from (1-rate)*K, shifted by s = rr, has condition number up to
    kappa = (gershgorin(D) + max rr) / min rr (1.5e11 at rate 1 - 1e-6,
    n = 800), and the two may differ by about eps * kappa."""
    if rate <= 0.8:
        return 1e-13
    op = (env if which == "u" else env.swapped()).dispersal
    rr = (1.0 - rate) * env.r
    kappa = (op.gershgorin + rr.max()) / rr.min()
    return 4 * np.finfo(float).eps * kappa


def check_steps_against_dense_solves(op, steps):
    """Each step's dw = sqrt(R) * z solves (diag(s) - D) dw = F, with
    d = s - diag(D) and b = F / sqrt(R), as np.linalg.solve does on the
    dense matrix, to 4 eps times the condition number of the symmetric
    form (measured: at most 0.86 eps times it)."""
    _, neg_off, sqrt_R, _ = op.eigen_invariants
    D = np.diag(op.diag) + np.diag(op.sub[1:], -1) + np.diag(op.sup[:-1], 1)
    for d, e, b, z in steps:
        assert np.array_equal(e, neg_off)
        dense = np.linalg.solve(np.diag(d + op.diag) - D, b * sqrt_R)
        eigenvalues = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert eigenvalues[0] > 0
        kappa = eigenvalues[-1] / eigenvalues[0]
        gap = np.max(np.abs(sqrt_R * z - dense))
        assert gap <= 4 * np.finfo(float).eps * kappa * np.max(np.abs(dense))


@pytest.mark.parametrize("n_cells", [200, 800])
@pytest.mark.parametrize("diffusivity", ["1", "0.01", "1e-4"])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b"]
)
def test_semitrivial_ptsv_steps_match_the_banded_newton_oracle(
    monkeypatch, name, diffusivity, n_cells
):
    _, _, env, sim = load_example(name, n_cells=n_cells, a=diffusivity, b=diffusivity)
    steps = record_ptsv_steps(monkeypatch)
    for which in ("u", "v"):
        for rate in (0.0, 0.4, 0.8, 1.0 - 1e-6):
            steps.clear()
            w = solve_semitrivial(which, env, rate, sim)
            ref, ref_steps = semitrivial_by_newton(which, env, rate, sim)
            assert len(steps) == ref_steps, (which, rate)
            gap = np.max(np.abs(w - ref))
            assert gap <= agreement_bound(env, which, rate) * np.max(np.abs(ref)), (which, rate)
            if n_cells <= 200:
                check_steps_against_dense_solves(
                    (env if which == "u" else env.swapped()).dispersal, steps
                )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(env=environments(), rate=strategies.floats(0.0, 0.99),
       which=strategies.sampled_from("uv"))
def test_semitrivial_ptsv_steps_match_the_banded_newton_oracle_on_random_environments(
    env, rate, which
):
    sim = SimulationConfig()
    with pytest.MonkeyPatch.context() as monkeypatch:
        steps = record_ptsv_steps(monkeypatch)
        w = solve_semitrivial(which, env, rate, sim)
    ref, ref_steps = semitrivial_by_newton(which, env, rate, sim)
    assert len(steps) == ref_steps
    assert np.max(np.abs(w - ref)) <= agreement_bound(env, which, rate) * np.max(np.abs(ref))
    check_steps_against_dense_solves((env if which == "u" else env.swapped()).dispersal, steps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(env=environments(), c=strategies.sampled_from([1e7, 1e10, 1e14]),
       which=strategies.sampled_from("uv"), rate=strategies.floats(0.0, 0.975))
def test_semitrivial_of_fast_growth_is_the_rescaled_solve_on_random_environments(
    env, c, which, rate
):
    # D w + c r w (1 - w/K) = 0 is (D/c) w + r w (1 - w/K) = 0, and D/c is
    # the operator of (a/c, P): the state of growth c r is the state of
    # diffusivities a/c and b/c, solved here to the rounding floor. The
    # residual of the fast problem carries c r w, so its solve must stop at
    # the rounding level of the reaction term too, not of D w alone.
    w = solve_semitrivial(which, replace(env, r=c * env.r), rate, SimulationConfig())
    ref = solve_semitrivial(which, replace(env, a=env.a / c, b=env.b / c), rate,
                            SimulationConfig(steady_tol=1e-300))
    assert np.max(np.abs(w - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("error")
def test_a_semitrivial_state_that_overflows_is_named():
    # K = 1e308 starts Newton at a state whose D w overflows
    _, _, env, sim = load_example("example1", n_cells=30, K="1e308")
    message = "non-finite semi-trivial u-branch Newton iterate"
    with pytest.raises(UnstableStepError, match=f"^{re.escape(message)}$"):
        solve_semitrivial("u", env, 0.0, sim)


def test_a_singular_semitrivial_step_is_named(monkeypatch):
    # -J is positive definite at every iterate, so ptsv cannot fail on its
    # own; a stubbed zero pivot raises the SingularSystemError naming the
    # branch and the rate
    _, _, env, sim = load_example("example2", n_cells=48)
    real = dynamics._ptsv

    def failing(*args, **kwargs):
        d, e, x, _ = real(*args, **kwargs)
        return d, e, x, 1

    monkeypatch.setattr(dynamics, "_ptsv", failing)
    message = "semi-trivial v-branch Newton step at rate 0.4 is singular (row 1)"
    with pytest.raises(SingularSystemError, match=f"^{re.escape(message)}$"):
        solve_semitrivial("v", env, 0.4, sim)


def count_evaluations(monkeypatch):
    """Wrap dynamics.apply_operator; each full evaluation of D w + f(w) in
    solve_semitrivial appends one entry."""
    real = dynamics.apply_operator
    evaluations = []

    def counted(op, w):
        evaluations.append(None)
        return real(op, w)

    monkeypatch.setattr(dynamics, "apply_operator", counted)
    return evaluations


@pytest.mark.parametrize("diffusivity", ["1", "0.01", "1e-4"])
@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "example4b", "example5"]
)
def test_predicted_residuals_keep_the_evaluated_newton_steps_on_bundled_configs(
    monkeypatch, name, diffusivity
):
    # each step predicts its next residual and D w + f(w) is evaluated in
    # full only where the loop needs it; the solve keeps the Newton steps of
    # the loop that evaluates every iterate, and its states to that loop's
    # agreement with the banded oracle, up to rates within 1e-4 of 1
    _, _, env, sim = load_example(name, a=diffusivity, b=diffusivity)
    steps = record_ptsv_steps(monkeypatch)
    evaluations = count_evaluations(monkeypatch)
    for which in ("u", "v"):
        for rate in (0.0, 0.4, 0.8, 0.975, 1.0 - 1e-4):
            steps.clear()
            evaluations.clear()
            w = solve_semitrivial(which, env, rate, sim)
            ref, ref_steps = semitrivial_by_evaluated_newton(which, env, rate, sim)
            assert len(steps) == ref_steps, (which, rate)
            # at most once per iterate, as that loop does
            assert len(evaluations) <= ref_steps + 1, (which, rate)
            gap = np.max(np.abs(w - ref))
            assert gap <= agreement_bound(env, which, rate) * np.max(np.abs(ref)), (which, rate)


def test_the_switch_points_semitrivial_solve_evaluates_three_of_six_residuals(monkeypatch):
    # v_beta of find_switch(0.4) on example1 at n = 800: residuals 0.35,
    # 0.018, 2.3e-4 and 4.6e-8 after the first four steps. The first three
    # are predicted; the fourth is evaluated, as the quadratic extrapolation
    # of the next one is below tol, and the fifth step's prediction is
    # confirmed by the last evaluation
    _, _, env, sim = load_example("example1")
    steps = record_ptsv_steps(monkeypatch)
    evaluations = count_evaluations(monkeypatch)
    solve_semitrivial("v", env, 0.4, sim)
    assert (len(steps), len(evaluations)) == (5, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(env=environments(), rate=strategies.floats(0.0, 0.99),
       which=strategies.sampled_from("uv"))
def test_each_predicted_residual_agrees_with_the_evaluated_one_on_random_environments(
    env, rate, which
):
    # F(w + dw) = F(w) + J dw - (rr/K) dw^2 and the step solves J dw = -F(w):
    # at every iterate the prediction -(rr/K) dw^2 is the evaluated residual
    # up to the rounding level of the stationary problem, and the state
    # returned has an evaluated residual below its tolerance
    sim = SimulationConfig()
    with pytest.MonkeyPatch.context() as monkeypatch:
        steps = record_ptsv_steps(monkeypatch)
        w = solve_semitrivial(which, env, rate, sim)
    branch = env if which == "u" else env.swapped()
    op = branch.dispersal
    sqrt_R = op.eigen_invariants.sqrt_P
    rr = (1.0 - rate) * branch.r
    K_scale = (1.0 - rate) * branch.K
    crowd = rr / K_scale
    level = branch.neutral_level

    def evaluated(x):
        return op_apply(op, x) + x * (rr - crowd * x)

    x = K_scale
    for *_, z in steps:
        dw = sqrt_R * z
        x = x + dw
        assert np.max(np.abs(evaluated(x) + crowd * dw * dw)) <= level * np.max(x)
    assert np.array_equal(x, w)
    assert np.max(np.abs(evaluated(w))) < max(sim.steady_tol, level) * np.max(w)


def test_a_predicted_stop_that_the_evaluation_rejects_continues_from_the_evaluated_residual(
    monkeypatch,
):
    # a prediction scaled down 1e30-fold accepts every iterate: each is then
    # evaluated in full, the evaluation rejects all but the last, and Newton
    # goes on from the evaluated residual, so the solve is the loop that
    # evaluates every iterate, bit for bit
    _, _, env, sim = load_example("example1", n_cells=200)
    real_amin = dynamics.amin
    monkeypatch.setattr(dynamics, "amin", lambda x: 1e-30 * real_amin(x))
    steps = record_ptsv_steps(monkeypatch)
    evaluations = count_evaluations(monkeypatch)
    rejected = 0
    for which in ("u", "v"):
        for rate in (0.0, 0.4, 0.8):
            steps.clear()
            evaluations.clear()
            w = solve_semitrivial(which, env, rate, sim)
            ref, ref_steps = semitrivial_by_evaluated_newton(which, env, rate, sim)
            assert len(steps) == ref_steps and len(evaluations) == ref_steps + 1, (which, rate)
            assert np.array_equal(w, ref), (which, rate)
            rejected += max(ref_steps - 1, 0)
    assert rejected > 0


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


@pytest.mark.filterwarnings("error")
def test_a_coexistence_state_that_overflows_is_named():
    # from u = v = 1e300 the logistic term u * (r - r (u + v) / K) overflows
    _, grid, env, sim = load_example("example1", n_cells=30)
    start = np.full(grid.n_cells, 1e300)
    with pytest.raises(UnstableStepError, match="^non-finite coexistence iterate$"):
        solve_coexistence(start, start, env, HarvestRates(0.1, 0.0), sim)


def test_coexistence_rejects_a_collapsed_state(monkeypatch):
    # K spans 18 decades and v collapses toward 0: its residual never falls
    # below its tolerance times max v, so the step cap names it, and with
    # a cap long enough for v to reach 0 the positivity check names it
    _, grid, env, sim = load_example("example1", n_cells=200, K="exp(20*cos(pi*x))")
    start = np.full(grid.n_cells, 2.1)
    rates = HarvestRates(0.1, 0.0)
    with pytest.raises(ConvergenceError, match=r"did not converge in 50 pseudo-transient "
                                               r"steps \(u: .*; v: relative residual"):
        solve_coexistence(start, start, env, rates, sim)
    monkeypatch.setattr(dynamics, "_PTC_CAP", 400)
    with pytest.raises(NumericalError, match="not a coexistence state: min v = 0"):
        solve_coexistence(start, start, env, rates, sim)


@pytest.mark.parametrize("n_cells", [200, 800])
@pytest.mark.parametrize("alpha, beta", [(0.8, 0.7), (0.6, 0.5)])
def test_coexistence_rejects_a_remnant_of_u(n_cells, alpha, beta):
    # from the sweep's start u dies out toward (0, v_beta): a state with
    # max u of about 1e-13 has a residual far above its tolerance times
    # max u, so it is never taken for a coexistence state
    _, grid, env, sim = load_example("example4", n_cells=n_cells)
    start = np.full(grid.n_cells, 2.1)
    with pytest.raises(NumericalError, match=r"\(u: relative residual"):
        solve_coexistence(start, start, env, HarvestRates(alpha, beta), sim)


@pytest.mark.parametrize("name", ["example2", "example3"])
def test_coexistence_states_are_accurate_relative_to_each_species(name):
    # every coexistence cell of a 21x21 weak-diffusion map: the state agrees
    # with the one solved down to the rounding level (steady_tol 1e-300)
    # within 2e-6 of each species' max, also where a species is small
    _, grid, env, sim = load_example(name, n_cells=200, a=0.01, b=0.01)
    rates = np.linspace(0.0, 1.0, 21)
    start = np.full(grid.n_cells, 2.1)
    cells = [(rec.alpha, rec.beta) for row in sweep_grid(rates, rates, env, sim).records
             for rec in row if rec.outcome is Outcome.COEXISTENCE]
    assert len(cells) >= 20
    for alpha, beta in cells:
        rates_ab = HarvestRates(alpha, beta)
        state = solve_coexistence(start, start, env, rates_ab, sim)
        floor = solve_coexistence(start, start, env, rates_ab, replace(sim, steady_tol=1e-300))
        for x, x_floor in zip(state, floor):
            assert np.max(np.abs(x - x_floor)) <= 2e-6 * np.max(x_floor), (alpha, beta)


# coexistence cells of 21x21 sweeps of the bundled configs; with weak
# diffusion, example2 rejects two steps at (0.3, 0) and solves each again
# with the same F
COEXISTENCE_CELLS = [
    ("example2", {}, 0.1, 0.0),
    ("example2", {}, 0.5, 0.4),
    ("example2", {}, 0.8, 0.75),
    ("example2", {"a": 0.01, "b": 0.01}, 0.3, 0.0),
    ("example4", {}, 0.0, 0.0),
    ("example4", {}, 0.5, 0.5),
    ("example4", {}, 0.9, 0.9),
]


@pytest.mark.parametrize("n_cells", [200, 800])
def test_coexistence_steps_solve_what_solve_banded_solves_bit_for_bit(monkeypatch, n_cells):
    # each step calls gbsv on the band kept for the solve; its solution is
    # scipy.linalg.solve_banded's on the 5 Jacobian rows entering it, and F
    # is left as it was, since a rejected step solves with it again
    real = dynamics._gbsv
    solved = []

    def checked(kl, ku, band, F, overwrite_ab=0):
        expected = solve_banded((kl, ku), band[2:], F)
        entering = F.copy()
        out = real(kl, ku, band, F, overwrite_ab=overwrite_ab)
        assert out[3] == 0
        assert np.array_equal(out[2], expected)
        assert np.array_equal(F, entering)
        solved.append(F)
        return out

    monkeypatch.setattr(dynamics, "_gbsv", checked)
    for name, overrides, alpha, beta in COEXISTENCE_CELLS:
        _, grid, env, sim = load_example(name, n_cells=n_cells, **overrides)
        start = np.full(grid.n_cells, 2.1)
        solve_coexistence(start, start, env, HarvestRates(alpha, beta), sim)
    assert len(solved) >= 6 * len(COEXISTENCE_CELLS)
    assert sum(a is b for a, b in zip(solved, solved[1:])) >= 2


def _solve_as_the_oracle(u0, v0, env, rates, sim):
    """solve_coexistence from (u0, v0), checked against
    coexistence_by_species: (u, v) bitwise equal and contiguous, or the same
    exception class and message. Returns the oracle's (u, v, rejected), or
    the exception."""
    try:
        u, v = solve_coexistence(u0, v0, env, rates, sim)
    except HarvestCompError as exc:
        with pytest.raises(type(exc)) as oracle:
            coexistence_by_species(u0, v0, env, rates, sim)
        assert type(oracle.value) is type(exc) and str(oracle.value) == str(exc)
        return exc
    expected = coexistence_by_species(u0, v0, env, rates, sim)
    assert np.array_equal(u, expected[0]) and np.array_equal(v, expected[1])
    assert u.flags.c_contiguous and v.flags.c_contiguous
    return expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    env=environments(),
    alpha=strategies.floats(0.0, 0.95),
    beta=strategies.floats(0.0, 0.95),
    seed=strategies.integers(0, 2**32 - 1),
)
def test_coexistence_state_is_bitwise_the_species_by_species_oracle(env, alpha, beta, seed):
    # the interleaved state makes, per entry, the operations the oracle
    # makes on u and v apart, in the same order
    rng = np.random.default_rng(seed)
    u0, v0 = rng.uniform(0.05, 3.0, (2, env.grid.n_cells))
    _solve_as_the_oracle(u0, v0, env, HarvestRates(alpha, beta), SimulationConfig())


def test_a_rejected_coexistence_step_is_bitwise_the_oracle():
    # weak diffusion: example2 retries steps with tau quartered at (0.3, 0)
    name, overrides, alpha, beta = COEXISTENCE_CELLS[3]
    _, grid, env, sim = load_example(name, n_cells=200, **overrides)
    start = np.full(grid.n_cells, 2.1)
    _, _, rejected = _solve_as_the_oracle(start, start, env, HarvestRates(alpha, beta), sim)
    assert rejected >= 1


@pytest.mark.parametrize("case, error", [
    ("overflow", UnstableStepError),
    ("nonconvergence", ConvergenceError),
    ("collapse", NumericalError),
    ("v_absent", NumericalError),
    ("u0_negative", ConfigurationError),
    ("v0_nan", ConfigurationError),
])
def test_a_failing_coexistence_solve_fails_as_the_oracle(monkeypatch, case, error):
    # the cases of the tests above: the same class and message on both paths;
    # initial data that is negative or not finite is named before any step
    start, v0, K = 2.1, None, {}
    if case == "overflow":
        start, n_cells = 1e300, 30
    elif case == "nonconvergence":
        n_cells, K = 32, {"K": "exp(60*cos(pi*x))"}
    elif case == "collapse":
        n_cells, K = 200, {"K": "exp(20*cos(pi*x))"}
        monkeypatch.setattr(dynamics, "_PTC_CAP", 400)
    elif case == "v_absent":
        n_cells, v0 = 48, 0.0
    elif case == "v0_nan":
        n_cells, v0 = 48, np.nan
    else:
        n_cells = 48
    _, grid, env, sim = load_example("example1", n_cells=n_cells, **K)
    u0 = np.full(grid.n_cells, start)
    v0 = u0 if v0 is None else np.full(grid.n_cells, v0)
    if case == "u0_negative":
        u0 = np.zeros(grid.n_cells)
        u0[5] = -1.0
    if error is ConfigurationError:
        monkeypatch.setattr(dynamics, "_gbsv", None)  # no step is taken
    failure = _solve_as_the_oracle(u0, v0, env, HarvestRates(0.1, 0.0), sim)
    assert type(failure) is error
    if case == "u0_negative":
        assert str(failure) == "initial condition u0 must be nonnegative (min u0 = -1)"
    if case == "v0_nan":
        assert str(failure) == "initial condition v0 is not finite (max v0 = nan)"


def test_a_singular_coexistence_step_is_named(monkeypatch):
    # gbsv reports a zero pivot by info > 0 and an illegal argument by
    # info < 0; the step raises for them what scipy.linalg.solve_banded
    # raised, a SingularSystemError naming tau and a ValueError
    _, grid, env, sim = load_example("example2", n_cells=48)
    start = np.full(grid.n_cells, 2.1)
    real = dynamics._gbsv
    tau = 1.0 / float(np.max(env.r))

    for info, error, message in (
        (1, SingularSystemError, f"pseudo-transient step with tau = {tau:g}: singular matrix"),
        (-4, ValueError, "illegal value in 4-th argument of internal gbsv"),
    ):
        def failing(*args, info=info, **kwargs):
            lu, piv, x, _ = real(*args, **kwargs)
            return lu, piv, x, info

        monkeypatch.setattr(dynamics, "_gbsv", failing)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            solve_coexistence(start, start, env, HarvestRates(0.1, 0.0), sim)
