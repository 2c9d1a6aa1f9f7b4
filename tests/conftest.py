"""Shared fixtures and helpers for the test suite."""

import dataclasses
import functools
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies
from scipy.linalg import LinAlgError, solve_banded

from harvestcomp import (
    ConfigurationError,
    ConvergenceError,
    HarvestCompError,
    HarvestRates,
    NumericalError,
    Outcome,
    OutcomeRecord,
    PopulationState,
    SimulationConfig,
    SingularSystemError,
    SpatialGrid,
    UnstableStepError,
    average,
)
from harvestcomp import dynamics, operators, sweep
from harvestcomp.analysis import classify, outcome_record
from harvestcomp.config import (
    apply_overrides,
    build_environment,
    load_config,
    simulation_config,
)
from harvestcomp.dynamics import (
    check_initial_data,
    run_to_time,
    solve_coexistence,
    solve_semitrivial,
)
from harvestcomp.grid import as_field
from harvestcomp.profiles import EnvironmentProfile
from harvestcomp.sweep import DEFAULT_INITIAL_DENSITY, CellFailure

CONFIG_DIR = Path(str(files("harvestcomp") / "configs"))


def bundled_config(name: str) -> Path:
    return CONFIG_DIR / f"{name}.cfg"


def load_example(name: str, **overrides):
    """Bundled config -> (cfg, grid, env, sim) with optional key overrides."""
    cfg = load_config(bundled_config(name))
    if overrides:
        cfg = apply_overrides(cfg, {k: str(v) for k, v in overrides.items()})
    grid, env = build_environment(cfg)
    return cfg, grid, env, simulation_config(cfg)


def one_step(u, v, env, rates: HarvestRates, dt: float) -> PopulationState:
    """One split step from (u, v): run_to_time with t_final = dt."""
    return run_to_time(u, v, env, rates, SimulationConfig(dt=dt, t_final=dt))


def random_positive_profile(rng, grid: SpatialGrid, low: float = 0.3) -> np.ndarray:
    """Smooth strictly positive field: offset plus a few random harmonics."""
    x = grid.centers
    f = np.full(grid.n_cells, low + rng.uniform(0.5, 2.0))
    for k in range(1, 4):
        f += rng.uniform(-0.3, 0.3) * np.cos(k * np.pi * x / grid.length + rng.uniform(0, 7))
    return np.maximum(f, low)


def random_grid(rng, n_min: int = 8, n_max: int = 48) -> SpatialGrid:
    return SpatialGrid(
        length=float(rng.uniform(1.0, 6.0)), n_cells=int(rng.integers(n_min, n_max))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@strategies.composite
def environments(draw):
    """Random positive environment on a grid of 8 to 48 cells."""
    length = draw(strategies.floats(1.0, 6.0))
    grid = SpatialGrid(length=length, n_cells=draw(strategies.integers(8, 48)))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    fields = {name: random_positive_profile(rng, grid) for name in ("K", "r", "P", "Q", "a", "b")}
    return EnvironmentProfile(grid=grid, **fields)


@strategies.composite
def ideal_free_environments(draw):
    """An environments() draw in which one species disperses ideally: P or Q
    is a multiple of K. r is constant or varies."""
    env = draw(environments())
    ideal = draw(strategies.sampled_from(["P", "Q"]))
    fields = {ideal: draw(strategies.floats(0.5, 2.0)) * env.K}
    if draw(strategies.booleans()):
        fields["r"] = np.full(env.grid.n_cells, draw(strategies.floats(0.5, 2.0)))
    return dataclasses.replace(env, **fields)


#: Fraction of average(K) below which threshold_classify counts a species
#: extinct. An excluded species with a regular-diffusion strategy dies off
#: only algebraically, leaving a residue of up to ~1% of the capacity
#: average at t = 2000 in the benchmark environments, while the smallest
#: genuine coexistence averages there sit above 2%; this fraction splits the
#: two regimes.
EXTINCTION_FRACTION = 1.5e-2
#: The fraction of the march oracle, whose states are settled to 1e-10.
ORACLE_EXTINCTION_FRACTION = 1e-4


def threshold_classify(
    final: PopulationState,
    env,
    rates: HarvestRates,
    fraction: float = EXTINCTION_FRACTION,
) -> OutcomeRecord:
    """Classify a (near-)final marched state by average density against the
    extinction threshold fraction * average(K); resolved says whether the
    march settled. An oracle independent of the invasion criterion."""
    threshold = fraction * average(env.K, env.grid)
    u_alive = average(final.u, env.grid) >= threshold
    v_alive = average(final.v, env.grid) >= threshold
    if u_alive and v_alive:
        outcome = Outcome.COEXISTENCE
    elif u_alive:
        outcome = Outcome.ONLY_U
    elif v_alive:
        outcome = Outcome.ONLY_V
    else:
        outcome = Outcome.EXTINCTION
    record = outcome_record(outcome, final.u, final.v, env, rates)
    return dataclasses.replace(record, resolved=final.steady)


def record_of_march(alpha: float, beta: float, env, cfg: SimulationConfig) -> OutcomeRecord:
    """threshold_classify of the march under cfg from the constant
    DEFAULT_INITIAL_DENSITY at rates (alpha, beta)."""
    w0 = np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY)
    rates = HarvestRates(alpha, beta)
    return threshold_classify(run_to_time(w0, w0, env, rates, cfg), env, rates)


#: The march that sweep records are checked against: settled to 1e-10 and
#: long enough for the example1 coexistence cell (0.1, 0) to settle (at
#: t = 802); classified with ORACLE_EXTINCTION_FRACTION.
MARCH_ORACLE = SimulationConfig(dt=0.05, t_final=1000.0, steady_tol=1e-10)


def assert_sweep_matches_march(sg, env, cfg=MARCH_ORACLE, u0=None, v0=None) -> int:
    """Check the records of a sweep against the march from its initial data
    (default the constant DEFAULT_INITIAL_DENSITY), run_to_time of each
    record's cell on its own: in every cell whose march settles under cfg,
    the record has the outcome threshold_classify gives the settled state at
    ORACLE_EXTINCTION_FRACTION, and both averages within 1e-6 of it. Returns
    the number of cells checked."""
    u0 = np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY) if u0 is None else u0
    v0 = np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY) if v0 is None else v0
    records = [rec for row in sg.records for rec in row if isinstance(rec, OutcomeRecord)]
    checked = 0
    for rec in records:
        r = HarvestRates(rec.alpha, rec.beta)
        final = run_to_time(u0, v0, env, r, cfg)
        if not final.steady:
            continue
        oracle = threshold_classify(final, env, r, ORACLE_EXTINCTION_FRACTION)
        assert rec.outcome is oracle.outcome, (rec, oracle)
        assert abs(rec.avg_u - oracle.avg_u) <= 1e-6, (rec, oracle)
        assert abs(rec.avg_v - oracle.avg_v) <= 1e-6, (rec, oracle)
        checked += 1
    return checked


def rayleigh_lower_bound(op, potential, R, trial) -> float:
    """Rayleigh quotient of a trial field; never exceeds sigma1. An oracle
    for principal_eigen independent of its iteration.

    Matches the variational form: flux energy of trial/R against the face
    diffusivities plus the potential term, over the weighted norm. The
    potential and the trial field must be finite.
    """
    R = as_field(R, op.grid)
    potential = as_field(potential, op.grid)
    trial = as_field(trial, op.grid)
    if not np.array_equal(R, op.P):
        raise ConfigurationError("R must be the dispersal profile of the operator")
    if not np.all(np.isfinite(potential)):
        raise ConfigurationError("potential must be finite in every cell")
    if not np.all(np.isfinite(trial)):
        raise ConfigurationError("trial field must be finite in every cell")
    if not np.any(trial != 0):
        raise ConfigurationError("trial field must be nonzero")

    h = op.grid.h
    g = trial / R
    a_face = 0.5 * (op.a[:-1] + op.a[1:])
    flux_energy = float(np.sum(a_face * np.diff(g) ** 2)) / h
    weighted_sq = trial**2 / R
    num = -flux_energy + h * float(np.sum(potential * weighted_sq))
    den = h * float(np.sum(weighted_sq))
    return num / den


def semitrivial_by_newton(which, env, rate, cfg: SimulationConfig):
    """(w, steps): solve_semitrivial's Newton iteration with each step a
    general banded solve of (diag(s) - D) dw = F, s = -rr*(1 - 2w/K), by
    scipy.linalg.solve_banded on D itself rather than its symmetric form.
    An oracle for the ptsv steps; same start, stop test and cap."""
    if which == "v":
        env = env.swapped()
    op = env.dispersal
    rr = (1.0 - rate) * env.r
    K_scale = (1.0 - rate) * env.K
    level = max(cfg.steady_tol, env.neutral_level)
    bands = np.zeros((3, env.grid.n_cells))
    bands[0, 1:] = -op.sup[:-1]
    bands[2, :-1] = -op.sub[1:]
    w = K_scale
    for steps in range(dynamics._NEWTON_CAP + 1):
        residual = operators.apply(op, w) + rr * w * (1.0 - w / K_scale)
        if float(np.abs(residual).max()) < level * float(np.abs(w).max()):
            return w, steps
        bands[1] = -rr * (1.0 - 2.0 * w / K_scale) - op.diag
        w = w + solve_banded((1, 1), bands, residual)
    raise AssertionError(f"oracle Newton on the {which}-branch did not converge")


def semitrivial_by_evaluated_newton(which, env, rate, cfg: SimulationConfig):
    """(w, steps): solve_semitrivial's Newton iteration as it was before its
    steps predicted their next residual, evaluating D w + f(w) in full at
    every iterate, each step the same ptsv call on the symmetric form. An
    oracle for the predicted residual: same start, stop test and cap."""
    if which == "v":
        env = env.swapped()
    op = env.dispersal
    _, neg_off, sqrt_R, _ = op.eigen_invariants
    rr = (1.0 - rate) * env.r
    K_scale = (1.0 - rate) * env.K
    crowd = rr / K_scale
    crowd2 = 2.0 * crowd
    shift = rr + op.diag
    level = max(cfg.steady_tol, env.neutral_level)
    w = K_scale
    for steps in range(dynamics._NEWTON_CAP + 1):
        residual = operators.apply(op, w) + w * (rr - crowd * w)
        res_norm = float(np.abs(residual).max())
        if res_norm < level * float(np.abs(w).max()):
            return w, steps
        _, _, z, info = operators._ptsv(crowd2 * w - shift, neg_off, residual / sqrt_R,
                                        overwrite_d=1, overwrite_b=1)
        assert info == 0, f"oracle Newton step on the {which}-branch is singular"
        w = w + sqrt_R * z
    raise AssertionError(f"oracle Newton on the {which}-branch did not converge")


def coexistence_by_species(u0, v0, env, rates: HarvestRates, cfg: SimulationConfig):
    """(u, v, rejected): solve_coexistence's pseudo-transient continuation
    with u and v held apart, each residual two operators.apply calls and
    each step's Jacobian rows written species by species, solved by
    scipy.linalg.solve_banded; rejected counts the steps retried with tau
    quartered. An oracle for the interleaved state: same start, stop test,
    cap (read at call time), checks and messages."""
    u, v = check_initial_data(u0, v0, env)
    op_u, op_v = env.dispersal, env.swapped().dispersal
    grow_u = env.r * (1.0 - rates.alpha)
    grow_v = env.r * (1.0 - rates.beta)
    susc = env.r / env.K
    tol_u = max(cfg.steady_tol, env.neutral_level)
    tol_v = max(cfg.steady_tol, env.swapped().neutral_level)
    m = 2 * len(u)
    bands = np.zeros((5, m))
    bands[0, 2::2], bands[0, 3::2] = -op_u.sup[:-1], -op_v.sup[:-1]
    bands[4, 0:-2:2], bands[4, 1:-2:2] = -op_u.sub[1:], -op_v.sub[1:]

    def residual(u, v):
        crowd = susc * (u + v)
        F = np.empty(m)
        F[0::2] = operators.apply(op_u, u) + u * (grow_u - crowd)
        F[1::2] = operators.apply(op_v, v) + v * (grow_v - crowd)
        return F, float(np.max(np.abs(F[0::2]))), float(np.max(np.abs(F[1::2]))), crowd

    with np.errstate(over="ignore", invalid="ignore"):
        F, res_u, res_v, crowd = residual(u, v)
        tau = 1.0 / float(np.max(env.r))
        rejected = 0
        for steps in range(dynamics._PTC_CAP + 1):
            species = (("u", res_u, float(u.max()), tol_u), ("v", res_v, float(v.max()), tol_v))
            unsettled = [(name, res, top, tol) for name, res, top, tol in species
                         if not res <= tol * top]
            if not unsettled:
                break
            if not (np.isfinite(res_u) and np.isfinite(res_v)):
                raise UnstableStepError("non-finite coexistence iterate")
            if steps == dynamics._PTC_CAP:
                named = "; ".join(
                    f"{name}: relative residual {res / top if top > 0 else np.inf:.3e} "
                    f"above {tol:.3e}, max {name} = {top:.3e}"
                    for name, res, top, tol in unsettled
                )
                raise ConvergenceError(
                    f"coexistence state did not converge in {dynamics._PTC_CAP} "
                    f"pseudo-transient steps ({named})"
                )
            susc_u, susc_v = susc * u, susc * v
            bands[2, 0::2] = 1.0 / tau - op_u.diag - (grow_u - crowd - susc_u)
            bands[2, 1::2] = 1.0 / tau - op_v.diag - (grow_v - crowd - susc_v)
            bands[1, 1::2] = susc_u
            bands[3, 0::2] = susc_v
            try:
                dw = solve_banded((2, 2), bands, F)
            except LinAlgError:
                raise SingularSystemError(
                    f"pseudo-transient step with tau = {tau:g}: singular matrix"
                ) from None
            u1, v1 = u + dw[0::2], v + dw[1::2]
            if u1.min() < 0 or v1.min() < 0:
                tau *= 0.25
                rejected += 1
                continue
            F1, res1_u, res1_v, crowd1 = residual(u1, v1)
            tau *= max(res_u, res_v) / max(res1_u, res1_v, np.finfo(float).tiny)
            u, v, F, res_u, res_v, crowd = u1, v1, F1, res1_u, res1_v, crowd1
    for name, w in (("u", u), ("v", v)):
        if not w.min() > 0:
            raise NumericalError(
                f"stationary state reached from (u0, v0) is not a coexistence state: "
                f"min {name} = {w.min():g}"
            )
    return u, v, rejected


def per_cell_sweep(alphas, betas, env, cfg: SimulationConfig, u0=None, v0=None) -> list:
    """The records sweep_grid gives, computed cell by cell: both invasion
    eigenvalues in every cell with both rates below 1, then
    analysis.classify, with a CellFailure in place of a cell whose solve
    raises. An oracle for the sweep's sign certificates, which skip most of
    these eigenpairs."""
    default = np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY)
    u0, v0 = check_initial_data(default if u0 is None else u0, default if v0 is None else v0,
                                env, cfg.dt)
    swapped = env.swapped()
    absent = np.zeros(env.grid.n_cells)

    semitrivial = functools.cache(lambda which, rate: solve_semitrivial(which, env, rate, cfg))

    def cell(alpha, beta):
        rates = HarvestRates(alpha=alpha, beta=beta)
        if alpha >= 1:
            if beta >= 1:
                return outcome_record(Outcome.EXTINCTION, absent, absent, env, rates)
            return outcome_record(Outcome.ONLY_V, absent, semitrivial("v", beta), env, rates)
        u_alpha = semitrivial("u", alpha)
        if beta >= 1:
            return outcome_record(Outcome.ONLY_U, u_alpha, absent, env, rates)
        v_beta = semitrivial("v", beta)
        sigma_u = sweep.invasion_eigen(env, rates, v_beta).sigma1
        sigma_v = sweep.invasion_eigen(swapped, HarvestRates(alpha=beta, beta=alpha),
                                       u_alpha).sigma1
        outcome = classify(sigma_u, sigma_v, env, u_alpha, v_beta)
        if outcome is Outcome.COEXISTENCE:
            return outcome_record(outcome, *solve_coexistence(u0, v0, env, rates, cfg), env,
                                  rates)
        if outcome is Outcome.ONLY_U:
            return outcome_record(outcome, u_alpha, absent, env, rates)
        return outcome_record(outcome, absent, v_beta, env, rates)

    records = []
    for beta in np.asarray(betas, dtype=float):
        row = []
        for alpha in np.asarray(alphas, dtype=float):
            try:
                row.append(cell(float(alpha), float(beta)))
            except HarvestCompError as exc:
                row.append(CellFailure(alpha=float(alpha), beta=float(beta), message=str(exc)))
        records.append(row)
    return records
