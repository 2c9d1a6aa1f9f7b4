"""Shared fixtures and helpers for the test suite."""

import dataclasses
import functools
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies
from scipy.linalg import solve_banded

from harvestcomp import (
    ConfigurationError,
    HarvestCompError,
    HarvestRates,
    Outcome,
    OutcomeRecord,
    PopulationState,
    SimulationConfig,
    SpatialGrid,
    average,
)
from harvestcomp import dynamics, operators, spectral, sweep
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
    rounding = spectral.neutral_level(env)
    bands = np.zeros((3, env.grid.n_cells))
    bands[0, 1:] = -op.sup[:-1]
    bands[2, :-1] = -op.sub[1:]
    w = K_scale
    for steps in range(dynamics._NEWTON_CAP + 1):
        residual = operators.apply(op, w) + rr * w * (1.0 - w / K_scale)
        tol = max(cfg.steady_tol, rounding * float(np.abs(w).max()))
        if float(np.abs(residual).max()) < tol:
            return w, steps
        bands[1] = -rr * (1.0 - 2.0 * w / K_scale) - op.diag
        w = w + solve_banded((1, 1), bands, residual)
    raise AssertionError(f"oracle Newton on the {which}-branch did not converge")


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
    level_u, level_v = spectral.neutral_level(env), spectral.neutral_level(swapped)
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
        outcome = classify(sigma_u, sigma_v, level_u, level_v, env, u_alpha, v_beta)
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
