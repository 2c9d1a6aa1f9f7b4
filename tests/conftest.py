"""Shared fixtures and helpers for the test suite."""

import dataclasses
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies

from harvestcomp import (
    HarvestRates,
    Outcome,
    OutcomeRecord,
    PopulationState,
    SimulationConfig,
    SpatialGrid,
    average,
)
from harvestcomp.analysis import outcome_record
from harvestcomp.config import (
    apply_overrides,
    build_environment,
    load_config,
    simulation_config,
)
from harvestcomp.dynamics import run_to_time
from harvestcomp.profiles import EnvironmentProfile
from harvestcomp.sweep import DEFAULT_INITIAL_DENSITY

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
