"""Parameter sweeps over harvesting rates and the coexistence switch point.

A sweep cell's outcome comes from the invasion criterion (Cantrell & Cosner,
Spatial Ecology via Reaction-Diffusion Equations, 2003, ch. 3), not from
simulation. sigma_u is the principal eigenvalue of u invading (0, v_beta)
and sigma_v that of v invading (u_alpha, 0); sigma_v is sigma_u of the
swapped environment with the rates exchanged. Both positive means
coexistence, and one positive and one negative means exclusion by the
species whose sigma is positive. A harvesting rate >= 1 leaves that species
no positive state, so its cells need no eigenvalue. One semi-trivial state
is solved per alpha column and per beta row; one-species cells take their
averages and yields from it, and coexistence cells from the stationary state
solve_coexistence reaches from the sweep's initial data. The switch point is
the root of sigma_u in alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import spectral
from .analysis import Outcome, OutcomeRecord, classify, invasion_potential, outcome_record
from .dynamics import (
    ROUNDING_FLOOR,
    HarvestRates,
    SimulationConfig,
    check_initial_data,
    run_to_time,
    solve_coexistence,
    solve_semitrivial,
)
from .errors import ConfigurationError, HarvestCompError
from .grid import Field
from .operators import DiffusionOperator, annihilates, build_operator, gershgorin_bound
from .profiles import EnvironmentProfile

#: Constant initial density used for every species unless overridden.
DEFAULT_INITIAL_DENSITY = 2.1


@dataclass(frozen=True)
class CellFailure:
    """Marker stored in place of a record when a sweep cell fails."""

    alpha: float
    beta: float
    message: str


@dataclass(frozen=True)
class SwitchPoint:
    beta: float
    alpha_double_star: float
    bracket_width: float


@dataclass(frozen=True)
class SweepGrid:
    alphas: np.ndarray
    betas: np.ndarray
    records: list  # records[i][j] is the cell at (alphas[j], betas[i])

    def failures(self) -> list[CellFailure]:
        return [c for row in self.records for c in row if isinstance(c, CellFailure)]


def _default_initial(env: EnvironmentProfile) -> Field:
    return np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY)


def simulate_cell(
    alpha: float,
    beta: float,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    u0: Field | None = None,
    v0: Field | None = None,
) -> OutcomeRecord:
    """One full simulation plus classification at a single (alpha, beta)."""
    u0 = _default_initial(env) if u0 is None else u0
    v0 = _default_initial(env) if v0 is None else v0
    rates = HarvestRates(alpha=alpha, beta=beta)
    final = run_to_time(u0, v0, env, rates, cfg)
    return classify(final, env, rates, cfg)


def _invasion_eigenvalue(
    op: DiffusionOperator, env: EnvironmentProfile, rates: HarvestRates, resident: Field
) -> float:
    """sigma_u: the principal eigenvalue of u, dispersing by op, invading
    (0, resident). sigma_v is this function on env.swapped(), the swapped
    rates and v's operator."""
    potential = invasion_potential("u", resident, env, rates)
    # looked up on the module at call time, so a wrapper installed there
    # (bench/tracer.py) sees every solve
    return spectral.principal_eigen(op, potential, env.P).sigma1


def _neutral_level(op: DiffusionOperator, env: EnvironmentProfile) -> float:
    """Rounding level of an invasion eigenvalue: a sigma within it of 0 is
    neutral. On the bundled configs at n = 200, 240 and 800, over a 20x20
    grid of rates in [0, 0.95], zero sigmas sit at most 0.36 times
    eps * (gershgorin_bound(D) + max r) and every other |sigma| at least
    1.7e6 times it; the level allows the Newton floor's factor."""
    scale = gershgorin_bound(op) + float(np.max(env.r))
    return ROUNDING_FLOOR * float(np.finfo(float).eps) * scale


def sweep_grid(
    alpha_grid,
    beta_grid,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    jobs: int | None = None,
    u0: Field | None = None,
    v0: Field | None = None,
) -> SweepGrid:
    """Full (alpha, beta) outcome matrix; rows indexed by beta.

    Each cell is decided by the signs of sigma_u and sigma_v (see the
    module docstring). A sigma within _neutral_level of 0 is neutral. When
    sigma_v is neutral, sigma_u > 0 and u_alpha is proportional to P, u is
    an ideal free disperser and excludes v (Averill, Lou & Munther, J. Biol.
    Dyn. 6, 2012), and the same holds with the species exchanged. Any other
    neutral cell, and a bistable cell (both sigmas negative, outcome set by
    the initial data), is a CellFailure whose message names both sigmas. So
    is a cell whose solve fails.

    (u0, v0) are where coexistence states are sought from, and are checked
    like simulate checks them (negative, or over dt not finite, fails every
    cell) even where no cell needs them. cfg.dt enters only that check, and
    cfg.t_final and cfg.extinction_fraction not at all. jobs is accepted for
    call compatibility and unused: the sweep runs in this process.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    u0 = _default_initial(env) if u0 is None else u0
    v0 = _default_initial(env) if v0 is None else v0
    try:
        check_initial_data(u0, v0, env, cfg.dt)
    except HarvestCompError as exc:
        return SweepGrid(alphas=alphas, betas=betas, records=[
            [CellFailure(alpha=float(a), beta=float(b), message=str(exc)) for a in alphas]
            for b in betas
        ])
    swapped = env.swapped()
    op_u = build_operator(env.a, env.P, env.grid)
    op_v = build_operator(swapped.a, swapped.P, env.grid)
    level_u, level_v = _neutral_level(op_u, env), _neutral_level(op_v, swapped)
    absent = np.zeros(env.grid.n_cells)
    semitrivial = functools.cache(lambda which, rate: solve_semitrivial(which, env, rate, cfg))

    def cell(alpha: float, beta: float) -> OutcomeRecord:
        rates = HarvestRates(alpha=alpha, beta=beta)
        if alpha >= 1:
            if beta >= 1:
                return outcome_record(Outcome.EXTINCTION, absent, absent, env, rates)
            return outcome_record(Outcome.ONLY_V, absent, semitrivial("v", beta), env, rates)
        u_alpha = semitrivial("u", alpha)
        if beta >= 1:
            return outcome_record(Outcome.ONLY_U, u_alpha, absent, env, rates)
        v_beta = semitrivial("v", beta)
        sigma_u = _invasion_eigenvalue(op_u, env, rates, v_beta)
        swapped_rates = HarvestRates(alpha=beta, beta=alpha)
        sigma_v = _invasion_eigenvalue(op_v, swapped, swapped_rates, u_alpha)
        sign_u = (sigma_u > level_u) - (sigma_u < -level_u)
        sign_v = (sigma_v > level_v) - (sigma_v < -level_v)
        if sign_u > 0 and sign_v > 0:
            u, v = solve_coexistence(u0, v0, env, rates, cfg)
            return outcome_record(Outcome.COEXISTENCE, u, v, env, rates)
        if sign_u > 0 and (sign_v < 0 or sign_v == 0 and annihilates(op_u, u_alpha)):
            return outcome_record(Outcome.ONLY_U, u_alpha, absent, env, rates)
        if sign_v > 0 and (sign_u < 0 or sign_u == 0 and annihilates(op_v, v_beta)):
            return outcome_record(Outcome.ONLY_V, absent, v_beta, env, rates)
        kind = "bistable" if sign_u < 0 and sign_v < 0 else "neutral"
        raise HarvestCompError(
            f"{kind} cell, not decided by the invasion criterion: sigma_u = {sigma_u:.3e}, "
            f"sigma_v = {sigma_v:.3e} (neutral within {level_u:.1e} and {level_v:.1e})"
        )

    records = []
    for beta in betas:
        row = []
        for alpha in alphas:
            try:
                row.append(cell(float(alpha), float(beta)))
            except HarvestCompError as exc:
                row.append(CellFailure(alpha=float(alpha), beta=float(beta), message=str(exc)))
        records.append(row)
    return SweepGrid(alphas=alphas, betas=betas, records=records)


def find_switch(
    beta: float,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    tol: float = 1e-3,
    eps: float | None = None,
    u0: Field | None = None,
    v0: Field | None = None,
) -> SwitchPoint | None:
    """Largest harvesting effort alpha** that still lets the first species
    invade (0, v_beta), searched between alpha = beta + eps and 1 - eps.

    alpha** is the root of sigma1(alpha), the principal eigenvalue of u
    invading the harvested semi-trivial state (0, v_beta): (0, v_beta) turns
    stable where sigma1 changes sign. sigma1 strictly decreases in alpha
    (r >= 0 is positive somewhere and the eigenfunction is positive), so
    brentq finds the root to near machine precision and sigma1 has opposite
    signs at the two ends of the reported bracket, whose width is at most
    tol. Returns None when sigma1 has one sign across the search interval
    (no switch to report). Positive initial data do not enter the invasion
    criterion: u0 and v0 are accepted for call compatibility and unused.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"switch tolerance tol must be finite and positive, got {tol}")
    if eps is None:
        eps = tol
    lo = beta + eps
    hi = 1.0 - eps
    if lo >= hi:
        return None
    v_beta = solve_semitrivial("v", env, beta, cfg)
    op = build_operator(env.a, env.P, env.grid)

    def sigma1(alpha: float) -> float:
        return _invasion_eigenvalue(op, env, HarvestRates(alpha=alpha, beta=beta), v_beta)

    if (sigma1(lo) < 0) == (sigma1(hi) < 0):
        return None
    root = brentq(sigma1, lo, hi)
    width = min(tol, 2.0 * (root - lo), 2.0 * (hi - root))
    return SwitchPoint(beta=beta, alpha_double_star=root, bracket_width=width)
