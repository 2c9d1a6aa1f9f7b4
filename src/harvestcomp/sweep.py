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
the root of sigma_u in alpha, found by Newton's method: sigma_u is convex and
strictly decreasing in alpha, and its slope comes with each eigenpair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .analysis import Outcome, OutcomeRecord, classify, invasion_potential, outcome_record
from .dynamics import (
    HarvestRates,
    SimulationConfig,
    check_initial_data,
    # not called here; bench/tracer.py wraps it under this module's name
    run_to_time,  # noqa: F401
    solve_coexistence,
    solve_semitrivial,
)
from .errors import ConfigurationError, ConvergenceError, HarvestCompError
from .grid import Field
from .profiles import EnvironmentProfile

#: Constant initial density used for every species unless overridden.
DEFAULT_INITIAL_DENSITY = 2.1

# find_switch takes 2 eigenpairs on the bundled configs, where r is constant
# and sigma1 is affine in alpha, and 3-4 on random environments.
_NEWTON_CAP = 50


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


def simulate_cell(
    alpha: float,
    beta: float,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    u0: Field | None = None,
    v0: Field | None = None,
) -> OutcomeRecord:
    """The record sweep_grid gives the single cell (alpha, beta). Initial
    data that check_initial_data rejects raise its ConfigurationError, as in
    sweep_grid; a cell sweep_grid does not decide, or whose solve fails,
    raises HarvestCompError with the CellFailure's message."""
    (record,) = sweep_grid([alpha], [beta], env, cfg, u0=u0, v0=v0).records[0]
    if isinstance(record, CellFailure):
        raise HarvestCompError(record.message)
    return record


def invasion_eigen(
    env: EnvironmentProfile, rates: HarvestRates, resident: Field
) -> spectral.EigenResult:
    """The principal eigenpair of u, dispersing by env.dispersal, invading
    (0, resident); its sigma1 is sigma_u. sigma_v, the eigenvalue of v
    invading (resident, 0), is this function on env.swapped() with the
    rates exchanged."""
    potential = invasion_potential("u", resident, env, rates)
    # looked up on the module at call time, so a wrapper installed there
    # (bench/tracer.py) sees every solve
    return spectral.principal_eigen(env.dispersal, potential, env.P)


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

    Each cell is decided by analysis.classify from the signs of sigma_u
    and sigma_v (see the module docstring), with a sigma within
    spectral.neutral_level of 0 neutral. A cell it does not decide (neutral
    or bistable) is a CellFailure whose message names both sigmas. So is a
    cell whose solve fails.

    (u0, v0), each DEFAULT_INITIAL_DENSITY when not given, are where
    coexistence states are sought from. Initial data that check_initial_data
    rejects (negative, or over dt not finite) raise its ConfigurationError
    before any cell is solved, even where no cell needs them. cfg.dt enters
    only that check, and cfg.t_final not at all. jobs is accepted for call
    compatibility and unused: the sweep runs in this process.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    default = np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY)
    u0, v0 = check_initial_data(default if u0 is None else u0, default if v0 is None else v0,
                                env, cfg.dt)
    swapped = env.swapped()
    level_u, level_v = spectral.neutral_level(env), spectral.neutral_level(swapped)
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
        sigma_u = invasion_eigen(env, rates, v_beta).sigma1
        sigma_v = invasion_eigen(swapped, HarvestRates(alpha=beta, beta=alpha), u_alpha).sigma1
        outcome = classify(sigma_u, sigma_v, level_u, level_v, env, u_alpha, v_beta)
        if outcome is Outcome.COEXISTENCE:
            return outcome_record(outcome, *solve_coexistence(u0, v0, env, rates, cfg), env, rates)
        if outcome is Outcome.ONLY_U:
            return outcome_record(outcome, u_alpha, absent, env, rates)
        return outcome_record(outcome, absent, v_beta, env, rates)

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
    u0: Field | None = None,
    v0: Field | None = None,
) -> SwitchPoint | None:
    """Largest harvesting effort alpha** that still lets the first species
    invade (0, v_beta), searched between alpha = beta + tol and 1 - tol.

    alpha** is the root of sigma1(alpha), the principal eigenvalue of u
    invading the harvested semi-trivial state (0, v_beta): (0, v_beta) turns
    stable where sigma1 changes sign. sigma1 is the largest eigenvalue of
    H0 - alpha * diag(r) with H0 self-adjoint, a maximum of Rayleigh
    quotients affine in alpha, so it is convex in alpha (J. E. Cohen, Proc.
    AMS 81 (1981) 657-658). Its slope at alpha is -h * sum(r * psi^2 / P)
    for the eigenfunction psi normalized so that h * sum(psi^2 / P) = 1
    (Hellmann-Feynman), which is negative because r >= 0 is positive
    somewhere and psi is positive. A convex decreasing function lies above
    its tangents, so Newton's method started at beta + tol, where
    sigma1 >= 0, climbs to the root without overshooting it: no bracket or
    line search is needed. It stops once sigma1 is within
    spectral.neutral_level of 0 and returns that iterate plus its Newton
    step. sigma1 has opposite signs at the two ends of the reported
    bracket, centred on the root, whose width is at most tol.

    Returns None when sigma1 has one sign across the search interval (no
    switch to report): when sigma1 < 0 at beta + tol, or when an iterate
    reaches 1 - tol. Positive initial data do not enter the invasion
    criterion: u0 and v0 are accepted for call compatibility and unused.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"switch tolerance tol must be finite and positive, got {tol}")
    lo = beta + tol
    hi = 1.0 - tol
    if lo >= hi:
        return None
    v_beta = solve_semitrivial("v", env, beta, cfg)
    level = spectral.neutral_level(env)

    def eigen(alpha: float) -> spectral.EigenResult:
        return invasion_eigen(env, HarvestRates(alpha=alpha, beta=beta), v_beta)

    res = eigen(lo)
    if res.sigma1 < 0:
        return None
    root = lo
    for _ in range(_NEWTON_CAP):
        root += res.sigma1 / (env.grid.h * float(np.sum(env.r * res.psi**2 / env.P)))
        if root >= hi:
            return None
        if abs(res.sigma1) <= level:
            break
        res = eigen(root)
    else:
        raise ConvergenceError(
            f"switch point not resolved after {_NEWTON_CAP} Newton steps: "
            f"alpha** near {root:.12g}, sigma1 = {res.sigma1:.3e}"
        )
    width = min(tol, 2.0 * (root - lo), 2.0 * (hi - root))
    return SwitchPoint(beta=beta, alpha_double_star=root, bracket_width=width)
