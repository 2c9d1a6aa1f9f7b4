"""Parameter sweeps over harvesting rates and the coexistence switch point.

A sweep cell's outcome comes from the invasion criterion (Cantrell & Cosner,
Spatial Ecology via Reaction-Diffusion Equations, 2003, ch. 3), not from
simulation. sigma_u is the principal eigenvalue of u invading (0, v_beta)
and sigma_v that of v invading (u_alpha, 0); sigma_v is sigma_u of the
swapped environment with the rates exchanged. Both positive means
coexistence, and one positive and one negative means exclusion by the
species whose sigma is positive. A harvesting rate >= 1 leaves that species
no positive state, so its cells need no eigenvalue. A cell's outcome is
decided first: over-exploitation, then the signs its lines' brackets prove
(analysis.outcome_of_signs), then analysis.classify. One semi-trivial state
is solved per alpha column and per beta row; a one-species cell takes the
kept species' (average, yield) from it and 0 for the other, and a
coexistence cell both from the stationary state solve_coexistence reaches
from the sweep's initial data.

Harvesting is proportional to r, so sigma_u(alpha) is the principal
eigenvalue of D + diag(q) - alpha * diag(r), q the potential at alpha = 0.
It is convex and strictly decreasing in alpha (J. E. Cohen, Proc. AMS 81
(1981) 657-658), with slope -h * sum(r * psi^2 / P) from its own
eigenpair, so it changes sign across a beta row once, at the switch point
alpha**(beta); likewise sigma_v across an alpha column, at beta_v(alpha).
That root is itself a principal eigenvalue: the largest mu for which
D + diag(q) - mu * diag(r) is singular, the r-weighted problem of Hess &
Kato (Comm. PDE 5 (1980)) and Cantrell & Cosner (2003). So each row and
each column is one eigenpair of that pencil (switch_eigen), whose bracket
[sigma1, hi] holds the root; SweepGrid keeps the roots as the two switch
curves, and find_switch is the same eigenpair on one row. The bracket
proves the sign of sigma at every rate of its line: +1 below it, by the
tangent at the root, -1 above it, by the slope bound -min r, and neutral
where max r times the distance to its far end lies within half the
neutral level (_bracket_sign). A neutral sign is what an ideal free
disperser leaves its competitor on the line alpha = beta (examples 1, 2
and 4b). A cell whose two signs decide its outcome is decided without its
own eigenpairs; any other cell computes both sigmas. On the bundled
configs a sweep so takes one eigenpair per line: 20 for an 11x11 sweep at
n = 200 instead of 200, and 80 for a 41x41 sweep instead of 3,200.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .analysis import (
    Outcome,
    OutcomeRecord,
    classify,
    invasion_potential,
    outcome_of_signs,
    outcome_record,
)
from .dynamics import (
    HarvestRates,
    SimulationConfig,
    check_initial_data,
    # not called here; bench/tracer.py wraps it under this module's name
    run_to_time,  # noqa: F401
    solve_coexistence,
    solve_semitrivial,
)
from .errors import HarvestCompError
from .grid import Field, average, integrate
from .profiles import EnvironmentProfile

#: Constant initial density used for every species unless overridden.
DEFAULT_INITIAL_DENSITY = 2.1


@dataclass(frozen=True)
class CellFailure:
    """Marker stored in place of a record when a sweep cell fails. error is the
    class of its exception: an instance would keep its traceback's frames."""

    alpha: float
    beta: float
    message: str
    error: type[HarvestCompError] = field(default=HarvestCompError, compare=False, repr=False)


@dataclass(frozen=True)
class SwitchPoint:
    """alpha**(beta), the row's root, and [lo, hi], a bracket on the exact
    root that the row's eigenpair proves (find_switch)."""

    beta: float
    alpha_double_star: float
    lo: float
    hi: float

    @property
    def bracket_width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """records[i][j] is the cell at (alphas[j], betas[i]). switch_u[i] is
    alpha**(betas[i]), the root of sigma_u on that row, and switch_v[j] is
    beta_v(alphas[j]), that of sigma_v on that column: each the root its
    line's eigenpair gives (_line_root), so None where sigma < -level at
    rate 0 or the root is >= 1, and None where the line has no eigenpair
    (the other rate >= 1, or its solve raised). switch_u[i] is
    find_switch(betas[i]).alpha_double_star, bit for bit."""

    alphas: np.ndarray
    betas: np.ndarray
    records: list
    switch_u: list
    switch_v: list

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
    """The record sweep_grid gives the single cell (alpha, beta). A rate
    HarvestRates rejects, or initial data that check_initial_data rejects,
    raise their ConfigurationError, as in sweep_grid; a cell sweep_grid does
    not decide, or whose solve fails, raises the CellFailure's error with
    its message."""
    (record,) = sweep_grid([alpha], [beta], env, cfg, u0=u0, v0=v0).records[0]
    if isinstance(record, CellFailure):
        raise record.error(record.message)
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


def switch_eigen(env: EnvironmentProfile, resident: Field) -> spectral.EigenResult:
    """The eigenpair of the r-weighted pencil of u, dispersing by
    env.dispersal, invading (0, resident) at its own rate x: the largest mu
    for which D + diag(q) - mu * diag(r) is singular, q = r * (1 -
    resident / K) the potential at x = 0 (spectral.principal_eigen with
    weight r). sigma1 is that mu, the rate at which the invasion eigenvalue
    sigma(x) of invasion_eigen is 0, and psi the invasion eigenfunction
    there; [sigma1, hi] brackets it up to rounding, sigma1 a Rayleigh
    quotient and hi a Collatz-Wielandt bound. A line of v is this function
    on env.swapped()."""
    potential = env.r * (1.0 - resident / env.K)
    return spectral.principal_eigen(env.dispersal, potential, env.P, env.r)


def _line_root(res: spectral.EigenResult, slope: float, level: float) -> float | None:
    """The root in [0, 1) of sigma(x) that the line's eigenpair res gives,
    slope the slope of sigma there (spectral.rate_slope): its sigma1, 0
    where sigma(0), read on the tangent at the root as -slope * sigma1, is
    within level of 0, and None where that is below -level or sigma1 >= 1."""
    start = -slope * res.sigma1
    if start < -level or res.sigma1 >= 1.0:
        return None
    return res.sigma1 if start > level else 0.0


def _bracket_sign(x: float, lo: float, hi: float, slope: float, r_min: float, r_max: float,
                  level: float) -> int | None:
    """Sign of sigma at rate x that a line's bracket [lo, hi] on its root
    proves: 1, -1, 0 for neutral, or None when it proves none. slope is the
    slope of sigma at the root. sigma is convex, so it lies above its
    tangent there, which is at least -slope * (lo - x); its slope lies in
    [-r_max, -r_min], so right of the root it is at most -r_min * (x - hi),
    and |sigma(x)| is at most r_max times the distance from x to the far
    end of the bracket. The bracket holds the root up to principal_eigen's
    rounding, about level / 4 over r. A bound that clears 2 * level proves
    a sign of +1 or -1; a distance bound within level / 2 proves neutral,
    so that the sigma principal_eigen would return at x lies within level,
    which analysis.classify reads as neutral."""
    if -slope * (lo - x) > 2.0 * level:
        return 1
    if r_min * (x - hi) > 2.0 * level:
        return -1
    return 0 if r_max * max(x - lo, hi - x) <= level / 2 else None


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

    Each cell's outcome is what analysis.classify gives the signs of sigma_u
    and sigma_v (see the module docstring), with a sigma within its
    species' rounding level of 0 neutral: env.neutral_level for u and
    env.swapped().neutral_level for v, each line's level. A cell it does
    not decide (neutral or bistable) is a CellFailure whose message names
    both sigmas. So is a cell whose solve fails.

    The signs come from one eigenpair per beta row on sigma_u(alpha) and
    one per alpha column on sigma_v(beta), the latter on env.swapped() with
    u_alpha resident: that of the line's r-weighted pencil (switch_eigen),
    whose root is the line's entry of SweepGrid.switch_u or switch_v and
    whose bracket [sigma1, hi] holds it. sigma being convex, it lies above
    its tangent at the root, whose slope is spectral.rate_slope of that
    eigenpair; it falls at least at the rate min r and at most at max r.
    So the bracket bounds sigma at each node: bounds that clear 2 * level
    prove a sign of +1 or -1, and a bound within level / 2 of 0 proves it
    neutral; the margins cover the eigensolver's rounding (_bracket_sign).
    A cell's proven signs go to analysis.outcome_of_signs, the rule
    classify applies. Where it decides nothing, the cell computes both
    sigmas and calls classify, so its outcome and message are those of
    computing every cell. A line whose eigenpair raises proves nothing, and
    each cell on it is computed alone. Each semi-trivial state is solved at
    most once per sweep; a solve that fails fails every cell needing it
    with its message.

    (u0, v0), each DEFAULT_INITIAL_DENSITY when not given, are where
    coexistence states are sought from. Before any cell is solved, initial
    data that check_initial_data rejects (negative, or over dt not finite)
    raise its ConfigurationError, even where no cell needs them; then each
    alpha and each beta goes through HarvestRates' check, once, and the
    first rate it rejects (negative or not finite), alphas before betas,
    raises its ConfigurationError. A rate >= 1 is valid: its species is
    over-exploited. cfg.dt enters only the check of the initial data, and
    cfg.t_final not at all. jobs is accepted for call compatibility and
    unused: the sweep runs in this process.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    default = np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY)
    u0, v0 = check_initial_data(default if u0 is None else u0, default if v0 is None else v0,
                                env, cfg.dt)
    columns = alphas.tolist()
    for alpha in columns:
        HarvestRates(alpha=alpha, beta=0.0)
    for beta in betas.tolist():
        HarvestRates(alpha=0.0, beta=beta)

    # per invader: its environment and the resident; v invading is u on env.swapped()
    sides = {"u": (env, "v"), "v": (env.swapped(), "u")}
    r_min, r_max = float(env.r.min()), float(env.r.max())

    @functools.cache
    def solved(which: str, rate: float):
        # functools.cache keeps no exception: the error is returned to keep it
        try:
            return solve_semitrivial(which, env, rate, cfg)
        except HarvestCompError as exc:
            return exc

    def semitrivial(which: str, rate: float) -> Field:
        w = solved(which, rate)
        if isinstance(w, HarvestCompError):
            raise w
        return w

    @functools.cache
    def alone(which: str, rate: float) -> tuple[float, float]:
        # (average, yield) of one species alone at its rate, which is below 1
        w = semitrivial(which, rate)
        return average(w, env.grid), integrate(rate * env.r * w, env.grid)

    @functools.cache
    def line(invader: str, other: float):
        # the eigenpair of the invader's line at the other's rate, below 1,
        # the slope of sigma at its root and the line's level; None where
        # its solve raises
        invader_env, resident = sides[invader]
        try:
            res = switch_eigen(invader_env, semitrivial(resident, other))
        except HarvestCompError:
            return None
        return res, spectral.rate_slope(res, env.r), invader_env.neutral_level

    def sign(invader: str, other: float, own: float) -> int | None:
        found = line(invader, other)
        if found is None:
            return None
        res, slope, level = found
        return _bracket_sign(own, res.sigma1, res.hi, slope, r_min, r_max, level)

    def root(invader: str, other: float) -> float | None:
        found = None if other >= 1 else line(invader, other)
        return None if found is None else _line_root(*found)

    def cell(alpha: float, beta: float) -> OutcomeRecord:
        if alpha >= 1 or beta >= 1:
            outcome = (Outcome.ONLY_U if alpha < 1 else Outcome.ONLY_V if beta < 1
                       else Outcome.EXTINCTION)
        else:
            u_alpha, v_beta = semitrivial("u", alpha), semitrivial("v", beta)
            outcome = outcome_of_signs(sign("u", beta, alpha), sign("v", alpha, beta), env,
                                       u_alpha, v_beta)
            if outcome is None:
                sigma_u = invasion_eigen(env, HarvestRates(alpha=alpha, beta=beta), v_beta).sigma1
                sigma_v = invasion_eigen(env.swapped(), HarvestRates(alpha=beta, beta=alpha),
                                         u_alpha).sigma1
                outcome = classify(sigma_u, sigma_v, env, u_alpha, v_beta)
        if outcome is Outcome.COEXISTENCE:
            rates = HarvestRates(alpha=alpha, beta=beta)
            return outcome_record(outcome, *solve_coexistence(u0, v0, env, rates, cfg), env, rates)
        avg_u, yield_u = alone("u", alpha) if outcome is Outcome.ONLY_U else (0.0, 0.0)
        avg_v, yield_v = alone("v", beta) if outcome is Outcome.ONLY_V else (0.0, 0.0)
        return OutcomeRecord(outcome, avg_u, avg_v, yield_u, yield_v, alpha, beta)

    records = []
    for beta in betas.tolist():
        row = []
        for alpha in columns:
            try:
                row.append(cell(alpha, beta))
            except HarvestCompError as exc:
                row.append(CellFailure(alpha, beta, str(exc), type(exc)))
        records.append(row)
    return SweepGrid(alphas=alphas, betas=betas, records=records,
                     switch_u=[root("u", beta) for beta in betas.tolist()],
                     switch_v=[root("v", alpha) for alpha in columns])


def find_switch(
    beta: float,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    tol: float | None = None,
    u0: Field | None = None,
    v0: Field | None = None,
) -> SwitchPoint | None:
    """Largest harvesting effort alpha** in [0, 1) that still lets u invade
    (0, v_beta), v_beta being v alone at rate beta: the root of sigma1, the
    principal eigenvalue of u invading (0, v_beta), in alpha. It is the
    eigenvalue of the r-weighted pencil (switch_eigen), the Rayleigh
    quotient of its eigenpair, as a sweep row finds SweepGrid.switch_u.
    None where sigma1 < -env.neutral_level at alpha = 0, where u does not
    invade even unharvested, or where the root is >= 1; sigma1 at alpha = 0
    is read on the tangent at the root (_line_root). A neutral sigma1 at
    alpha = 0 gives alpha** = 0.

    [lo, hi] is the bracket on the exact root that the eigenpair proves:
    its Rayleigh quotient bounds the root from below, sigma1 being >= 0
    there, and its Collatz-Wielandt bound hi from above. Each end is
    widened by w = env.neutral_level / min r, the furthest a sigma1 within
    the neutral level of its exact value moves a root when sigma1 falls at
    least at the rate min r: [max(0, alpha** - w), hi + w]. Where r
    vanishes on a cell, min r = 0 bounds no fall, so hi is inf; the
    Rayleigh bound is still a bound, and w is env.neutral_level over the
    magnitude of the slope at the root. tol, u0 and v0 are accepted for
    call compatibility and unused; initial data do not enter the invasion
    criterion.
    """
    return _switch_point(beta, env, solve_semitrivial("v", env, beta, cfg))


def _switch_point(beta: float, env: EnvironmentProfile, v_beta: Field) -> SwitchPoint | None:
    """find_switch on v_beta, v alone at rate beta, already solved."""
    res = switch_eigen(env, v_beta)
    slope = spectral.rate_slope(res, env.r)
    root = _line_root(res, slope, env.neutral_level)
    if root is None:
        return None
    r_min = float(env.r.min())
    if r_min > 0:
        w = env.neutral_level / r_min
        hi = res.hi + w
    else:  # sigma need not fall at the rate min r = 0: no bound above
        w, hi = env.neutral_level / -slope, math.inf
    return SwitchPoint(beta=beta, alpha_double_star=root, lo=max(0.0, root - w), hi=hi)
