"""Parameter sweeps over harvesting rates and the coexistence switch point.

A sweep cell's outcome comes from the invasion criterion (Cantrell & Cosner,
Spatial Ecology via Reaction-Diffusion Equations, 2003, ch. 3), not from
simulation. sigma_u is the principal eigenvalue of u invading (0, v_beta)
and sigma_v that of v invading (u_alpha, 0); sigma_v is sigma_u of the
swapped environment with the rates exchanged. Both positive means
coexistence, and one positive and one negative means exclusion by the
species whose sigma is positive. A harvesting rate >= 1 leaves that species
no positive state, so its cells need no eigenvalue. A cell's outcome is
decided first: over-exploitation, then signs its line's climbs certify
(analysis.outcome_of_signs), then analysis.classify. One semi-trivial state
is solved per alpha column and per beta row; a one-species cell takes the
kept species' (average, yield) from it and 0 for the other, and a
coexistence cell both from the stationary state solve_coexistence reaches
from the sweep's initial data.

sigma_u is convex and strictly decreasing in alpha (J. E. Cohen, Proc. AMS
81 (1981) 657-658), with slope -h * sum(r * psi^2 / P) from its own
eigenpair, so it changes sign across a beta row once, at the switch point
alpha**(beta); likewise sigma_v across an alpha column. One Newton climb
per row and per column finds where, and the points it evaluates bound
sigma at every other rate: from below by their tangents, and from above by
the slope bound -min r. The bounds prove a sign of +1 or -1 where they
clear 0, and a neutral sign where both lie within half the neutral level of
0 (sweep_grid states the bounds). A neutral sign is what an ideal free
disperser leaves its competitor on the line alpha = beta (examples 1, 2 and
4b). A cell whose two signs decide its outcome is decided without its own
eigenpairs; any other cell computes both sigmas. On the bundled configs,
where r is constant, a sweep so takes one eigenpair per climb: 20 for an
11x11 sweep at n = 200 instead of 200, and 80 for a 41x41 sweep instead of
3,200. find_switch is the same climb on one row, from beta + tol.
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
from .errors import ConfigurationError, ConvergenceError, HarvestCompError
from .grid import Field, average, integrate
from .profiles import EnvironmentProfile

#: Constant initial density used for every species unless overridden.
DEFAULT_INITIAL_DENSITY = 2.1

# a climb takes 1 eigenpair on the bundled configs, where r is constant and
# sigma1 is affine in its rate, and 3-4 on random environments.
_NEWTON_CAP = 50


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
    raises the CellFailure's error with its message."""
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


def _newton_climb(eigen, env: EnvironmentProfile, start: float, stop: float, level: float,
                  r_min: float):
    """Newton's method on sigma(x) = eigen(x).sigma1, the invasion eigenvalue
    of the species dispersing by env.dispersal at its own harvesting rate x,
    from x = start toward its root.

    sigma is convex and strictly decreasing in x (see find_switch), so from
    a point where sigma > 0 each iterate stays below the root. The climb
    stops at the first point where sigma < 0, where |sigma| <= level, or
    whose Newton iterate reaches stop. It also stops at a point (x_k,
    sigma_k, s_k) with sigma_k > level whose bounds already put the
    iterate's sigma within level of 0: its tangent is 0 there and sigma lies
    above it, and sigma falls at least at the rate r_min, the minimum of
    env.r (passed in, since a sweep's climbs all share it), so
    sigma(iterate) is in [0, sigma_k - r_min * (iterate - x_k)]. Returns the
    evaluated points (x, sigma, slope), with the Hellmann-Feynman slope
    -h * sum(r * psi^2 / P) (spectral.rate_slope), and that last Newton
    iterate. Raises ConvergenceError when a fixed cap of steps does not
    stop it.
    """
    points = []
    x = start
    for _ in range(_NEWTON_CAP + 1):
        res = eigen(x)
        slope = spectral.rate_slope(res, env.r)
        points.append((x, res.sigma1, slope))
        iterate = x - res.sigma1 / slope
        if (res.sigma1 < 0 or iterate >= stop or abs(res.sigma1) <= level
                or res.sigma1 - r_min * (iterate - x) <= level):
            return points, iterate
        x = iterate
    x, sigma, _ = points[-1]
    raise ConvergenceError(
        f"switch point not resolved after {_NEWTON_CAP} Newton steps: "
        f"rate near {x:.12g}, sigma1 = {sigma:.3e}"
    )


def _certified_sign(points, x: float, r_min: float, level: float) -> int | None:
    """Sign of sigma at x that the climb's points prove: 1, -1, 0 for
    neutral, or None when they prove none. sigma is convex, so it lies above
    each tangent; its slope is at most -r_min, so it falls at least that
    fast right of each point. One pass over the points takes the largest
    tangent at x as the lower bound, and the least such fall from a point
    at or left of x as the upper bound (inf when there is none). The bounds
    come from computed sigmas, each within principal_eigen's bracket stop,
    about level / 4, of its exact value. A bound that clears 2 * level
    proves a sign of +1 or -1. Bounds within level / 2 of 0 on both sides
    prove neutral: the exact sigma then lies within 3/4 level of 0, so the
    sigma principal_eigen would return at x lies within level, which
    analysis.classify reads as neutral."""
    lower, upper = -math.inf, math.inf
    for xk, sigma, slope in points:
        lower = max(lower, sigma + slope * (x - xk))
        if xk <= x:
            upper = min(upper, sigma - r_min * (x - xk))
    if lower > 2.0 * level:
        return 1
    if upper < -2.0 * level:
        return -1
    return 0 if -level / 2 <= lower and upper <= level / 2 else None


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
    and sigma_v (see the module docstring), with a sigma within
    spectral.neutral_level of 0 neutral. A cell it does not decide (neutral
    or bistable) is a CellFailure whose message names both sigmas. So is a
    cell whose solve fails.

    The signs come from one Newton climb per beta row on sigma_u(alpha) and
    one per alpha column on sigma_v(beta), the latter on env.swapped() with
    u_alpha resident. A climb runs over the line's rates in [0, 1): it
    starts at the smallest and stops where sigma < 0, where |sigma| <=
    level, where its iterate reaches the largest, or where the bounds below
    put sigma at its iterate within level of 0 (_newton_climb). At each
    evaluated point x_k it keeps sigma_k and the slope
    s_k = -h * sum(r * psi^2 / P), which lies in [-max r, -min r] since
    h * sum(psi^2 / P) = 1. sigma is convex, so lower(x) = max_k sigma_k +
    s_k * (x - x_k) bounds it from below everywhere, and upper(x) = min
    over x_k <= x of sigma_k - min r * (x - x_k) bounds it from above. A
    node's sign is +1 where lower > 2 * level, -1 where upper <
    -2 * level, and 0 (neutral) where lower >= -level / 2 and upper <=
    level / 2; the margins cover the eigensolver's rounding, whose bracket
    stop is about level / 4 (_certified_sign). A cell's certified signs go
    to analysis.outcome_of_signs, the rule classify applies. Where it
    decides nothing, the cell computes both sigmas (eigenpairs are kept by
    rate, so a climb point on a node is not recomputed) and calls classify,
    so its outcome and message are those of computing every cell. A climb
    whose solve raises certifies nothing on its line, and each cell there
    is computed alone. Each semi-trivial state is solved at most once per
    sweep; a solve that fails fails every cell needing it with its message.
    What a sweep shares is computed once: each line's nodes (its rates in
    [0, 1), in increasing order), min r, which every climb and certificate
    reads, and HarvestRates' check of each column's and each row's rate. A
    rate that check rejects (negative or not finite) fails every cell of its
    column or row with HarvestRates' message, alpha's when both are bad; a
    cell builds its own HarvestRates only for a coexistence solve.

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

    def nodes(line) -> list:
        # the line's rates in [0, 1), in increasing order
        return sorted({x for x in line.tolist() if 0 <= x < 1})

    # per invader: its environment, the resident's branch, its neutral level
    # and the nodes of its own line; v invading is u invading env.swapped()
    sides = {"u": (env, "v", spectral.neutral_level(env), nodes(alphas)),
             "v": (env.swapped(), "u", spectral.neutral_level(env.swapped()), nodes(betas))}
    r_min = float(env.r.min())

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
    def eigen(invader: str, other: float, own: float) -> spectral.EigenResult:
        # the invader at its own rate, the resident alone at the other rate
        invader_env, resident, _, _ = sides[invader]
        return invasion_eigen(invader_env, HarvestRates(alpha=own, beta=other),
                              semitrivial(resident, other))

    @functools.cache
    def signs(invader: str, other: float) -> dict:
        # certified sign (or None) at each of the invader's rates in [0, 1),
        # none where the climb fails
        invader_env, _, level, line = sides[invader]
        try:
            points, _ = _newton_climb(functools.partial(eigen, invader, other), invader_env,
                                      line[0], line[-1], level, r_min)
        except HarvestCompError:
            return {}
        return {x: _certified_sign(points, x, r_min, level) for x in line}

    def cell(alpha: float, beta: float) -> OutcomeRecord:
        if alpha >= 1 or beta >= 1:
            outcome = (Outcome.ONLY_U if alpha < 1 else Outcome.ONLY_V if beta < 1
                       else Outcome.EXTINCTION)
        else:
            sign_u, sign_v = signs("u", beta).get(alpha), signs("v", alpha).get(beta)
            u_alpha, v_beta = semitrivial("u", alpha), semitrivial("v", beta)
            outcome = outcome_of_signs(sign_u, sign_v, env, u_alpha, v_beta)
            if outcome is None:
                outcome = classify(eigen("u", beta, alpha).sigma1,
                                   eigen("v", alpha, beta).sigma1,
                                   sides["u"][2], sides["v"][2], env, u_alpha, v_beta)
        if outcome is Outcome.COEXISTENCE:
            rates = HarvestRates(alpha=alpha, beta=beta)
            return outcome_record(outcome, *solve_coexistence(u0, v0, env, rates, cfg), env, rates)
        avg_u, yield_u = alone("u", alpha) if outcome is Outcome.ONLY_U else (0.0, 0.0)
        avg_v, yield_v = alone("v", beta) if outcome is Outcome.ONLY_V else (0.0, 0.0)
        return OutcomeRecord(outcome, avg_u, avg_v, yield_u, yield_v, alpha, beta)

    def rejected(name: str, rate: float) -> ConfigurationError | None:
        # the error HarvestRates raises for this rate, which fails every cell
        # of its column or row; checked once per column and per row
        try:
            HarvestRates(**{"alpha": 0.0, "beta": 0.0, name: rate})
        except ConfigurationError as exc:
            return exc
        return None

    columns = [(alpha, rejected("alpha", alpha)) for alpha in alphas.tolist()]
    records = []
    for beta in betas.tolist():
        row_error = rejected("beta", beta)
        row = []
        for alpha, column_error in columns:
            error = column_error or row_error
            try:
                if error is not None:
                    raise error
                row.append(cell(alpha, beta))
            except HarvestCompError as exc:
                row.append(CellFailure(alpha, beta, str(exc), type(exc)))
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
    line search is needed. It is sweep_grid's climb on one row: it stops
    once sigma1 is within spectral.neutral_level of 0 (or below 0), or once
    the last point's tangent and the slope bound -min r put sigma1 at its
    Newton iterate within that level of 0, and returns the last point's
    Newton iterate. On the bundled configs, where r is constant and sigma1
    affine, the first point stops it so. sigma1 has opposite signs at the
    two ends of the reported bracket, centred on the root, whose width is
    at most tol.

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

    points, root = _newton_climb(eigen, env, lo, hi, level, float(env.r.min()))
    sigma_lo = points[0][1]
    if sigma_lo < 0 or root >= hi:
        return None
    width = min(tol, 2.0 * (root - lo), 2.0 * (hi - root))
    return SwitchPoint(beta=beta, alpha_double_star=root, bracket_width=width)
