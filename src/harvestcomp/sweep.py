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
alpha**(beta); likewise sigma_v across an alpha column, at beta_v(alpha).
One Newton climb per row and per column runs from rate 0 toward 1 and stops
on that root, or where its iterate reaches 1; SweepGrid keeps the roots as
the two switch curves; find_switch is the same climb on one row. The points
a climb evaluates bound sigma at every other rate: from below by their
tangents, and from above by the slope bound -min r. The bounds prove a sign
of +1 or -1 where they clear 0, and a neutral sign where both lie within
half the neutral level of 0 (sweep_grid states the bounds). A neutral sign
is what an ideal free disperser leaves its competitor on the line alpha =
beta (examples 1, 2 and 4b). A cell whose two signs decide its outcome is
decided without its own eigenpairs; any other cell computes both sigmas. On
the bundled configs, where r is constant, a sweep so takes one eigenpair per
climb: 20 for an 11x11 sweep at n = 200 instead of 200, and 80 for a 41x41
sweep instead of 3,200.
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
from .errors import ConvergenceError, HarvestCompError
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
    """alpha**(beta), the climb's root, and [lo, hi], a bracket on the exact
    root that the climb's last eigenpair proves (find_switch)."""

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
    beta_v(alphas[j]), that of sigma_v on that column: each its line's
    Climb.root, so None where sigma < -level at rate 0 or an iterate
    reaches 1, and None where the line has no climb (its own rate >= 1, or
    the climb raised)."""

    alphas: np.ndarray
    betas: np.ndarray
    records: list
    switch_u: list
    switch_v: list

    def failures(self) -> list[CellFailure]:
        return [c for row in self.records for c in row if isinstance(c, CellFailure)]


@dataclass(frozen=True)
class Climb:
    """A Newton climb (_newton_climb): the points (x, sigma, slope) it
    evaluated, in order, the root it stopped on, or None, and the eigenpair
    of its last point, or None where it has no points."""

    points: tuple
    root: float | None
    last: spectral.EigenResult | None = field(default=None, compare=False, repr=False)


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


def _newton_climb(eigen, env: EnvironmentProfile, start: float) -> Climb:
    """Newton's method on sigma(x) = eigen(x).sigma1, the invasion eigenvalue
    of the species dispersing by env.dispersal at its own harvesting rate x,
    from x = start toward its root, the rate where sigma changes sign.

    sigma is convex and strictly decreasing in x (see the module docstring),
    so from a point where sigma > 0 each iterate stays below the root. With
    level = env.neutral_level, a start where sigma <= level stops the climb:
    its root is start where |sigma| <= level, and None where sigma < -level.
    Each later point (x_k, sigma_k, s_k) stops it with its Newton iterate as
    the root when sigma_k <= level, or when its bounds already put the
    iterate's sigma within level of 0: its tangent is 0 there and sigma lies
    above it, and sigma falls at least at the rate r_min, the minimum of
    env.r, so sigma(iterate) is in [0, sigma_k - r_min * (iterate - x_k)].
    An iterate that reaches 1 stops it with root None. Raises
    ConvergenceError when a fixed cap of steps does not stop it.
    """
    level, r_min = env.neutral_level, float(env.r.min())
    points, x = [], start
    for _ in range(_NEWTON_CAP + 1):
        res = eigen(x)
        sigma, slope = res.sigma1, spectral.rate_slope(res, env.r)
        points.append((x, sigma, slope))
        iterate = x - sigma / slope
        if len(points) == 1 and sigma <= level:
            return Climb(tuple(points), start if sigma >= -level else None, res)
        if iterate >= 1.0:
            return Climb(tuple(points), None, res)
        if sigma <= level or sigma - r_min * (iterate - x) <= level:
            return Climb(tuple(points), iterate, res)
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
    and sigma_v (see the module docstring), with a sigma within its
    species' rounding level of 0 neutral: env.neutral_level for u and
    env.swapped().neutral_level for v, each climb's level. A cell it does
    not decide (neutral or bistable) is a CellFailure whose message names
    both sigmas. So is a cell whose solve fails.

    The signs come from one Newton climb per beta row on sigma_u(alpha) and
    one per alpha column on sigma_v(beta), the latter on env.swapped() with
    u_alpha resident. Every climb starts at rate 0 and runs toward 1
    (_newton_climb): it stops on the line's root, its entry of
    SweepGrid.switch_u or switch_v, or where its iterate reaches 1.
    The points it evaluates bound sigma at each node: from below by their
    tangents, sigma being convex, and from above by a fall at least at the
    rate min r right of each (spectral.rate_slope). Bounds that clear
    2 * level prove a sign of +1 or -1, and bounds within level / 2 of 0
    prove it neutral; the margins cover the eigensolver's rounding
    (_certified_sign). A cell's certified signs go to
    analysis.outcome_of_signs, the rule classify applies. Where it decides
    nothing, the cell computes both sigmas (eigenpairs are kept by rate, so
    a climb point on a node is not recomputed) and calls classify, so its
    outcome and message are those of computing every cell. A climb whose
    solve raises certifies nothing on its line, and each cell there is
    computed alone. Each semi-trivial state is solved at most once per
    sweep; a solve that fails fails every cell needing it with its message.

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
        invader_env, resident = sides[invader]
        return invasion_eigen(invader_env, HarvestRates(alpha=own, beta=other),
                              semitrivial(resident, other))

    @functools.cache
    def climb(invader: str, other: float) -> Climb:
        # the climb along the invader's line at the other's rate, or one
        # with no points and no root where the line has none (see SweepGrid)
        if other < 1:
            try:
                return _newton_climb(functools.partial(eigen, invader, other),
                                     sides[invader][0], 0.0)
            except HarvestCompError:
                pass
        return Climb((), None)

    def cell(alpha: float, beta: float) -> OutcomeRecord:
        if alpha >= 1 or beta >= 1:
            outcome = (Outcome.ONLY_U if alpha < 1 else Outcome.ONLY_V if beta < 1
                       else Outcome.EXTINCTION)
        else:
            sign_u = _certified_sign(climb("u", beta).points, alpha, r_min, env.neutral_level)
            sign_v = _certified_sign(climb("v", alpha).points, beta, r_min,
                                     env.swapped().neutral_level)
            u_alpha, v_beta = semitrivial("u", alpha), semitrivial("v", beta)
            outcome = outcome_of_signs(sign_u, sign_v, env, u_alpha, v_beta)
            if outcome is None:
                outcome = classify(eigen("u", beta, alpha).sigma1,
                                   eigen("v", alpha, beta).sigma1, env, u_alpha, v_beta)
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
                     switch_u=[climb("u", beta).root for beta in betas.tolist()],
                     switch_v=[climb("v", alpha).root for alpha in columns])


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
    principal eigenvalue of u invading (0, v_beta), that _newton_climb finds
    from alpha = 0, as a sweep row finds SweepGrid.switch_u (its docstring
    says why and when it stops). None where the climb finds no root:
    sigma1 < -env.neutral_level at alpha = 0, where u does not invade even
    unharvested, or an iterate reaches 1. A neutral sigma1 at alpha = 0
    gives alpha** = 0.

    [lo, hi] is the bracket on the exact root that the climb's last
    eigenpair proves. The root lies above that eigenpair's Rayleigh bound,
    its Newton iterate, which is alpha** unless the climb stopped at a
    neutral start, and below its Collatz-Wielandt bound
    (spectral.root_above). Each end is widened by w = env.neutral_level /
    min r, the furthest a sigma1 within the neutral level of its exact
    value moves a root when sigma1 falls at least at the rate min r:
    [max(0, alpha** - w), root_above + w]. Where r vanishes on a cell, that
    cell's ratio does not fall in alpha, so no Collatz-Wielandt bound exists
    and hi is inf; the Newton iterate is still a tangent bound, and w is
    env.neutral_level over its slope's magnitude. tol, u0 and v0 are
    accepted for call compatibility and unused; initial data do not enter
    the invasion criterion.
    """
    return _switch_point(beta, env, solve_semitrivial("v", env, beta, cfg))


def _switch_point(beta: float, env: EnvironmentProfile, v_beta: Field) -> SwitchPoint | None:
    """find_switch on v_beta, v alone at rate beta, already solved."""

    def eigen(alpha: float) -> spectral.EigenResult:
        return invasion_eigen(env, HarvestRates(alpha=alpha, beta=beta), v_beta)

    climb = _newton_climb(eigen, env, 0.0)
    if climb.root is None:
        return None
    r_min = float(env.r.min())
    x, _, slope = climb.points[-1]
    if r_min > 0:
        w = env.neutral_level / r_min
        hi = spectral.root_above(climb.last, env.r, x) + w
    else:  # the ratio on an r = 0 cell does not fall in alpha: no bound above
        w, hi = env.neutral_level / -slope, math.inf
    return SwitchPoint(beta=beta, alpha_double_star=climb.root, lo=max(0.0, climb.root - w),
                       hi=hi)
