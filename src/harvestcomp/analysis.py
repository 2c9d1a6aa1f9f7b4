"""Coexistence/exclusion bounds, outcome classification by the invasion
criterion, and yield.

The harvested system folds into an unharvested one with rescaled growth
rate and carrying capacity; the guaranteed-coexistence threshold for the
harvesting effort on the better disperser is

    alpha_star = 1 - integral(r * v_beta) / integral(r * K)

with v_beta the single-species steady state of the competitor harvested at
rate beta. When the dispersal profiles form an ideal free pair
(K = gamma*P + delta*Q with both species' dispersal not aligned to K), the
sharper estimate

    alpha_star_ifp = 1 - integral(P * r * v_beta / K) / integral(r * P)

applies instead. alpha_star() reports both from one v_beta solve.

outcome_of_signs is the package's only outcome rule: classify applies it to
the signs of computed eigenvalues, and sweep to the signs it certifies
without eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import HarvestRates, SimulationConfig, solve_semitrivial
from .errors import ConfigurationError, HarvestCompError
from .grid import Field, average, integrate
from .operators import annihilates
from .profiles import EnvironmentProfile
from .spectral import sign

#: Largest relative misfit of K = gamma*P + delta*Q accepted as an ideal free pair.
IFP_RESIDUAL_TOL = 1e-10
#: Relative spread below which a sampled profile counts as constant.
CONSTANT_REL_TOL = 1e-12


class Outcome(Enum):
    COEXISTENCE = "coexist"
    ONLY_U = "only_u"
    ONLY_V = "only_v"
    EXTINCTION = "extinct"


#: The outcomes that the signs of (sigma_u, sigma_v) decide alone.
OUTCOME_OF_SIGNS = {(1, 1): Outcome.COEXISTENCE, (1, -1): Outcome.ONLY_U,
                    (-1, 1): Outcome.ONLY_V}


@dataclass(frozen=True)
class OutcomeRecord:
    """Outcome of one (alpha, beta) cell with the averages and harvest yields
    of the state it names: a semi-trivial state, a coexistence state, or
    none for an over-exploited species.

    resolved is always True: a cell the invasion criterion does not decide
    is a sweep.CellFailure, not a record.
    """

    outcome: Outcome
    avg_u: float
    avg_v: float
    yield_u: float
    yield_v: float
    alpha: float
    beta: float
    resolved: bool = True

    @property
    def total_yield(self) -> float:
        return self.yield_u + self.yield_v


@dataclass(frozen=True)
class HullFit:
    """Least-squares decomposition K ~ gamma*P + delta*Q, plus the
    non-proportionality facts needed to accept it as an ideal free pair."""

    gamma: float
    delta: float
    residual: float
    nonprop_u: bool  # dispersal of u does not annihilate K (P not prop. K)
    nonprop_v: bool

    def is_ideal_free_pair(self) -> bool:
        """A tiny residual, strictly positive coefficients, and neither
        dispersal profile aligned with K (otherwise a single species already
        matches the environment on its own)."""
        return (
            self.residual < IFP_RESIDUAL_TOL
            and self.gamma > 0
            and self.delta > 0
            and self.nonprop_u
            and self.nonprop_v
        )


@dataclass(frozen=True)
class BoundsReport:
    beta: float
    alpha_star: float
    alpha_star_ifp: float | None
    v_beta_star: Field = field(repr=False)

    @property
    def effective_alpha_star(self) -> float:
        """The applicable estimate: the ideal-free-pair one when valid."""
        return self.alpha_star if self.alpha_star_ifp is None else self.alpha_star_ifp

    @property
    def c_star(self) -> float:
        """c* = (1 - alpha*) / (1 - beta) of the applicable estimate."""
        return (1.0 - self.effective_alpha_star) / (1.0 - self.beta)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    applicable: bool
    margin: float | None
    holds: bool | None


@dataclass(frozen=True)
class InequalityReport:
    checks: list[InequalityCheck]
    diagnostics: dict[str, float]

    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)


def fit_convex_hull(env: EnvironmentProfile) -> HullFit:
    """Fit K = gamma*P + delta*Q by least squares. residual is the largest
    misfit relative to max |K|. The coefficients are left unconstrained: when
    they leave the open positive quadrant, the nonnegative fit of this convex
    quadratic has a zero coefficient, and is_ideal_free_pair() rejects both.

    The fit is computed once per environment: the profile is immutable, so
    the first call keeps the fit in the instance's __dict__ (as
    functools.cached_property would) and later calls return that same
    HullFit. env.swapped() is another instance, with a fit of its own."""
    fit = env.__dict__.get("_hull_fit")
    if fit is not None:
        return fit
    pair = np.column_stack([env.P, env.Q])
    gamma, delta = np.linalg.lstsq(pair, env.K, rcond=None)[0].tolist()
    resid = float(
        np.max(np.abs(env.K - gamma * env.P - delta * env.Q)) / np.max(np.abs(env.K))
    )
    fit = HullFit(
        gamma=gamma,
        delta=delta,
        residual=resid,
        nonprop_u=not annihilates(env.dispersal, env.K),
        nonprop_v=not annihilates(env.swapped().dispersal, env.K),
    )
    env.__dict__["_hull_fit"] = fit
    return fit


def detect_ideal_free_pair(env: EnvironmentProfile) -> HullFit | None:
    """Return the least-squares hull fit when it is an ideal free pair
    (HullFit.is_ideal_free_pair: a tiny misfit, both coefficients positive,
    neither dispersal aligned with K), None otherwise."""
    f = fit_convex_hull(env)
    return f if f.is_ideal_free_pair() else None


def alpha_star(beta: float, env: EnvironmentProfile, cfg: SimulationConfig) -> BoundsReport:
    """Guaranteed-coexistence harvesting bound for a fixed competitor rate.

    Solves the competitor's single-species steady state v_beta harvested at
    rate beta (0 <= beta < 1) and evaluates the bound. When the environment
    carries an ideal free pair, alpha_star_ifp holds the sharper bound from
    the same v_beta, and None otherwise; effective_alpha_star and c_star
    belong to the bound that applies.
    """
    v_beta = solve_semitrivial("v", env, beta, cfg)
    num = integrate(env.r * v_beta, env.grid)
    den = integrate(env.r * env.K, env.grid)
    ifp_value = None
    if detect_ideal_free_pair(env) is not None:
        ifp_num = integrate(env.P * env.r * v_beta / env.K, env.grid)
        ifp_value = 1.0 - ifp_num / integrate(env.r * env.P, env.grid)
    return BoundsReport(
        beta=beta,
        alpha_star=1.0 - num / den,
        alpha_star_ifp=ifp_value,
        v_beta_star=v_beta,
    )


def outcome_of_signs(
    sign_u: int | None,
    sign_v: int | None,
    env: EnvironmentProfile,
    u_alpha: Field,
    v_beta: Field,
) -> Outcome | None:
    """Outcome of one cell from the signs of its invasion eigenvalues, by the
    invasion criterion (Cantrell & Cosner, Spatial Ecology via
    Reaction-Diffusion Equations, 2003, ch. 3), or None when they decide
    nothing.

    sign_u is the sign of sigma_u, the principal eigenvalue of u invading
    (0, v_beta), and sign_v that of sigma_v, v invading (u_alpha, 0): 1, -1,
    0 for neutral, or None when it is not known. Both positive is
    coexistence, and one positive and one negative is exclusion by the
    species whose sigma is positive (OUTCOME_OF_SIGNS). When sigma_v is
    neutral, sigma_u > 0 and u_alpha is proportional to P (u's dispersal
    operator, env.dispersal, annihilates it), u is an ideal free disperser
    and excludes v (Averill, Lou & Munther, J. Biol. Dyn. 6, 2012); the same
    holds with the species exchanged (v's operator is
    env.swapped().dispersal). Any other pair, a bistable one (both
    negative, the outcome set by the initial data) included, gives None.
    """
    outcome = OUTCOME_OF_SIGNS.get((sign_u, sign_v))
    if outcome is not None:
        return outcome
    if (sign_u, sign_v) == (1, 0) and annihilates(env.dispersal, u_alpha):
        return Outcome.ONLY_U
    if (sign_u, sign_v) == (0, 1) and annihilates(env.swapped().dispersal, v_beta):
        return Outcome.ONLY_V
    return None


def classify(
    sigma_u: float,
    sigma_v: float,
    level_u: float,
    level_v: float,
    env: EnvironmentProfile,
    u_alpha: Field,
    v_beta: Field,
) -> Outcome:
    """Outcome of one cell by the invasion criterion: outcome_of_signs of
    the signs spectral.sign reads from sigma_u and sigma_v, each against its
    level (spectral.neutral_level). A cell those signs do not decide, a
    neutral or a bistable one, raises HarvestCompError naming both sigmas.
    """
    sign_u, sign_v = sign(sigma_u, level_u), sign(sigma_v, level_v)
    outcome = outcome_of_signs(sign_u, sign_v, env, u_alpha, v_beta)
    if outcome is not None:
        return outcome
    kind = "bistable" if sign_u < 0 and sign_v < 0 else "neutral"
    raise HarvestCompError(
        f"{kind} cell, not decided by the invasion criterion: sigma_u = {sigma_u:.3e}, "
        f"sigma_v = {sigma_v:.3e} (neutral within {level_u:.1e} and {level_v:.1e})"
    )


def outcome_record(
    outcome: Outcome,
    u: Field,
    v: Field,
    env: EnvironmentProfile,
    rates: HarvestRates,
) -> OutcomeRecord:
    """Record of an outcome with the averages and harvest yields of the
    state (u, v)."""
    return OutcomeRecord(
        outcome=outcome,
        avg_u=average(u, env.grid),
        avg_v=average(v, env.grid),
        yield_u=integrate(rates.alpha * env.r * u, env.grid),
        yield_v=integrate(rates.beta * env.r * v, env.grid),
        alpha=rates.alpha,
        beta=rates.beta,
    )


def invasion_potential(
    invader: str,
    resident_state: Field,
    env: EnvironmentProfile,
    rates: HarvestRates,
) -> Field:
    """Growth potential of the absent species linearized at a semi-trivial
    state: r*(1 - rate - w/K) with the invader's harvesting rate, alpha for
    u invading (0, w) and beta for v invading (w, 0)."""
    if invader not in ("u", "v"):
        raise ConfigurationError(f"invader must be 'u' or 'v', got {invader!r}")
    rate = rates.alpha if invader == "u" else rates.beta
    return env.r * (1.0 - rate - resident_state / env.K)


def inequality_suite(env: EnvironmentProfile, cfg: SimulationConfig) -> InequalityReport:
    """Evaluate the steady-state integral inequalities on the unharvested
    semi-trivial branches and report the margin of each.

    Checks (each skipped when its branch is proportional to K, where the
    steady state is K itself and the inequality degenerates to equality):

      * average below capacity:  integral(r*K) > integral(r*w)
      * dispersal-weighted excess: integral(r*R*(w/K - 1)) > 0
      * invader growth at the u-branch (ideal free pairs only):
        integral(r*Q*(1 - u*/K)) > 0
      * higher average for plain diffusion with r = K:
        integral(u*) > integral(K)
    """
    g = env.grid
    u_star = solve_semitrivial("u", env, 0.0, cfg)
    v_star = solve_semitrivial("v", env, 0.0, cfg)
    fit = fit_convex_hull(env)
    prop_u, prop_v = not fit.nonprop_u, not fit.nonprop_v

    plain_fisher = (_is_constant(env.a) and _is_constant(env.P)
                    and np.allclose(env.r, env.K, rtol=1e-12, atol=0.0))
    rK = integrate(env.r * env.K, g)
    table = (  # (name, applicable, margin) in print order
        ("u_average_below_capacity", not prop_u, rK - integrate(env.r * u_star, g)),
        ("v_average_below_capacity", not prop_v, rK - integrate(env.r * v_star, g)),
        ("u_dispersal_weighted_excess", not prop_u,
         integrate(env.r * env.P * (u_star / env.K - 1.0), g)),
        ("v_dispersal_weighted_excess", not prop_v,
         integrate(env.r * env.Q * (v_star / env.K - 1.0), g)),
        ("invader_growth_at_u_branch", fit.is_ideal_free_pair(),
         integrate(env.r * env.Q * (1.0 - u_star / env.K), g)),
        ("u_higher_average_plain_diffusion", plain_fisher and not prop_u,
         integrate(u_star, g) - integrate(env.K, g)),
    )
    checks = [
        InequalityCheck(name, applicable, float(margin) if applicable else None,
                        bool(margin > 0) if applicable else None)
        for name, applicable, margin in table
    ]

    diagnostics = {
        "K_min": float(np.min(env.K)),
        "K_max": float(np.max(env.K)),
        "v_star_min": float(np.min(v_star)),
        "v_star_max": float(np.max(v_star)),
        "K_over_P_min": float(np.min(env.K / env.P)),
        "K_over_P_max": float(np.max(env.K / env.P)),
    }
    return InequalityReport(checks=checks, diagnostics=diagnostics)


def _is_constant(f: Field) -> bool:
    return float(np.ptp(f)) <= CONSTANT_REL_TOL * float(np.max(np.abs(f)))
