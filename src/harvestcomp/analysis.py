"""Coexistence/exclusion bounds, outcome classification, and yield.

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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import nnls

from .dynamics import (
    HarvestRates,
    PopulationState,
    SimulationConfig,
    solve_semitrivial,
)
from .errors import ConfigurationError
from .grid import Field, average, integrate
from .operators import annihilates, build_operator
from .profiles import EnvironmentProfile

#: Largest relative misfit of K = gamma*P + delta*Q accepted as an ideal free pair.
IFP_RESIDUAL_TOL = 1e-10
#: Relative spread below which a sampled profile counts as constant.
CONSTANT_REL_TOL = 1e-12


class Outcome(Enum):
    COEXISTENCE = "coexist"
    ONLY_U = "only_u"
    ONLY_V = "only_v"
    EXTINCTION = "extinct"


@dataclass(frozen=True)
class OutcomeRecord:
    """Classified long-run result of one simulation.

    resolved is False when the run hit its time cap without settling; the
    outcome is then the time-horizon classification, not a certified limit.
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
    """Least-squares decomposition K ~ gamma*P + delta*Q with nonnegative
    coefficients, plus the non-proportionality facts needed to accept it."""

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
    c_star: float
    alpha_star: float
    alpha_star_ifp: float | None
    v_beta_star: Field = field(repr=False)

    @property
    def effective_alpha_star(self) -> float:
        """The applicable estimate: the ideal-free-pair one when valid."""
        return self.alpha_star if self.alpha_star_ifp is None else self.alpha_star_ifp


@dataclass(frozen=True)
class YieldReport:
    sy: float
    msy_reference: float


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    applicable: bool
    margin: float | None
    holds: bool | None
    detail: str


@dataclass(frozen=True)
class InequalityReport:
    checks: list[InequalityCheck]
    diagnostics: dict[str, float]

    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)


def fit_convex_hull(env: EnvironmentProfile) -> HullFit:
    """Fit K = gamma*P + delta*Q by nonnegative least squares."""
    coeffs, _ = nnls(np.column_stack([env.P, env.Q]), env.K)
    gamma, delta = float(coeffs[0]), float(coeffs[1])
    resid = float(
        np.max(np.abs(env.K - gamma * env.P - delta * env.Q)) / np.max(np.abs(env.K))
    )
    op_u = build_operator(env.a, env.P, env.grid)
    op_v = build_operator(env.b, env.Q, env.grid)
    return HullFit(
        gamma=gamma,
        delta=delta,
        residual=resid,
        nonprop_u=not annihilates(op_u, env.K),
        nonprop_v=not annihilates(op_v, env.K),
    )


def detect_ideal_free_pair(env: EnvironmentProfile) -> HullFit | None:
    """Return the hull fit when it is an ideal free pair
    (HullFit.is_ideal_free_pair), None otherwise."""
    f = fit_convex_hull(env)
    return f if f.is_ideal_free_pair() else None


def alpha_star(beta: float, env: EnvironmentProfile, cfg: SimulationConfig) -> BoundsReport:
    """Guaranteed-coexistence harvesting bound for a fixed competitor rate.

    Solves the competitor's single-species steady state v_beta harvested at
    rate beta (0 <= beta < 1) and evaluates the bound; reports the matching
    c_star = (1 - alpha_star) / (1 - beta). When the environment carries an
    ideal free pair, alpha_star_ifp holds the sharper bound from the same
    v_beta, and None otherwise.
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
        c_star=num / ((1.0 - beta) * den),
        alpha_star=1.0 - num / den,
        alpha_star_ifp=ifp_value,
        v_beta_star=v_beta,
    )


def classify(
    final: PopulationState,
    env: EnvironmentProfile,
    rates: HarvestRates,
    cfg: SimulationConfig,
) -> OutcomeRecord:
    """Classify a (near-)final state by average density against the
    extinction threshold cfg.extinction_fraction * average(K)."""
    threshold = cfg.extinction_fraction * average(env.K, env.grid)
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
    return outcome_record(outcome, final.u, final.v, env, rates, resolved=final.steady)


def outcome_record(
    outcome: Outcome,
    u: Field,
    v: Field,
    env: EnvironmentProfile,
    rates: HarvestRates,
    resolved: bool = True,
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
        resolved=resolved,
    )


def sustainable_yield(
    final: PopulationState, env: EnvironmentProfile, rates: HarvestRates
) -> YieldReport:
    """Harvest flow at the final state, next to the theoretical ceiling
    integral(r*K/4). Warns when the state is not stationary: the yield of a
    transient is not a sustainable yield."""
    if not final.steady:
        warnings.warn(
            f"state at t = {final.t:g} is not stationary "
            f"(|d/dt| = {final.dudt_inf:.2e}); reported yield is transient",
            stacklevel=2,
        )
    sy = integrate(rates.alpha * env.r * final.u, env.grid) + integrate(
        rates.beta * env.r * final.v, env.grid
    )
    return YieldReport(sy=sy, msy_reference=integrate(0.25 * env.r * env.K, env.grid))


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

    checks: list[InequalityCheck] = []

    def add(name, applicable, margin, detail):
        checks.append(
            InequalityCheck(
                name=name,
                applicable=applicable,
                margin=float(margin) if applicable else None,
                holds=bool(margin > 0) if applicable else None,
                detail=detail,
            )
        )

    rK = integrate(env.r * env.K, g)
    add(
        "u_average_below_capacity",
        not prop_u,
        rK - integrate(env.r * u_star, g),
        "integral(r*K) - integral(r*u*) > 0 on the u-branch",
    )
    add(
        "v_average_below_capacity",
        not prop_v,
        rK - integrate(env.r * v_star, g),
        "integral(r*K) - integral(r*v*) > 0 on the v-branch",
    )
    add(
        "u_dispersal_weighted_excess",
        not prop_u,
        integrate(env.r * env.P * (u_star / env.K - 1.0), g),
        "integral(r*P*(u*/K - 1)) > 0 on the u-branch",
    )
    add(
        "v_dispersal_weighted_excess",
        not prop_v,
        integrate(env.r * env.Q * (v_star / env.K - 1.0), g),
        "integral(r*Q*(v*/K - 1)) > 0 on the v-branch",
    )
    add(
        "invader_growth_at_u_branch",
        fit.is_ideal_free_pair(),
        integrate(env.r * env.Q * (1.0 - u_star / env.K), g),
        "integral(r*Q*(1 - u*/K)) > 0 for an ideal free pair",
    )
    plain_fisher = (
        _is_constant(env.a)
        and _is_constant(env.P)
        and np.allclose(env.r, env.K, rtol=1e-12, atol=0.0)
    )
    add(
        "u_higher_average_plain_diffusion",
        plain_fisher and not prop_u,
        integrate(u_star, g) - integrate(env.K, g),
        "integral(u*) > integral(K) for constant a, P with r = K",
    )

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
