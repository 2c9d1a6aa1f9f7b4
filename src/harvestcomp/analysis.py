"""Coexistence/exclusion bounds, outcome classification by the invasion
criterion, and yield.

alpha** is the largest harvesting effort on u at which u still invades
(0, v_beta), v_beta the competitor's single-species state harvested at rate
beta: sigma_u(alpha), the principal eigenvalue of u invading, changes sign
there. u's dispersal annihilates P (D P = 0), so the Rayleigh quotient of
the trial function P gives

    sigma_u(alpha) >= integral(r * P * (1 - alpha - v_beta / K)) / integral(P)

and sigma_u(alpha_P) >= 0 at

    alpha_P = 1 - integral(P * r * v_beta / K) / integral(r * P)

As sigma_u decreases in alpha, alpha_P <= alpha** in every habitat. Where
P is proportional to K, alpha_P is the paper's
1 - integral(r * v_beta) / integral(r * K). alpha_star() reports both from
one v_beta solve.

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
class BoundsReport:
    """Bounds of alpha** at one competitor rate beta, from v_beta_star.

    alpha_star is the paper's 1 - integral(r * v_beta) / integral(r * K), a
    bound only where P is proportional to K. alpha_star_ifp is alpha_P; None
    where P is proportional to K, where it equals alpha_star. Reports compare
    and hash by (beta, alpha_star, alpha_star_ifp), not by v_beta_star."""

    beta: float
    alpha_star: float
    alpha_star_ifp: float | None
    v_beta_star: Field = field(repr=False, compare=False)

    @property
    def effective_alpha_star(self) -> float:
        """alpha_P <= alpha**, in every habitat."""
        return self.alpha_star if self.alpha_star_ifp is None else self.alpha_star_ifp

    @property
    def c_star(self) -> float:
        """c* = (1 - alpha_P) / (1 - beta)."""
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


def detect_ideal_free_pair(env: EnvironmentProfile) -> tuple[float, float] | None:
    """(gamma, delta) when u and v form an ideal free pair, K = gamma*P +
    delta*Q, None otherwise. The coefficients are the least-squares fit,
    accepted when its largest misfit relative to max |K| is below
    IFP_RESIDUAL_TOL, both are positive, and neither dispersal annihilates
    K (there a single species already matches the environment on its own).
    The fit is left unconstrained: when it leaves the open positive
    quadrant, the nonnegative fit of this convex quadratic has a zero
    coefficient, and both are rejected."""
    pair = np.column_stack([env.P, env.Q])
    gamma, delta = np.linalg.lstsq(pair, env.K, rcond=None)[0].tolist()
    misfit = np.max(np.abs(env.K - gamma * env.P - delta * env.Q)) / np.max(np.abs(env.K))
    if (misfit < IFP_RESIDUAL_TOL and gamma > 0 and delta > 0
            and not annihilates(env.dispersal, env.K)
            and not annihilates(env.swapped().dispersal, env.K)):
        return gamma, delta
    return None


def alpha_star(beta: float, env: EnvironmentProfile, cfg: SimulationConfig) -> BoundsReport:
    """Lower bound alpha_P of alpha** for a fixed competitor rate.

    Solves the competitor's single-species steady state v_beta harvested at
    rate beta (0 <= beta < 1) and evaluates the paper's formula and, unless
    u's dispersal annihilates K (P proportional to K, where the two are one
    number), alpha_P from the same v_beta; effective_alpha_star and c_star
    are alpha_P's. A negative alpha_P guarantees no rate.
    """
    v_beta = solve_semitrivial("v", env, beta, cfg)
    num = integrate(env.r * v_beta, env.grid)
    den = integrate(env.r * env.K, env.grid)
    alpha_p = None
    if not annihilates(env.dispersal, env.K):
        p_num = integrate(env.P * env.r * v_beta / env.K, env.grid)
        alpha_p = 1.0 - p_num / integrate(env.r * env.P, env.grid)
    return BoundsReport(
        beta=beta,
        alpha_star=1.0 - num / den,
        alpha_star_ifp=alpha_p,
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
    env: EnvironmentProfile,
    u_alpha: Field,
    v_beta: Field,
) -> Outcome:
    """Outcome of one cell by the invasion criterion: outcome_of_signs of
    the signs spectral.sign reads from sigma_u and sigma_v, each against its
    species' rounding level, env.neutral_level for u and
    env.swapped().neutral_level for v. A cell those signs do not decide, a
    neutral or a bistable one, raises HarvestCompError naming both sigmas.
    """
    level_u, level_v = env.neutral_level, env.swapped().neutral_level
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
    prop_u = annihilates(env.dispersal, env.K)
    prop_v = annihilates(env.swapped().dispersal, env.K)

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
        ("invader_growth_at_u_branch", detect_ideal_free_pair(env) is not None,
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
