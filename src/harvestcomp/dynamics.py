"""Time integration of the harvested two-species competition system.

The system on (0, L) with zero-flux boundaries:

    u_t = div[a grad(u/P)] + r*u*(1 - (u+v)/K) - alpha*r*u
    v_t = div[b grad(v/Q)] + r*v*(1 - (u+v)/K) - beta*r*v

Each step splits the dynamics: implicit Euler for dispersal (a shifted
tridiagonal solve with s = 1/dt), then an explicit multiplicative logistic
update clamped at zero. The implicit half makes dispersal unconditionally
stable; the clamp removes splitting-induced negative undershoot.

A converged fixed point of the split map solves the discrete stationary
system exactly at the post-dispersal intermediate state, which is what
solve_semitrivial returns; its residual is therefore limited by the
convergence tolerance, not by dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError, HarvestCompError, UnstableStepError
from .grid import Field, as_field
from .operators import DiffusionOperator, build_operator, shifted_solver
from .profiles import EnvironmentProfile


@dataclass(frozen=True)
class HarvestRates:
    """Harvesting efforts: the fraction of growth-rate-weighted density
    removed per unit time for each species. Values >= 1 mean
    over-exploitation and are permitted."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(v) and v >= 0):
                raise ConfigurationError(f"harvest rate {name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class TransformedParams:
    """Parameters of the equivalent unharvested system with rescaled growth
    rates and carrying capacities: c = (1-alpha)/(1-beta), r1 = 1-alpha,
    r2 = 1-beta, K1 = (1-alpha)K, K2 = (1-beta)K."""

    c: float
    r1: float
    r2: float
    K1: Field
    K2: Field


@dataclass(frozen=True)
class PopulationState:
    """Density fields of both species at one time instant.

    steady / dudt_inf record whether, and how tightly, the run that
    produced this state had settled (max-norm time derivative).
    """

    u: Field
    v: Field
    t: float
    steady: bool = False
    dudt_inf: float = math.inf


@dataclass(frozen=True)
class SimulationConfig:
    """Time stepping and classification knobs.

    The extinction threshold is extinction_fraction * average(K). An
    excluded species with a regular-diffusion strategy dies off only
    algebraically, leaving a residue of up to ~1% of the capacity average
    at t = 2000 in the benchmark environments, while the smallest genuine
    coexistence averages there sit above 2%; the default fraction splits
    the two regimes.
    """

    dt: float = 0.05
    t_final: float = 2000.0
    steady_tol: float = 1e-9
    extinction_fraction: float = 1.5e-2

    def __post_init__(self):
        for name in ("dt", "t_final", "steady_tol", "extinction_fraction"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigurationError(f"{name} must be positive, got {v}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))


def transform(alpha: float, beta: float, env: EnvironmentProfile) -> TransformedParams:
    """Fold harvesting into growth rates and carrying capacities.

    Defined for beta < 1 only; over-exploited systems must be simulated
    directly.
    """
    if beta >= 1:
        raise ConfigurationError(
            f"transformation undefined for beta = {beta} >= 1; use direct simulation"
        )
    return TransformedParams(
        c=(1.0 - alpha) / (1.0 - beta),
        r1=1.0 - alpha,
        r2=1.0 - beta,
        K1=(1.0 - alpha) * env.K,
        K2=(1.0 - beta) * env.K,
    )


def _reaction_coefficients(env: EnvironmentProfile, rates, dt: float):
    """Per-column growth dt*r*(1 - effort) of each species, as (n, m)
    Fortran-ordered arrays with one column per HarvestRates, and the shared
    crowding coefficient dt*r/K as an (n, 1) column."""
    dtr = (dt * env.r)[:, None]
    grow_u = np.asfortranarray(dtr * (1.0 - np.array([x.alpha for x in rates])))
    grow_v = np.asfortranarray(dtr * (1.0 - np.array([x.beta for x in rates])))
    return grow_u, grow_v, (dt * env.r / env.K)[:, None]


def _split_step(solve_u, solve_v, u, v, grow_u, grow_v, susc, inv_dt):
    """The reaction kernel: one split step of the (n, m) states u and v, one
    cell per column. Implicit dispersal (one multi-RHS solve per species),
    then the explicit logistic update clamped at zero. Returns the new states
    and each column's max-norm time derivative."""
    u1 = solve_u(u * inv_dt)
    v1 = solve_v(v * inv_dt)
    total = u1 + v1
    u2 = u1 * (1.0 + grow_u - susc * total)
    v2 = v1 * (1.0 + grow_v - susc * total)
    np.maximum(u2, 0.0, out=u2)
    np.maximum(v2, 0.0, out=v2)
    delta = np.maximum(np.abs(u2 - u).max(axis=0), np.abs(v2 - v).max(axis=0)) * inv_dt
    return u2, v2, delta


def step(
    state: PopulationState,
    env: EnvironmentProfile,
    rates: HarvestRates,
    ops: tuple[DiffusionOperator, DiffusionOperator],
    dt: float,
) -> PopulationState:
    """Advance one split step: implicit dispersal, explicit clamped reaction."""
    op_u, op_v = ops
    inv_dt = 1.0 / dt
    u, v, delta = _split_step(
        shifted_solver(op_u, inv_dt), shifted_solver(op_v, inv_dt),
        state.u[:, None], state.v[:, None], *_reaction_coefficients(env, [rates], dt), inv_dt,
    )
    if not np.isfinite(delta[0]):
        raise UnstableStepError(f"non-finite state after step with dt = {dt}")
    return PopulationState(u=u[:, 0], v=v[:, 0], t=state.t + dt, dudt_inf=float(delta[0]))


def march(
    u0: Field,
    v0: Field,
    env: EnvironmentProfile,
    rates: list[HarvestRates],
    cfg: SimulationConfig,
) -> list[PopulationState | HarvestCompError]:
    """run_to_time for many cells at once: one cell per HarvestRates, all
    from (u0, v0), marched in lockstep as the columns of (n, m) arrays.

    The dispersal operators do not depend on the rates, so each species is
    factored once and every step makes one multi-RHS solve per species. A
    column leaves the batch at the step where it settles; the rest run to
    cfg.t_final. Each cell's state is bitwise the one run_to_time gives.
    A cell that fails is returned as its exception: a column that turns
    non-finite fails alone, and an error that involves the whole batch
    (initial data, a factorization or a solve) fails every cell still
    running.
    """
    if not rates:
        return []
    results: list = [None] * len(rates)
    live = np.arange(len(rates))
    try:
        u = as_field(u0, env.grid)
        v = as_field(v0, env.grid)
        if np.any(u < 0) or np.any(v < 0):
            raise ConfigurationError("initial conditions must be nonnegative")
        dt = cfg.dt
        inv_dt = 1.0 / dt
        # each step solves for w/dt; test the bound instead of overflowing
        limit = np.finfo(float).max * dt
        for name, w in (("u0", u), ("v0", v)):
            if not (np.all(np.isfinite(w)) and w.max() <= limit):
                raise ConfigurationError(
                    f"initial condition {name} / dt is not finite "
                    f"(max {name} = {w.max():g}, dt = {dt})"
                )
        # looked up on the module at call time, so a wrapper installed there
        # (bench/tracer.py) sees every factorization and solve
        solve_u = shifted_solver(build_operator(env.a, env.P, env.grid), inv_dt)
        solve_v = shifted_solver(build_operator(env.b, env.Q, env.grid), inv_dt)
        grow_u, grow_v, susc = _reaction_coefficients(env, rates, dt)
        u = np.asfortranarray(np.repeat(u[:, None], len(rates), axis=1))
        v = np.asfortranarray(np.repeat(v[:, None], len(rates), axis=1))

        delta = np.full(len(rates), math.inf)
        steps = 0
        for steps in range(1, cfg.n_steps + 1):
            u, v, delta = _split_step(solve_u, solve_v, u, v, grow_u, grow_v, susc, inv_dt)
            if delta.min() >= cfg.steady_tol and delta.max() < math.inf:
                continue  # no column settled or turned non-finite (NaN fails both tests)
            failed = ~np.isfinite(delta)
            settled = delta < cfg.steady_tol
            for k in np.flatnonzero(failed):
                results[live[k]] = UnstableStepError(
                    f"non-finite state at t = {steps * dt:g} with dt = {dt}"
                )
            for k in np.flatnonzero(settled):
                results[live[k]] = PopulationState(
                    u=u[:, k].copy(), v=v[:, k].copy(), t=steps * dt, steady=True,
                    dudt_inf=float(delta[k]),
                )
            keep = ~(failed | settled)
            live = live[keep]
            u, v = np.asfortranarray(u[:, keep]), np.asfortranarray(v[:, keep])
            grow_u, grow_v = np.asfortranarray(grow_u[:, keep]), np.asfortranarray(grow_v[:, keep])
            delta = delta[keep]
            if not live.size:
                return results
        for k, cell in enumerate(live):
            results[cell] = PopulationState(
                u=u[:, k].copy(), v=v[:, k].copy(), t=steps * dt, steady=False,
                dudt_inf=float(delta[k]),
            )
    except HarvestCompError as exc:
        for cell in live:
            results[cell] = exc
    return results


def run_to_time(
    u0: Field,
    v0: Field,
    env: EnvironmentProfile,
    rates: HarvestRates,
    cfg: SimulationConfig,
) -> PopulationState:
    """March to cfg.t_final, exiting early once the max-norm time derivative
    of the state drops below cfg.steady_tol."""
    (final,) = march(u0, v0, env, [rates], cfg)
    if isinstance(final, HarvestCompError):
        raise final
    return final


def branch_dispersal(which: str, env: EnvironmentProfile) -> tuple[Field, Field]:
    """(d, R) of a species' dispersal term div[d grad(w/R)]: (a, P) for the
    u-branch, (b, Q) for the v-branch."""
    if which not in ("u", "v"):
        raise ConfigurationError(f"branch must be 'u' or 'v', got {which!r}")
    return (env.a, env.P) if which == "u" else (env.b, env.Q)


def solve_semitrivial(
    which: str,
    env: EnvironmentProfile,
    rate: float,
    cfg: SimulationConfig,
) -> Field:
    """Positive stationary solution of the single-species problem with the
    species harvested at `rate`,

        div[d grad(w/R)] + r * w * (1 - w/K) - rate * r * w = 0,

    where (d, R) is (a, P) for the u-branch and (b, Q) for the v-branch.
    transform() folds the harvest into growth (1-rate)*r and capacity
    (1-rate)*K, which needs 0 <= rate < 1. Obtained by time-marching from
    w = (1-rate)*K; returns the post-dispersal iterate, whose stationary
    residual is below cfg.steady_tol in max norm.
    """
    d_field, R = branch_dispersal(which, env)
    if rate < 0:
        raise ConfigurationError(
            f"semi-trivial {which}-branch needs a nonnegative harvesting rate, got {rate}"
        )
    if not rate < 1:  # also a NaN rate
        raise ConfigurationError(
            f"semi-trivial {which}-branch needs a harvesting rate below 1, got {rate}"
        )
    tp = transform(rate, 0.0, env) if which == "u" else transform(0.0, rate, env)
    r_scale, K_scale = (tp.r1, tp.K1) if which == "u" else (tp.r2, tp.K2)

    solve = shifted_solver(build_operator(d_field, R, env.grid), 1.0 / cfg.dt)
    inv_dt = 1.0 / cfg.dt
    rr = r_scale * env.r

    w = K_scale.copy()
    res_norm = math.inf
    for _ in range(cfg.n_steps):
        w1 = solve(w * inv_dt)
        react = rr * w1 * (1.0 - w1 / K_scale)
        residual = (w1 - w) * inv_dt + react
        res_norm = float(np.max(np.abs(residual)))
        if res_norm < cfg.steady_tol:
            return w1
        if not math.isfinite(res_norm):
            raise UnstableStepError(f"non-finite semi-trivial iterate with dt = {cfg.dt}")
        w = w1 + cfg.dt * react
        np.maximum(w, 0.0, out=w)
    raise ConvergenceError(
        f"semi-trivial {which}-branch did not settle within t = {cfg.t_final:g} "
        f"(residual {res_norm:.3e}, tolerance {cfg.steady_tol:g})"
    )
