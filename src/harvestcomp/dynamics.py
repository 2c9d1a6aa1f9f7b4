"""Time integration of the harvested two-species competition system.

The system on (0, L) with zero-flux boundaries:

    u_t = div[a grad(u/P)] + r*u*(1 - (u+v)/K) - alpha*r*u
    v_t = div[b grad(v/Q)] + r*v*(1 - (u+v)/K) - beta*r*v

Each step splits the dynamics: implicit Euler for dispersal (a shifted
tridiagonal solve with s = 1/dt), then an explicit multiplicative logistic
update clamped at zero. The implicit half makes dispersal unconditionally
stable; the clamp removes splitting-induced negative undershoot.

Stationary states are not marched but solved by Newton steps, which dt and
t_final do not enter, and both stop by the one rule SimulationConfig
states: a residual relative to the state's own max. A single-species state
(solve_semitrivial) takes one LAPACK ptsv call per step on the symmetric
positive definite form of the tridiagonal solve shifted by -f'(w) per cell.
The steps run on the residual the quadratic reaction predicts,
-(r/K) dw^2, evaluating D w + f(w) in full at the start, before the step
expected to be the last and for the iterate returned. A coexistence state
(solve_coexistence) is reached by pseudo-transient continuation from given
initial data on one interleaved state (u_0, v_0, u_1, v_1, ...), each
residual one banded product and each step one LAPACK gbsv call on a
(2, 2)-banded matrix kept for the solve, whose rows it writes in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    NumericalError,
    SingularSystemError,
    UnstableStepError,
)
from .grid import Field, as_field
from .operators import _gbsv, _ptsv, amax, amin, shifted_solver
from .operators import apply as apply_operator
# not called here; bench/tracer.py wraps it under this module's name
from .operators import build_operator  # noqa: F401
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


@dataclass(frozen=True, eq=False)
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
    """Time stepping and steady-state knobs.

    dt and t_final enter only the time march (run_to_time, which simulate
    runs for its profiles). A sweep takes its outcomes from the invasion
    criterion and uses dt only to check its initial data the way the march
    does. steady_tol is the march's settling threshold on the max-norm time
    derivative. For a stationary solve it is relative: solve_semitrivial
    and solve_coexistence stop where each species s has

        max|F_s| <= max(steady_tol, level_s) * max s,

    F_s the stationary residual of s and level_s the rounding level of its
    stationary problem per unit of state (EnvironmentProfile.neutral_level
    of its branch's environment). A stop relative to the state makes the
    stationary states scale with the capacity: K -> c K takes the state to
    c times it, exactly for c a power of 2. A species dying out never meets
    the rule, and the step cap raises ConvergenceError naming it.
    """

    dt: float = 0.05
    t_final: float = 2000.0
    steady_tol: float = 1e-9

    def __post_init__(self):
        for name in ("dt", "t_final", "steady_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigurationError(f"{name} must be positive, got {v}")
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigurationError(
                f"t_final / dt is not finite (t_final = {self.t_final}, dt = {self.dt})"
            )

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))


def check_initial_data(u0: Field, v0: Field, env: EnvironmentProfile, dt: float | None = None):
    """(u0, v0) as fields on env's grid. Raises ConfigurationError naming
    the one that is negative somewhere, or not finite, or, given a march's
    dt, whose quotient by dt is not finite: each step of the march solves
    for w/dt, so the bound is tested here instead of overflowing there."""
    fields = as_field(u0, env.grid), as_field(v0, env.grid)
    limit = np.finfo(float).max * (1.0 if dt is None else dt)
    for name, w in zip(("u0", "v0"), fields):
        if np.any(w < 0):
            raise ConfigurationError(
                f"initial condition {name} must be nonnegative (min {name} = {w.min():g})"
            )
        if not (np.all(np.isfinite(w)) and w.max() <= limit):
            raise ConfigurationError(
                f"initial condition {name} is not finite (max {name} = {w.max():g})"
                if dt is None else
                f"initial condition {name} / dt is not finite "
                f"(max {name} = {w.max():g}, dt = {dt})"
            )
    return fields


def run_to_time(
    u0: Field,
    v0: Field,
    env: EnvironmentProfile,
    rates: HarvestRates,
    cfg: SimulationConfig,
) -> PopulationState:
    """March one cell from (u0, v0) to cfg.t_final, exiting early at the
    first step whose max-norm time derivative is below cfg.steady_tol. Each
    step is implicit dispersal (one solve per species, each factored once
    per march), then the explicit logistic update clamped at zero; one step
    is run_to_time with t_final = dt. Raises ConfigurationError for initial
    data check_initial_data rejects, UnstableStepError at the first step
    whose state is not finite, and SingularSystemError when a dispersal
    solve fails."""
    u, v = check_initial_data(u0, v0, env, cfg.dt)
    dt = cfg.dt
    inv_dt = 1.0 / dt
    # looked up on the module at call time, so a wrapper installed there
    # (bench/tracer.py) sees every factorization and solve
    solve_u = shifted_solver(env.dispersal, inv_dt)
    solve_v = shifted_solver(env.swapped().dispersal, inv_dt)
    dtr = dt * env.r
    grow_u, grow_v, susc = dtr * (1.0 - rates.alpha), dtr * (1.0 - rates.beta), dtr / env.K

    delta = math.inf
    steps = 0
    for steps in range(1, cfg.n_steps + 1):
        u1 = solve_u(u * inv_dt)
        v1 = solve_v(v * inv_dt)
        total = u1 + v1
        u2 = u1 * (1.0 + grow_u - susc * total)
        v2 = v1 * (1.0 + grow_v - susc * total)
        np.maximum(u2, 0.0, out=u2)
        np.maximum(v2, 0.0, out=v2)
        # np.maximum, not max: a NaN in either state makes delta NaN
        delta = float(np.maximum(amax(np.abs(u2 - u)), amax(np.abs(v2 - v))) * inv_dt)
        u, v = u2, v2
        if not math.isfinite(delta):
            raise UnstableStepError(f"non-finite state at t = {steps * dt:g} with dt = {dt}")
        if delta < cfg.steady_tol:
            break
    return PopulationState(u=u, v=v, t=steps * dt, steady=delta < cfg.steady_tol, dudt_inf=delta)


# Newton takes 0-6 steps on the bundled configs at n = 800 (40 rates in
# [0, 0.975] per branch; 0-5 with a = b = 1, 0-6 with a = b = 0.01 and 0-4
# with a = b = 1e-4). From far above the branch it only halves the excess
# per step, so a capacity spanning tens of decades can need more than the
# cap, which then ends the solve.
_NEWTON_CAP = 50


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised by name below
def solve_semitrivial(
    which: str,
    env: EnvironmentProfile,
    rate: float,
    cfg: SimulationConfig,
) -> Field:
    """Positive stationary solution of the single-species problem with the
    species harvested at `rate`,

        div[d grad(w/R)] + r * w * (1 - w/K) - rate * r * w = 0,

    where (d, R) is (a, P) for the u-branch. The v-branch is the u-branch
    of env.swapped(), so (b, Q) enters only through that swap. The harvest
    folds into growth (1-rate)*r and capacity (1-rate)*K, which needs
    0 <= rate < 1. Solved by Newton's method from w = (1-rate)*K. The
    Jacobian there is D - (1-rate)*r, which is nonsingular; the reaction
    is concave, so every iterate after the first lies at or above the
    positive branch and decreases monotonically to it. At each such
    iterate -J is positive definite in the 1/R-weighted inner product, and
    each step is one ptsv call on its symmetric form
    (operators.EigenInvariants).

    Each step solves J dw = -F(w), so the residual at w + dw is
    F(w) + J dw - (r/K) dw^2 = -(r/K) dw^2 (r and K folded as above) up to
    the solve's rounding, and the step predicts it. D w + f(w) is evaluated
    in full at the start, before the step expected to be the last, after a
    step outside Newton's quadratic regime, and to confirm an iterate the
    prediction accepts. On the bundled configs the steps are those of
    evaluating every iterate; the switch point's solve (example1,
    n = 800) evaluates 3 of its 6 iterates.

    Returns the first iterate whose stationary residual F, evaluated in max
    norm, meets SimulationConfig's stopping rule (strictly), max|F| <
    max(cfg.steady_tol, env.neutral_level) * max w, env the branch's
    environment; where the evaluation rejects an iterate the prediction
    accepted, Newton goes on from the evaluated residual. That bounds the
    error relative to the discrete state w*. With r and K as given (r/K is
    the same folded or not), F(w) = (A - diag(r w/K)) (w - w*) for
    A = D + diag((1-rate)*r - r w*/K), where A w* = 0 and A's off-diagonal
    entries are nonnegative; so at the cell where |w - w*| / w* is largest,
    |w - w*| is at most |F| / (r w/K) there, and

        max |w - w*| / w* <= max|F| / min(r w w* / K).

    Near rate 1, where w is about (1-rate)*K, that is about
    max(steady_tol, level) * max K / ((1-rate) * min(r K)). On the bundled
    configs at n = 800 (a = b as bundled and 0.01), against solves with
    steady_tol = 1e-300, the relative error is at most 3e-8 at rates up to
    0.99, 7e-6 at 1 - 1e-4 and 3.3e-4 at 1 - 1e-6. cfg.dt and cfg.t_final do not
    enter. Raises ConvergenceError, naming the branch with its relative
    residual and its max, when a fixed cap of Newton steps does not get
    there, UnstableStepError at a non-finite residual, and
    SingularSystemError, naming the branch and the rate, when a step's -J
    does not factor as positive definite.
    """
    if which not in ("u", "v"):
        raise ConfigurationError(f"branch must be 'u' or 'v', got {which!r}")
    if rate < 0:
        raise ConfigurationError(
            f"semi-trivial {which}-branch needs a nonnegative harvesting rate, got {rate}"
        )
    if not rate < 1:  # also a NaN rate
        raise ConfigurationError(
            f"semi-trivial {which}-branch needs a harvesting rate below 1, got {rate}"
        )
    if which == "v":
        env = env.swapped()

    op = env.dispersal
    _, neg_off, sqrt_R, _ = op.eigen_invariants
    rr = (1.0 - rate) * env.r
    K_scale = (1.0 - rate) * env.K
    crowd = rr / K_scale
    crowd2 = 2.0 * crowd
    neg_crowd = -crowd
    shift = rr + op.diag
    level = max(cfg.steady_tol, env.neutral_level)

    def evaluated(w):
        residual = apply_operator(op, w) + w * (rr - crowd * w)
        return residual, amax(np.abs(residual))

    w = K_scale
    residual, res_norm = evaluated(w)
    predicted = False
    before = last = 0.0  # the residual norms of the two iterates before w
    for steps in range(_NEWTON_CAP + 1):
        # the iterates are positive, so max w is max|w|
        top = amax(w)
        tol = level * top
        # A predicted residual is evaluated in full: below tol, to confirm
        # it; where the next one, extrapolated quadratically as
        # res_norm^3 / last^2, is below tol, so that the step expected to
        # end the solve starts from an evaluated residual and corrects the
        # solves' rounding that the predictions leave out; and where it
        # shrank no faster than at the step before, outside Newton's
        # quadratic regime, where that rounding would build up over many
        # steps. (Products, not float powers, which raise on overflow.)
        if predicted and (res_norm < tol or res_norm * res_norm * res_norm < tol * last * last
                          or res_norm * before >= last * last):
            residual, res_norm = evaluated(w)
            predicted = False
        if res_norm < tol:
            return w
        if not math.isfinite(res_norm):
            raise UnstableStepError(f"non-finite semi-trivial {which}-branch Newton iterate")
        if steps == _NEWTON_CAP:
            break
        before, last = last, res_norm
        # J dw = -F with J = D + diag(rr - 2 (rr/K) w), i.e. (diag(s) - D) dw = F
        # for s = 2 (rr/K) w - rr, solved in the symmetric form: ptsv's
        # diagonal is s - diag(D)
        _, _, z, info = _ptsv(crowd2 * w - shift, neg_off, residual / sqrt_R,
                              overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise SingularSystemError(
                f"semi-trivial {which}-branch Newton step at rate {rate} is singular "
                f"(row {info})"
            )
        dw = np.multiply(sqrt_R, z, out=z)
        w = w + dw
        # F(w + dw) = F(w) + J dw - (rr/K) dw^2 and J dw = -F(w), so the
        # residual at w + dw is -(rr/K) dw^2 up to the solve's rounding: it
        # is <= 0, and its largest magnitude is minus its minimum
        residual = neg_crowd * dw
        residual *= dw
        res_norm = -amin(residual)
        predicted = True
    raise ConvergenceError(
        f"semi-trivial {which}-branch did not converge in {_NEWTON_CAP} Newton steps "
        f"({which}: relative residual {res_norm / top:.3e} "
        f"above {level:.3e}, max {which} = {top:.3e})"
    )


# Pseudo-transient continuation takes at most 16 steps in the coexistence
# cells of 21x21 sweeps of the bundled configs (n = 200 and 800, a = b = 1
# and 0.01). A capacity spanning tens of decades makes the late steps shrink
# the residual only fourfold each, and the cap, rejected steps included,
# then ends the solve.
_PTC_CAP = 50


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised by name below
def solve_coexistence(
    u0: Field,
    v0: Field,
    env: EnvironmentProfile,
    rates: HarvestRates,
    cfg: SimulationConfig,
) -> tuple[Field, Field]:
    """Stationary state (u, v) of the harvested two-species system, positive
    in both species, reached from (u0, v0) by pseudo-transient continuation
    (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998).

    Each step is one implicit Euler step of pseudo-time tau made by one
    Newton solve, (I/tau - J) dw = F(w) with F the right-hand side of the
    system. Short steps follow the march from (u0, v0) to the state it
    settles at, where a Newton iteration started cold can reach the
    unstable (0, v_beta). tau starts at the logistic time scale 1/max r and
    is multiplied by the ratio of the previous residual to the new one, so
    the steps become Newton steps as the residual falls. A step that would
    make a density negative (either species' minimum below 0) is retried
    with tau quartered.

    The solve holds one interleaved state w, u = w[0::2] and v = w[1::2],
    so the matrix is banded (2, 2): the dispersal bands at +-2, built once
    per solve, and the u-v coupling at +-1. F(w) = D w + w * g, with g the
    growth rate less the crowding of both species, and each step writes the
    diagonal (from that g) and the coupling rows into the band in place.
    Per entry these are the operations of u and v taken apart, in the same
    order.

    Stops by SimulationConfig's rule for both species, level_u =
    env.neutral_level and level_v = env.swapped().neutral_level: each is
    accurate relative to its own size. An absent species (F_s = 0) passes,
    and the positivity check names it. cfg.dt and cfg.t_final do not enter.
    Raises ConfigurationError for initial data check_initial_data rejects
    without a dt (negative or not finite), before any step;
    ConvergenceError at a fixed cap of steps, naming each failing species
    (one dying out always fails) with its relative residual and its max;
    UnstableStepError at a non-finite residual; and NumericalError when the
    state reached is not positive in both species.
    """
    def interleaved(x_u, x_v):
        # the order u_0, v_0, u_1, v_1, ... of the state
        x = np.empty(2 * env.grid.n_cells)
        x[0::2], x[1::2] = x_u, x_v
        return x

    w = interleaved(*check_initial_data(u0, v0, env))
    op_u, op_v = env.dispersal, env.swapped().dispersal
    # D of the interleaved state: each species' three bands, two apart
    sub, diag, sup = (interleaved(getattr(op_u, k), getattr(op_v, k))
                      for k in ("sub", "diag", "sup"))
    # the growth rates of u and v, one row per cell
    grow = interleaved(env.r * (1.0 - rates.alpha), env.r * (1.0 - rates.beta)).reshape(-1, 2)
    susc = env.r / env.K
    susc_w = np.repeat(susc, 2)
    tols = [max(cfg.steady_tol, e.neutral_level) for e in (env, env.swapped())]

    def unsettled(w, F):
        # failing species as (name, residual, max, tol): a product, so an absent one passes
        species = ((name, amax(np.abs(F[k::2])), amax(w[k::2]), tols[k])
                   for k, name in enumerate("uv"))
        return [(name, res, top, tol) for name, res, top, tol in species if not res <= tol * top]

    # gbsv's band of (I/tau - J), kept for the solve: row 4 - k holds
    # diagonal k, so rows 2 and 6 the dispersal bands at +-2, rows 3 and 5
    # the u-v coupling at +-1 (one entry per cell) and row 4 the diagonal.
    # Rows 0-1 are the LU's fill-in workspace (LAPACK sets them). The LU
    # overwrites rows 2-6, so each step copies rows 2 and 6 from `outer` and
    # writes rows 3-5 in place. Fortran order, so f2py passes it without a
    # copy.
    outer = np.zeros((2, len(w)))
    outer[0, 2:], outer[1, :-2] = -sup[:-2], -sub[2:]
    band = np.empty((7, len(w)), order="F")

    def residual(w):
        # F = D w + w * g, with g the growth rate less crowd = susc * (u + v)
        g = (grow - (susc * (w[0::2] + w[1::2]))[:, None]).ravel()
        F = diag * w
        F[:-2] += sup[:-2] * w[2:]
        F[2:] += sub[2:] * w[:-2]
        F += w * g
        return F, amax(np.abs(F)), g

    F, res, g = residual(w)
    tau = 1.0 / amax(env.r)
    for steps in range(_PTC_CAP + 1):
        # implied by both species' tests, and a third of their cost
        if res <= max(tols) * amax(w) and not unsettled(w, F):
            break
        if not math.isfinite(res):
            raise UnstableStepError("non-finite coexistence iterate")
        if steps == _PTC_CAP:
            named = "; ".join(
                f"{name}: relative residual {res_s / top if top > 0 else math.inf:.3e} "
                f"above {tol_s:.3e}, max {name} = {top:.3e}"
                for name, res_s, top, tol_s in unsettled(w, F))
            raise ConvergenceError(f"coexistence state did not converge in {_PTC_CAP} "
                                   f"pseudo-transient steps ({named})")
        # gbsv gets no finiteness check (solve_banded's check_finite): a
        # non-finite residual raised above, and the band and F are built
        # from that same finite state
        coupling = susc_w * w
        band[2], band[6] = outer
        np.subtract(1.0 / tau - diag, g - coupling, out=band[4])
        band[3, 0::2], band[3, 1::2] = 0.0, coupling[0::2]
        band[5, 0::2], band[5, 1::2] = coupling[1::2], 0.0
        # F is not overwritten: a rejected step solves again with it
        _, _, dw, info = _gbsv(2, 2, band, F, overwrite_ab=1)
        if info > 0:
            raise SingularSystemError(f"pseudo-transient step with tau = {tau:g}: singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
        w1 = w + dw
        # per species: a NaN in one does not hide a negative density in the other
        if amin(w1[0::2]) < 0 or amin(w1[1::2]) < 0:
            tau *= 0.25
            continue
        F1, res1, g = residual(w1)
        tau *= res / max(res1, np.finfo(float).tiny)
        w, F, res = w1, F1, res1
    u, v = w[0::2].copy(), w[1::2].copy()
    for name, x in (("u", u), ("v", v)):
        if not amin(x) > 0:
            raise NumericalError(f"stationary state reached from (u0, v0) is not a "
                                 f"coexistence state: min {name} = {amin(x):g}")
    return u, v
