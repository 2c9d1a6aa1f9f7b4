"""Principal eigenvalue of the linearization around semi-trivial states.

The eigenproblem  D psi + q * psi = sigma * psi  (D the dispersal operator
built on profile R, q the growth potential) is self-adjoint in the inner
product weighted by 1/R. Substituting phi = psi / sqrt(R) turns it into a
symmetric tridiagonal problem H phi = sigma phi with a positive
off-diagonal, so H + c*I is nonnegative and irreducible for large c and
its largest eigenpair is the Perron pair.

That pair is found by Noda's inverse iteration (T. Noda, Numer. Math. 17
(1971) 382-386). For a positive phi the Collatz-Wielandt ratios
(H phi)_i / phi_i bracket sigma1: their minimum lo and maximum hi satisfy
lo <= sigma1 <= hi. Each step shifts to hi and solves (hi*I - H) y = phi by
one LAPACK ptsv call (the pttrf factorization and pttrs solve). hi*I - H is
a positive definite M-matrix, so the substitutions only add positive
terms and y is strictly positive by construction. Its ratios are
hi - phi_i / y_i, since (H y)_i = hi * y_i - phi_i. The next phi is y
scaled by the smallest phi_i / y_i: it keeps its value in that cell and
grows in none, so it cannot overflow, and no step normalizes it. The
bracket closes superlinearly from phi = sqrt(R), which is the exact
kernel vector when q = 0; the iteration stops when it is narrower than the
rounding level eps * gershgorin(H) of a ratio. The Rayleigh quotient and
the residual are taken on the last phi as it stands, dividing once by
phi . phi, with H phi in units of a power of two near that level so that
neither product overflows; psi and the residual are computed when first
read.

Of H, the off-diagonal, the start sqrt(R) and the start's ratios for
q = 0, (D R)/R, depend on the operator alone. They are computed once per
operator (DiffusionOperator.eigen_invariants) and shared by every
eigenpair on it; a call pays for the diagonal D_ii + q_i, its row sums
and the Noda steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .grid import Field, as_field
from .operators import ROUNDING_FLOOR, DiffusionOperator, _ptsv, amax, amin
from .profiles import EnvironmentProfile

# Noda takes 0-6 steps on the bundled configs and 0-7 with a = b down to
# 1e-4, at n = 200 to 3200.
_NODA_CAP = 50


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenpair: psi is positive and normalized so that the
    quadrature of psi^2 / R equals one. iterations counts the Noda steps
    (shifted solves) taken; 0 means the start sqrt(R) already closed the
    Collatz-Wielandt bracket. [lo, hi] is the last bracket: lo <= sigma1 <=
    hi up to the rounding eps * gershgorin(H) of a ratio, and hi - lo is
    below that width unless the iteration ended because hi*I - H no longer
    factored, which puts sigma1 within that width of hi. psi and residual,
    the Euclidean norm of H phi - sigma1 phi for the unit vector phi = psi /
    sqrt(R) up to scale, are computed when first read."""

    sigma1: float
    iterations: int
    lo: float
    hi: float
    # the last phi, phi . phi, and H phi in units of the power of two unit
    _phi: np.ndarray = field(repr=False, compare=False)
    _norm2: float = field(repr=False, compare=False)
    _h_phi: np.ndarray = field(repr=False, compare=False)
    _unit: float = field(repr=False, compare=False)
    # sqrt(R) and the cell width, which scale phi to psi
    _sqrt_R: np.ndarray = field(repr=False, compare=False)
    _h: float = field(repr=False, compare=False)

    @cached_property
    def psi(self) -> Field:
        return self._phi * self._sqrt_R / math.sqrt(self._norm2 * self._h)

    @cached_property
    def residual(self) -> float:
        # in units of unit, exactly, so that the squares stay finite
        r = self._h_phi - (self.sigma1 / self._unit) * self._phi
        return self._unit * math.sqrt(float(r @ r) / self._norm2)


def principal_eigen(op: DiffusionOperator, potential: Field, R: Field) -> EigenResult:
    """Largest eigenvalue and positive eigenfunction of D + diag(potential).

    R must be the dispersal profile the operator was built with; it defines
    the weighted inner product and the eigenfunction normalization. The
    potential must be finite. Noda's iteration runs from phi = sqrt(R) on
    the symmetrized H and stops once its Collatz-Wielandt bracket
    [lo, hi] is narrower than eps * gershgorin(H), or once hi*I - H no
    longer factors as positive definite, which proves sigma1 >= hi - that
    width. sigma1 is the Rayleigh quotient of the last phi, a weighted mean
    of its ratios and so inside the bracket, which is returned as lo and
    hi; on the second exit it is raised to hi - that width if it is below.
    Raises ConvergenceError, naming the bracket, when a fixed cap of steps
    does not close it.

    The off-diagonal of H, sqrt(R) and the ratios (D R)/R depend on the
    operator alone and are read from op.eigen_invariants, computed on the
    operator's first eigenpair; each call computes only what involves its
    potential.
    """
    if R is not op.P and not np.array_equal(as_field(R, op.grid), op.P):
        raise ConfigurationError("R must be the dispersal profile of the operator")
    potential = as_field(potential, op.grid)
    off, neg_off, sqrt_R, kernel_ratio = op.eigen_invariants
    phi = sqrt_R
    # the Collatz-Wielandt ratios (H phi)_i / phi_i of phi = sqrt(R) are
    # q_i + (D R)_i / R_i, and D R = 0 up to rounding
    ratio = potential + kernel_ratio
    lo, hi = amin(ratio), amax(ratio)
    # a potential that is not finite makes the bracket so
    if not (math.isfinite(lo) and math.isfinite(hi)) and not np.isfinite(potential).all():
        raise ConfigurationError("potential must be finite in every cell")

    # H = S^-1 (D + diag(q)) S with S = diag(sqrt(R))
    diag = op.diag + potential
    row = np.abs(diag)
    row[:-1] += off
    row[1:] += off
    stop = sys.float_info.epsilon * amax(row)
    floor = -math.inf  # sigma1 is at least this
    shifted, shrink = row, ratio  # spent: the Noda steps' work arrays
    steps = 0
    while not hi - lo <= stop:  # a NaN bracket runs on to the cap
        if steps == _NODA_CAP:
            raise ConvergenceError(
                f"principal eigenvalue not resolved after {steps} Noda steps: "
                f"sigma1 in [{lo:.12g}, {hi:.12g}]"
            )
        np.subtract(hi, diag, out=shifted)
        _, _, y, info = _ptsv(shifted, neg_off, phi, overwrite_d=1)
        if info != 0:  # hi*I - H is not positive definite to rounding
            floor = hi - stop
            break
        # (H y)_i = hi * y_i - phi_i, so the ratios of y are hi - phi_i / y_i
        np.divide(phi, y, out=shrink)
        smin = amin(shrink)
        lo, hi = hi - amax(shrink), hi - smin
        # smin * y_i <= phi_i in every cell, so the iterates never grow
        phi = np.multiply(y, smin, out=y)
        steps += 1

    h_phi = diag * phi
    h_phi[:-1] += off * phi[1:]
    h_phi[1:] += off * phi[:-1]
    unit = math.ldexp(1.0, math.frexp(stop)[1])  # a power of two above the stop width
    h_phi /= unit  # exactly, and so that phi . h_phi stays finite
    norm2 = float(phi @ phi)
    sigma1 = max(unit * (float(phi @ h_phi) / norm2), floor)
    return EigenResult(sigma1=sigma1, iterations=steps, lo=lo, hi=hi, _phi=phi,
                       _norm2=norm2, _h_phi=h_phi, _unit=unit, _sqrt_R=sqrt_R, _h=op.grid.h)


def rate_slope(res: EigenResult, r: Field) -> float:
    """d sigma1 / dx of D + diag(q - x * r) at res, the eigenpair of
    D + diag(q): -h * sum(r * psi^2 / R), psi normalized as in EigenResult
    (Hellmann-Feynman). On the symmetric form that is
    -(phi . r phi) / (phi . phi) for the last phi as it stands, so psi is
    not formed; a phi^2-weighted mean of -r, it lies in [-max r, -min r]."""
    phi = res._phi
    return -float(r @ (phi * phi)) / res._norm2


def neutral_level(env: EnvironmentProfile) -> float:
    """ROUNDING_FLOOR * eps * (D.gershgorin + max r), D = env.dispersal: the
    rounding level of u's stationary problem per unit of state (pass
    env.swapped() for v's). A sigma within it of 0 is neutral; the
    stationary solves stop at it times max|w| (dynamics). On the bundled
    configs at n = 200, 240 and 800 and rates in [0, 0.95], zero sigmas sit
    within 0.011 times eps * (D.gershgorin + max r) and every other |sigma|
    beyond 1.75e6 times it. principal_eigen's bracket stop, eps *
    gershgorin(H), is about a quarter of the level."""
    return ROUNDING_FLOOR * sys.float_info.epsilon * (env.dispersal.gershgorin + amax(env.r))


def sign(sigma: float, level: float) -> int:
    """1 when sigma > level, -1 when sigma < -level, and 0 (neutral) otherwise,
    a NaN sigma included."""
    return (sigma > level) - (sigma < -level)

