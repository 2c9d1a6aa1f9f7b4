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

Given a nonnegative weight w, the same loop solves the pencil: sigma1 is
the largest mu for which H - mu W is singular, W = diag(w). The ratios
(H phi)_i / (w_i phi_i), taken where w_i > 0, bracket it; each step solves
(hi W - H) y = W phi, so the ratios of y are again hi - phi_i / y_i, and a
cell where w_i = 0 satisfies its own row (H y)_i = 0: the ratios are those
of the problem with those cells eliminated, which is never formed. sigma1
is the Rayleigh quotient (phi . H phi) / (phi . W phi), at most the exact
one. The rate at which an invasion eigenvalue vanishes is this eigenvalue
with weight r (sweep.switch_eigen).

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
from .operators import DiffusionOperator, _ptsv, amax, amin

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
    the Euclidean norm of H phi - sigma1 phi (H phi - sigma1 W phi for a
    pencil) for the unit vector phi = psi / sqrt(R) up to scale, are
    computed when first read."""

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
    # the pencil's weight, None for the identity
    _weight: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def psi(self) -> Field:
        return self._phi * self._sqrt_R / math.sqrt(self._norm2 * self._h)

    @cached_property
    def residual(self) -> float:
        # in units of unit, exactly, so that the squares stay finite
        w_phi = self._phi if self._weight is None else self._weight * self._phi
        r = self._h_phi - (self.sigma1 / self._unit) * w_phi
        return self._unit * math.sqrt(float(r @ r) / self._norm2)


def principal_eigen(op: DiffusionOperator, potential: Field, R: Field,
                    weight: Field | None = None) -> EigenResult:
    """Largest eigenvalue and positive eigenfunction of D + diag(potential),
    or, given a weight w, of the pencil D + diag(potential) - mu * diag(w).

    R must be the dispersal profile the operator was built with; it defines
    the weighted inner product and the eigenfunction normalization. The
    potential must be finite. Noda's iteration runs from phi = sqrt(R) on
    the symmetrized H and stops once its Collatz-Wielandt bracket
    [lo, hi] is narrower than eps * gershgorin(H), or once hi*I - H no
    longer factors as positive definite, which proves sigma1 >= hi - that
    width. sigma1 is the Rayleigh quotient of the last phi; the bracket is
    returned as lo and hi, and holds sigma1 only up to that width
    eps * gershgorin(H) (EigenResult); on the second exit sigma1 is raised
    to hi - that width if it is below.
    Raises ConvergenceError, naming the bracket, when a fixed cap of steps
    does not close it.

    A weight, nonnegative, positive on some cell and zero only where the
    potential is, replaces I by W = diag(weight) throughout, and the width
    by eps * gershgorin(H) / min w over the cells where w > 0 (see the
    module docstring). Without it every result is W = I's, bit for bit,
    and no step does more work.

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
    if weight is not None:  # the pencil's ratios, on the cells it weighs
        weight = as_field(weight, op.grid)
        live = slice(None) if amin(weight) > 0 else weight > 0
        ratio = ratio[live] / weight[live]
    lo, hi = amin(ratio), amax(ratio)

    # H = S^-1 (D + diag(q)) S with S = diag(sqrt(R))
    diag = op.diag + potential
    row = np.abs(diag)
    row[:-1] += off
    row[1:] += off
    rounding = sys.float_info.epsilon * amax(row)
    # a potential that is not finite makes the bracket or the rounding so
    if (not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(rounding))
            and not np.isfinite(potential).all()):
        raise ConfigurationError("potential must be finite in every cell")
    stop = rounding if weight is None else rounding / amin(weight[live])
    # spent: the Noda steps' work arrays
    shifted, shrink = row, ratio if weight is None else np.empty_like(row)
    floor = -math.inf  # sigma1 is at least this
    steps = 0
    while not hi - lo <= stop:  # a NaN bracket runs on to the cap
        if steps == _NODA_CAP:
            raise ConvergenceError(
                f"principal eigenvalue not resolved after {steps} Noda steps: "
                f"sigma1 in [{lo:.12g}, {hi:.12g}]"
            )
        np.subtract(hi if weight is None else hi * weight, diag, out=shifted)
        _, _, y, info = _ptsv(shifted, neg_off, phi if weight is None else weight * phi,
                              overwrite_d=1)
        if info != 0:  # hi*W - H is not positive definite to rounding
            floor = hi - stop
            break
        # (H y)_i = hi * w_i * y_i - w_i * phi_i, so the ratios of y are
        # hi - phi_i / y_i
        np.divide(phi, y, out=shrink)
        ratio = shrink if weight is None else shrink[live]
        smin = amin(ratio)
        lo, hi = hi - amax(ratio), hi - smin
        # smin * y_i <= phi_i in every weighted cell, so the iterates never grow
        phi = np.multiply(y, smin, out=y)
        steps += 1

    h_phi = diag * phi
    h_phi[:-1] += off * phi[1:]
    h_phi[1:] += off * phi[:-1]
    unit = math.ldexp(1.0, math.frexp(rounding)[1])  # a power of two above the rounding
    h_phi /= unit  # exactly, and so that phi . h_phi stays finite
    norm2 = float(phi @ phi)
    w_norm2 = norm2 if weight is None else float(phi @ (weight * phi))
    sigma1 = max(unit * (float(phi @ h_phi) / w_norm2), floor)
    return EigenResult(sigma1=sigma1, iterations=steps, lo=lo, hi=hi, _phi=phi,
                       _norm2=norm2, _h_phi=h_phi, _unit=unit, _sqrt_R=sqrt_R, _h=op.grid.h,
                       _weight=weight)


def rate_slope(res: EigenResult, r: Field) -> float:
    """d sigma1 / dx of D + diag(q - x * r) at res, the eigenpair of
    D + diag(q) at x = 0, or of the pencil with weight r at x = its sigma1:
    -h * sum(r * psi^2 / R), psi normalized as in EigenResult
    (Hellmann-Feynman). On the symmetric form that is
    -(phi . r phi) / (phi . phi) for the last phi as it stands, so psi is
    not formed; a phi^2-weighted mean of -r, it lies in [-max r, -min r]."""
    phi = res._phi
    return -float(r @ (phi * phi)) / res._norm2


def sign(sigma: float, level: float) -> int:
    """1 when sigma > level, -1 when sigma < -level, and 0 (neutral) otherwise,
    a NaN sigma included."""
    return (sigma > level) - (sigma < -level)

