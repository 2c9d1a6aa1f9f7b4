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
hi - phi_i / y_i, since (H y)_i = hi * y_i - phi_i. The bracket closes
superlinearly from phi = sqrt(R), which is the exact kernel vector when
q = 0; the iteration stops when it is narrower than the rounding level
eps * gershgorin(H) of a ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .dynamics import ROUNDING_FLOOR
from .errors import ConfigurationError, ConvergenceError
from .grid import Field, as_field
from .operators import DiffusionOperator, apply, gershgorin_bound
from .profiles import EnvironmentProfile

_ptsv = get_lapack_funcs("ptsv", (np.zeros(3),))

# Noda takes 0-6 steps on the bundled configs and 0-7 with a = b down to
# 1e-4, at n = 200 to 3200.
_NODA_CAP = 50


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenpair: psi is positive and normalized so that the
    quadrature of psi^2 / R equals one. iterations counts the Noda steps
    (shifted solves) taken; 0 means the start sqrt(R) already closed the
    Collatz-Wielandt bracket."""

    sigma1: float
    psi: Field
    iterations: int
    residual: float


def _symmetrized_bands(op: DiffusionOperator, potential: Field) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of H = S^-1 (D + diag(q)) S, S = diag(sqrt(R))."""
    R = op.P
    off = op.sup[:-1] * np.sqrt(R[1:] / R[:-1])
    diag = op.diag + potential
    return diag, off


def principal_eigen(op: DiffusionOperator, potential: Field, R: Field) -> EigenResult:
    """Largest eigenvalue and positive eigenfunction of D + diag(potential).

    R must be the dispersal profile the operator was built with; it defines
    the weighted inner product and the eigenfunction normalization. The
    potential must be finite. Noda's iteration runs from phi = sqrt(R) on
    the symmetrized H and stops once its Collatz-Wielandt bracket
    [lo, hi] is narrower than eps * gershgorin(H), or once hi*I - H no
    longer factors as positive definite, which happens only when hi is
    sigma1 to rounding. sigma1 is the Rayleigh quotient of the last phi,
    a weighted mean of its ratios and so inside the bracket; residual is
    the Euclidean norm of H phi - sigma1 phi for unit phi. Raises
    ConvergenceError, naming the bracket, when a fixed cap of steps does
    not close it.
    """
    R = as_field(R, op.grid)
    potential = as_field(potential, op.grid)
    if not np.array_equal(R, op.P):
        raise ConfigurationError("R must be the dispersal profile of the operator")
    if not np.all(np.isfinite(potential)):
        raise ConfigurationError("potential must be finite in every cell")

    diag, off = _symmetrized_bands(op, potential)
    row = np.abs(diag)
    row[:-1] += off
    row[1:] += off
    stop = float(np.finfo(float).eps) * float(np.max(row))
    neg_off = -off
    phi = np.sqrt(R)
    # the Collatz-Wielandt ratios (H phi)_i / phi_i of phi = sqrt(R) are
    # q_i + (D R)_i / R_i, and D R = 0 up to rounding
    ratio = potential + apply(op, R) / R
    lo, hi = float(np.min(ratio)), float(np.max(ratio))
    steps = 0
    while not hi - lo <= stop:  # a NaN bracket runs on to the cap
        if steps == _NODA_CAP:
            raise ConvergenceError(
                f"principal eigenvalue not resolved after {steps} Noda steps: "
                f"sigma1 in [{lo:.12g}, {hi:.12g}]"
            )
        _, _, y, info = _ptsv(hi - diag, neg_off, phi)
        if info != 0:  # hi*I - H is singular to rounding: hi is sigma1
            break
        # (H y)_i = hi * y_i - phi_i, so the ratios of y are hi - phi_i / y_i
        shrink = phi / y
        lo, hi = hi - float(np.max(shrink)), hi - float(np.min(shrink))
        phi = y / np.max(y)
        steps += 1

    phi /= math.sqrt(float(phi @ phi))
    h_phi = diag * phi
    h_phi[:-1] += off * phi[1:]
    h_phi[1:] += off * phi[:-1]
    rho = float(phi @ h_phi)
    residual = float(np.linalg.norm(h_phi - rho * phi))
    phi /= math.sqrt(op.grid.h)
    psi = phi * np.sqrt(R)
    return EigenResult(sigma1=rho, psi=psi, iterations=steps, residual=residual)


def neutral_level(op: DiffusionOperator, env: EnvironmentProfile) -> float:
    """Rounding level of the invasion eigenvalue of the species dispersing
    by op in env (pass env.swapped() for v): a sigma within it of 0 is
    neutral. On the bundled configs at n = 200, 240 and 800, over a 20x20
    grid of rates in [0, 0.95], zero sigmas sit at most 0.011 times
    eps * (gershgorin_bound(D) + max r) and every other |sigma| at least
    1.75e6 times it; the level allows the Newton floor's factor. The
    bracket principal_eigen stops at, eps * gershgorin(H), is about a
    quarter of the level."""
    scale = gershgorin_bound(op) + float(np.max(env.r))
    return ROUNDING_FLOOR * float(np.finfo(float).eps) * scale


def rayleigh_lower_bound(
    op: DiffusionOperator,
    potential: Field,
    R: Field,
    trial: Field,
) -> float:
    """Rayleigh quotient of a trial field; never exceeds sigma1.

    Matches the variational form: flux energy of trial/R against the face
    diffusivities plus the potential term, over the weighted norm. The
    potential and the trial field must be finite.
    """
    R = as_field(R, op.grid)
    potential = as_field(potential, op.grid)
    trial = as_field(trial, op.grid)
    if not np.array_equal(R, op.P):
        raise ConfigurationError("R must be the dispersal profile of the operator")
    if not np.all(np.isfinite(potential)):
        raise ConfigurationError("potential must be finite in every cell")
    if not np.all(np.isfinite(trial)):
        raise ConfigurationError("trial field must be finite in every cell")
    if not np.any(trial != 0):
        raise ConfigurationError("trial field must be nonzero")

    h = op.grid.h
    g = trial / R
    a_face = 0.5 * (op.a[:-1] + op.a[1:])
    flux_energy = float(np.sum(a_face * np.diff(g) ** 2)) / h
    weighted_sq = trial**2 / R
    num = -flux_energy + h * float(np.sum(potential * weighted_sq))
    den = h * float(np.sum(weighted_sq))
    return num / den
