"""Principal eigenvalue of the linearization around semi-trivial states.

The eigenproblem  D psi + q * psi = sigma * psi  (D the dispersal operator
built on profile R, q the growth potential) is self-adjoint in the inner
product weighted by 1/R. Substituting phi = psi / sqrt(R) turns it into a
standard symmetric tridiagonal problem, whose largest eigenpair one direct
LAPACK call computes (bisection plus inverse iteration). The off-diagonal
is positive, so the principal eigenvector has one sign (Perron-Frobenius);
it is returned positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigurationError
from .grid import Field, as_field
from .operators import DiffusionOperator

#: Below this magnitude the principal eigenvalue is reported as neutral.
NEUTRAL_TOL = 1e-8


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenpair: psi is positive and normalized so that the
    quadrature of psi^2 / R equals one."""

    sigma1: float
    psi: Field
    iterations: int
    residual: float

    def is_neutral(self) -> bool:
        return abs(self.sigma1) < NEUTRAL_TOL


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
    solve is direct, so iterations is always 1; residual is the Euclidean
    norm of H phi - sigma1 phi for the unit symmetrized eigenvector phi.
    """
    R = as_field(R, op.grid)
    potential = as_field(potential, op.grid)
    if not np.array_equal(R, op.P):
        raise ConfigurationError("R must be the dispersal profile of the operator")

    diag, off = _symmetrized_bands(op, potential)
    n = len(diag)
    w, vec = eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))
    rho = float(w[0])
    phi = vec[:, 0] if vec[:, 0].sum() > 0 else -vec[:, 0]  # LAPACK leaves the sign free
    h_phi = diag * phi
    h_phi[:-1] += off * phi[1:]
    h_phi[1:] += off * phi[:-1]
    residual = float(np.linalg.norm(h_phi - rho * phi))
    phi /= math.sqrt(op.grid.h * float(phi @ phi))
    psi = phi * np.sqrt(R)
    return EigenResult(sigma1=rho, psi=psi, iterations=1, residual=residual)


def rayleigh_lower_bound(
    op: DiffusionOperator,
    potential: Field,
    R: Field,
    trial: Field,
) -> float:
    """Rayleigh quotient of a trial field; never exceeds sigma1.

    Matches the variational form: flux energy of trial/R against the face
    diffusivities plus the potential term, over the weighted norm.
    """
    R = as_field(R, op.grid)
    potential = as_field(potential, op.grid)
    trial = as_field(trial, op.grid)
    if not np.array_equal(R, op.P):
        raise ConfigurationError("R must be the dispersal profile of the operator")
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
