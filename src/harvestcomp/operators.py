"""Discrete dispersal operator div[a grad(w/P)] with zero-flux boundaries.

Finite-volume form on the cell-centered grid: with g = w/P and face
diffusivities a_{i+1/2} = (a_i + a_{i+1})/2,

    (D w)_i = (F_{i+1/2} - F_{i-1/2}) / h,
    F_{i+1/2} = a_{i+1/2} * (g_{i+1} - g_i) / h   (interior faces),
    F = 0 at both boundary faces.

Summing cells telescopes the fluxes, so h * sum(D w) = 0 exactly and
D(c*P) = 0 exactly: the discretization conserves mass and keeps the
continuous kernel. D is self-adjoint and negative semidefinite in the
inner product weighted by 1/P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConfigurationError, SingularSystemError
from .grid import Field, SpatialGrid, as_field

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(3),))

#: annihilates() accepts |D w| up to this fraction of gershgorin_bound(D) * max|w|.
ANNIHILATION_REL_TOL = 1e-10


@dataclass(frozen=True)
class DiffusionOperator:
    """Tridiagonal dispersal operator, stored as bands.

    Row i of the matrix reads sub[i]*w[i-1] + diag[i]*w[i] + sup[i]*w[i+1]
    (sub[0] and sup[-1] are zero).
    """

    grid: SpatialGrid
    a: Field
    P: Field
    sub: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    sup: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("a", "P", "sub", "diag", "sup"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_operator(a: Field, P: Field, grid: SpatialGrid) -> DiffusionOperator:
    """Assemble the zero-flux finite-volume stencil for div[a grad(w/P)]."""
    a = as_field(a, grid)
    P = as_field(P, grid)
    n, h = grid.n_cells, grid.h
    a_face = 0.5 * (a[:-1] + a[1:])  # interior faces, length n-1

    sub = np.zeros(n)
    diag = np.zeros(n)
    sup = np.zeros(n)
    inv_h2 = 1.0 / (h * h)
    sup[:-1] = a_face * inv_h2 / P[1:]
    sub[1:] = a_face * inv_h2 / P[:-1]
    diag[:-1] -= a_face * inv_h2 / P[:-1]
    diag[1:] -= a_face * inv_h2 / P[1:]
    return DiffusionOperator(grid=grid, a=a, P=P, sub=sub, diag=diag, sup=sup)


def apply(op: DiffusionOperator, w: Field) -> Field:
    """Tridiagonal matrix-vector product D w."""
    w = as_field(w, op.grid)
    out = op.diag * w
    out[:-1] += op.sup[:-1] * w[1:]
    out[1:] += op.sub[1:] * w[:-1]
    return out


def _shift_text(s: float | Field) -> str:
    """Name a shift in an error message without printing a whole field."""
    if np.ndim(s) == 0:
        return f"s = {s}"
    return f"per-cell s in [{np.min(s):g}, {np.max(s):g}]"


def shifted_solver(op: DiffusionOperator, s: float | Field) -> Callable[[Field], Field]:
    """Factor (diag(s) - D) once; the returned callable solves for many right
    hand sides. The shift s is a scalar or a per-cell field. s > 0 in every
    cell guarantees nonsingularity (D has nonpositive spectrum in the
    1/P-weighted inner product, in which diag(s) is positive definite); a
    shift of either sign, such as a Newton step's -f'(w), may be singular
    and raises SingularSystemError."""
    n = op.grid.n_cells
    if np.ndim(s) != 0:
        s = as_field(s, op.grid)
    d = s - op.diag
    dl = -op.sub[1:]
    du = -op.sup[:-1]
    dl_f, d_f, du_f, du2, ipiv, info = _gttrf(dl, d, du)
    if info != 0:
        raise SingularSystemError(
            f"shifted system with {_shift_text(s)} is singular (row {info})"
        )

    def solve(rhs: Field) -> Field:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != n:
            raise ConfigurationError("right-hand side does not match the operator grid")
        x, info = _gttrs(dl_f, d_f, du_f, du2, ipiv, rhs)
        if info != 0 or not np.all(np.isfinite(x)):
            raise SingularSystemError(f"shifted solve with {_shift_text(s)} failed")
        return x

    return solve


def gershgorin_bound(op: DiffusionOperator) -> float:
    """Upper bound on the spectral radius of D (used for scale thresholds)."""
    return float(np.max(np.abs(op.diag) + np.abs(op.sub) + np.abs(op.sup)))


def annihilates(op: DiffusionOperator, w: Field) -> bool:
    """True when D w vanishes up to ANNIHILATION_REL_TOL of the operator scale.

    Used to test proportionality: D w = 0 exactly iff w is proportional
    to the operator's dispersal profile P.
    """
    w = as_field(w, op.grid)
    scale = gershgorin_bound(op) * float(np.max(np.abs(w)))
    if scale == 0.0:
        return True
    return float(np.max(np.abs(apply(op, w)))) <= ANNIHILATION_REL_TOL * scale
