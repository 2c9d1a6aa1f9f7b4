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

import importlib
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, SingularSystemError
from .grid import Field, SpatialGrid, as_field

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack(directory: str):
    """scipy's compiled LAPACK wrappers, the extension module _FLAPACK: the
    one in sys.modules if any, else loaded from its file in directory and
    registered there, else (no such file) imported through scipy.linalg."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
    if spec is None:
        return importlib.import_module(_FLAPACK)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


# The LAPACK handles are the float64 functions of scipy.linalg._flapack, the
# very objects scipy.linalg.get_lapack_funcs returns. That extension is
# loaded from its file so that scipy's __init__ files do not run: importing
# the scipy.linalg package costs about 0.3 s, mostly its array API shim,
# which imports numpy.f2py, numpy.testing and more. A scipy without the file
# in its linalg directory (an editable install) takes the package import.
# gttrf/gttrs factor a scalar shift once for the march's many solves; ptsv
# solves the symmetric positive definite form S^-1 (diag(s) - D) S of a
# Newton step (dynamics) or a Noda step (spectral) in one call; gbsv solves
# a coexistence step's banded system (dynamics).
_flapack = _load_flapack(os.path.join(find_spec("scipy").submodule_search_locations[0], "linalg"))
_gttrf, _gttrs, _ptsv, _gbsv = _flapack.dgttrf, _flapack.dgttrs, _flapack.dptsv, _flapack.dgbsv


def amax(x: np.ndarray) -> float:
    """x.max() of a nonempty float array, as a float; amin is x.min().

    The solver loops take several extrema per step, of a few hundred to a
    few thousand cells. numpy's ufunc.reduce behind x.max() spends more
    setting up than scanning there, and the element at x.argmax() takes
    about a third of its time (0.33 against 0.95 us at n = 200, 0.40
    against 1.11 us at n = 800, on a 2-vCPU Xeon). The value equals
    x.max(): a NaN propagates, since argmax returns the first NaN, and only
    the sign of a zero extremum tied between +0.0 and -0.0 can differ,
    since argmax returns the first of the tie and max may return another.
    """
    return x.item(x.argmax())


def amin(x: np.ndarray) -> float:
    """x.min() of a nonempty float array, as a float (see amax)."""
    return x.item(x.argmin())


class EigenInvariants(NamedTuple):
    """The parts of the symmetric form of D that depend on the operator
    alone: with S = diag(sqrt(P)), the off-diagonal of S^-1 D S and its
    negation, sqrt(P), and (D P)/P, the Collatz-Wielandt ratios of sqrt(P)
    under S^-1 D S. A shifted system (diag(s) - D) x = b is
    (diag(s) - S^-1 D S) z = b / sqrt(P) with x = sqrt(P) * z, one ptsv call
    on the diagonal s - diag(D) and neg_off when it is positive definite;
    the Noda steps of spectral.principal_eigen and the Newton steps of
    dynamics.solve_semitrivial solve that form."""

    off: np.ndarray
    neg_off: np.ndarray
    sqrt_P: np.ndarray
    kernel_ratio: np.ndarray


@dataclass(frozen=True, eq=False)
class DiffusionOperator:
    """Tridiagonal dispersal operator, stored as bands.

    Row i of the matrix reads sub[i]*w[i-1] + diag[i]*w[i] + sup[i]*w[i+1]
    (sub[0] and sup[-1] are zero). The operator is immutable, so what is
    derived from it alone (eigen_invariants, gershgorin) is computed once
    and kept.
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

    @cached_property
    def eigen_invariants(self) -> EigenInvariants:
        """EigenInvariants of this operator, computed on first use; the
        arrays are read-only."""
        P = self.P
        off = self.sup[:-1] * np.sqrt(P[1:] / P[:-1])
        parts = EigenInvariants(off, -off, np.sqrt(P), apply(self, P) / P)
        for arr in parts:
            arr.setflags(write=False)
        return parts

    @cached_property
    def gershgorin(self) -> float:
        """Upper bound on the spectral radius of D, the largest absolute row
        sum; computed on first use."""
        return float(np.max(np.abs(self.diag) + np.abs(self.sub) + np.abs(self.sup)))


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


def shifted_solver(op: DiffusionOperator, s: float) -> Callable[[Field], Field]:
    """Factor (s*I - D) once for a scalar shift s; the returned callable
    solves for many right-hand sides. s > 0 guarantees nonsingularity (D has
    nonpositive spectrum in the 1/P-weighted inner product); s <= 0 may be
    singular and raises SingularSystemError. The Newton and Noda steps, whose
    shift varies per cell, solve the symmetric form by ptsv instead."""
    if np.ndim(s) != 0:
        raise ConfigurationError(f"shift must be a scalar, got shape {np.shape(s)}")
    n = op.grid.n_cells
    d = s - op.diag
    dl = -op.sub[1:]
    du = -op.sup[:-1]
    dl_f, d_f, du_f, du2, ipiv, info = _gttrf(dl, d, du)
    if info != 0:
        raise SingularSystemError(f"shifted system with s = {s} is singular (row {info})")

    def solve(rhs: Field) -> Field:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != n:
            raise ConfigurationError("right-hand side does not match the operator grid")
        x, info = _gttrs(dl_f, d_f, du_f, du2, ipiv, rhs)
        if info != 0 or not np.isfinite(x).all():
            raise SingularSystemError(f"shifted solve with s = {s} failed")
        return x

    return solve


#: Evaluating D w + f(w) in floating point leaves a residual of about
#: eps * (D.gershgorin + max r) * max|w| that no iterate gets below (Newton
#: stalls at up to 1.04 times its D part on the bundled configs, n up to
#: 25600, L down to 0.25). EnvironmentProfile.neutral_level, the stationary
#: problem's one rounding level, and annihilates allow this many times that
#: bound.
ROUNDING_FLOOR = 4.0


def annihilates(op: DiffusionOperator, w: Field) -> bool:
    """True when D w vanishes to rounding: max|D w| <= ROUNDING_FLOOR * eps *
    D.gershgorin * max|w|.

    Used to test proportionality: D w = 0 exactly iff w is proportional
    to the operator's dispersal profile P, and evaluating D(c*P) leaves at
    most about eps * D.gershgorin * max|c*P| (1.06 eps on random
    profiles, n up to 4000). A w not proportional to P leaves a residual
    that shrinks only like h^2 as the grid is refined.
    """
    w = as_field(w, op.grid)
    bound = ROUNDING_FLOOR * sys.float_info.epsilon * op.gershgorin
    return amax(np.abs(apply(op, w))) <= bound * amax(np.abs(w))
