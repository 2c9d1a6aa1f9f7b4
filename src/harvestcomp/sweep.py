"""Parameter sweeps over harvesting rates and the coexistence switch point.

Every cell re-solves the system from the same initial condition, and the
dispersal operators do not depend on the harvesting rates. So the cells are
split into one contiguous block per worker of a bounded process pool, and
each block is marched in lockstep: its cells are the columns of one state
array, stepped by one multi-RHS tridiagonal solve per species, and each
leaves the block at the step where it settles. Every cell's state is
bitwise the one a run of its own gives, so the assembled result does not
depend on worker count or scheduling. The switch point comes from the
invasion eigenvalue, not from simulation.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import brentq

from . import spectral
from .analysis import OutcomeRecord, classify, invasion_potential
from .dynamics import HarvestRates, SimulationConfig, march, run_to_time, solve_semitrivial
from .errors import HarvestCompError
from .grid import Field
from .operators import build_operator
from .profiles import EnvironmentProfile

#: Constant initial density used for every species unless overridden.
DEFAULT_INITIAL_DENSITY = 2.1


@dataclass(frozen=True)
class CellFailure:
    """Marker stored in place of a record when a sweep cell fails."""

    alpha: float
    beta: float
    message: str


@dataclass(frozen=True)
class SwitchPoint:
    beta: float
    alpha_double_star: float
    bracket_width: float


@dataclass(frozen=True)
class SweepGrid:
    alphas: np.ndarray
    betas: np.ndarray
    records: list  # records[i][j] is the cell at (alphas[j], betas[i])

    def failures(self) -> list[CellFailure]:
        return [c for row in self.records for c in row if isinstance(c, CellFailure)]


def _default_initial(env: EnvironmentProfile) -> Field:
    return np.full(env.grid.n_cells, DEFAULT_INITIAL_DENSITY)


def simulate_cell(
    alpha: float,
    beta: float,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    u0: Field | None = None,
    v0: Field | None = None,
) -> OutcomeRecord:
    """One full simulation plus classification at a single (alpha, beta)."""
    u0 = _default_initial(env) if u0 is None else u0
    v0 = _default_initial(env) if v0 is None else v0
    rates = HarvestRates(alpha=alpha, beta=beta)
    final = run_to_time(u0, v0, env, rates, cfg)
    return classify(final, env, rates, cfg)


def _run_block(pairs, env, cfg, u0, v0):
    """March one block of cells in lockstep and classify each final state;
    a cell that fails is recorded as a CellFailure in its place."""
    out: list = [None] * len(pairs)
    cells, rates = [], []
    for i, (alpha, beta) in enumerate(pairs):
        try:
            rates.append(HarvestRates(alpha=alpha, beta=beta))
            cells.append(i)
        except HarvestCompError as exc:
            out[i] = CellFailure(alpha=alpha, beta=beta, message=str(exc))
    for i, r, final in zip(cells, rates, march(u0, v0, env, rates, cfg)):
        if isinstance(final, HarvestCompError):
            out[i] = CellFailure(alpha=r.alpha, beta=r.beta, message=str(final))
        else:
            out[i] = classify(final, env, r, cfg)
    return out


def _run_cells(pairs, env, cfg, u0, v0, jobs):
    """Split the cells into `jobs` contiguous blocks and march each block in
    lockstep on one worker (in this process when jobs <= 1)."""
    u0 = _default_initial(env) if u0 is None else u0
    v0 = _default_initial(env) if v0 is None else v0
    task = partial(_run_block, env=env, cfg=cfg, u0=u0, v0=v0)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(pairs) <= 1:
        return task(pairs)
    jobs = min(jobs, len(pairs))
    edges = [len(pairs) * k // jobs for k in range(jobs + 1)]
    blocks = [pairs[a:b] for a, b in zip(edges[:-1], edges[1:])]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [rec for block in pool.map(task, blocks) for rec in block]


def sweep_alpha(
    beta: float,
    alpha_grid,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    jobs: int | None = None,
    u0: Field | None = None,
    v0: Field | None = None,
) -> list:
    """Independent runs along one row of harvesting rates."""
    alphas = np.asarray(alpha_grid, dtype=float)
    pairs = [(float(a), float(beta)) for a in alphas]
    return _run_cells(pairs, env, cfg, u0, v0, jobs)


def sweep_grid(
    alpha_grid,
    beta_grid,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    jobs: int | None = None,
    u0: Field | None = None,
    v0: Field | None = None,
) -> SweepGrid:
    """Full (alpha, beta) outcome matrix; rows indexed by beta."""
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    pairs = [(float(a), float(b)) for b in betas for a in alphas]
    flat = _run_cells(pairs, env, cfg, u0, v0, jobs)
    n = len(alphas)
    records = [flat[i * n : (i + 1) * n] for i in range(len(betas))]
    return SweepGrid(alphas=alphas, betas=betas, records=records)


def find_switch(
    beta: float,
    env: EnvironmentProfile,
    cfg: SimulationConfig,
    tol: float = 1e-3,
    eps: float | None = None,
    u0: Field | None = None,
    v0: Field | None = None,
) -> SwitchPoint | None:
    """Largest harvesting effort alpha** that still lets the first species
    invade (0, v_beta), searched between alpha = beta + eps and 1 - eps.

    alpha** is the root of sigma1(alpha), the principal eigenvalue of u
    invading the harvested semi-trivial state (0, v_beta): (0, v_beta) turns
    stable where sigma1 changes sign. sigma1 strictly decreases in alpha
    (r >= 0 is positive somewhere and the eigenfunction is positive), so
    brentq finds the root to near machine precision and sigma1 has opposite
    signs at the two ends of the reported bracket, whose width is at most
    tol. Returns None when sigma1 has one sign across the search interval
    (no switch to report). Positive initial data do not enter the invasion
    criterion: u0 and v0 are accepted for call compatibility and unused.
    """
    if eps is None:
        eps = tol
    lo = beta + eps
    hi = 1.0 - eps
    if lo >= hi:
        return None
    v_beta = solve_semitrivial("v", env, beta, cfg)
    op = build_operator(env.a, env.P, env.grid)

    def sigma1(alpha: float) -> float:
        potential = invasion_potential("u", v_beta, env, HarvestRates(alpha=alpha, beta=beta))
        # looked up on the module at call time, so a wrapper installed there
        # (bench/tracer.py) sees every solve
        return spectral.principal_eigen(op, potential, env.P).sigma1

    if (sigma1(lo) < 0) == (sigma1(hi) < 0):
        return None
    root = brentq(sigma1, lo, hi)
    width = min(tol, 2.0 * (root - lo), 2.0 * (hi - root))
    return SwitchPoint(beta=beta, alpha_double_star=root, bracket_width=width)
