"""The benchmark workloads: inputs made from a seed, one pass through the
package's public functions, and the checks on every answer.

* grid   - sweep_grid on example1, 11x11 rates at n = 200 on a 2-worker pool:
           throughput over independent two-species runs.
* switch - find_switch(beta = 0.4) on example1 at n = 800: latency of one
           chain of dependent simulations near the transcritical switch.
* bounds - alpha_star, the invasion curve sigma1(alpha) and the inequality
           suite on all bundled configs at a = b = 1 and a = b = 0.01: the
           analytic path (semi-trivial solves and eigenpairs, no stepping).

Every call into the package goes through a module attribute (for example
`pkg.analysis.alpha_star`) so that the traced run sees its wrapper.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG_DIR = SRC / "harvestcomp" / "configs"
REFERENCES = HERE / "references.json"

MODULES = ("config", "dynamics", "operators", "spectral", "analysis", "sweep")

INITIAL_DENSITY = 2.1  # the README's constant u0 = v0
BASE_BETAS = (0.0, 0.4, 0.6, 0.8)  # the README's bounds betas
BETA_JITTER_STEPS = 5  # seeded betas are base + 0.01 * j, j < 5
ALPHA_CURVE = np.linspace(0.0, 1.0, 21)
GRID_RATES = np.linspace(0.0, 1.0, 11)
GRID_JOBS = 2
MSY_EXAMPLE1 = 2.2  # integral(r K / 4) = 1.1 * 8 / 4 on example1
ALPHA_STAR_TOL = 1e-5  # n = 800 against the fine-grid reference
SWITCH_BETA, SWITCH_TOL = 0.4, 1e-3
CONFIGS = ("example1", "example2", "example3", "example4", "example4b")
WEAK = {"a": "0.01", "b": "0.01"}

# along alpha, a beta row may only move forward through this order
ORDER = {"only_u": 0, "coexist": 1, "only_v": 2, "extinct": 3}
CODE = {"only_u": "U", "coexist": "C", "only_v": "V", "extinct": "X"}


class BenchError(Exception):
    """The benchmark cannot run here (no package source in the checkout)."""


def load_package() -> types.SimpleNamespace:
    """Import harvestcomp from this checkout's src/, never an installed copy."""
    if not (SRC / "harvestcomp" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'harvestcomp'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("harvestcomp")
    if Path(pkg.__file__).resolve().parent != (SRC / "harvestcomp").resolve():
        raise BenchError(f"imported harvestcomp from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"harvestcomp.{m}") for m in MODULES}
    )


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def initial_field(seed: int, stream: int, centers: np.ndarray, length: float) -> np.ndarray:
    """Smooth positive initial density: the constant 2.1 for seed 0,
    otherwise 2.1 times (1 + three random cosine modes of amplitude <= 0.05)."""
    f = np.full(len(centers), INITIAL_DENSITY)
    if seed == 0:
        return f
    rng = np.random.default_rng([seed, stream])
    for k in (1, 2, 3):
        amp, phase = rng.uniform(-0.05, 0.05), rng.uniform(0.0, 2.0 * np.pi)
        f += INITIAL_DENSITY * amp * np.cos(k * np.pi * centers / length + phase)
    return f


def seeded_betas(seed: int) -> list[float]:
    """The README betas for seed 0, otherwise each moved up by 0.01 * j."""
    if seed == 0:
        return list(BASE_BETAS)
    rng = np.random.default_rng([seed, 2])
    return [round(b + 0.01 * int(j), 2)
            for b, j in zip(BASE_BETAS, rng.integers(0, BETA_JITTER_STEPS, len(BASE_BETAS)))]


def encode_row(row) -> str:
    return "".join(CODE[rec.outcome.value] for rec in row)


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # per-workload extras (unresolved cells, errors)

    def op(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Workload:
    name = ""
    #: (config name, overrides) pairs that set-up loads; setup_s times these
    setup_specs: list[tuple[str, dict[str, str]]] = []
    #: operations in one pass, all counted failed if the pass raises
    ops_per_pass = 1
    #: worker processes a pass runs on
    jobs = 1

    def __init__(self, pkg, seed: int, refs: dict):
        self.pkg = pkg
        self.seed = seed
        self.refs = refs
        self.envs = self.build()

    def build(self) -> list:
        """load_config, the overrides and build_environment, as the CLI does."""
        out = []
        c = self.pkg.config
        for name, overrides in self.setup_specs:
            cfg = c.load_config(CONFIG_DIR / f"{name}.cfg")
            if overrides:
                cfg = c.apply_overrides(cfg, overrides)
            grid, env = c.build_environment(cfg)
            out.append((name, overrides, cfg, grid, env))
        return out

    def run(self, **kwargs):
        raise NotImplementedError

    def check(self, result, tally: Tally) -> None:
        raise NotImplementedError


class Grid(Workload):
    name = "grid"
    setup_specs = [("example1", {"n_cells": "200", "dt": "0.05", "t_final": "2000",
                                 "steady_tol": "1e-7"})]
    ops_per_pass = len(GRID_RATES) ** 2
    jobs = GRID_JOBS

    def __init__(self, pkg, seed: int, refs: dict):
        super().__init__(pkg, seed, refs)
        _, _, _, grid, _ = self.envs[0]
        self.u0 = initial_field(seed, 0, grid.centers, grid.length)
        self.v0 = initial_field(seed, 1, grid.centers, grid.length)

    def run(self, jobs: int | None = None):
        _, _, cfg, _, env = self.envs[0]
        sim = self.pkg.config.simulation_config(cfg)
        return self.pkg.sweep.sweep_grid(GRID_RATES, GRID_RATES, env, sim,
                                         jobs=self.jobs if jobs is None else jobs,
                                         u0=self.u0, v0=self.v0)

    def check(self, sg, tally: Tally) -> None:
        CellFailure = self.pkg.sweep.CellFailure
        reference = self.refs["grid_outcomes_seed0"] if self.seed == 0 else None
        unresolved = 0
        for i, row in enumerate(sg.records):
            ranks = [ORDER[c.outcome.value] for c in row if not isinstance(c, CellFailure)]
            row_ok = len(ranks) == len(row) and all(a <= b for a, b in zip(ranks, ranks[1:]))
            for j, cell in enumerate(row):
                where = f"cell (alpha={sg.alphas[j]:g}, beta={sg.betas[i]:g})"
                if isinstance(cell, CellFailure):
                    tally.op(False, f"{where}: CellFailure {cell.message}")
                    continue
                unresolved += not cell.resolved
                if cell.total_yield > 1.01 * MSY_EXAMPLE1:
                    tally.op(False, f"{where}: yield {cell.total_yield} above 1.01 * MSY")
                elif not row_ok:
                    tally.op(False, f"{where}: row beta={sg.betas[i]:g} goes back "
                                    f"in only_u -> coexist -> only_v -> extinct")
                elif reference is not None and CODE[cell.outcome.value] != reference[i][j]:
                    tally.op(False, f"{where}: {cell.outcome.value}, reference "
                                    f"{reference[i][j]}")
                else:
                    tally.op(True)
        tally.stats["unresolved"] = tally.stats.get("unresolved", 0) + unresolved
        tally.stats["cells"] = tally.stats.get("cells", 0) + self.ops_per_pass


class Switch(Workload):
    name = "switch"
    setup_specs = [("example1", {})]

    def __init__(self, pkg, seed: int, refs: dict):
        super().__init__(pkg, seed, refs)
        _, _, _, grid, env = self.envs[0]
        self.sim = pkg.dynamics.SimulationConfig()
        self.u0 = initial_field(seed, 0, grid.centers, grid.length)
        self.v0 = initial_field(seed, 1, grid.centers, grid.length)
        self.alpha_star = pkg.analysis.alpha_star(SWITCH_BETA, env, self.sim).effective_alpha_star
        self.reference = self.refs["switch_root"]["alpha"]

    def run(self):
        env = self.envs[0][4]
        return self.pkg.sweep.find_switch(SWITCH_BETA, env, self.sim, tol=SWITCH_TOL,
                                          u0=self.u0, v0=self.v0)

    def check(self, sp, tally: Tally) -> None:
        if sp is None:
            tally.op(False, "find_switch found no switch")
            return
        errors = []
        if not sp.bracket_width <= SWITCH_TOL:
            errors.append(f"bracket {sp.bracket_width} wider than tol {SWITCH_TOL}")
        if not sp.alpha_double_star >= self.alpha_star:
            errors.append(f"alpha** {sp.alpha_double_star} below alpha* {self.alpha_star}")
        tally.op(not errors, "; ".join(errors))
        tally.stats.setdefault("switch_abs_err", []).append(
            abs(sp.alpha_double_star - self.reference))


class Bounds(Workload):
    name = "bounds"
    setup_specs = [(n, d) for n in CONFIGS for d in ({}, WEAK)]

    def __init__(self, pkg, seed: int, refs: dict):
        super().__init__(pkg, seed, refs)
        self.betas = seeded_betas(seed)
        self.ops_per_pass = len(self.envs) * (len(self.betas) + 1)
        self.sims = [pkg.config.simulation_config(cfg) for _, _, cfg, _, _ in self.envs]

    def run(self):
        """Per environment: for each beta, alpha_star and the invasion curve
        sigma1(alpha) of u into (0, v_beta); then the inequality suite.
        An operation that raises is recorded as its exception."""
        p = self.pkg
        HarvestCompError = sys.modules["harvestcomp.errors"].HarvestCompError
        out = []
        for (name, overrides, _, _, env), sim in zip(self.envs, self.sims):
            op = p.operators.build_operator(env.a, env.P, env.grid)
            for beta in self.betas:
                try:
                    rep = p.analysis.alpha_star(beta, env, sim)
                    sigma = []
                    for alpha in ALPHA_CURVE:
                        rates = p.dynamics.HarvestRates(alpha=float(alpha), beta=beta)
                        pot = p.analysis.invasion_potential("u", rep.v_beta_star, env, rates)
                        sigma.append(p.spectral.principal_eigen(op, pot, env.P).sigma1)
                    out.append(("curve", name, overrides, beta, rep, np.array(sigma)))
                except HarvestCompError as exc:
                    out.append(("error", name, overrides, beta, exc, None))
            try:
                out.append(("inequality", name, overrides, None,
                            p.analysis.inequality_suite(env, sim), None))
            except HarvestCompError as exc:
                out.append(("error", name, overrides, None, exc, None))
        return out

    def check(self, out, tally: Tally) -> None:
        ref = self.refs["alpha_star_fine"]["values"]
        for kind, name, overrides, beta, rep, sigma in out:
            where = f"{name}{' weak' if overrides else ''} beta={beta}"
            if kind == "error":
                tally.op(False, f"{where}: {type(rep).__name__} {rep}")
            elif kind == "inequality":
                tally.op(rep.all_hold(), f"{where}: an inequality fails")
            else:
                errors = []
                if not np.all(np.diff(sigma) < 0):
                    errors.append("sigma1(alpha) not strictly decreasing")
                below = ALPHA_CURVE <= rep.effective_alpha_star
                if not np.all(sigma[below] > 0):
                    errors.append("sigma1 <= 0 below the effective alpha_star")
                if not overrides:
                    plain, pair = ref[name][f"{beta:.2f}"]
                    if abs(rep.alpha_star - plain) > ALPHA_STAR_TOL:
                        errors.append(f"alpha_star {rep.alpha_star} vs reference {plain}")
                    if (rep.alpha_star_ifp is None) != (pair is None) or (
                        pair is not None and abs(rep.alpha_star_ifp - pair) > ALPHA_STAR_TOL
                    ):
                        errors.append(f"alpha_star_ifp {rep.alpha_star_ifp} vs reference {pair}")
                tally.op(not errors, f"{where}: " + "; ".join(errors))


WORKLOADS = {w.name: w for w in (Grid, Switch, Bounds)}
