import ast
import dataclasses
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harvestcomp
from harvestcomp import HarvestRates, SimulationConfig

from conftest import load_example

SRC = Path(harvestcomp.__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

PROBE = """
import sys
import harvestcomp
import harvestcomp.cli
from importlib.resources import files
from harvestcomp.config import apply_overrides, build_environment, load_config, simulation_config

cfg = load_config(files("harvestcomp") / "configs" / "example1.cfg")
cfg = apply_overrides(cfg, {"n_cells": "60"})
_, env = build_environment(cfg)
assert harvestcomp.find_switch(0.4, env, simulation_config(cfg)) is not None
harvestcomp.detect_ideal_free_pair(env)
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""

# the four LAPACK handles, checked against get_lapack_funcs after importing
# harvestcomp and scipy.linalg in the order given on the command line
HANDLES = """
import sys
import numpy as np

first, second = sys.argv[1:]
__import__(first)
if first == "harvestcomp":
    assert [m for m in sys.modules if m.startswith("scipy")] == ["scipy.linalg._flapack"]
__import__(second)
from harvestcomp import dynamics, operators
from scipy.linalg import _flapack, get_lapack_funcs

names = ("ptsv", "gbsv", "gttrf", "gttrs")
assert operators._flapack is _flapack
assert all(f is getattr(operators, "_" + name)
           for name, f in zip(names, get_lapack_funcs(names, (np.zeros(3),))))
assert dynamics._ptsv is operators._ptsv and dynamics._gbsv is operators._gbsv
"""

# the loader given a directory without the extension imports it through
# scipy.linalg, the slow path of a scipy whose files lie elsewhere
FALLBACK = """
import sys
import tempfile
from harvestcomp import operators

del sys.modules[operators._FLAPACK]
with tempfile.TemporaryDirectory() as empty:
    flapack = operators._load_flapack(empty)
assert "scipy.linalg" in sys.modules
from scipy.linalg import _flapack

assert flapack is _flapack is sys.modules[operators._FLAPACK]
assert flapack.dptsv is operators._ptsv
"""


def _run(script, *args):
    """stdout of the script run in a fresh interpreter, which must succeed."""
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# each module imports only from modules of lower layers
LAYERS = ("errors", "grid", "operators", "profiles", "spectral", "dynamics", "analysis",
          "sweep", "config", "cli")
LAYER = {name: i for i, name in enumerate(LAYERS)}
# (module, name) imported and never used there, each with why it stays
UNUSED_IMPORTS = {
    ("sweep", "run_to_time"): "bench/tracer.py wraps harvestcomp.sweep.run_to_time",
    ("dynamics", "build_operator"): "bench/tracer.py wraps harvestcomp.dynamics.build_operator",
}


def _imports(tree):
    """(bound name, intra-package module or None, line) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], None, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                # `from . import spectral` names a module; `from . import
                # __version__` names the package itself
                module = node.module if node.module else alias.name
                yield alias.asname or alias.name, module if node.level else None, node.lineno


def test_modules_import_down_the_layers_and_use_every_import():
    modules = sorted(p for p in (SRC / "harvestcomp").glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(LAYER)
    unused = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, module, line in _imports(tree):
            if module in LAYER:
                assert LAYER[module] < LAYER[path.stem], f"{path.name}:{line} imports {module}"
            if name not in used:
                unused.add((path.stem, name))
    assert unused == set(UNUSED_IMPORTS), sorted(unused ^ set(UNUSED_IMPORTS))


def test_the_rounding_level_is_read_from_the_environment():
    # EnvironmentProfile.neutral_level is the stationary problem's rounding
    # level: the eigensolver needs no environment, and the steady solves
    # read the level from the one they hold, not from spectral
    for module, forbidden in (("spectral", "profiles"), ("dynamics", "spectral")):
        tree = ast.parse((SRC / "harvestcomp" / f"{module}.py").read_text(encoding="utf-8"))
        lines = [line for _, imported, line in _imports(tree) if imported == forbidden]
        assert not lines, f"{module}.py imports {forbidden} on lines {lines}"


def test_only_the_environment_builds_dispersal_operators():
    # each species' operator is EnvironmentProfile.dispersal (v's on the
    # swapped environment), built once per environment; no other module
    # pairs a species with its (diffusivity, profile) and builds one
    callers = set()
    for path in (SRC / "harvestcomp").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "build_operator":
                    callers.add(path.stem)
    assert callers == {"profiles"}


# the solver functions and methods whose every extremum is operators.amax or
# amin: their loops take several per step, and a ufunc.reduce (x.max(),
# np.max, ...) costs more to set up than to scan a grid's few hundred cells
EXTREMA_BY_ARGMAX = {
    "operators": {"annihilates"},
    "profiles": {"neutral_level"},
    "spectral": {"principal_eigen"},
    "dynamics": {"run_to_time", "solve_semitrivial", "solve_coexistence"},
}


def test_solver_loops_take_no_extremum_by_ufunc_reduce():
    found = set()
    for module, names in EXTREMA_BY_ARGMAX.items():
        tree = ast.parse((SRC / "harvestcomp" / f"{module}.py").read_text(encoding="utf-8"))
        # module functions, and methods of the module's classes
        body = tree.body + [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                            for node in cls.body]
        for func in body:
            if not (isinstance(func, ast.FunctionDef) and func.name in names):
                continue
            found.add((module, func.name))
            # nested functions (solve_coexistence's residual) included; the
            # builtin max(a, b) is a Name call and stays allowed
            reductions = [node.lineno for node in ast.walk(func)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr in ("max", "min", "amax", "amin")]
            assert not reductions, f"{module}.{func.name} reduces on lines {reductions}"
    assert found == {(m, f) for m, names in EXTREMA_BY_ARGMAX.items() for f in names}


# the dataclasses with array fields; an array has no truth value and no hash,
# so a generated == or hash that reads one raises
ARRAY_ANNOTATIONS = {"Field", "np.ndarray"}
HOLD_ARRAYS = {"SpatialGrid", "DiffusionOperator", "EnvironmentProfile", "EigenResult",
               "PopulationState", "BoundsReport", "SweepGrid"}


def test_no_generated_eq_or_hash_reads_an_array():
    # a class identified by its arrays compares by identity (eq=False); a
    # value record leaves its arrays out of == and hash (compare=False)
    holders, offending = set(), set()
    for path in (SRC / "harvestcomp").glob("*.py"):
        module = importlib.import_module(f"harvestcomp.{path.stem}")
        for cls in vars(module).values():
            if not (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__):
                continue
            params = cls.__dataclass_params__
            hashed = params.unsafe_hash or (params.eq and params.frozen)
            for f in dataclasses.fields(cls):
                annotation = f.type if isinstance(f.type, str) else ""
                if not ARRAY_ANNOTATIONS & set(annotation.replace("|", " ").split()):
                    continue
                holders.add(cls.__name__)
                in_hash = f.compare if f.hash is None else f.hash
                if (params.eq and f.compare) or (hashed and in_hash):
                    offending.add(f"{cls.__name__}.{f.name}")
    assert holders >= HOLD_ARRAYS, sorted(HOLD_ARRAYS - holders)
    assert not offending, sorted(offending)


def test_package_does_not_load_scipy_optimize():
    # scipy.optimize takes about 0.3 s to import; the package needs none of it
    assert _run(PROBE).strip() == "[]"


@pytest.mark.parametrize("order", [("harvestcomp", "scipy.linalg"), ("scipy.linalg", "harvestcomp")])
def test_lapack_handles_are_scipys_without_importing_scipy_linalg(order):
    # importing the scipy.linalg package takes about 0.3 s; the package
    # loads only its LAPACK extension, and the handles are the functions
    # scipy hands out, whichever is imported first
    _run(HANDLES, *order)


def test_lapack_loader_falls_back_to_importing_scipy_linalg():
    _run(FALLBACK)


def test_bench_tracer_boundaries_resolve():
    # bench/tracer.py wraps package functions by (module, attribute) name and
    # bench/workloads.py reads OutcomeRecord.resolved; run without writing
    # bytecode next to the bench sources
    tracer = runpy.run_path(str(TRACER))
    for module, attribute in tracer["BOUNDARIES"]:
        assert hasattr(importlib.import_module(module), attribute), (module, attribute)
    assert "resolved" in {f.name for f in dataclasses.fields(harvestcomp.OutcomeRecord)}


def test_bench_tracer_counts_the_steps_and_solves_of_one_march():
    # the tracer wraps run_to_time where sweep imports it, and
    # build_operator and shifted_solver where dynamics looks them up at call
    # time: 20 steps of dt = 0.05, one factorization and one solve per
    # species and step
    tracer_module = runpy.run_path(str(TRACER))
    _, grid, env, _ = load_example("example1", n_cells=32)
    w0 = np.full(grid.n_cells, 2.1)
    cfg = SimulationConfig(dt=0.05, t_final=1.0)
    tracer = tracer_module["Tracer"]()
    tracer.install({module: importlib.import_module(module)
                    for module, _ in tracer_module["BOUNDARIES"]})
    try:
        harvestcomp.sweep.run_to_time(w0, w0, env, HarvestRates(0.1, 0.0), cfg)
    finally:
        tracer.uninstall()
    metrics = tracer_module["layer_metrics"](tracer)
    assert metrics["dynamics.steps"][0] == 20
    assert metrics["operators.factor_calls"][0] == 2
    assert metrics["operators.solve_calls"][0] == 40


def test_bench_tracer_sees_every_eigenpair_and_detection_of_a_bounds_curve():
    # one curve of the bounds workload: alpha_star at beta = 0.4, then
    # sigma1 at 21 alphas on one operator. The eigen invariants are kept on
    # the operator; every boundary call must still reach the tracer, with
    # the counts of a computation that keeps nothing. alpha_star detects no
    # ideal free pair
    tracer_module = runpy.run_path(str(TRACER))
    _, grid, env, sim = load_example("example1")
    tracer = tracer_module["Tracer"]()
    tracer.install({module: importlib.import_module(module)
                    for module, _ in tracer_module["BOUNDARIES"]})
    try:
        report = harvestcomp.analysis.alpha_star(0.4, env, sim)
        op = harvestcomp.operators.build_operator(env.a, env.P, grid)
        for alpha in np.linspace(0.0, 1.0, 21):
            potential = harvestcomp.analysis.invasion_potential(
                "u", report.v_beta_star, env, HarvestRates(float(alpha), 0.4))
            harvestcomp.spectral.principal_eigen(op, potential, env.P)
    finally:
        tracer.uninstall()
    metrics = tracer_module["layer_metrics"](tracer)
    assert metrics["spectral.eigen_calls"][0] == 21
    assert metrics["spectral.eigen_iterations"][0] == 63
    assert metrics["analysis.ifp_detect_calls"][0] == 0


def test_bench_tracer_sees_one_detection_per_inequality_suite():
    # inequality_suite decides invader_growth_at_u_branch by calling
    # detect_ideal_free_pair where the tracer wraps it
    tracer_module = runpy.run_path(str(TRACER))
    _, _, env, sim = load_example("example3", n_cells=100)
    tracer = tracer_module["Tracer"]()
    tracer.install({module: importlib.import_module(module)
                    for module, _ in tracer_module["BOUNDARIES"]})
    try:
        for _ in range(3):
            harvestcomp.analysis.inequality_suite(env, sim)
    finally:
        tracer.uninstall()
    metrics = tracer_module["layer_metrics"](tracer)
    assert metrics["analysis.ifp_detect_calls"][0] == 3
