"""In-memory span tracer that wraps harvestcomp's public functions at each
module boundary, from outside the package.

A function is wrapped under the name its caller looks it up by: run_to_time
is called by sweep.py, so the wrapper replaces `harvestcomp.sweep.run_to_time`
and the span is named that way. The solve callable that shifted_solver
returns is wrapped too, so every tridiagonal solve is one span.

Spans live in flat arrays (name id, parent index, start, end) because a
traced grid pass records millions of solves; self times are derived from
them after the pass with numpy.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

SOLVE = "harvestcomp.dynamics.shifted_solver.solve"
FACTOR = "harvestcomp.dynamics.shifted_solver"
RUN = "harvestcomp.sweep.run_to_time"
SEMI = "harvestcomp.analysis.solve_semitrivial"
EIGEN = "harvestcomp.spectral.principal_eigen"
ALPHA = "harvestcomp.analysis.alpha_star"
IFP = "harvestcomp.analysis.detect_ideal_free_pair"
CLASSIFY = "harvestcomp.sweep.classify"
INEQ = "harvestcomp.analysis.inequality_suite"
CELL = "harvestcomp.sweep.simulate_cell"
SWITCH = "harvestcomp.sweep.find_switch"
LOAD = ("harvestcomp.config.load_config", "harvestcomp.config.apply_overrides")
PROFILES = ("harvestcomp.config.environment_from_expressions",
            "harvestcomp.config.validate_environment")
LAYERS = ("operators", "dynamics", "spectral", "analysis", "sweep", "config", "profiles")

# (module, attribute) pairs wrapped for tracing. The module is the caller's:
# the attribute is the name under which the caller imported the function.
BOUNDARIES = (
    # config -> profiles (set-up)
    ("harvestcomp.config", "load_config"),
    ("harvestcomp.config", "apply_overrides"),
    ("harvestcomp.config", "build_environment"),
    ("harvestcomp.config", "environment_from_expressions"),
    ("harvestcomp.config", "validate_environment"),
    # sweep -> dynamics, analysis
    ("harvestcomp.sweep", "sweep_grid"),
    ("harvestcomp.sweep", "find_switch"),
    ("harvestcomp.sweep", "simulate_cell"),
    ("harvestcomp.sweep", "run_to_time"),
    ("harvestcomp.sweep", "classify"),
    # dynamics -> operators
    ("harvestcomp.dynamics", "build_operator"),
    ("harvestcomp.dynamics", "shifted_solver"),
    # analysis -> dynamics, analysis
    ("harvestcomp.analysis", "alpha_star"),
    ("harvestcomp.analysis", "inequality_suite"),
    ("harvestcomp.analysis", "solve_semitrivial"),
    ("harvestcomp.analysis", "detect_ideal_free_pair"),
    ("harvestcomp.analysis", "invasion_potential"),
    # spectral
    ("harvestcomp.spectral", "principal_eigen"),
)


class Tracer:
    """Records one span per wrapped call: name, parent span, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []  # module that defines each named function
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.results: dict[int, object] = {}  # span index -> summary of the return value
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, fn, name: str, keep=None, wrap_result=None):
        """Return fn wrapped in a span. keep(result, args, kwargs) stores a
        summary of the result with the span; wrap_result(result) replaces it."""
        nid = self._id(name, fn.__module__.rsplit(".", 1)[-1])
        stack, name_arr, parent, start, end = (
            self._stack, self.name, self.parent, self.start, self.end
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_arr.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep is not None:
                self.results[idx] = keep(result, args, kwargs)
            if wrap_result is not None:
                result = wrap_result(result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Replace every boundary function in the given modules by its
        traced wrapper; uninstall() puts the originals back."""
        for mod_name, attr in BOUNDARIES:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            keep = wrap_result = None
            if attr == "run_to_time":
                signature = inspect.signature(fn)

                def keep(st, args, kwargs, signature=signature):
                    cfg = signature.bind(*args, **kwargs).arguments["cfg"]
                    return round(st.t / cfg.dt), bool(st.steady)  # (steps, settled)
            elif attr == "principal_eigen":
                keep = lambda res, args, kwargs: res.iterations  # noqa: E731
            elif attr == "shifted_solver":
                wrap_result = functools.partial(self.wrap, name=SOLVE)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, f"{mod_name}.{attr}", keep, wrap_result))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, fn = self._restore.pop()
            setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": start, "end": end, "dur": end - start}

    def save(self, path) -> None:
        """Write the spans as an .npz archive (arrays plus the name table)."""
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"],
                 start=a["start"], end=a["end"])


def layer_metrics(tracer: Tracer, pauses=()) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from the recorded spans, by metric name.

    pauses are (start, end) intervals in which the process did other work
    (speed-probe ticks); they are taken out of every span they fall in.
    A layer the workload does not reach reports 0. Self time is a span's
    duration minus that of its direct children; busy_s sums the self time of
    every span of functions defined in that module.
    """
    a = tracer.arrays()
    name, parent, start, end = a["name"], a["parent"], a["start"], a["end"]
    dur = a["dur"].copy()
    for t0, t1 in pauses:
        # spans open at t0 are the innermost open one and its ancestors; the
        # last span started before t0, or one of its ancestors, is that one
        k = int(np.searchsorted(start, t0, side="right")) - 1
        while k >= 0 and end[k] < t1:
            k = parent[k]
        while k >= 0:
            dur[k] -= t1 - t0
            k = parent[k]
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))

    def spans(*names):
        ids = [tracer._ids[n] for n in names if n in tracer._ids]
        return np.flatnonzero(np.isin(name, ids))

    def median(x, scale):
        return float(np.median(x)) * scale if len(x) else 0.0

    solve, run, semi, eigen, cells = (spans(SOLVE), spans(RUN), spans(SEMI), spans(EIGEN),
                                      spans(CELL))
    runs = [tracer.results[i] for i in run]
    steps = sum(s for s, _ in runs)
    tail = sum(s for s, steady in runs if not steady)
    iters = [tracer.results[i] for i in eigen]
    switches = spans(SWITCH)
    layer_of = np.array(tracer.layers)[name] if len(name) else np.array([], dtype=str)

    m = {
        "operators.solve_calls": (len(solve), "count"),
        "operators.solve_us": (median(dur[solve], 1e6), "us"),
        "operators.factor_calls": (len(spans(FACTOR)), "count"),
        "dynamics.steps": (steps, "count"),
        "dynamics.unsteady_runs": (sum(not steady for _, steady in runs), "count"),
        "dynamics.tail_step_share": (tail / steps if steps else 0.0, "ratio"),
        "dynamics.step_us": (dur[run].sum() / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.step_self_us": (self_t[run].sum() / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.semitrivial_calls": (len(semi), "count"),
        "dynamics.semitrivial_steps": (int(np.isin(parent[solve], semi).sum()), "count"),
        "dynamics.semitrivial_ms": (median(dur[semi], 1e3), "ms"),
        "spectral.eigen_calls": (len(eigen), "count"),
        "spectral.eigen_iterations": (sum(iters), "count"),
        "spectral.eigen_iterations_max": (max(iters, default=0), "count"),
        "spectral.eigen_ms": (median(dur[eigen], 1e3), "ms"),
        "analysis.alpha_star_ms": (median(dur[spans(ALPHA)], 1e3), "ms"),
        "analysis.ifp_detect_calls": (len(spans(IFP)), "count"),
        "analysis.classify_us": (median(dur[spans(CLASSIFY)], 1e6), "us"),
        "analysis.inequality_ms": (median(dur[spans(INEQ)], 1e3), "ms"),
        "sweep.cell_s_p50": (float(np.percentile(dur[cells], 50)) if len(cells) else 0.0, "s"),
        "sweep.cell_s_p90": (float(np.percentile(dur[cells], 90)) if len(cells) else 0.0, "s"),
        "sweep.cells_s": (float(dur[cells].sum()), "s"),
        "sweep.switch_cells": (
            int(np.isin(parent[cells], switches).sum()) / len(switches) if len(switches) else 0,
            "count"),
        "config.load_ms": (float(dur[spans(*LOAD)].sum()) * 1e3, "ms"),
        "profiles.build_ms": (float(dur[spans(*PROFILES)].sum()) * 1e3, "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (float(self_t[layer_of == layer].sum()), "s")
    m["trace.spans"] = (len(dur), "count")
    return m
