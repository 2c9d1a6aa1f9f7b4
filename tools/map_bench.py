"""Time the 41x41 outcome map of every bundled config and count its solves.

    python3 tools/map_bench.py SRC_TREE OUT_JSON

SRC_TREE is a checkout holding src/harvestcomp, imported from there; OUT_JSON
is written as a JSON object keyed by config name (a config the tree lacks is
skipped and named on stderr). Each config's map is sweep_grid over 41 equally
spaced rates in [0, 1] on both axes, at the config's own n_cells and initial
data, as the CLI's `sweep` command runs it. Per config:

  * wall_s: the median and quartiles of REPEATS timed maps, each on an
    environment built afresh, so that its operators are built in the map;
  * calls: the count and seconds of solve_coexistence, solve_semitrivial and
    principal_eigen, and the count of the gbsv and ptsv LAPACK calls, taken
    in one more map with each function wrapped where the package looks it
    up (sweep, spectral and dynamics);
  * digest: the sha256 of the repr of every record, row by row, which is the
    same for two trees exactly when their maps are the same to the bit;
  * curves: the sha256 of the repr of the map's switch curves, switch_u then
    switch_v, the same for two trees exactly when their curves are.

The timed maps run unwrapped. Two trees' maps are the same when their digests
are, and their curves when their curves digests are.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CONFIGS = ("example1", "example2", "example3", "example4", "example4b", "example5")
POINTS = 41
REPEATS = 7
# (module, attribute) wrapped for the call counts: each solve where sweep and
# spectral look it up, and each LAPACK call where dynamics and spectral do
TIMED = (("sweep", "solve_coexistence"), ("sweep", "solve_semitrivial"),
         ("spectral", "principal_eigen"))
COUNTED = (("dynamics", "_gbsv", "gbsv"), ("dynamics", "_ptsv", "ptsv"),
           ("spectral", "_ptsv", "ptsv"))


def digest(records) -> str:
    """sha256 of the repr of every record, row by row."""
    text = "\n".join(repr(record) for row in records for record in row)
    return hashlib.sha256(text.encode()).hexdigest()


def curves(swept) -> str:
    """sha256 of the repr of a SweepGrid's switch_u and switch_v."""
    return hashlib.sha256(repr((swept.switch_u, swept.switch_v)).encode()).hexdigest()


@contextmanager
def wrapped():
    """Wrap the TIMED and COUNTED functions of the package on sys.path and
    yield calls: each call adds to calls[name] its count (and, for TIMED,
    its seconds)."""
    calls, restore = {}, []

    def install(module, attribute, wrapper):
        restore.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, wrapper)

    for module_name, attribute in TIMED:
        module = importlib.import_module(f"harvestcomp.{module_name}")
        entry = calls.setdefault(attribute, {"count": 0, "seconds": 0.0})

        def timed(*args, _fn=getattr(module, attribute), _entry=entry, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                _entry["count"] += 1
                _entry["seconds"] += time.perf_counter() - start

        install(module, attribute, timed)
    for module_name, attribute, name in COUNTED:
        module = importlib.import_module(f"harvestcomp.{module_name}")
        entry = calls.setdefault(name, {"count": 0})

        def counted(*args, _fn=getattr(module, attribute), _entry=entry, **kwargs):
            _entry["count"] += 1
            return _fn(*args, **kwargs)

        install(module, attribute, counted)
    try:
        yield calls
    finally:
        for module, attribute, fn in reversed(restore):
            setattr(module, attribute, fn)


def measure(config_path, n_cells: int | None = None, points: int = POINTS,
            repeats: int = REPEATS) -> tuple[dict, list]:
    """(summary, swept) of the points x points map of one config: its
    wall_s, calls, digest and curves as the module docstring says, and the
    SweepGrid of the wrapped map. n_cells overrides the config's own."""
    from harvestcomp.config import (
        apply_overrides,
        build_environment,
        initial_fields,
        load_config,
        simulation_config,
    )
    from harvestcomp.sweep import sweep_grid

    cfg = load_config(config_path)
    if n_cells is not None:
        cfg = apply_overrides(cfg, {"n_cells": str(n_cells)})
    sim = simulation_config(cfg)
    rates = np.linspace(0.0, 1.0, points)

    def one_map():
        grid, env = build_environment(cfg)
        u0, v0 = initial_fields(cfg, grid)
        start = time.perf_counter()
        swept = sweep_grid(rates, rates, env, sim, u0=u0, v0=v0)
        return time.perf_counter() - start, swept

    times = [one_map()[0] for _ in range(repeats)]
    with wrapped() as calls:
        _, swept = one_map()
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    summary = {
        "n_cells": cfg.n_cells,
        "points": points,
        "repeats": repeats,
        "wall_s": {"median": median, "q1": q1, "q3": q3},
        "calls": calls,
        "digest": digest(swept.records),
        "curves": curves(swept),
    }
    return summary, swept


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    package = src / "src" / "harvestcomp"
    if not (package / "sweep.py").is_file():
        print(f"no src/harvestcomp/sweep.py under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src / "src"))
    import harvestcomp

    if Path(harvestcomp.__file__).resolve().parent != package:
        print(f"imported harvestcomp from {harvestcomp.__file__}, not {package}",
              file=sys.stderr)
        return 2
    results = {}
    for config in CONFIGS:
        path = package / "configs" / f"{config}.cfg"
        if not path.is_file():
            print(f"skipped {config}: no {path.name} under {src}", file=sys.stderr)
            continue
        results[config], _ = measure(path)
        wall = results[config]["wall_s"]
        print(f"{config}: median {wall['median']:.4f} s, digest {results[config]['digest'][:16]}, "
              f"curves {results[config]['curves'][:16]}")
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
