import os
import subprocess
import sys
from pathlib import Path

import harvestcomp

SRC = Path(harvestcomp.__file__).resolve().parent.parent

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
harvestcomp.fit_convex_hull(env)
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""


def test_package_does_not_load_scipy_optimize():
    # scipy.optimize takes about 0.3 s to import; the package needs none of it
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
