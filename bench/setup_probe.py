"""Time what one CLI call pays before its first solve: import harvestcomp,
then load_config, the overrides and build_environment for each spec.

    python3 bench/setup_probe.py SRC_DIR '[["path/to/example1.cfg", {"n_cells": "200"}]]'

Prints the elapsed seconds. Runs in a fresh interpreter so the import is
not already cached.
"""

import json
import sys
import time

src, specs = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
t0 = time.perf_counter()
import harvestcomp  # noqa: E402
from harvestcomp.config import apply_overrides, build_environment, load_config  # noqa: E402

for path, overrides in specs:
    cfg = load_config(path)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    build_environment(cfg)
elapsed = time.perf_counter() - t0
if not harvestcomp.__file__.startswith(src):
    sys.exit(f"imported harvestcomp from {harvestcomp.__file__}, not from {src}")
print(elapsed)
