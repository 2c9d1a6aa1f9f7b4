"""Run a fixed matrix of harvestcomp CLI calls and keep every output.

    python3 tools/cli_matrix.py SRC_TREE OUT_DIR

SRC_TREE is a checkout holding src/harvestcomp; OUT_DIR must not exist yet.
The matrix is `--help` of the program and of each command, then each case
of CASES on every config of CONFIGS that SRC_TREE bundles, at n_cells =
200; a config the tree lacks is skipped and named on stderr. Each call runs
in a fresh interpreter, in its own directory under OUT_DIR, against a copy
of the config made there, so no path of SRC_TREE enters an output. Each
directory receives the call's stdout, stderr and exit code, plus every file
it wrote (CSVs and plot scripts). Two trees give the same outputs when

    diff -r OUT_A OUT_B

prints nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

COMMANDS = ("simulate", "steady", "eigen", "bounds", "sweep", "switch", "msy", "check")
CONFIGS = ("example1", "example2", "example3", "example4", "example4b", "example5")
WEAK = ["--set", "a=0.01", "--set", "b=0.01"]
NON_FINITE = "1/(x-x)"
# (case name, arguments after --config and the n_cells override)
CASES = (
    ("simulate", ["simulate", "--set", "t_final=100", "--alpha", "0.1", "--beta", "0.05",
                  "--output", "profile.csv", "--plot-script", "--strict"]),
    ("steady_u", ["steady", "--branch", "u", "--set", "alpha=0.3"]),
    ("steady_v", ["steady", "--branch", "v", "--set", "beta=0.4", "--output", "v.csv"]),
    ("steady_near_one", ["steady", "--branch", "v", "--set", "beta=0.999999"]),
    ("eigen_u", ["eigen", "--around", "u", "--set", "alpha=0.2", "--output", "psi.csv"]),
    ("eigen_v", ["eigen", "--around", "v", "--set", "beta=0.4", "--output", "psi.csv"]),
    ("bounds", ["bounds", "--betas", "0,0.4,0.9985", "--with-switch", "--output", "b.csv"]),
    ("bounds_beta", ["bounds", "--set", "beta=0.3"]),
    ("bounds_off_hypothesis", ["bounds", "--betas", "0,0.4,0.8", "--with-switch",
                               "--set", "P=1+0.5*sin(pi*x/4)", "--output", "b.csv"]),
    ("sweep", ["sweep", "--grid", "21", "--output", "sweep.csv", "--plot-script"]),
    ("sweep_weak", ["sweep", "--grid", "21", *WEAK, "--strict"]),
    ("sweep_row", ["sweep", "--beta", "0.4", "--grid", "11", "--output", "row.csv"]),
    ("sweep_varying_r", ["sweep", "--grid", "11", "--set", "r=1.1+0.5*cos(pi*x)",
                         "--output", "sweep.csv"]),
    ("switch", ["switch", "--beta", "0.4", "--output", "switch.csv"]),
    ("switch_config_beta", ["switch", "--set", "beta=0.2", "--tol", "1e-6"]),
    ("switch_none", ["switch", "--beta", "0.9985"]),
    ("switch_empty", ["switch", "--beta", "0", "--tol", "0.6"]),
    ("msy", ["msy", "--set", "alpha=0.3", "--set", "beta=0.2"]),
    ("msy_ceiling", ["msy", "--set", "alpha=0.5", "--set", "beta=0.5"]),
    ("check", ["check"]),
    ("check_weak", ["check", *WEAK]),
    ("bad_profile", ["check", "--set", f"K={NON_FINITE}"]),
    ("bad_u0", ["sweep", "--grid", "3", "--set", f"u0={NON_FINITE}"]),
    ("bad_v0", ["msy", "--set", f"v0={NON_FINITE}"]),
    ("negative_u0", ["simulate", "--set", "u0=-1"]),
    ("tiny_domain", ["check", "--set", "L=1e-200"]),
    ("fast_growth", ["steady", "--branch", "v", "--set", "r=1e10"]),
    ("huge_r_eigen", ["eigen", "--around", "v", "--set", "r=1e300", "--set", "beta=0.1"]),
    ("overflow_eigen", ["eigen", "--around", "v", "--set", "r=1e308", "--set", "beta=0.1"]),
    ("overflow_K", ["steady", "--branch", "u", "--set", "K=1e308"]),
    ("python_power", ["check", "--set", "K=x**2"]),
    ("unclosed", ["check", "--set", "K=(1+2"]),
    ("unknown_function", ["check", "--set", "K=tan(x)"]),
    ("long_sum", ["check", "--set", "K=" + "+".join(["x"] * 1000)]),
)


def run(src: Path, where: Path, args: list[str]) -> None:
    """One CLI call in a fresh interpreter, run in where, its outputs kept
    there."""
    where.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "harvestcomp.cli", *args], cwd=where,
                          env=env, capture_output=True, timeout=600)
    (where / "stdout").write_bytes(done.stdout)
    (where / "stderr").write_bytes(done.stderr)
    (where / "exit_code").write_text(f"{done.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "src" / "harvestcomp" / "cli.py").is_file():
        print(f"no src/harvestcomp/cli.py under {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    run(src, out / "help", ["--help"])
    for command in COMMANDS:
        run(src, out / f"help_{command}", [command, "--help"])
    for config in CONFIGS:
        path = src / "src" / "harvestcomp" / "configs" / f"{config}.cfg"
        if not path.is_file():
            print(f"skipped {config}: no {path.name} under {src}", file=sys.stderr)
            continue
        for case, args in CASES:
            where = out / config / case
            where.mkdir(parents=True)
            shutil.copy(path, where)
            run(src, where, [args[0], "--config", f"{config}.cfg", "--set", "n_cells=200",
                             *args[1:]])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
