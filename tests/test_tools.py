import runpy
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from harvestcomp import dynamics, operators, spectral, sweep
from harvestcomp.config import initial_fields
from harvestcomp.sweep import sweep_grid

from conftest import bundled_config, load_example

ROOT = Path(__file__).resolve().parent.parent
CLI_MATRIX = ROOT / "tools" / "cli_matrix.py"
MAP_BENCH = ROOT / "tools" / "map_bench.py"


def test_map_bench_measures_the_map_sweep_grid_gives():
    # run without writing bytecode next to the tool
    tool = runpy.run_path(str(MAP_BENCH))
    summary, swept = tool["measure"](bundled_config("example4"), n_cells=50, points=5,
                                     repeats=3)
    assert set(summary) == {"n_cells", "points", "repeats", "wall_s", "calls", "digest",
                            "curves"}
    assert (summary["n_cells"], summary["points"], summary["repeats"]) == (50, 5, 3)
    wall = summary["wall_s"]
    assert set(wall) == {"median", "q1", "q3"}
    assert 0 < wall["q1"] <= wall["median"] <= wall["q3"]
    calls = summary["calls"]
    assert set(calls) == {"solve_coexistence", "solve_semitrivial", "principal_eigen", "gbsv",
                          "ptsv"}
    # r is constant: one semi-trivial state and one eigenpair per line with
    # its rate below 1, and each step of a solve is one LAPACK call
    assert calls["solve_semitrivial"]["count"] == calls["principal_eigen"]["count"] == 8
    assert calls["gbsv"]["count"] >= calls["solve_coexistence"]["count"] > 0
    assert calls["ptsv"]["count"] > 0
    assert all(entry["seconds"] > 0 for name, entry in calls.items()
               if name not in ("gbsv", "ptsv"))
    # the wrappers are gone
    assert sweep.solve_semitrivial is dynamics.solve_semitrivial
    assert dynamics._ptsv is spectral._ptsv is operators._ptsv
    assert dynamics._gbsv is operators._gbsv

    cfg, grid, env, sim = load_example("example4", n_cells=50)
    rates = np.linspace(0.0, 1.0, 5)
    u0, v0 = initial_fields(cfg, grid)
    expected = sweep_grid(rates, rates, env, sim, u0=u0, v0=v0)
    assert swept.records == expected.records
    assert summary["digest"] == tool["digest"](expected.records)
    # the curves digest reads the curves, which the record digest leaves out
    assert (swept.switch_u, swept.switch_v) == (expected.switch_u, expected.switch_v)
    assert summary["curves"] == tool["curves"](expected)
    moved = replace(expected, switch_u=[*expected.switch_u[:-1], 0.5])
    assert tool["digest"](moved.records) == summary["digest"]
    assert tool["curves"](moved) != summary["curves"]


def test_cli_matrix_keeps_the_outputs_of_each_call(tmp_path):
    tool = runpy.run_path(str(CLI_MATRIX))
    tool["run"](ROOT, tmp_path / "help", ["--help"])
    assert (tmp_path / "help" / "stdout").read_text().startswith("usage: harvestcomp")
    assert (tmp_path / "help" / "stderr").read_bytes() == b""
    assert (tmp_path / "help" / "exit_code").read_text() == "0\n"

    # a call runs where its copy of the config is, and names it relatively
    where = tmp_path / "example1" / "check"
    where.mkdir(parents=True)
    shutil.copy(bundled_config("example1"), where)
    tool["run"](ROOT, where, ["check", "--config", "example1.cfg", "--set", "n_cells=200"])
    out = (where / "stdout").read_text()
    assert "v_average_below_capacity: holds" in out and str(tmp_path) not in out
    assert (where / "stderr").read_bytes() == b""
    assert (where / "exit_code").read_text() == "0\n"

    # a tree without the program is refused before anything is written
    out_dir = tmp_path / "out"
    assert tool["main"]([str(tmp_path / "example1"), str(out_dir)]) == 2
    assert not out_dir.exists()
