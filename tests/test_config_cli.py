import csv

import numpy as np
import pytest

from harvestcomp import ConfigurationError
from harvestcomp import cli
from harvestcomp.cli import main
from harvestcomp.config import apply_overrides, load_config, parse_config_text

from conftest import bundled_config

MINIMAL = "L = 4\nK = 1\nr = 1\nP = 1\nQ = 1\na = 1\nb = 1\n"


# ------------------------------------------------------------------ config


def test_load_bundled_example1():
    cfg = load_config(bundled_config("example1"))
    assert cfg.L == 4.0
    assert cfg.n_cells == 800
    assert cfg.K == "2+cos(pi*x)"
    assert cfg.r == "1.1"
    assert cfg.u0 == "2.1"


def test_defaults_applied():
    cfg = parse_config_text(MINIMAL)
    assert cfg.n_cells == 800
    assert cfg.dt == 0.05
    assert cfg.t_final == 2000.0
    assert cfg.steady_tol == 1e-9
    assert cfg.alpha == 0.0 and cfg.beta == 0.0


def test_missing_required_key_named():
    text = MINIMAL.replace("K = 1\n", "")
    with pytest.raises(ConfigurationError, match="K"):
        parse_config_text(text)


def test_unknown_key_reported_with_line():
    with pytest.raises(ConfigurationError, match=r":8.*unknown key 'Kmax'"):
        parse_config_text(MINIMAL + "Kmax = 3\n")


def test_malformed_value_reported():
    with pytest.raises(ConfigurationError, match="malformed value for 'L'"):
        parse_config_text(MINIMAL.replace("L = 4", "L = four"))


def test_negative_alpha_is_range_error():
    with pytest.raises(ConfigurationError, match="alpha"):
        parse_config_text(MINIMAL + "alpha = -0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config_text(MINIMAL + "L = 5\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# header\n\n" + MINIMAL + "beta = 0.25  # trailing\n")
    assert cfg.beta == 0.25


def test_bad_expression_rejected_at_load():
    with pytest.raises(ConfigurationError, match="bad expression"):
        parse_config_text(MINIMAL.replace("K = 1", "K = 2+"))


def test_overrides_validated():
    cfg = parse_config_text(MINIMAL)
    assert apply_overrides(cfg, {"n_cells": "64"}).n_cells == 64
    with pytest.raises(ConfigurationError):
        apply_overrides(cfg, {"dt": "-1"})
    with pytest.raises(ConfigurationError):
        apply_overrides(cfg, {"nope": "1"})


# --------------------------------------------------------------------- cli


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(
        "L = 4\nn_cells = 48\nK = 2+cos(pi*x)\nP = 2+cos(pi*x)\nQ = 1\n"
        "a = 1\nb = 1\nr = 1.1\nalpha = 0\nbeta = 0\nsteady_tol = 1e-7\n"
    )
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_simulate_writes_profile_and_roundtrips(fast_config, tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code = run_cli(
        "simulate", "--config", fast_config, "--alpha", "0.1", "--beta", "0",
        "--set", "t_final=200", "--output", out,
    )
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == "x,u,v"
    assert len(text) == 49
    # full-precision round trip of every float
    for line in text[1:]:
        for tok in line.split(","):
            assert repr(float(tok)) == tok
    assert "outcome=" in capsys.readouterr().out


def test_simulate_is_byte_identical_across_runs(fast_config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(
            "simulate", "--config", fast_config, "--set", "t_final=100", "--output", out
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_random_restarts_reported(fast_config, tmp_path, capsys):
    code = run_cli(
        "simulate", "--config", fast_config, "--set", "t_final=2000",
        "--random-restarts", "1", "--seed", "3", "--output", tmp_path / "p.csv",
    )
    assert code == 0
    assert "restart 1" in capsys.readouterr().out


def test_steady_command(fast_config, tmp_path, capsys):
    out = tmp_path / "st.csv"
    assert run_cli("steady", "--config", fast_config, "--branch", "v", "--output", out) == 0
    assert out.read_text().splitlines()[0] == "x,w"
    assert "avg_w=" in capsys.readouterr().out


def test_eigen_command(fast_config, capsys):
    assert run_cli("eigen", "--config", fast_config, "--around", "v") == 0
    assert "sigma1=" in capsys.readouterr().out


def test_bounds_command_csv_contract(fast_config, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = run_cli("bounds", "--config", fast_config, "--betas", "0,0.4", "--output", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,c_star,alpha_star,alpha_double_star"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert 0 < float(row[2]) < 1
    assert np.isnan(float(row[3]))  # switch point only under --with-switch


@pytest.mark.parametrize("betas, entry", [("0,,0.4", "''"), ("abc", "'abc'")])
def test_bounds_rejects_malformed_betas(fast_config, capsys, betas, entry):
    assert run_cli("bounds", "--config", fast_config, "--betas", betas) == 2
    assert f"--betas entry {entry} is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_sweep_rejects_grid_below_one(fast_config, tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    for row in ([], ["--beta", "0.2"]):
        code = run_cli(
            "sweep", "--config", fast_config, "--grid", grid, *row, "--output", out,
            "--no-cache", "--cache-dir", tmp_path / "c",
        )
        assert code == 2
        assert f"--grid needs at least 1 point per axis, got {grid}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--strict"],
        ["check", "--output", "f.csv"],
        ["check", "--plot-script"],
        ["msy", "--output", "f.csv"],
        ["msy", "--strict"],
        ["switch", "--plot-script"],
        ["bounds", "--strict"],
    ],
)
def test_options_are_registered_only_where_read(fast_config, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[0], "--config", fast_config, *argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_cache_and_jobs_determinism(fast_config, tmp_path):
    cache = tmp_path / "cache"
    args = [
        "sweep", "--config", fast_config, "--set", "t_final=150", "--grid", "3",
        "--cache-dir", cache,
    ]
    s1, s2, s3 = (tmp_path / n for n in ("s1.csv", "s2.csv", "s3.csv"))
    assert run_cli(*args, "--jobs", "2", "--output", s1) == 0
    assert run_cli(*args, "--jobs", "1", "--output", s2, "--no-cache") == 0
    assert run_cli(*args, "--jobs", "1", "--output", s3) == 0  # cache hit
    assert s1.read_bytes() == s2.read_bytes() == s3.read_bytes()
    assert s1.read_text().splitlines()[0] == "alpha,beta,avg_u,avg_v,yield,outcome,reason"
    assert list(cache.glob("*.csv"))


def test_sweep_cache_keyed_by_source_digest(fast_config, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = [
        "sweep", "--config", fast_config, "--set", "t_final=20", "--grid", "2",
        "--jobs", "1", "--cache-dir", cache,
    ]
    out = tmp_path / "s.csv"
    monkeypatch.setattr(cli, "_source_digest", lambda: "old sources")
    assert run_cli(*args, "--output", out) == 0
    (entry,) = cache.glob("*.csv")
    entry.write_text("stale\n")
    assert run_cli(*args, "--output", out) == 0
    assert out.read_text() == "stale\n"  # same sources: served from the cache
    monkeypatch.setattr(cli, "_source_digest", lambda: "new sources")
    assert run_cli(*args, "--output", out) == 0
    assert out.read_text().splitlines()[0] == "alpha,beta,avg_u,avg_v,yield,outcome,reason"
    assert len(list(cache.glob("*.csv"))) == 2


def _sweep_rows(fast_config, tmp_path, *extra):
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--config", fast_config, "--grid", "2", "--jobs", "1",
        "--output", out, "--no-cache", "--cache-dir", tmp_path / "c", *extra,
    )
    with open(out, newline="") as fh:
        return code, list(csv.DictReader(fh))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_outcome_labels(fast_config, tmp_path):
    code, rows = _sweep_rows(fast_config, tmp_path)
    assert code == 0
    labels = {row["outcome"] for row in rows}
    assert labels <= {"coexist", "only_u", "only_v", "extinct", "unresolved"}
    # reason: t_final for a run that hit its time cap, empty for a settled one
    assert {row["reason"] for row in rows} == {"", "t_final"}
    for row in rows:
        assert (row["outcome"] == "unresolved") == (row["reason"] == "t_final")
    # a failed cell (u0 / dt would overflow) carries its message; --strict
    # counts it as unresolved too
    code, rows = _sweep_rows(fast_config, tmp_path, "--set", "u0=1e308", "--strict")
    assert code == 4
    for row in rows:
        assert row["outcome"] == "unresolved"
        assert row["reason"] == (
            "initial condition u0 / dt is not finite (max u0 = 1e+308, dt = 0.05)"
        )
        assert row["avg_u"] == "nan"


def test_cached_sweep_is_judged_like_a_fresh_one(fast_config, tmp_path, capsys):
    args = [
        "sweep", "--config", fast_config, "--set", "t_final=2", "--grid", "2", "--jobs", "1",
        "--output", tmp_path / "s.csv", "--cache-dir", tmp_path / "c", "--strict",
        "--plot-script",
    ]
    plot = tmp_path / "plot_s.py"
    for written in ("wrote", "(cached)"):  # computed, then served from the cache
        plot.unlink(missing_ok=True)
        assert run_cli(*args) == 4
        out, err = capsys.readouterr()
        assert written in out
        assert "4 of 4 cells unresolved" in err
        assert plot.exists()


def test_switch_command(fast_config, capsys):
    assert run_cli(
        "switch", "--config", fast_config, "--set", "n_cells=32", "--beta", "0", "--tol", "0.02"
    ) == 0
    assert "alpha_double_star=" in capsys.readouterr().out


def test_msy_command(fast_config, capsys):
    assert run_cli(
        "msy", "--config", fast_config, "--set", "alpha=0.5", "--set", "beta=0.6",
    ) == 0
    assert "msy_reference=" in capsys.readouterr().out


def test_check_command(fast_config, capsys):
    assert run_cli("check", "--config", fast_config) == 0
    out = capsys.readouterr().out
    assert "v_average_below_capacity: holds" in out
    assert "diagnostics:" in out


def test_plot_script_emission(fast_config, tmp_path):
    out = tmp_path / "prof.csv"
    assert run_cli(
        "simulate", "--config", fast_config, "--set", "t_final=50",
        "--output", out, "--plot-script",
    ) == 0
    assert (tmp_path / "plot_prof.py").exists()


def test_exit_code_2_for_config_errors(tmp_path, capsys):
    assert run_cli("simulate", "--config", tmp_path / "missing.cfg") == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "alpha = -1\n")
    assert run_cli("simulate", "--config", bad) == 2
    capsys.readouterr()


def test_exit_code_2_for_rate_without_semitrivial_branch(fast_config, tmp_path, capsys):
    # harvesting at rate 1 leaves no positive single-species state
    assert run_cli(
        "steady", "--config", fast_config, "--branch", "v", "--set", "beta=1",
        "--output", tmp_path / "w.csv",
    ) == 2
    assert "v-branch needs a harvesting rate below 1, got 1.0" in capsys.readouterr().err
    assert run_cli("eigen", "--config", fast_config, "--around", "u", "--set", "alpha=1") == 2
    assert "u-branch needs a harvesting rate below 1, got 1.0" in capsys.readouterr().err


def test_exit_code_3_for_numerical_failure(fast_config, tmp_path, capsys):
    # a capacity spanning 52 decades takes Newton past its step cap
    code = run_cli(
        "steady", "--config", fast_config, "--branch", "v",
        "--set", "K=exp(60*cos(pi*x))", "--output", tmp_path / "w.csv",
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_4_for_strict_unresolved(fast_config, tmp_path, capsys):
    code = run_cli(
        "sweep", "--config", fast_config, "--set", "t_final=2",
        "--grid", "2", "--jobs", "1", "--output", tmp_path / "s.csv",
        "--no-cache", "--cache-dir", tmp_path / "c", "--strict",
    )
    assert code == 4
    capsys.readouterr()
