import csv
import re
import runpy
import sys
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from harvestcomp import ConfigurationError, Outcome, SimulationConfig, alpha_star, analysis, sweep
from harvestcomp.cli import main
from harvestcomp.config import (
    apply_overrides,
    build_environment,
    initial_fields,
    load_config,
    parse_config_text,
    simulation_config,
)
from harvestcomp.dynamics import solve_semitrivial
from harvestcomp.profiles import parse
from harvestcomp.sweep import find_switch, sweep_grid

from conftest import bundled_config, load_example

MINIMAL = "L = 4\nK = 1\nr = 1\nP = 1\nQ = 1\na = 1\nb = 1\n"


# ------------------------------------------------------------------ config


def test_load_bundled_example1():
    cfg = load_config(bundled_config("example1"))
    assert cfg.L == 4.0
    assert cfg.n_cells == 800
    assert cfg.K == "2+cos(pi*x)"
    assert cfg.r == "1.1"
    assert cfg.u0 == "2.1"


def test_each_distinct_expression_is_parsed_once():
    # example1 has 4 distinct expressions among K, r, P, Q, a, b, u0 and v0;
    # validating them at load and sampling them afterwards parse each once
    parse.cache_clear()
    cfg = load_config(bundled_config("example1"))
    grid, _ = build_environment(cfg)
    initial_fields(cfg, grid)
    assert parse.cache_info().misses == 4


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


def test_bad_expression_override_exits_2_naming_key_and_position(capsys):
    code = run_cli("check", "--config", bundled_config("example1"), "--set", "K=x**2")
    assert code == 2
    err = capsys.readouterr().err
    assert "bad expression for 'K'" in err
    assert "(at position 2)" in err


def test_an_expression_too_deep_to_sample_exits_2(capsys):
    # parsed by a loop, a long sum is a tree as deep as it is long
    code = run_cli("check", "--config", bundled_config("example1"), "--set",
                   "K=" + "+".join(["x"] * 3000))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: profile K = ") and "nested too deeply" in err


@pytest.mark.parametrize("item,reason", [
    ("K=" + "+".join(["x"] * 1000), "profile K = 'x+x+"),
    ("K=" + "9" * 5000, "'K': non-finite number '999"),
    ("L=" + "1" * 3000 + "x", "malformed value for 'L': '111"),
    ("k" * 3000 + "=1", "unknown key 'kkk"),
    ("k" * 3000, "--set expects key=value, got 'kkk"),
], ids=["long_sum", "long_number", "long_value", "long_key", "long_item"])
def test_a_long_expression_is_quoted_by_its_prefix(capsys, item, reason):
    # the message quotes the first characters of the key, value, source or
    # token, so it stays one short line however long the override is
    code = run_cli("check", "--config", bundled_config("example1"), "--set", item)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert reason in lines[0] and "..." in lines[0]


def test_a_long_config_line_is_quoted_by_its_prefix(tmp_path):
    path = tmp_path / "long.cfg"
    path.write_text("L = 4\n" + "q" * 3000 + "\n")
    with pytest.raises(ConfigurationError, match=r":2: expected 'key = value', got 'q{60}'\.\.\.$"):
        load_config(path)


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


def test_simulate_outcome_is_the_sweep_record(tmp_path, capsys):
    # the march settles in this coexistence cell with avg_u = 0.0447, under
    # an extinction threshold of 1.5 % of average(K); the outcome line is the
    # sweep's record and the profiles are the march's
    _, _, env, sim = load_example("example4", n_cells=240)
    (swept,) = sweep_grid([0.3], [0.15], env, sim).records[0]
    out = tmp_path / "p.csv"
    code = run_cli(
        "simulate", "--config", bundled_config("example4"), "--set", "n_cells=240",
        "--alpha", "0.3", "--beta", "0.15", "--output", out,
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        f"outcome=coexist alpha=0.3 beta=0.15 avg_u={swept.avg_u:.6g} "
        f"avg_v={swept.avg_v:.6g} yield={swept.total_yield:.6g}"
    )
    assert lines[1].startswith("t=") and " steady=True " in lines[1]
    u = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert abs(u.mean() - swept.avg_u) < 1e-6


def test_steady_command(fast_config, tmp_path, capsys):
    out = tmp_path / "st.csv"
    assert run_cli("steady", "--config", fast_config, "--branch", "v", "--output", out) == 0
    assert out.read_text().splitlines()[0] == "x,w"
    assert "avg_w=" in capsys.readouterr().out


def test_eigen_command(fast_config, capsys):
    assert run_cli("eigen", "--config", fast_config, "--around", "v") == 0
    out = capsys.readouterr().out
    assert "sigma1=" in out
    # the Noda step count is printed beside the residual
    assert re.search(r", residual=\S+, steps=\d+\)$", out.strip())


def test_eigen_verdict_uses_the_sweep_neutral_level(capsys):
    # 5e-9 either side of the switch sigma1 is about +-5.5e-9, far outside
    # rounding, so eigen's verdict is the sign sweep_grid decides by
    _, _, env, sim = load_example("example1", n_cells=200)
    switch = find_switch(0.4, env, sim).alpha_double_star
    alphas = [switch - 5e-9, switch + 5e-9]
    records = sweep_grid(alphas, [0.4], env, sim).records[0]
    assert [rec.outcome for rec in records] == [Outcome.COEXISTENCE, Outcome.ONLY_V]
    args = ["eigen", "--config", bundled_config("example1"), "--set", "n_cells=200"]
    for alpha, verdict in zip(alphas, ["unstable (invasible)", "stable"]):
        code = run_cli(*args, "--around", "v", "--set", "beta=0.4", "--set", f"alpha={alpha!r}")
        assert code == 0
        assert f"({verdict}, residual=" in capsys.readouterr().out
    # P = K: v invading u_alpha at alpha = beta has sigma1 = 0 up to rounding
    assert run_cli(*args, "--around", "u", "--set", "alpha=0.4", "--set", "beta=0.4") == 0
    out = capsys.readouterr().out
    assert "(neutral, residual=" in out
    assert abs(float(out.split("sigma1=")[1].split()[0])) < 1e-11


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    (["steady", "--branch", "u", "--set", "K=1e308"],
     "non-finite semi-trivial u-branch Newton iterate"),
    (["msy", "--set", "alpha=0.1", "--set", "beta=0", "--set", "u0=1e300", "--set", "v0=1e300"],
     "non-finite coexistence iterate"),
], ids=["steady", "msy"])
def test_an_overflowing_solve_fails_by_name_without_warnings(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)  # steady would write steady.csv there
    code = run_cli(argv[0], "--config", bundled_config("example1"), "--set", "n_cells=30",
                   *argv[1:])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


@pytest.mark.filterwarnings("error")
def test_eigen_under_huge_growth_prints_a_finite_residual(capsys):
    code = run_cli("eigen", "--config", bundled_config("example1"), "--set", "n_cells=30",
                   "--around", "v", "--set", "r=1e300", "--set", "beta=0.1")
    assert code == 0
    residual = float(re.search(r"residual=(\S+),", capsys.readouterr().out).group(1))
    assert np.isfinite(residual)


def test_fast_growth_is_solved(tmp_path, capsys):
    # the stationary residual carries r w, so the solves stop at the
    # rounding level of the reaction term as well as of D w
    code = run_cli("steady", "--config", bundled_config("example1"), "--set", "n_cells=200",
                   "--branch", "v", "--set", "r=1e7", "--output", tmp_path / "v.csv")
    assert code == 0
    code = run_cli("sweep", "--config", bundled_config("example2"), "--set", "n_cells=100",
                   "--set", "r=1e10", "--grid", "11", "--strict", "--output", tmp_path / "s.csv")
    assert code == 0
    assert "unresolved" not in capsys.readouterr().out


def test_bounds_command_csv_contract(fast_config, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = run_cli("bounds", "--config", fast_config, "--betas", "0,0.4", "--output", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,c_star,alpha_star,alpha_double_star,bracket_width"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    # every row reports alpha**, which alpha_P bounds from below
    assert 0 < float(row[2]) <= float(row[3]) < 1


def test_bounds_writes_the_switch_point(fast_config, tmp_path, capsys):
    # at beta = 0.9985 alpha** lies less than 1e-3 above beta: a switch all the same
    out = tmp_path / "bounds.csv"
    code = run_cli("bounds", "--config", fast_config, "--betas", "0,0.4,0.9985",
                   "--output", out)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cfg = load_config(fast_config)
    _, env = build_environment(cfg)
    sim = simulation_config(cfg)
    for row, beta in zip(rows, [0.0, 0.4, 0.9985], strict=True):
        sp = find_switch(beta, env, sim)
        assert float(row["beta"]) == beta
        assert float(row["alpha_double_star"]) == sp.alpha_double_star
        assert float(row["bracket_width"]) == sp.bracket_width
    assert "nan" not in capsys.readouterr().out


def test_bounds_solves_each_competitor_state_once(fast_config, monkeypatch, capsys):
    # the switch is the eigenpair on the v_beta that alpha_star solved for
    # the row
    calls = []

    def counting(which, env, rate, cfg):
        calls.append((which, rate))
        return solve_semitrivial(which, env, rate, cfg)

    for module in (analysis, sweep):
        monkeypatch.setattr(module, "solve_semitrivial", counting)
    assert run_cli("bounds", "--config", fast_config, "--betas", "0,0.4,0.9985") == 0
    assert calls == [("v", 0.0), ("v", 0.4), ("v", 0.9985)]
    assert "nan" not in capsys.readouterr().out


def test_a_habitat_where_r_vanishes_on_a_cell_has_a_switch(capsys):
    # r = 0 on cell 400 at n = 800: the bracket has no end above, and
    # bounds reports alpha** without a warning
    r_vanishing = ["--config", bundled_config("example1"), "--set", "r=1.1*abs(x-2.0025)"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("bounds", *r_vanishing, "--betas", "0.4") == 0
        out, err = capsys.readouterr()
        assert out.startswith("beta=0.4 alpha_star=") and err == ""
        assert out.endswith(" alpha_double_star=0.475497 bracket_width=inf\n")


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example4b"])
def test_bounds_c_star_is_the_library_c_star_of_the_applied_estimate(name, tmp_path, capsys):
    # c* belongs to alpha_P, the estimate the row applies, in the CSV and the
    # library; P is not proportional to K on example3 and example4
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--config", bundled_config(name), "--set", "n_cells=200",
                   "--betas", "0,0.4", "--output", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _, _, env, sim = load_example(name, n_cells=200)
    for row, beta in zip(rows, [0.0, 0.4], strict=True):
        report = alpha_star(beta, env, sim)
        assert float(row["alpha_star"]) == report.effective_alpha_star
        assert float(row["c_star"]) == report.c_star
        assert float(row["c_star"]) == (1.0 - float(row["alpha_star"])) / (1.0 - beta)


@pytest.mark.parametrize("betas, entry", [("0,,0.4", "''"), ("abc", "'abc'"), ("", "''")])
def test_bounds_rejects_malformed_betas(fast_config, capsys, betas, entry):
    assert run_cli("bounds", "--config", fast_config, "--betas", betas) == 2
    assert f"--betas entry {entry} is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_sweep_rejects_grid_below_one(fast_config, tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    for row in ([], ["--beta", "0.2"]):
        code = run_cli("sweep", "--config", fast_config, "--grid", grid, *row, "--output", out)
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
        ["simulate", "--random-restarts", "1"],
        ["simulate", "--seed", "3"],
        ["msy", "--strict"],
        ["bounds", "--strict"],
        ["sweep", "--jobs", "2"],
        ["sweep", "--no-cache"],
        ["sweep", "--cache-dir", "c"],
        # a switch's bracket is what its search proves: no knob sets its width
        ["bounds", "--tol", "1e-3"],
        # every bounds row reports the switch point: no option asks for it
        ["bounds", "--with-switch"],
    ],
)
def test_options_are_registered_only_where_read(fast_config, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[0], "--config", fast_config, *argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_switch_is_not_a_command(fast_config, capsys):
    # every bounds row reports the switch point and its bracket
    with pytest.raises(SystemExit) as exc:
        run_cli("switch", "--config", fast_config, "--beta", "0.4")
    assert exc.value.code == 2
    assert "invalid choice: 'switch'" in capsys.readouterr().err


def test_sweep_is_deterministic(fast_config, tmp_path):
    args = ["sweep", "--config", fast_config, "--grid", "3"]
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(*args, "--output", s1) == 0
    assert run_cli(*args, "--output", s2) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.read_text().splitlines()[0] == "alpha,beta,avg_u,avg_v,yield,outcome,reason"


def _sweep_rows(fast_config, tmp_path, *extra):
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--config", fast_config, "--grid", "2",
        "--output", out, *extra,
    )
    with open(out, newline="") as fh:
        return code, list(csv.DictReader(fh))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_outcome_labels(fast_config, tmp_path, capsys):
    code, rows = _sweep_rows(fast_config, tmp_path)
    assert code == 0
    # u tracks K (P = K), so it excludes v at alpha = beta = 0 by theorem;
    # an over-exploited species is absent without a solve
    assert [row["outcome"] for row in rows] == ["only_u", "only_v", "only_u", "extinct"]
    assert {row["reason"] for row in rows} == {""}
    # initial data that would overflow u0 / dt are a configuration error,
    # as in simulate and msy, not a sweep of unresolved cells
    capsys.readouterr()
    out = tmp_path / "rejected.csv"
    code = run_cli("sweep", "--config", fast_config, "--grid", "2", "--set", "u0=1e308",
                   "--strict", "--output", out)
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: initial condition u0 / dt is not finite "
        "(max u0 = 1e+308, dt = 0.05)\n"
    )
    assert not out.exists()


def test_sweep_csv_is_byte_identical_to_the_golden_file(tmp_path):
    # the golden file's outcome and reason columns are those of the per-cell
    # sweep, before the sign certificates decided most cells; a solver change
    # that moves the last digits of its densities re-derives it and records
    # the rows changed in CHANGES.md
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", bundled_config("example1"), "--set", "n_cells=200",
                   "--grid", "11", "--output", out) == 0
    golden = Path(__file__).parent / "data" / "sweep_example1_n200_grid11.csv"
    assert out.read_bytes() == golden.read_bytes()


# K = P = Q: at alpha = beta = 0 both invasion eigenvalues are 0, a neutral cell
FLAT = ["--set", "K=1", "--set", "P=1"]


def bounds_row(beta, sp, report) -> str:
    """The line bounds prints for beta, given find_switch's point and
    alpha_star's report."""
    return (f"beta={beta:g} alpha_star={report.effective_alpha_star:.6g} "
            f"c_star={report.c_star:.6g} alpha_double_star={sp.alpha_double_star:.6g} "
            f"bracket_width={sp.bracket_width:.3g}")


def test_bounds_command_reports_the_switch_point(fast_config, capsys):
    assert run_cli("bounds", "--config", fast_config, "--set", "n_cells=32",
                   "--betas", "0") == 0
    assert "alpha_double_star=" in capsys.readouterr().out


def test_bounds_reports_no_switch_and_writes_its_row(fast_config, tmp_path, capsys):
    # alpha**(0) = 0.126, and the width printed is that of the bracket the
    # row's eigenpair proves
    assert run_cli("bounds", "--config", fast_config, "--betas", "0") == 0
    cfg = load_config(fast_config)
    _, env = build_environment(cfg)
    sim = simulation_config(cfg)
    sp = find_switch(0.0, env, sim)
    assert sp.lo <= sp.alpha_double_star <= sp.hi and 0 < sp.bracket_width <= 1e-8
    assert capsys.readouterr().out == bounds_row(0.0, sp, alpha_star(0.0, env, sim)) + "\n"
    # v disperses as u does but 100 times slower and excludes u unharvested:
    # u does not invade (0, v_0) at any alpha
    loser = ["--set", "P=1", "--set", "Q=1", "--set", "a=1", "--set", "b=0.01"]
    assert run_cli("bounds", "--config", fast_config, "--betas", "0", *loser) == 0
    out = capsys.readouterr().out
    assert out.startswith("beta=0 alpha_star=")
    assert out.endswith(" alpha_double_star=nan bracket_width=nan\n")
    # beta = 1 leaves v no state to invade
    assert run_cli("bounds", "--config", fast_config, "--betas", "1") == 2
    assert "needs a harvesting rate below 1" in capsys.readouterr().err
    csv_out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--config", fast_config, "--set", "beta=0.2",
                   "--output", csv_out) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"wrote {csv_out}"
    header, row = csv_out.read_text().splitlines()
    assert header == "beta,c_star,alpha_star,alpha_double_star,bracket_width"
    beta, _, _, switch, width = map(float, row.split(","))
    assert beta == 0.2 and 0.2 < switch < 1 and 0 < width <= 1e-8
    sp = find_switch(0.2, env, sim)
    assert (switch, width) == (sp.alpha_double_star, sp.bracket_width)
    assert printed[0] == bounds_row(0.2, sp, alpha_star(0.2, env, sim))


def test_eigen_writes_the_eigenfunction(fast_config, tmp_path, capsys):
    out = tmp_path / "psi.csv"
    assert run_cli("eigen", "--config", fast_config, "--around", "v", "--output", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,psi" and len(lines) == 49
    assert all(float(line.split(",")[1]) > 0 for line in lines[1:])
    assert f"wrote {out}" in capsys.readouterr().out


def test_msy_of_a_neutral_cell_exits_3(fast_config, capsys):
    # K = r = P = Q = a = b = 1: at alpha = beta both sigmas are 0
    flat = ["--set", "K=1", "--set", "r=1", "--set", "P=1"]
    code = run_cli("msy", "--config", fast_config, *flat, "--set", "alpha=0.3",
                   "--set", "beta=0.3")
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: neutral cell, not decided by the invasion criterion: sigma_u = "
    )


@pytest.mark.parametrize(
    "setting, message",
    [
        ("K", "--set expects key=value, got 'K'"),
        ("K= ", "override K: empty expression for 'K'"),
        ("n_cells=2", "override n_cells: n_cells must be >= 3, got 2"),
        ("K=1/(x-x)", "profile K = '1/(x-x)': expression evaluates to a non-finite value at "
                      "x = 0.041666666666666664"),
        ("u0=1/(x-x)", "initial condition u0 = '1/(x-x)': expression evaluates to a non-finite "
                       "value at x = 0.041666666666666664"),
        ("v0=1/(x-x)", "initial condition v0 = '1/(x-x)': expression evaluates to a non-finite "
                       "value at x = 0.041666666666666664"),
    ],
    ids=["no_equals", "blank", "n_cells", "non_finite", "non_finite_u0", "non_finite_v0"],
)
def test_malformed_overrides_exit_2_naming_the_setting(fast_config, capsys, setting, message):
    # msy samples every setting, u0 and v0 included, before its first solve
    assert run_cli("msy", "--config", fast_config, "--set", setting) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_msy_command(fast_config, capsys):
    assert run_cli(
        "msy", "--config", fast_config, "--set", "alpha=0.5", "--set", "beta=0.6",
    ) == 0
    assert "msy_reference=" in capsys.readouterr().out
    # initial data that the coexistence solve cannot take are a configuration
    # error, as in simulate, not an unresolved cell
    assert run_cli("msy", "--config", fast_config, "--set", "u0=1e308") == 2
    assert "configuration error: initial condition u0 / dt" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_msy_of_the_ideal_free_pair_at_half_harvesting_is_the_ceiling(capsys):
    # complementary dispersal with equal half-harvesting settles the total
    # density at K/2, where the yield is integral(r K / 4) = 2.2; the march
    # there never settles (a weakly damped exchange mode lingers), and msy
    # reads the coexistence state instead
    assert run_cli(
        "msy", "--config", bundled_config("example3"), "--set", "n_cells=200",
        "--set", "alpha=0.5", "--set", "beta=0.5",
    ) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert fields["outcome"] == "coexist"
    assert abs(float(fields["sy"]) - float(fields["msy_reference"])) <= 1e-9
    assert float(fields["msy_reference"]) == pytest.approx(2.2, rel=1e-9)


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


@pytest.mark.parametrize("shape", [["--grid", "5"], ["--beta", "0.4", "--grid", "5"]])
def test_sweep_plot_companion_draws_each_curve_in_increasing_alpha(
    fast_config, tmp_path, monkeypatch, shape
):
    # a map's rows run through alpha once per beta; a curve drawn across
    # them would jump back from alpha = 1 to 0 at each new beta
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--config", fast_config, *shape, "--output", out,
                   "--plot-script") == 0
    pyplot = mock.MagicMock()
    monkeypatch.setitem(sys.modules, "matplotlib", types.ModuleType("matplotlib"))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    runpy.run_path(str(tmp_path / "plot_s.py"))
    xs = [list(call.args[0]) for call in pyplot.plot.call_args_list]
    assert xs and all(x == sorted(x) for x in xs)
    pyplot.savefig.assert_called_once()


def test_exit_code_2_for_config_errors(tmp_path, capsys):
    assert run_cli("simulate", "--config", tmp_path / "missing.cfg") == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "alpha = -1\n")
    assert run_cli("simulate", "--config", bad) == 2
    capsys.readouterr()
    bad.write_text(MINIMAL + "badline\n")
    assert run_cli("check", "--config", bad) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {bad}:8: expected 'key = value', got 'badline'\n"
    )


@pytest.mark.filterwarnings("error")
def test_a_domain_too_small_for_the_stencil_is_a_config_error(capsys):
    example1 = bundled_config("example1")
    assert run_cli("check", "--config", example1, "--set", "n_cells=200",
                   "--set", "L=1e-200") == 2
    assert capsys.readouterr().err == (
        "configuration error: cell width h = L/n_cells = 1e-200/200 = 5e-203 is too small:"
        " 1/h^2 is not finite\n"
    )
    assert run_cli("check", "--config", example1, "--set", "n_cells=30",
                   "--set", "L=1e-155") == 2
    assert "L/n_cells = 1e-155/30" in capsys.readouterr().err
    # the stencil of L = 1e-150 is finite: it builds, and check runs through
    assert run_cli("check", "--config", example1, "--set", "n_cells=30",
                   "--set", "L=1e-150") == 0


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
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--config", fast_config, *FLAT, "--grid", "2", "--output", out,
        "--strict", "--plot-script",
    )
    assert code == 4
    assert "1 of 4 cells unresolved" in capsys.readouterr().err
    assert (tmp_path / "plot_s.py").exists()
    with open(out, newline="") as fh:
        neutral = next(csv.DictReader(fh))
    assert neutral["outcome"] == "unresolved"
    assert neutral["reason"].startswith("neutral cell, not decided by the invasion criterion")
    # simulate reads the same record at that cell, and --strict also fails a
    # march that has not settled by t_final
    args = ["simulate", "--config", fast_config, "--set", "t_final=1", "--output", out]
    assert run_cli(*args, *FLAT) == 0
    assert f"outcome=unresolved alpha=0 beta=0 reason={neutral['reason']}\n" in capsys.readouterr().out
    assert run_cli(*args, *FLAT, "--strict") == 4
    assert run_cli(*args, "--set", "alpha=0.1", "--strict") == 4
    assert "outcome=coexist" in capsys.readouterr().out
    assert run_cli(*args, "--set", "alpha=0.1", "--set", "t_final=2000", "--strict") == 0


def test_step_count_must_be_finite(fast_config, tmp_path, capsys):
    # t_final / dt overflows to inf, so the march has no step count
    with pytest.raises(ConfigurationError, match=r"t_final = 1e\+300, dt = 1e-300"):
        SimulationConfig(dt=1e-300, t_final=1e300)
    code = run_cli(
        "simulate", "--config", fast_config, "--set", "dt=1e-300", "--set", "t_final=1e300",
        "--output", tmp_path / "p.csv",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: t_final / dt is not finite (t_final = 1e+300, dt = 1e-300)\n"
    )


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8", "steady_output",
                                  "sweep_output", "plot_script"])
def test_unreadable_config_or_unwritable_output_is_a_config_error(
    fast_config, tmp_path, capsys, case
):
    missing = tmp_path / "missing" / "x.csv"
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(fast_config.read_bytes() + "# caf\xe9\n".encode("latin-1"))
    (tmp_path / "plot_s.py").mkdir()  # the plot companion's path is taken
    argv, path, reason = {
        "config_is_directory": (["check", "--config", tmp_path], tmp_path, "Is a directory"),
        "config_not_utf8": (["check", "--config", not_utf8], not_utf8, "not UTF-8"),
        "steady_output": (["steady", "--config", fast_config, "--branch", "u",
                           "--output", missing], missing, "No such file or directory"),
        "sweep_output": (["sweep", "--config", fast_config, "--grid", "1",
                          "--output", missing], missing, "No such file or directory"),
        "plot_script": (["sweep", "--config", fast_config, "--grid", "1", "--plot-script",
                         "--output", tmp_path / "s.csv"], tmp_path / "plot_s.py",
                        "Is a directory"),
    }[case]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(path) in err and reason in err
