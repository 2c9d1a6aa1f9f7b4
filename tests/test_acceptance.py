"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import time

import numpy as np
import pytest

from harvestcomp import (
    HarvestRates,
    Outcome,
    SimulationConfig,
    alpha_star,
    average,
    inequality_suite,
    integrate,
    principal_eigen,
    rayleigh_lower_bound,
    run_to_time,
)
from harvestcomp.cli import main as cli_main
from harvestcomp.config import build_environment, parse_config_text
from harvestcomp.operators import apply as op_apply
from harvestcomp.operators import build_operator, gershgorin_bound
from harvestcomp.profiles import EnvironmentProfile
from harvestcomp.sweep import simulate_cell, sweep_grid

from conftest import (
    assert_sweep_matches_march,
    bundled_config,
    load_example,
    one_step,
    random_grid,
    random_positive_profile,
    record_of_march,
)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------


def test_criterion_1_alpha_star_example1(tmp_path):
    expected = {0.0: 0.0995, 0.4: 0.4671, 0.6: 0.6475, 0.8: 0.8253}
    out = tmp_path / "bounds.csv"
    start = time.monotonic()
    code = cli_main(
        ["bounds", "--config", str(bundled_config("example1")),
         "--betas", "0,0.4,0.6,0.8", "--output", str(out)]
    )
    elapsed = time.monotonic() - start
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    got = {float(r[0]): float(r[2]) for r in rows}
    errs = {b: abs(got[b] - expected[b]) for b in expected}
    ok = all(e <= 0.01 for e in errs.values()) and elapsed < 30.0
    report(
        1,
        ok,
        f"alpha_star example 3.1 via CLI bounds at n=800: "
        + " ".join(f"beta={b}:{got[b]:.4f}(err {errs[b]:.4f})" for b in expected)
        + f" runtime={elapsed:.1f}s (<30s)",
    )


def test_criterion_2_alpha_star_example2():
    expected = {0.0: 0.2164, 0.2: 0.3743, 0.6: 0.6885, 0.8: 0.8447}
    _, grid, env, sim = load_example("example2")
    got = {b: alpha_star(b, env, sim).effective_alpha_star for b in expected}
    errs = {b: abs(got[b] - expected[b]) for b in expected}
    report(
        2,
        all(e <= 0.01 for e in errs.values()),
        "alpha_star example 3.2 (Gaussian capacity) at n=800: "
        + " ".join(f"beta={b}:{got[b]:.4f}(err {errs[b]:.4f})" for b in expected),
    )


def test_criterion_3_alpha_star_ideal_free_pair():
    expected = {0.0: 0.0029, 0.2: 0.2024, 0.6: 0.6013, 0.8: 0.8007}
    _, grid, env, sim = load_example("example3")
    reports = {b: alpha_star(b, env, sim) for b in expected}
    assert all(r.alpha_star_ifp is not None for r in reports.values())
    got = {b: r.effective_alpha_star for b, r in reports.items()}
    errs = {b: abs(got[b] - expected[b]) for b in expected}
    report(
        3,
        all(e <= 0.005 for e in errs.values()),
        "alpha_star example 3.3 (ideal free pair) at n=800: "
        + " ".join(f"beta={b}:{got[b]:.4f}(err {errs[b]:.4f})" for b in expected),
    )


def test_criterion_4_competitive_exclusion_and_rescue():
    _, grid, env, sim = load_example("example1")
    start = time.monotonic()
    rec0 = record_of_march(0.0, 0.0, env, sim)
    t0 = time.monotonic() - start
    start = time.monotonic()
    rec1 = record_of_march(0.1, 0.0, env, sim)
    t1 = time.monotonic() - start
    rule = [simulate_cell(r.alpha, r.beta, env, sim).outcome for r in (rec0, rec1)]
    ok = (
        rec0.outcome is Outcome.ONLY_U
        and abs(rec0.avg_u - 2.0) <= 0.02
        and rec1.outcome is Outcome.COEXISTENCE
        and rule == [rec0.outcome, rec1.outcome]
        and t0 < 60.0
        and t1 < 60.0
    )
    report(
        4,
        ok,
        f"example 3.1 exclusion/rescue at n=800: alpha=0 -> {rec0.outcome.value} "
        f"avg_u={rec0.avg_u:.4f} [{t0:.1f}s]; alpha=0.1 -> {rec1.outcome.value} [{t1:.1f}s]",
    )


def test_criterion_5_ideal_free_pair_stationarity():
    _, grid, env, sim = load_example("example3")
    rates = HarvestRates(0.0, 0.0)
    first = one_step(env.P.copy(), env.Q.copy(), env, rates, sim.dt)
    final = run_to_time(np.full(grid.n_cells, 2.1), np.full(grid.n_cells, 2.1), env, rates, sim)
    au, av = average(final.u, grid), average(final.v, grid)
    ok = (
        first.dudt_inf < 1e-9
        and abs(au - 1.1) <= 0.011
        and abs(av - 0.9) <= 0.009
    )
    report(
        5,
        ok,
        f"ideal free pair stationarity: first-step |d/dt|={first.dudt_inf:.2e} (<1e-9); "
        f"averages from flat start ({au:.4f}, {av:.4f}) vs (1.1, 0.9) within 1%",
    )


def test_criterion_6_msy_bound_and_attainment():
    _, grid, env, _ = load_example("example1", n_cells=200)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    rates_grid = np.linspace(0.0, 1.0, 41)
    sg = sweep_grid(rates_grid, rates_grid, env, sim)
    records = [r for row in sg.records for r in row]
    assert not sg.failures()
    yields = np.array([r.total_yield for r in records])
    msy = 2.2  # quarter of r times the capacity integral, analytically
    i = int(np.argmin(np.abs(rates_grid - 0.6)))  # beta row
    j = int(np.argmin(np.abs(rates_grid - 0.5)))  # alpha column
    cell = sg.records[i][j]
    assert cell.alpha == pytest.approx(0.5) and cell.beta == pytest.approx(0.6)
    attained = cell.total_yield
    ok = float(np.max(yields)) <= msy * 1.01 and abs(attained - msy) <= 0.01 * msy
    report(
        6,
        ok,
        f"41x41 sweep of example 3.1: max yield={np.max(yields):.5f} <= {msy * 1.01:.3f}; "
        f"yield at (alpha=0.5, beta=0.6) = {attained:.5f} = 2.2 within 1%",
    )


def test_criterion_7_over_exploitation():
    _, grid, env, _ = load_example("example1", n_cells=400)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-9)
    rec_both = record_of_march(1.2, 1.1, env, sim)
    rec_u = record_of_march(1.2, 0.3, env, sim)
    rule = [simulate_cell(r.alpha, r.beta, env, sim).outcome for r in (rec_both, rec_u)]
    ok = (
        rec_both.outcome is Outcome.EXTINCTION
        and rec_u.outcome is Outcome.ONLY_V
        and rule == [rec_both.outcome, rec_u.outcome]
    )
    report(
        7,
        ok,
        f"over-exploitation: (1.2, 1.1) -> {rec_both.outcome.value}; "
        f"(1.2, 0.3) -> {rec_u.outcome.value}",
    )


def test_criterion_8_inequality_suite():
    sim = SimulationConfig()
    margins = {}
    ok = True
    for name in ("example1", "example2", "example3", "example4"):
        _, grid, env, _ = load_example(name, n_cells=400)
        rep = inequality_suite(env, sim)
        ok &= rep.all_hold()
        margins[name] = min(
            (c.margin for c in rep.checks if c.applicable), default=float("nan")
        )
    # Fisher control: plain diffusion with r = K has averages above capacity
    cfg = parse_config_text(
        "L = 4\nn_cells = 400\nK = 2+cos(pi*x)\nr = 2+cos(pi*x)\nP = 1\nQ = 1\na = 1\nb = 1\n"
    )
    _, env = build_environment(cfg)
    rep = inequality_suite(env, sim)
    fisher = {c.name: c for c in rep.checks}["u_higher_average_plain_diffusion"]
    ok &= rep.all_hold() and fisher.applicable and fisher.margin > 0
    report(
        8,
        ok,
        "inequality suite margins (smallest per environment): "
        + " ".join(f"{n}:{m:.4g}" for n, m in margins.items())
        + f" fisher_higher_average:{fisher.margin:.4g}",
    )


# -------------------------------------------------------- criterion 9 parts


def test_criterion_9a_operator_invariants_on_randomized_profiles():
    rng = np.random.default_rng(1234)
    worst = {"conservation": 0.0, "kernel": 0.0, "self_adjoint": 0.0}
    for _ in range(1000):
        g = random_grid(rng, 8, 48)
        P = random_positive_profile(rng, g)
        op = build_operator(random_positive_profile(rng, g), P, g)
        scale = gershgorin_bound(op)
        w = rng.normal(size=g.n_cells)
        z = rng.normal(size=g.n_cells)

        total = integrate(op_apply(op, w), g)
        worst["conservation"] = max(
            worst["conservation"],
            abs(total) / (scale * np.max(np.abs(w)) * g.h * g.n_cells),
        )
        kern = np.max(np.abs(op_apply(op, 1.7 * P)))
        worst["kernel"] = max(worst["kernel"], kern / (scale * np.max(P)))
        asym = abs(
            np.sum(op_apply(op, w) * z / P) - np.sum(op_apply(op, z) * w / P)
        )
        worst["self_adjoint"] = max(
            worst["self_adjoint"],
            asym / (scale * np.max(np.abs(w)) * np.max(np.abs(z)) * g.n_cells),
        )
    ok = all(v < 1e-12 for v in worst.values())
    report(
        "9a",
        ok,
        "operator invariants on 1000 randomized profiles, worst relative defects: "
        + " ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_9b_power_iteration_matches_dense_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(40):
        g = random_grid(rng, 8, 64)
        R = random_positive_profile(rng, g)
        op = build_operator(random_positive_profile(rng, g), R, g)
        q = rng.normal(0, 1) + rng.uniform(-1, 1) * np.cos(np.pi * g.centers / g.length)
        q = np.broadcast_to(q, (g.n_cells,)).copy()
        res = principal_eigen(op, q, R)
        D = np.diag(op.diag + q) + np.diag(op.sub[1:], -1) + np.diag(op.sup[:-1], 1)
        s = np.sqrt(R)
        H = D * s[None, :] / s[:, None]
        sigma_dense = np.linalg.eigvalsh(0.5 * (H + H.T))[-1]
        worst = max(worst, abs(res.sigma1 - sigma_dense))
        assert rayleigh_lower_bound(op, q, R, res.psi) <= res.sigma1 + 1e-10
    report("9b", worst < 1e-8, f"sigma1 vs dense oracle on n<=64: worst diff {worst:.2e} < 1e-8")


def test_criterion_9c_sweep_determinism_across_worker_counts():
    # the sweep runs in one process and jobs is unused, so determinism is
    # checked against the march: outcome and averages of every settled cell
    _, grid, env, _ = load_example("example1", n_cells=48)
    sim = SimulationConfig(dt=0.05, t_final=60.0, steady_tol=1e-9)
    alphas = np.linspace(0, 1, 4)
    serial = sweep_grid(alphas, alphas, env, sim, jobs=1)
    parallel = sweep_grid(alphas, alphas, env, sim, jobs=2)
    checked = assert_sweep_matches_march(serial, env)
    ok = serial.records == parallel.records and not serial.failures() and checked == 12
    report("9c", ok, "4x4 sweep records identical for jobs=1 and jobs=2, and equal to the "
                     f"settled march in outcome and averages (1e-6) in {checked} of 16 cells")


def test_criterion_9d_swap_symmetry_of_dynamics():
    rng = np.random.default_rng(5150)
    g = random_grid(rng, 24, 48)
    env = EnvironmentProfile(
        grid=g,
        K=random_positive_profile(rng, g),
        r=random_positive_profile(rng, g),
        P=random_positive_profile(rng, g),
        Q=random_positive_profile(rng, g),
        a=random_positive_profile(rng, g),
        b=random_positive_profile(rng, g),
    )
    u0 = rng.uniform(0.2, 3, g.n_cells)
    v0 = rng.uniform(0.2, 3, g.n_cells)
    cfg = SimulationConfig(dt=0.05, t_final=10.0, steady_tol=1e-14)
    out = run_to_time(u0, v0, env, HarvestRates(0.25, 0.65), cfg)
    back = run_to_time(v0, u0, env.swapped(), HarvestRates(0.65, 0.25), cfg)
    ok = np.array_equal(out.u, back.v) and np.array_equal(out.v, back.u)
    report("9d", ok, "exchanging (u0, P, a, alpha) with (v0, Q, b, beta) swaps the outputs exactly")


def _coexistence_mask(sg):
    return np.array(
        [[getattr(c, "outcome", None) is Outcome.COEXISTENCE for c in row] for row in sg.records]
    )


def _connected(mask):
    # 8-neighbor connectivity: the band steps diagonally on coarse grids
    coords = {(i, j) for i, j in zip(*np.nonzero(mask))}
    if not coords:
        return False
    stack = [next(iter(coords))]
    seen = set()
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = (i + di, j + dj)
                if nb in coords and nb not in seen:
                    stack.append(nb)
    return len(seen) == len(coords)


def _heatmap(name):
    _, grid, env, _ = load_example(name, n_cells=240)
    sim = SimulationConfig(dt=0.05, t_final=2000.0, steady_tol=1e-7)
    rates = np.linspace(0.0, 1.0, 21)
    sg = sweep_grid(rates, rates, env, sim)
    assert not sg.failures()
    return rates, _coexistence_mask(sg)


def test_criterion_9e_heatmap_band_geometry():
    rates, pair_mask = _heatmap("example4")
    # band around the bisect: connected, every cell near the diagonal, and
    # the diagonal itself (below over-exploitation) coexists, including (0,0)
    diag_ok = all(pair_mask[i, i] for i in range(20))  # beta = alpha <= 0.95
    near_diag = all(
        abs(rates[j] - rates[i]) <= 0.35 for i, j in zip(*np.nonzero(pair_mask))
    )
    pair_ok = _connected(pair_mask) and diag_ok and near_diag and pair_mask[0, 0]

    rates, pk_mask = _heatmap("example4b")
    # tracking species wins on and below the bisect: coexistence cells sit
    # strictly above it, and at beta = 0 only alpha > 0 rescues the competitor
    origin_excluded = not pk_mask[0, 0]
    rescued = pk_mask[0, 1:].any()
    above_bisect = all(
        0 < rates[j] - rates[i] <= 0.35 for i, j in zip(*np.nonzero(pk_mask))
    )
    pk_ok = _connected(pk_mask) and origin_excluded and rescued and above_bisect

    report(
        "9e",
        pair_ok and pk_ok,
        "heatmaps: ideal-free pair band connected with full diagonal incl. (0,0); "
        "capacity-tracking variant needs alpha>0 at beta=0 "
        f"(pair cells={int(pair_mask.sum())}, tracking cells={int(pk_mask.sum())})",
    )


def test_bundled_configs_run_end_to_end(tmp_path):
    for name in ("example1", "example2", "example3", "example4", "example4b"):
        out = tmp_path / f"{name}.csv"
        code = cli_main(
            ["simulate", "--config", str(bundled_config(name)),
             "--set", "n_cells=64", "--set", "t_final=50", "--set", "steady_tol=1e-6",
             "--output", str(out)]
        )
        assert code == 0 and out.exists(), name
    print("ACCEPTANCE extra PASS: bundled example configs run end-to-end via the CLI")
