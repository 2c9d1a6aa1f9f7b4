"""Command-line interface.

Subcommands: simulate, steady, eigen, bounds, sweep, switch, msy, check.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unresolved classification (or restart disagreement) under --strict.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    OutcomeRecord,
    alpha_star,
    classify,
    inequality_suite,
    invasion_potential,
    sustainable_yield,
)
from .config import (
    RunConfig,
    apply_overrides,
    build_environment,
    harvest_rates,
    initial_fields,
    load_config,
    simulation_config,
)
from .dynamics import run_to_time, solve_semitrivial
from .errors import ConfigurationError, HarvestCompError, NumericalError
from .grid import average, integrate
from .operators import build_operator
from .spectral import NEUTRAL_TOL, principal_eigen
from .sweep import CellFailure, find_switch, sweep_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNRESOLVED = 4


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a field holding a comma
        writer.writerow(header)
        writer.writerows([_fmt(c) for c in row] for row in rows)


def _outcome_label(record: OutcomeRecord) -> str:
    return record.outcome.value if record.resolved else "unresolved"


def _record_row(record) -> list:
    """Sweep CSV row; reason is the failure message of an unresolved cell."""
    if isinstance(record, CellFailure):
        nan = float("nan")
        return [record.alpha, record.beta, nan, nan, nan, "unresolved", record.message]
    return [
        record.alpha,
        record.beta,
        record.avg_u,
        record.avg_v,
        record.total_yield,
        record.outcome.value,
        "",
    ]


def _print_record(record: OutcomeRecord) -> None:
    print(
        f"outcome={_outcome_label(record)} alpha={record.alpha:g} beta={record.beta:g} "
        f"avg_u={record.avg_u:.6g} avg_v={record.avg_v:.6g} "
        f"yield={record.total_yield:.6g}"
    )


# --------------------------------------------------------------------------
# result cache (sweeps only)


def _source_digest() -> str:
    """Digest of the package sources: any code change invalidates the cache."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def _cache_key(payload: dict) -> str:
    payload = {**payload, "source": _source_digest()}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _cache_load(cache_dir: Path, key: str) -> str | None:
    path = cache_dir / f"{key}.csv"
    return path.read_text(encoding="utf-8") if path.exists() else None


def _cache_store(cache_dir: Path, key: str, text: str) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / f"{key}.csv").write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# plot companion


_PLOT_TEMPLATE = '''"""Plot companion for {csv}; run with python."""
import csv
import matplotlib.pyplot as plt

with open({csv!r}) as fh:
    reader = csv.DictReader(fh)
    cols = {{name: [] for name in reader.fieldnames}}
    for row in reader:
        for name, value in row.items():
            cols[name].append(value)

numeric = {{n: [float(v) for v in vs] for n, vs in cols.items() if n not in ("outcome", "reason")}}
names = list(numeric)
x = numeric[names[0]]
for name in names[1:]:
    plt.plot(x, numeric[name], label=name)
plt.xlabel(names[0])
plt.legend()
plt.tight_layout()
plt.savefig({png!r}, dpi=150)
print("wrote", {png!r})
'''


def _emit_plot_script(csv_path: str) -> None:
    csv_path = Path(csv_path)
    script = csv_path.with_name(f"plot_{csv_path.stem}.py")
    png = str(csv_path.with_suffix(".png"))
    script.write_text(_PLOT_TEMPLATE.format(csv=str(csv_path), png=png), encoding="utf-8")
    print(f"wrote plot script {script}")


# --------------------------------------------------------------------------
# shared setup


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    if getattr(args, "alpha", None) is not None:
        cfg = apply_overrides(cfg, {"alpha": repr(args.alpha)})
    if getattr(args, "beta", None) is not None:
        cfg = apply_overrides(cfg, {"beta": repr(args.beta)})
    return cfg


def _setup(args):
    cfg = _resolve_config(args)
    grid, env = build_environment(cfg)
    return cfg, grid, env


def _parse_betas(text: str) -> list[float]:
    betas = []
    for item in text.split(","):
        try:
            betas.append(float(item))
        except ValueError:
            raise ConfigurationError(f"--betas entry {item!r} is not a number") from None
    return betas


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    rates = harvest_rates(cfg)
    u0, v0 = initial_fields(cfg, grid)
    final = run_to_time(u0, v0, env, rates, sim)
    record = classify(final, env, rates, sim)
    _print_record(record)
    print(f"t={final.t:g} steady={final.steady} dudt_inf={final.dudt_inf:.3e}")
    _write_csv(args.output, ["x", "u", "v"], zip(grid.centers, final.u, final.v))
    print(f"wrote {args.output}")
    if args.plot_script:
        _emit_plot_script(args.output)

    disagreement = False
    if args.random_restarts:
        rng = np.random.default_rng(args.seed)
        avg_K = average(env.K, grid)
        for k in range(args.random_restarts):
            ru0 = rng.uniform(0.05, 2.0, grid.n_cells) * avg_K
            rv0 = rng.uniform(0.05, 2.0, grid.n_cells) * avg_K
            restarted = classify(run_to_time(ru0, rv0, env, rates, sim), env, rates, sim)
            agree = restarted.outcome == record.outcome
            disagreement |= not agree
            print(
                f"restart {k + 1}: outcome={_outcome_label(restarted)} "
                f"avg_u={restarted.avg_u:.6g} avg_v={restarted.avg_v:.6g} "
                f"{'agrees' if agree else 'DISAGREES'} with the default run"
            )
        if disagreement:
            print("warning: classification depends on the initial condition", file=sys.stderr)
    if args.strict and (not record.resolved or disagreement):
        return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_steady(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    rate = cfg.alpha if args.branch == "u" else cfg.beta
    w = solve_semitrivial(args.branch, env, rate, sim)
    print(
        f"branch={args.branch} rate={rate:g} avg_w={average(w, grid):.8g} "
        f"integral_rw={integrate(env.r * w, grid):.8g}"
    )
    _write_csv(args.output, ["x", "w"], zip(grid.centers, w))
    print(f"wrote {args.output}")
    if args.plot_script:
        _emit_plot_script(args.output)
    return EXIT_OK


def _cmd_eigen(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    rates = harvest_rates(cfg)
    rate = cfg.alpha if args.around == "u" else cfg.beta
    resident = solve_semitrivial(args.around, env, rate, sim)
    invader = "v" if args.around == "u" else "u"
    potential = invasion_potential(invader, resident, env, rates)
    inv_env = env.swapped() if invader == "v" else env
    result = principal_eigen(build_operator(inv_env.a, inv_env.P, grid), potential, inv_env.P)
    if result.sigma1 > NEUTRAL_TOL:
        verdict = "unstable (invasible)"
    elif result.sigma1 < -NEUTRAL_TOL:
        verdict = "stable"
    else:
        verdict = "neutral"
    print(
        f"around={args.around}-branch invader={invader} sigma1={result.sigma1:.10g} "
        f"({verdict}, residual={result.residual:.3e})"
    )
    if args.output:
        _write_csv(args.output, ["x", "psi"], zip(grid.centers, result.psi))
        print(f"wrote {args.output}")
        if args.plot_script:
            _emit_plot_script(args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    betas = _parse_betas(args.betas) if args.betas else [cfg.beta]
    rows = []
    for beta in betas:
        report = alpha_star(beta, env, sim)
        a_eff = report.effective_alpha_star
        c_eff = (1.0 - a_eff) / (1.0 - beta)
        if args.with_switch:
            sp = find_switch(beta, env, sim, tol=args.tol)
            a_switch = sp.alpha_double_star if sp is not None else float("nan")
        else:
            a_switch = float("nan")
        kind = "ideal-free-pair" if report.alpha_star_ifp is not None else "proportional"
        print(
            f"beta={beta:g} alpha_star={a_eff:.6g} c_star={c_eff:.6g} "
            f"alpha_double_star={a_switch:.6g} ({kind} estimate)"
        )
        rows.append([beta, c_eff, a_eff, a_switch])
    if args.output:
        _write_csv(args.output, ["beta", "c_star", "alpha_star", "alpha_double_star"], rows)
        print(f"wrote {args.output}")
        if args.plot_script:
            _emit_plot_script(args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    n = args.grid if args.grid is not None else 41 if args.beta is None else 101
    if n < 1:
        raise ConfigurationError(f"--grid needs at least 1 point per axis, got {n}")
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    u0, v0 = initial_fields(cfg, grid)

    alphas = np.linspace(0.0, 1.0, n)
    if args.beta is None:
        betas, mode = alphas, {"mode": "grid", "n": n}
    else:
        betas, mode = [args.beta], {"mode": "alpha_row", "beta": args.beta, "n": n}

    key = _cache_key({"version": __version__, "command": "sweep", "config": asdict(cfg), **mode})
    cache_dir = Path(args.cache_dir)
    text = None if args.no_cache else _cache_load(cache_dir, key)
    if text is not None:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} (cached)")
    else:
        swept = sweep_grid(alphas, betas, env, sim, u0=u0, v0=v0)
        records = [rec for row in swept.records for rec in row]
        header = ["alpha", "beta", "avg_u", "avg_v", "yield", "outcome", "reason"]
        _write_csv(args.output, header, [_record_row(rec) for rec in records])
        print(f"wrote {args.output}")
        text = Path(args.output).read_text(encoding="utf-8")
        if not args.no_cache:
            _cache_store(cache_dir, key, text)
    if args.plot_script:
        _emit_plot_script(args.output)

    # counted from the CSV, so a cached sweep is judged like a fresh one
    outcomes = [row["outcome"] for row in csv.DictReader(io.StringIO(text))]
    unresolved = outcomes.count("unresolved")
    if unresolved:
        print(f"{unresolved} of {len(outcomes)} cells unresolved", file=sys.stderr)
        if args.strict:
            return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_switch(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    beta = args.beta if args.beta is not None else cfg.beta
    sp = find_switch(beta, env, sim, tol=args.tol)
    if sp is None:
        print(f"beta={beta:g}: no switch inside (beta, 1)")
        return EXIT_OK
    print(
        f"beta={beta:g} alpha_double_star={sp.alpha_double_star:.6g} "
        f"bracket_width={sp.bracket_width:.3g}"
    )
    if args.output:
        _write_csv(
            args.output,
            ["beta", "alpha_double_star", "bracket_width"],
            [[sp.beta, sp.alpha_double_star, sp.bracket_width]],
        )
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_msy(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    rates = harvest_rates(cfg)
    u0, v0 = initial_fields(cfg, grid)
    final = run_to_time(u0, v0, env, rates, sim)
    report = sustainable_yield(final, env, rates)
    print(
        f"alpha={rates.alpha:g} beta={rates.beta:g} sy={report.sy:.8g} "
        f"msy_reference={report.msy_reference:.8g} "
        f"fraction={report.sy / report.msy_reference:.4f} steady={final.steady}"
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg, grid, env = _setup(args)
    sim = simulation_config(cfg)
    report = inequality_suite(env, sim)
    for c in report.checks:
        if not c.applicable:
            print(f"{c.name}: skipped (not applicable)")
        else:
            status = "holds" if c.holds else "VIOLATED"
            print(f"{c.name}: {status} margin={c.margin:.6g}")
    diag = " ".join(f"{k}={v:.6g}" for k, v in report.diagnostics.items())
    print(f"diagnostics: {diag}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harvestcomp",
        description="Competition of two dispersing populations under proportional harvesting",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    def output(p, default=None, plot_script=True):
        p.add_argument(
            "--output",
            default=default,
            help="output CSV path" if default else "optional output CSV path",
        )
        if plot_script:
            p.add_argument("--plot-script", action="store_true", help="emit a plotting companion")

    def strict(p):
        p.add_argument("--strict", action="store_true", help="exit 4 on unresolved results")

    p = sub.add_parser("simulate", help="run one simulation and classify the outcome")
    common(p)
    output(p, default="profile.csv")
    strict(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--random-restarts", type=int, default=0, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("steady", help="solve a semi-trivial single-species steady state")
    common(p)
    output(p, default="steady.csv")
    p.add_argument("--branch", choices=("u", "v"), required=True)
    p.set_defaults(handler=_cmd_steady)

    p = sub.add_parser("eigen", help="principal eigenvalue of the invasion linearization")
    common(p)
    output(p)
    p.add_argument(
        "--around",
        choices=("u", "v"),
        required=True,
        help="semi-trivial branch to linearize around",
    )
    p.set_defaults(handler=_cmd_eigen)

    p = sub.add_parser("bounds", help="coexistence bounds alpha_star for fixed beta values")
    common(p)
    output(p)
    p.add_argument("--betas", default=None, help="comma-separated beta values")
    p.add_argument("--with-switch", action="store_true", help="also find alpha_double_star")
    p.add_argument("--tol", type=float, default=1e-3, help="switch bracket width")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("sweep", help="outcome sweep over harvesting rates")
    common(p)
    output(p, default="sweep.csv")
    strict(p)
    p.add_argument("--grid", type=int, default=None, help="points per axis")
    p.add_argument("--beta", type=float, default=None, help="sweep alpha for this fixed beta")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-dir", default=".harvestcomp_cache")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("switch", help="largest alpha at which the first species can invade")
    common(p)
    output(p, plot_script=False)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_switch)

    p = sub.add_parser("msy", help="sustainable yield of the configured run")
    common(p)
    p.set_defaults(handler=_cmd_msy)

    p = sub.add_parser("check", help="steady-state inequality suite")
    common(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HarvestCompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
