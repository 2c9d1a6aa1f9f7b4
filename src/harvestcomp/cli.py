"""Command-line interface.

Subcommands: simulate, steady, eigen, bounds, sweep, switch, msy, check.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unresolved classification under --strict.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import OutcomeRecord, alpha_star, inequality_suite
from .config import (
    RunConfig,
    apply_overrides,
    build_environment,
    harvest_rates,
    initial_fields,
    load_config,
    simulation_config,
)
from .dynamics import HarvestRates, run_to_time, solve_semitrivial
from .errors import ConfigurationError, HarvestCompError, NumericalError
from .grid import average, integrate
from .spectral import sign
from .sweep import CellFailure, find_switch, invasion_eigen, simulate_cell, sweep_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNRESOLVED = 4


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


def _print_record(record: OutcomeRecord | CellFailure) -> None:
    where = f"alpha={record.alpha:g} beta={record.beta:g}"
    if isinstance(record, CellFailure):
        print(f"outcome=unresolved {where} reason={record.message}")
        return
    print(
        f"outcome={record.outcome.value} {where} "
        f"avg_u={record.avg_u:.6g} avg_v={record.avg_v:.6g} "
        f"yield={record.total_yield:.6g}"
    )


# --------------------------------------------------------------------------
# output CSV and its plot companion


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


def _create(path):
    """Open path for writing text; ConfigurationError names a path that
    cannot be opened and why."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None


def _write_output(args, header: list[str], rows) -> None:
    """Write the --output CSV and, under --plot-script (not registered for
    every command), a matplotlib companion next to it."""
    with _create(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a field holding a comma
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {args.output}")
    if getattr(args, "plot_script", False):
        csv_path = Path(args.output)
        script = csv_path.with_name(f"plot_{csv_path.stem}.py")
        png = str(csv_path.with_suffix(".png"))
        with _create(script) as fh:
            fh.write(_PLOT_TEMPLATE.format(csv=str(csv_path), png=png))
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
    """The run configuration, its grid, environment and SimulationConfig."""
    cfg = _resolve_config(args)
    grid, env = build_environment(cfg)
    return cfg, grid, env, simulation_config(cfg)


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
    """The sweep record of the configured cell, and the profiles of the
    march from (u0, v0); --strict fails an undecided cell or a march that
    does not settle by t_final."""
    cfg, grid, env, sim = _setup(args)
    rates = harvest_rates(cfg)
    u0, v0 = initial_fields(cfg, grid)
    final = run_to_time(u0, v0, env, rates, sim)
    (record,) = sweep_grid([rates.alpha], [rates.beta], env, sim, u0=u0, v0=v0).records[0]
    _print_record(record)
    print(f"t={final.t:g} steady={final.steady} dudt_inf={final.dudt_inf:.3e}")
    _write_output(args, ["x", "u", "v"], zip(grid.centers, final.u, final.v))
    if args.strict and (isinstance(record, CellFailure) or not final.steady):
        return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_steady(args) -> int:
    cfg, grid, env, sim = _setup(args)
    rate = cfg.alpha if args.branch == "u" else cfg.beta
    w = solve_semitrivial(args.branch, env, rate, sim)
    print(
        f"branch={args.branch} rate={rate:g} avg_w={average(w, grid):.8g} "
        f"integral_rw={integrate(env.r * w, grid):.8g}"
    )
    _write_output(args, ["x", "w"], zip(grid.centers, w))
    return EXIT_OK


def _cmd_eigen(args) -> int:
    cfg, grid, env, sim = _setup(args)
    rates = harvest_rates(cfg)
    rate = cfg.alpha if args.around == "u" else cfg.beta
    resident = solve_semitrivial(args.around, env, rate, sim)
    invader = "v" if args.around == "u" else "u"
    if invader == "v":  # v invading (u_alpha, 0) is u invading the swapped environment
        env, rates = env.swapped(), HarvestRates(rates.beta, rates.alpha)
    result = invasion_eigen(env, rates, resident)
    verdict = {1: "unstable (invasible)", -1: "stable", 0: "neutral"}[
        sign(result.sigma1, env.neutral_level)
    ]
    print(
        f"around={args.around}-branch invader={invader} sigma1={result.sigma1:.10g} "
        f"({verdict}, residual={result.residual:.3e}, steps={result.iterations})"
    )
    if args.output:
        _write_output(args, ["x", "psi"], zip(grid.centers, result.psi))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg, grid, env, sim = _setup(args)
    betas = [cfg.beta] if args.betas is None else _parse_betas(args.betas)
    rows = []
    for beta in betas:
        report = alpha_star(beta, env, sim)
        if args.with_switch:
            sp = find_switch(beta, env, sim, tol=args.tol)
            a_switch = sp.alpha_double_star if sp is not None else float("nan")
        else:
            a_switch = float("nan")
        print(
            f"beta={beta:g} alpha_star={report.effective_alpha_star:.6g} "
            f"c_star={report.c_star:.6g} alpha_double_star={a_switch:.6g}"
        )
        rows.append([beta, report.c_star, report.effective_alpha_star, a_switch])
    if args.output:
        _write_output(args, ["beta", "c_star", "alpha_star", "alpha_double_star"], rows)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    n = args.grid if args.grid is not None else 41 if args.beta is None else 101
    if n < 1:
        raise ConfigurationError(f"--grid needs at least 1 point per axis, got {n}")
    cfg, grid, env, sim = _setup(args)
    u0, v0 = initial_fields(cfg, grid)

    alphas = np.linspace(0.0, 1.0, n)
    betas = alphas if args.beta is None else [args.beta]
    swept = sweep_grid(alphas, betas, env, sim, u0=u0, v0=v0)
    rows = [_record_row(rec) for row in swept.records for rec in row]
    _write_output(args, ["alpha", "beta", "avg_u", "avg_v", "yield", "outcome", "reason"], rows)
    unresolved = len(swept.failures())
    if unresolved:
        print(f"{unresolved} of {len(rows)} cells unresolved", file=sys.stderr)
        if args.strict:
            return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_switch(args) -> int:
    cfg, grid, env, sim = _setup(args)
    sp = find_switch(cfg.beta, env, sim, tol=args.tol)
    if sp is None:
        empty = f"the search interval [beta + tol, 1 - tol] is empty at tol={args.tol:g}"
        why = empty if cfg.beta + args.tol >= 1.0 - args.tol else "no switch inside (beta, 1)"
        print(f"beta={cfg.beta:g}: {why}")
        return EXIT_OK
    print(
        f"beta={cfg.beta:g} alpha_double_star={sp.alpha_double_star:.6g} "
        f"bracket_width={sp.bracket_width:.3g}"
    )
    if args.output:
        _write_output(
            args,
            ["beta", "alpha_double_star", "bracket_width"],
            [[sp.beta, sp.alpha_double_star, sp.bracket_width]],
        )
    return EXIT_OK


def _cmd_msy(args) -> int:
    cfg, grid, env, sim = _setup(args)
    rates = harvest_rates(cfg)
    record = simulate_cell(rates.alpha, rates.beta, env, sim, *initial_fields(cfg, grid))
    ceiling = integrate(0.25 * env.r * env.K, grid)
    print(
        f"alpha={rates.alpha:g} beta={rates.beta:g} sy={record.total_yield:.8g} "
        f"msy_reference={ceiling:.8g} fraction={record.total_yield / ceiling:.4f} "
        f"outcome={record.outcome.value}"
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg, grid, env, sim = _setup(args)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a key = value config file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    def command(name, help):
        return sub.add_parser(name, parents=[common], help=help)

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

    p = command("simulate", help="outcome of one cell, and the profiles of a simulation")
    output(p, default="profile.csv")
    strict(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = command("steady", help="solve a semi-trivial single-species steady state")
    output(p, default="steady.csv")
    p.add_argument("--branch", choices=("u", "v"), required=True)
    p.set_defaults(handler=_cmd_steady)

    p = command("eigen", help="principal eigenvalue of the invasion linearization")
    output(p)
    p.add_argument(
        "--around",
        choices=("u", "v"),
        required=True,
        help="semi-trivial branch to linearize around",
    )
    p.set_defaults(handler=_cmd_eigen)

    p = command("bounds", help="coexistence bounds alpha_star for fixed beta values")
    output(p)
    p.add_argument("--betas", default=None, help="comma-separated beta values")
    p.add_argument("--with-switch", action="store_true", help="also find alpha_double_star")
    p.add_argument("--tol", type=float, default=1e-3, help="switch bracket width")
    p.set_defaults(handler=_cmd_bounds)

    p = command("sweep", help="outcome sweep over harvesting rates")
    output(p, default="sweep.csv")
    strict(p)
    p.add_argument("--grid", type=int, default=None, help="points per axis")
    p.add_argument("--beta", type=float, default=None, help="sweep alpha for this fixed beta")
    p.set_defaults(handler=_cmd_sweep)

    p = command("switch", help="largest alpha at which the first species can invade")
    output(p, plot_script=False)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_switch)

    p = command("msy", help="sustainable yield of the configured cell")
    p.set_defaults(handler=_cmd_msy)

    p = command("check", help="steady-state inequality suite")
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
