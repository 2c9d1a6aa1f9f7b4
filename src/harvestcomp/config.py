"""Flat key = value run configuration.

One assignment per line, '#' starts a comment. Keys:

    L, n_cells, K, r, P, Q, a, b, alpha, beta,
    dt, t_final, steady_tol, u0, v0

K, r, P, Q, a, b, u0, v0 hold profile expressions; the rest are numbers.
t_final enters only simulate's time march (SimulationConfig); dt is its
step and also bounds u0/dt and v0/dt in the initial-data check of sweep,
simulate_cell and msy. dt, t_final and steady_tol default to
SimulationConfig's defaults, u0 and v0 to sweep.DEFAULT_INITIAL_DENSITY.
Unknown keys, malformed values, and out-of-range numbers fail fast with the
key name and line number.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dynamics import HarvestRates, SimulationConfig
from .errors import ConfigurationError, ExpressionError
from .grid import Field, SpatialGrid
from .profiles import (EnvironmentProfile, _quoted, environment_from_expressions, parse,
                       sample_source, validate_environment)
from .sweep import DEFAULT_INITIAL_DENSITY

_EXPR_KEYS = ("K", "r", "P", "Q", "a", "b", "u0", "v0")
_REQUIRED = ("L", "K", "r", "P", "Q", "a", "b")


@dataclass(frozen=True)
class RunConfig:
    L: float
    K: str
    r: str
    P: str
    Q: str
    a: str
    b: str
    n_cells: int = 800
    alpha: float = 0.0
    beta: float = 0.0
    dt: float = SimulationConfig.dt
    t_final: float = SimulationConfig.t_final
    steady_tol: float = SimulationConfig.steady_tol
    u0: str = repr(DEFAULT_INITIAL_DENSITY)
    v0: str = repr(DEFAULT_INITIAL_DENSITY)


_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str, where: str):
    if key not in _KEY_TYPES:
        raise ConfigurationError(f"{where}: unknown key {_quoted(key)}")
    text = text.strip()
    if key in _EXPR_KEYS:
        if not text:
            raise ConfigurationError(f"{where}: empty expression for {key!r}")
        try:
            parse(text)
        except ExpressionError as exc:
            raise ConfigurationError(f"{where}: bad expression for {key!r}: {exc}") from exc
        return text
    try:
        value = int(text) if key == "n_cells" else float(text)
    except ValueError:
        raise ConfigurationError(
            f"{where}: malformed value for {key!r}: {_quoted(text)}") from None
    _check_range(key, value, where)
    return value


def _check_range(key: str, value, where: str):
    positive = {"L", "dt", "t_final", "steady_tol"}
    nonnegative = {"alpha", "beta"}
    if key in positive and not (np.isfinite(value) and value > 0):
        raise ConfigurationError(f"{where}: {key} must be positive, got {value}")
    if key in nonnegative and not (np.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{where}: {key} must be >= 0, got {value}")
    if key == "n_cells" and value < 3:
        raise ConfigurationError(f"{where}: n_cells must be >= 3, got {value}")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigurationError(
                f"{where}: expected 'key = value', got {_quoted(raw.strip())}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigurationError(f"{where}: duplicate key {_quoted(key)}")
        values[key] = _parse_value(key, value, where)
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigurationError(f"{source}: missing required key(s): {', '.join(missing)}")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply CLI 'key=value' overrides through the same validation. Each
    message names its override by the key's first 60 characters."""
    parsed = {}
    for key, text in overrides.items():
        where = f"override {key}" if len(key) <= 60 else f"override {key[:60]}..."
        parsed[key] = _parse_value(key, text, where)
    return replace(cfg, **parsed)


def build_environment(cfg: RunConfig) -> tuple[SpatialGrid, EnvironmentProfile]:
    grid = SpatialGrid(length=cfg.L, n_cells=cfg.n_cells)
    env = environment_from_expressions(
        grid, K=cfg.K, r=cfg.r, P=cfg.P, Q=cfg.Q, a=cfg.a, b=cfg.b
    )
    return grid, validate_environment(env)


def initial_fields(cfg: RunConfig, grid: SpatialGrid) -> tuple[Field, Field]:
    return (sample_source("initial condition u0", cfg.u0, grid),
            sample_source("initial condition v0", cfg.v0, grid))


def simulation_config(cfg: RunConfig) -> SimulationConfig:
    return SimulationConfig(dt=cfg.dt, t_final=cfg.t_final, steady_tol=cfg.steady_tol)


def harvest_rates(cfg: RunConfig) -> HarvestRates:
    return HarvestRates(alpha=cfg.alpha, beta=cfg.beta)
