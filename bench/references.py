"""Regenerate bench/references.json, the committed answers the benchmark
checks against.

    python3 bench/references.py

Two parts are computed here without the code under test, from the same
finite-volume discretization but different solvers:

* alpha_star on a fine grid (a = b = 1) for every beta the seeded `bounds`
  workload can draw, from a Newton solve of the harvested semi-trivial
  state with banded LU;
* the `switch` reference: the root in alpha of the principal eigenvalue of
  u invading (0, v_beta) at beta = 0.4 on example1's own grid (n = 800),
  from LAPACK's symmetric tridiagonal eigensolver and brentq.

The third part, the `grid` outcome map for seed 0, is a regression
reference recorded from the package itself (the default inputs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq

HERE = Path(__file__).resolve().parent
OUT = HERE / "references.json"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

L = 4.0
R_GROWTH = 1.1
FINE_N = 12800

_g1 = lambda x: 10 * np.exp(-12.5 * np.pi**2 * (x - 2) ** 2)
_g2 = lambda x: np.exp(-50 * np.pi**2 * (x - 2) ** 2)

# (K, P, Q, ideal free pair) of the bundled configs, written out by hand so
# the references do not depend on the package's expression parser.
CONFIGS = {
    "example1": (lambda x: 2 + np.cos(np.pi * x), lambda x: 2 + np.cos(np.pi * x),
                 lambda x: np.ones_like(x), False),
    "example2": (lambda x: _g1(x) - _g2(x) + 1, lambda x: _g1(x) - _g2(x) + 1,
                 lambda x: np.ones_like(x), False),
    "example3": (lambda x: 2 + np.cos(np.pi * x), lambda x: 1.1 + 0.5 * np.cos(np.pi * x),
                 lambda x: 0.9 + 0.5 * np.cos(np.pi * x), True),
    "example4": (lambda x: _g1(x) + _g2(x) + 3, lambda x: 1 + _g1(x),
                 lambda x: _g2(x) + 2, True),
    "example4b": (lambda x: _g1(x) + _g2(x) + 3, lambda x: _g1(x) + _g2(x) + 3,
                  lambda x: _g2(x) + 2, False),
}


def bands(d: float, R: np.ndarray, h: float):
    """(sub, diag, sup) of div[d grad(w/R)] with zero-flux faces."""
    n = len(R)
    c = d / (h * h)
    sub, diag, sup = np.zeros(n), np.zeros(n), np.zeros(n)
    sup[:-1] = c / R[1:]
    sub[1:] = c / R[:-1]
    diag[:-1] -= c / R[:-1]
    diag[1:] -= c / R[1:]
    return sub, diag, sup


def semitrivial(d: float, R, K, r, scale: float, h: float) -> np.ndarray:
    """Newton solve of D w + scale*r*w*(1 - w/(scale*K)) = 0 from w = scale*K."""
    sub, diag, sup = bands(d, R, h)
    rr, Ks = scale * r, scale * K
    w = Ks.copy()
    for _ in range(100):
        Dw = diag * w
        Dw[:-1] += sup[:-1] * w[1:]
        Dw[1:] += sub[1:] * w[:-1]
        F = Dw + rr * w * (1 - w / Ks)
        ab = np.zeros((3, len(w)))
        ab[0, 1:] = sup[:-1]
        ab[1] = diag + rr * (1 - 2 * w / Ks)
        ab[2, :-1] = sub[1:]
        dw = solve_banded((1, 1), ab, -F)
        w += dw
        if np.max(np.abs(dw)) < 1e-12 * np.max(w):
            return w
    raise RuntimeError("Newton did not converge")


def alpha_star_pair(name: str, beta: float, n: int) -> tuple[float, float | None]:
    Kf, Pf, Qf, ifp = CONFIGS[name]
    h = L / n
    x = (np.arange(n) + 0.5) * h
    K, P, Q = Kf(x), Pf(x), Qf(x)
    r = np.full(n, R_GROWTH)
    v = semitrivial(1.0, Q, K, r, 1.0 - beta, h)
    plain = 1.0 - np.sum(r * v) / np.sum(r * K)
    pair = 1.0 - np.sum(P * r * v / K) / np.sum(r * P) if ifp else None
    return float(plain), None if pair is None else float(pair)


def switch_root(beta: float, n: int) -> float:
    """alpha where sigma1 of u invading (0, v_beta) changes sign (example1)."""
    Kf, Pf, Qf, _ = CONFIGS["example1"]
    h = L / n
    x = (np.arange(n) + 0.5) * h
    K, P, Q = Kf(x), Pf(x), Qf(x)
    r = np.full(n, R_GROWTH)
    v = semitrivial(1.0, Q, K, r, 1.0 - beta, h)
    sub, diag, sup = bands(1.0, P, h)
    off = sup[:-1] * np.sqrt(P[1:] / P[:-1])  # symmetrized by sqrt(P)

    def sigma1(alpha):
        d = diag + r * (1 - alpha - v / K)
        return float(eigh_tridiagonal(d, off, select="i", select_range=(n - 1, n - 1),
                                      eigvals_only=True)[0])

    return brentq(sigma1, beta, 1.0, xtol=1e-13)


def grid_outcomes_seed0() -> list[str]:
    w = workloads.Grid(workloads.load_package(), seed=0, refs={})
    sg = w.run(jobs=2)
    return [workloads.encode_row(row) for row in sg.records]


def main() -> None:
    betas = sorted({round(b + 0.01 * j, 2) for b in workloads.BASE_BETAS
                    for j in range(workloads.BETA_JITTER_STEPS)})
    alpha_star = {
        name: {f"{b:.2f}": alpha_star_pair(name, b, FINE_N) for b in betas}
        for name in CONFIGS
    }
    refs = {
        "alpha_star_fine": {"n_cells": FINE_N, "a": 1.0, "b": 1.0, "values": alpha_star},
        "switch_root": {"config": "example1", "beta": 0.4, "n_cells": 800,
                        "alpha": switch_root(0.4, 800)},
        "grid_outcomes_seed0": grid_outcomes_seed0(),
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
