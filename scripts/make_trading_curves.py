#!/usr/bin/env python3
"""Solve the reference problem of configs/reference.cfg for three risk
aversions and write the trading curves side by side, ready for plotting.

Usage: python3 scripts/make_trading_curves.py [out.csv]
"""

import csv
import os
import sys
from dataclasses import replace

import numpy as np

from blocktrade.config import parse_config
from blocktrade.objective import eval_I
from blocktrade.solver import newton_solve

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "reference.cfg")
GAMMAS = (5e-7, 1e-6, 2e-6)


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "trading_curves.csv"
    cfg = parse_config(CONFIG)
    base, opts = cfg.problem, cfg.solve
    curves = {}
    times = None
    for gamma in GAMMAS:
        problem = replace(base, market=replace(base.market, gamma=gamma))
        traj = newton_solve(problem, opts)
        curves[gamma] = traj.q
        times = traj.grid.times
        print(
            f"gamma={gamma:g}: objective {eval_I(problem, traj, psi=0.0):.1f}, "
            f"{traj.iterations} iterations, residual {traj.max_residual:.2e}"
        )
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"q_gamma_{g:g}" for g in GAMMAS])
        for i, t in enumerate(times):
            writer.writerow([f"{t:.17g}"] + [f"{curves[g][i]:.17g}" for g in GAMMAS])
    print(f"wrote {out}")
    assert np.all(curves[2e-6] <= curves[5e-7] + 1e-6), "risk ordering violated"


if __name__ == "__main__":
    main()
