"""Command line: solve, price, decompose, grid, simulate, implied-gamma.

Curves and tables are written as CSV for plotting, scalar summaries as JSON
for scripting. Floats are formatted with 17 significant digits so identical
configurations (and seeds) reproduce byte-identical artifacts. Failures exit
nonzero with a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .montecarlo import simulate_cash
from .objective import cash_moments, eval_I
from .pricing import implied_gamma, price_finite
from .solver import Grid, Trajectory, newton_solve
from .value_function import ValueGrid, build_grid, check_structure, hj_residual

__all__ = ["main", "run_command", "write_trajectory_csv", "read_trajectory_csv"]

COMMANDS = ("solve", "price", "decompose", "grid", "simulate", "implied-gamma")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Header t,q,v,p; the speed on row j covers the cell ending at t_j, so row 0 is empty."""
    times = traj.grid.times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "q", "v", "p"])
        for j in range(len(times)):
            v = "" if j == 0 else _fmt(traj.v[j - 1])
            writer.writerow([_fmt(times[j]), _fmt(traj.q[j]), v, _fmt(traj.p[j])])


def read_trajectory_csv(path: str) -> Trajectory:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "q", "v", "p"]:
            raise ValueError(f"{path}: expected header t,q,v,p")
        rows = [row for row in reader if row]
    t = np.array([float(r[0]) for r in rows])
    q = np.array([float(r[1]) for r in rows])
    p = np.array([float(r[3]) for r in rows])
    v = np.array([float(r[2]) for r in rows[1:]])
    steps = np.diff(t)
    if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValueError(f"{path}: non-uniform time grid")
    grid = Grid(n_steps=len(t) - 1, t_start=float(t[0]), t_end=float(t[-1]))
    return Trajectory(grid=grid, q=q, p=p, v=v)


def write_value_grid_csv(path: str, grid: ValueGrid) -> None:
    """Rows are time nodes, columns inventory nodes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [_fmt(q) for q in grid.q_nodes])
        for i, t in enumerate(grid.t_nodes):
            writer.writerow([_fmt(t)] + [_fmt(x) for x in grid.values[i]])


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _decomposition_dict(decomp) -> dict:
    return dataclasses.asdict(decomp)


def _cmd_solve(cfg: RunConfig, out_dir: str) -> dict:
    traj = newton_solve(cfg.problem, cfg.solve)
    curve_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(curve_path, traj)
    summary = {
        "objective": eval_I(cfg.problem, traj, psi=cfg.problem.market.psi),
        "objective_linear_free": eval_I(cfg.problem, traj, psi=0.0),
        "max_residual": traj.max_residual,
        "iterations": traj.iterations,
        "n_steps": traj.grid.n_steps,
    }
    summary_path = os.path.join(out_dir, "solve_summary.json")
    _write_json(summary_path, summary)
    return {"trajectory": curve_path, "summary": summary_path}


def _cmd_price(cfg: RunConfig, out_dir: str) -> dict:
    payload = _decomposition_dict(price_finite(cfg.problem, cfg.solve))
    if cfg.horizons:
        by_horizon = []
        for T in cfg.horizons:
            probe = replace(cfg.problem, horizon=T)
            traj = newton_solve(probe, cfg.solve)
            by_horizon.append({"horizon": T, "necpr": eval_I(probe, traj, psi=0.0)})
        payload["necpr_by_horizon"] = by_horizon
    path = os.path.join(out_dir, "price.json")
    _write_json(path, payload)
    return {"price": path}


def _cmd_decompose(cfg: RunConfig, out_dir: str) -> dict:
    path = os.path.join(out_dir, "decomposition.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "pmi", "lec", "necpr_inf", "necpr_T", "premium_bp"])
        for q in cfg.q_list:
            decomp = price_finite(replace(cfg.problem, q0=q), cfg.solve)
            writer.writerow(
                [
                    _fmt(q),
                    _fmt(decomp.pmi),
                    _fmt(decomp.lec),
                    _fmt(decomp.necpr_inf) if decomp.necpr_inf is not None else "",
                    _fmt(decomp.necpr_T),
                    _fmt(decomp.premium_bp_T),
                ]
            )
    return {"decomposition": path}


def _cmd_grid(cfg: RunConfig, out_dir: str) -> dict:
    T = cfg.problem.horizon
    epsilon = cfg.grid_epsilon if cfg.grid_epsilon is not None else 0.05 * T
    t_max = cfg.grid_t_max if cfg.grid_t_max is not None else T - epsilon
    t_nodes = np.linspace(0.0, t_max, cfg.grid_n_t)
    q_nodes = np.linspace(0.0, cfg.problem.q0, cfg.grid_n_q)
    grid = build_grid(cfg.problem, t_nodes, q_nodes, cfg.solve, epsilon=epsilon)
    grid_path = os.path.join(out_dir, "value_grid.csv")
    write_value_grid_csv(grid_path, grid)

    report = hj_residual(grid)
    structure = check_structure(grid)
    payload = {
        "hj_max_abs": report.max_abs,
        "hj_max_normalized": report.max_normalized,
        "hj_argmax": {"t": report.argmax[0], "q": report.argmax[1]},
        "structure": [dataclasses.asdict(c) for c in structure.checks],
        "structure_ok": structure.ok,
    }
    report_path = os.path.join(out_dir, "hj_report.json")
    _write_json(report_path, payload)
    return {"grid": grid_path, "report": report_path}


def _cmd_simulate(cfg: RunConfig, out_dir: str) -> dict:
    traj = newton_solve(cfg.problem, cfg.solve)
    result = simulate_cash(cfg.problem, traj, cfg.mc, keep_samples=cfg.dump_paths)
    analytic = cash_moments(cfg.problem, traj)
    payload = {
        "analytic": {"mean": analytic.mean, "variance": analytic.variance},
        "empirical": {
            "mean": result.mean,
            "variance": result.variance,
            "se_mean": result.se_mean,
            "se_variance": result.se_variance,
            "excess_kurtosis": result.excess_kurtosis,
        },
        "n_paths": result.n_paths,
        "seed": cfg.mc.seed,
    }
    path = os.path.join(out_dir, "simulation.json")
    _write_json(path, payload)
    artifacts = {"simulation": path}
    if cfg.dump_paths and result.samples is not None:
        paths_csv = os.path.join(out_dir, "paths.csv")
        with open(paths_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "wealth"])
            for i, x in enumerate(result.samples):
                writer.writerow([i, _fmt(x)])
        artifacts["paths"] = paths_csv
    return artifacts


def _cmd_implied_gamma(cfg: RunConfig, out_dir: str) -> dict:
    if cfg.quoted_premium is None:
        raise ConfigError("implied-gamma needs price.quoted_premium in the config")
    problem = cfg.problem
    gamma = implied_gamma(problem, cfg.quoted_premium)
    payload = {
        "gamma": gamma,
        "quoted_premium": cfg.quoted_premium,
        "floor": problem.impact.integral(problem.q0) + problem.market.psi * problem.q0,
    }
    path = os.path.join(out_dir, "implied_gamma.json")
    _write_json(path, payload)
    return {"implied_gamma": path}


_DISPATCH = {
    "solve": _cmd_solve,
    "price": _cmd_price,
    "decompose": _cmd_decompose,
    "grid": _cmd_grid,
    "simulate": _cmd_simulate,
    "implied-gamma": _cmd_implied_gamma,
}


def run_command(command: str, cfg: RunConfig, out_dir: str) -> dict:
    """Run one subcommand; returns a name -> path map of written artifacts."""
    if command not in _DISPATCH:
        raise ValueError(f"unknown command {command!r}")
    os.makedirs(out_dir, exist_ok=True)
    return _DISPATCH[command](cfg, out_dir)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.n_steps is not None:
        cfg = replace(cfg, solve=replace(cfg.solve, n_steps=args.n_steps))
    if args.seed is not None:
        cfg = replace(cfg, mc=replace(cfg.mc, seed=args.seed))
    if args.q_list is not None:
        values = tuple(float(s) for s in args.q_list.split(",") if s.strip())
        cfg = replace(cfg, q_list=values)
    if args.horizons is not None:
        values = tuple(float(s) for s in args.horizons.split(",") if s.strip())
        cfg = replace(cfg, horizons=values)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocktrade",
        description="Optimal liquidation curves and block-trade pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out-dir", default=".", help="directory for artifacts")
        p.add_argument("--n-steps", type=int, default=None, help="override solve.n_steps")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--q-list", default=None, help="override price.q_list (comma separated)")
        p.add_argument("--horizons", default=None, help="override price.horizons (comma separated)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
        artifacts = run_command(args.command, cfg, args.out_dir)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    print(json.dumps({"artifacts": artifacts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
