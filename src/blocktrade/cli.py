"""Command line: solve, price, decompose, grid, simulate, implied-gamma.

Curves and tables are written as CSV for plotting, scalar summaries as JSON
for scripting. Floats are formatted with 17 significant digits so identical
configurations (and seeds) reproduce byte-identical artifacts. Failures exit
nonzero with a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .montecarlo import SEED_SCHEME, simulate_cash
from .objective import cash_moments, eval_I
from .pricing import floor_parts, implied_gamma, price_finite
from .solver import Grid, Trajectory, newton_solve
from .value_function import MARGIN, ValueGrid, _evenly_spaced, build_grid, check_structure, hj_residual

__all__ = ["main", "run_command", "write_trajectory_csv", "read_trajectory_csv", "write_paths_csv"]

PATHS_BLOCK = 50_000  # rows of paths.csv formatted per write


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
    if not _evenly_spaced(t):
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


def write_paths_csv(path: str, samples: np.ndarray) -> None:
    """Header path,wealth; the bytes ``csv.writer`` gives, formatted a block of rows at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("path,wealth\r\n")
        for start in range(0, len(samples), PATHS_BLOCK):
            block = samples[start : start + PATHS_BLOCK].tolist()
            fh.write("".join(f"{i},{_fmt(x)}\r\n" for i, x in enumerate(block, start)))


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
        "history": list(traj.history),
        "no_descent": traj.no_descent,
        "steps": list(traj.steps),
    }
    summary_path = os.path.join(out_dir, "solve_summary.json")
    _write_json(summary_path, summary)
    return {"trajectory": curve_path, "summary": summary_path}


def _cmd_price(cfg: RunConfig, out_dir: str) -> dict:
    payload = asdict(price_finite(cfg.problem, cfg.solve))
    if cfg.horizons:
        payload["necpr_by_horizon"] = [
            {"horizon": T, "necpr": price_finite(replace(cfg.problem, horizon=T), cfg.solve).necpr_T}
            for T in cfg.horizons
        ]
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


class FailedCellsError(RuntimeError):
    """Grid cells failed to converge; the grid and its report are written regardless."""


def _cmd_grid(cfg: RunConfig, out_dir: str) -> dict:
    T = cfg.problem.horizon
    epsilon = cfg.grid_epsilon if cfg.grid_epsilon is not None else MARGIN * T
    t_max = cfg.grid_t_max if cfg.grid_t_max is not None else T - epsilon
    t_nodes = np.linspace(0.0, t_max, cfg.grid_n_t)
    q_nodes = np.linspace(0.0, cfg.problem.q0, cfg.grid_n_q)
    grid = build_grid(cfg.problem, t_nodes, q_nodes, cfg.solve, epsilon=epsilon)
    grid_path = os.path.join(out_dir, "value_grid.csv")
    write_value_grid_csv(grid_path, grid)

    failed = int(grid.failed.sum())
    converged = grid.residuals[~grid.failed & (grid.q_nodes > 0)]
    payload = {
        "failed_cells": failed,
        "newton_iterations": {"total": int(grid.iterations.sum()), "max": int(grid.iterations.max())},
        "newton_residual": {"max": float(converged.max()) if converged.size else None},
        # the HJ and structure checks need every cell; with failures they are null
        "hj_max_abs": None,
        "hj_max_normalized": None,
        "hj_argmax": None,
        "structure": None,
        "structure_ok": None,
    }
    if not failed:
        report = hj_residual(grid)
        structure = check_structure(grid)
        payload.update(
            hj_max_abs=report.max_abs,
            hj_max_normalized=report.max_normalized,
            hj_argmax={"t": report.argmax[0], "q": report.argmax[1]},
            structure=[asdict(c) for c in structure.checks],
            structure_ok=structure.ok,
        )
    report_path = os.path.join(out_dir, "hj_report.json")
    _write_json(report_path, payload)
    if failed:
        solvable = grid.failed[:, grid.q_nodes > 0].size  # the zero-inventory column needs no solve
        raise FailedCellsError(
            f"{failed} of {solvable} grid cells to solve did not converge; see {report_path}"
        )
    return {"grid": grid_path, "report": report_path}


def _cmd_simulate(cfg: RunConfig, out_dir: str) -> dict:
    traj = newton_solve(cfg.problem, cfg.solve)
    result = simulate_cash(cfg.problem, traj, cfg.mc, keep_samples=cfg.dump_paths)
    analytic = cash_moments(cfg.problem, traj)
    # the verdict against the analytic law; null where a single path or a
    # riskless schedule leaves it undefined
    z_mean = (result.mean - analytic.mean) / result.se_mean if result.se_mean > 0 else None
    ratio = result.variance / analytic.variance if analytic.variance > 0 else None
    payload = {
        "analytic": {"mean": analytic.mean, "variance": analytic.variance},
        "euler": {"mean": result.euler_mean, "variance": result.euler_variance},
        "empirical": {
            "mean": result.mean,
            "variance": result.variance,
            "se_mean": result.se_mean,
            "se_variance": result.se_variance,
            "excess_kurtosis": result.excess_kurtosis,
        },
        "z_mean": z_mean,
        "variance_ratio": ratio,
        "n_paths": result.n_paths,
        "seed": cfg.mc.seed,
        "seed_scheme": SEED_SCHEME,
    }
    path = os.path.join(out_dir, "simulation.json")
    _write_json(path, payload)
    artifacts = {"simulation": path}
    if cfg.dump_paths and result.samples is not None:
        paths_csv = os.path.join(out_dir, "paths.csv")
        write_paths_csv(paths_csv, result.samples)
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
        "floor": sum(floor_parts(problem, problem.q0)),
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


# flag -> the config key it overrides; the value is parsed and checked as that key is
_FLAGS = {
    "--n-steps": "solve.n_steps",
    "--seed": "mc.seed",
    "--q-list": "price.q_list",
    "--horizons": "price.horizons",
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ConfigError``, so it gets the error JSON too."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="blocktrade",
        description="Optimal liquidation curves and block-trade pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out-dir", default=".", help="directory for artifacts")
        for flag, key in _FLAGS.items():
            p.add_argument(flag, dest=key, help=f"override {key}")

    try:
        args = vars(parser.parse_args(argv))
        overrides = [(key, args[key]) for key in _FLAGS.values() if args[key] is not None]
        cfg = parse_config(args["config"], overrides)
        artifacts = run_command(args["command"], cfg, args["out_dir"])
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    print(json.dumps({"artifacts": artifacts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
