"""Command line: solve, price, decompose, grid, simulate, implied-gamma.

Curves and tables are written as CSV for plotting, scalar summaries as JSON
for scripting. Floats are formatted with 17 significant digits so identical
configurations (and seeds) reproduce byte-identical artifacts. A command
yields (artifact, file name, content): a JSON payload for a .json name, else
a (header, rows) table of strings. ``run_command`` writes each artifact,
through the one CSV or the one JSON writer, before it resumes the command.
Failures exit nonzero with a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .montecarlo import MAX_EULER_STEPS, SEED_SCHEME, euler_law, simulate_cash
from .objective import cash_moments, eval_I
from .pricing import floor_parts, implied_gamma, price_finite
from .solver import Trajectory, newton_solve
from .value_function import build_grid, check_structure, hj_residual

__all__ = ["main", "run_command"]

PATHS_BLOCK = 50_000  # samples of paths.csv made Python floats at a time


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header, rows) -> None:
    """The bytes ``csv.writer`` gives, since no field here needs quoting: joined here in 60% of its time."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in itertools.chain([header], rows))


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _trajectory_table(traj: Trajectory):
    """Header t,q,v,p; the speed on row j covers the cell ending at t_j, so row 0 is empty."""
    t, q, v, p = traj.grid.times, traj.q, traj.v, traj.p
    rows = ([_fmt(t[j]), _fmt(q[j]), _fmt(v[j - 1]) if j else "", _fmt(p[j])] for j in range(len(t)))
    return ["t", "q", "v", "p"], rows


def _paths_table(samples: np.ndarray):
    """Header path,wealth; never more than ``PATHS_BLOCK`` samples are Python floats at once."""
    blocks = (samples[start : start + PATHS_BLOCK].tolist() for start in range(0, len(samples), PATHS_BLOCK))
    return ["path", "wealth"], ((str(i), _fmt(x)) for i, x in enumerate(itertools.chain.from_iterable(blocks)))


def _cmd_solve(cfg: RunConfig, out_dir: str):
    traj = newton_solve(cfg.problem, cfg.solve)
    yield "trajectory", "trajectory.csv", _trajectory_table(traj)
    yield "summary", "solve_summary.json", {
        "objective": eval_I(cfg.problem, traj, psi=cfg.problem.market.psi),
        "objective_linear_free": eval_I(cfg.problem, traj, psi=0.0),
        "max_residual": traj.max_residual,
        "iterations": traj.iterations,
        "n_steps": traj.grid.n_steps,
        "history": list(traj.history),
        "steps": list(traj.steps),
    }


def _priced(problem, opts):
    """``price_finite``'s decomposition, refused where a premium in basis points of the MtM q0 * s0 overflows."""
    d = price_finite(problem, opts)
    if not all(bp is None or bp < np.inf for bp in (d.premium_bp_T, d.premium_bp_inf)):
        raise ConfigError(f"the premium in basis points of the MtM {d.mtm} overflows, failed checks: market.s0")
    return d


def _cmd_price(cfg: RunConfig, out_dir: str):
    payload = asdict(_priced(cfg.problem, cfg.solve))
    if cfg.horizons:
        payload["necpr_by_horizon"] = [
            {"horizon": T, "necpr": price_finite(replace(cfg.problem, horizon=T), cfg.solve).necpr_T}
            for T in cfg.horizons
        ]
    yield "price", "price.json", payload


def _cmd_decompose(cfg: RunConfig, out_dir: str):
    rows = []
    for q in cfg.q_list:
        d = _priced(replace(cfg.problem, q0=q), cfg.solve)
        necpr_inf = _fmt(d.necpr_inf) if d.necpr_inf is not None else ""
        rows.append([_fmt(q), _fmt(d.pmi), _fmt(d.lec), necpr_inf, _fmt(d.necpr_T), _fmt(d.premium_bp_T)])
    yield "decomposition", "decomposition.csv", (["q", "pmi", "lec", "necpr_inf", "necpr_T", "premium_bp"], rows)


class FailedCellsError(RuntimeError):
    """Grid cells failed to converge; the grid and its report are written regardless."""


def _cmd_grid(cfg: RunConfig, out_dir: str):
    q_nodes = np.linspace(0.0, cfg.problem.q0, cfg.grid_n_q)
    if not np.all(np.diff(q_nodes) > 0):
        raise ConfigError(f"grid needs problem.q0 > 0 with distinct q-nodes in [0, problem.q0], got {cfg.problem.q0}")
    t_nodes = np.linspace(0.0, cfg.grid_t_max, cfg.grid_n_t)
    grid = build_grid(cfg.problem, t_nodes, q_nodes, cfg.solve, epsilon=cfg.problem.horizon - cfg.grid_t_max)
    rows = ([_fmt(t), *map(_fmt, values)] for t, values in zip(grid.t_nodes, grid.values))
    yield "grid", "value_grid.csv", (["t", *map(_fmt, grid.q_nodes)], rows)

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
    yield "report", "hj_report.json", payload
    if failed:
        solvable = grid.failed[:, grid.q_nodes > 0].size  # the zero-inventory column needs no solve
        report_path = os.path.join(out_dir, "hj_report.json")
        raise FailedCellsError(f"{failed} of {solvable} grid cells to solve did not converge; see {report_path}")


def _euler_gap(cfg: RunConfig, traj: Trajectory, result, analytic):
    """Gaps of the Euler law to the analytic one at ``mc.n_substeps`` and at twice
    that, and coarse / fine: 2 for a first-order scheme. None where the finer
    scheme would pass ``MAX_EULER_STEPS``; a ratio is None where its finer gap is 0."""
    n_fine = 2 * cfg.mc.n_substeps
    if traj.grid.n_steps * n_fine > MAX_EULER_STEPS:
        return None
    gap = {"n_substeps": [cfg.mc.n_substeps, n_fine]}
    for name, exact, coarse, fine in zip(
        ("mean", "variance"),
        (analytic.mean, analytic.variance),
        (result.euler_mean, result.euler_variance),
        euler_law(cfg.problem, traj, n_fine),
    ):
        at_n, at_2n = coarse - exact, fine - exact
        gap[name] = {"at_n_substeps": at_n, "at_2n_substeps": at_2n, "ratio": at_n / at_2n if at_2n != 0 else None}
    return gap


def _cmd_simulate(cfg: RunConfig, out_dir: str):
    if cfg.solve.n_steps * cfg.mc.n_substeps > MAX_EULER_STEPS:
        raise ConfigError(f"simulate needs solve.n_steps * mc.n_substeps at most {MAX_EULER_STEPS}")
    traj = newton_solve(cfg.problem, cfg.solve)
    result = simulate_cash(cfg.problem, traj, cfg.mc, keep_samples=cfg.dump_paths)
    analytic = cash_moments(cfg.problem, traj)
    yield "simulation", "simulation.json", {
        "analytic": {"mean": analytic.mean, "variance": analytic.variance},
        "euler": {"mean": result.euler_mean, "variance": result.euler_variance},
        "empirical": {
            "mean": result.mean,
            "variance": result.variance,
            "se_mean": result.se_mean,
            "se_variance": result.se_variance,
            "excess_kurtosis": result.excess_kurtosis,
        },
        # the verdict against the analytic law; null where one path or a riskless schedule leaves it undefined
        "z_mean": (result.mean - analytic.mean) / result.se_mean if result.se_mean > 0 else None,
        "variance_ratio": result.variance / analytic.variance if analytic.variance > 0 else None,
        # the deterministic verdict on the scheme: its bias and observed order, free of sampling error
        "euler_gap": _euler_gap(cfg, traj, result, analytic),
        "n_paths": result.n_paths,
        "seed": cfg.mc.seed,
        "seed_scheme": SEED_SCHEME,
    }
    if cfg.dump_paths and result.samples is not None:
        yield "paths", "paths.csv", _paths_table(result.samples)


def _cmd_implied_gamma(cfg: RunConfig, out_dir: str):
    if cfg.quoted_premium is None:
        raise ConfigError("implied-gamma needs price.quoted_premium in the config")
    yield "implied_gamma", "implied_gamma.json", {
        "gamma": implied_gamma(cfg.problem, cfg.quoted_premium),
        "quoted_premium": cfg.quoted_premium,
        "floor": sum(floor_parts(cfg.problem)),
    }


_DISPATCH = {
    "solve": _cmd_solve,
    "price": _cmd_price,
    "decompose": _cmd_decompose,
    "grid": _cmd_grid,
    "simulate": _cmd_simulate,
    "implied-gamma": _cmd_implied_gamma,
}


def run_command(command: str, cfg: RunConfig, out_dir: str) -> dict:
    """Run one subcommand; returns a name -> path map of the artifacts it wrote."""
    if command not in _DISPATCH:
        raise ValueError(f"unknown command {command!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {out_dir} cannot be made a directory: {exc}") from None
    artifacts = {}
    for name, file_name, content in _DISPATCH[command](cfg, out_dir):
        path = os.path.join(out_dir, file_name)
        if file_name.endswith(".json"):
            _write_json(path, content)
        else:
            _write_csv(path, *content)
        artifacts[name] = path
    return artifacts


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
    parser = _Parser(prog="blocktrade", description="Optimal liquidation curves and block-trade pricing")
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
