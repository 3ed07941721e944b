"""Regenerate the stored reference outputs the correctness gates compare against.

Run from the repository root:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/desk_pool.json`` (the desk request pool with
each request's NECPR, or null where the solver does not converge) and
``perfbench/reference/surface.json`` (the reference value surface). Only
regenerate them on purpose: a change that moves these numbers changes results,
and the gates exist to catch that.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from blocktrade import NonConvergenceError, build_grid, check_structure, price_finite  # noqa: E402
from blocktrade.config import parse_config  # noqa: E402

import workloads as wl  # noqa: E402


def _write(path, payload):
    """Strict JSON with one line per list item, so that a diff shows what moved."""
    fields = []
    for key, value in payload.items():
        if isinstance(value, list):
            items = ",\n  ".join(json.dumps(v, allow_nan=False) for v in value)
            value_text = f"[\n  {items}\n ]"
        else:
            value_text = json.dumps(value, allow_nan=False)
        fields.append(f"{json.dumps(key)}: {value_text}")
    with open(path, "w") as fh:
        fh.write("{\n " + ",\n ".join(fields) + "\n}\n")


def desk_pool(cfg):
    opts = wl.solve_options(cfg)
    requests = wl.draw_pool()
    for req in requests:
        try:
            req["necpr"] = price_finite(wl.desk_problem(cfg.problem, req), opts).necpr_T
        except NonConvergenceError:
            req["necpr"] = None
    return {
        "pool_seed": wl.POOL_SEED,
        "n_steps": wl.N_STEPS,
        "nonconverged": sum(r["necpr"] is None for r in requests),
        "requests": requests,
    }


def surface(cfg):
    t_nodes, q_nodes = wl.grid_nodes(cfg.problem)
    grid = build_grid(
        cfg.problem, t_nodes, q_nodes, wl.solve_options(cfg), epsilon=0.05 * cfg.problem.horizon
    )
    return {
        "n_steps": wl.N_STEPS,
        "t_nodes": t_nodes.tolist(),
        "q_nodes": q_nodes.tolist(),
        "values": [[None if f else float(x) for x, f in zip(row, frow)]
                   for row, frow in zip(grid.values, grid.failed)],
        "failed": grid.failed.tolist(),
        "structure_ok": check_structure(grid).ok,
    }


def main():
    cfg = parse_config(wl.CONFIG_PATH)
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    pool = desk_pool(cfg)
    _write(wl.DESK_POOL, pool)
    print(f"desk pool: {len(pool['requests'])} requests, {pool['nonconverged']} nonconverged")
    _write(wl.SURFACE_REFERENCE, surface(cfg))
    print("surface reference written")


if __name__ == "__main__":
    main()
