"""Bit-identity digest of the benchmark's solves: one sha256 over every desk-pool solve and the reference surface.

Each request of ``perfbench/reference/desk_pool.json`` is solved as the
``desk`` workload prices it: the reference config's problem with the request's
q0, horizon and gamma, at the stored ``n_steps``, then valued by ``eval_I``.
The digest covers each solve's q and p (as bytes), iterations, history, steps
and NECPR, or the error text of a solve that fails. The 21 x 21
surface of ``perfbench/reference/surface.json`` is then built on its stored
nodes, and its values, failure mask, iterations and residuals go into the same
digest. The reference files are read, never written. Two trees that print the
same digest solve every request with the same bits.

Run from the repository root (about 10 s):

    PYTHONPATH=src python3 tools/pool_digest.py

It prints the digest, the number of solves and failures, and the worst
relative error against the stored NECPRs and surface values. Beside them it
prints the exact work of the solves: over the converged requests and over the
failed ones, the Newton iterations and the line-search halvings (entries of
``steps`` below 1); over the whole pool, the shooting
kernels (calls of ``solver._propagate``), the ``dgtsv`` fallbacks (calls of
``solver._direction_by_banded``) and the block retries (calls of
``solver._solve_batch`` past one per request), counted by wrapping those
functions in this process only, which leaves every bit as it is; over the
surface, the iterations of its cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from blocktrade import solver
from blocktrade.config import parse_config
from blocktrade.objective import eval_I
from blocktrade.solver import NonConvergenceError, newton_solve
from blocktrade.value_function import build_grid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "reference.cfg")
REFERENCE = os.path.join(ROOT, "perfbench", "reference")
SURFACE_MARGIN = 0.05  # the surface's epsilon, as a fraction of the horizon


def _load(name: str) -> dict:
    with open(os.path.join(REFERENCE, name)) as fh:
        return json.load(fh)


def _relative(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def problem_of(cfg, request: dict):
    """The reference problem with a desk request's q0, horizon and gamma."""
    market = replace(cfg.problem.market, gamma=request["gamma"])
    return replace(cfg.problem, q0=request["q0"], horizon=request["horizon"], market=market)


@contextmanager
def counting_calls(*names):
    """Count the calls of the ``solver`` functions ``names`` while the block runs: yields a dict by name."""
    calls, originals = dict.fromkeys(names, 0), {name: getattr(solver, name) for name in names}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return call

    try:
        for name in names:
            setattr(solver, name, counted(name))
        yield calls
    finally:
        for name, function in originals.items():
            setattr(solver, name, function)


def desk(digest, cfg) -> tuple[dict, dict, float, dict]:
    """Hash every desk-pool solve into ``digest``; returns the work of the converged and of the failed requests
    (each a dict of requests, iterations and halvings), the worst relative NECPR error and the solver's
    calls over the pool (shooting kernels, dgtsv fallbacks and block retries)."""
    pool = _load("desk_pool.json")
    opts = replace(cfg.solve, n_steps=pool["n_steps"])
    converged, failed = ({"requests": 0, "iterations": 0, "halvings": 0} for _ in range(2))
    worst = 0.0
    with counting_calls("_propagate", "_direction_by_banded", "_solve_batch") as calls:
        for request in pool["requests"]:
            problem = problem_of(cfg, request)
            try:
                traj = newton_solve(problem, opts)
            except NonConvergenceError as error:
                record = (str(error), error.history, error.steps)
                work, solve = failed, error
            else:
                necpr = eval_I(problem, traj, psi=0.0)
                record = (traj.iterations, traj.history, traj.steps, necpr)
                digest.update(traj.q.tobytes() + traj.p.tobytes())
                if request.get("necpr") is not None:
                    worst = max(worst, _relative(necpr, request["necpr"]))
                work, solve = converged, traj
            digest.update(repr(record).encode())
            work["requests"] += 1
            work["iterations"] += solve.iterations
            work["halvings"] += sum(step < 1.0 for step in solve.steps)
    kernels = {
        "shooting kernels": calls["_propagate"],
        "dgtsv fallbacks": calls["_direction_by_banded"],
        "block retries": calls["_solve_batch"] - len(pool["requests"]),  # newton_solve makes one call per attempt
    }
    return converged, failed, worst, kernels


def surface(digest, cfg) -> tuple[int, int, float]:
    """Hash the reference surface into ``digest``; returns its failed cells, its Newton iterations summed over
    the cells and the worst relative value error."""
    stored = _load("surface.json")
    opts = replace(cfg.solve, n_steps=stored["n_steps"])
    problem = cfg.problem
    grid = build_grid(problem, stored["t_nodes"], stored["q_nodes"], opts, epsilon=SURFACE_MARGIN * problem.horizon)
    for array in (grid.values, grid.failed, grid.iterations, grid.residuals):
        digest.update(array.tobytes())
    worst = max(
        _relative(got, want)
        for got_row, want_row in zip(grid.values.tolist(), stored["values"])
        for got, want in zip(got_row, want_row)
        if want is not None
    )
    return int(grid.failed.sum()), int(grid.iterations.sum()), worst


def main() -> int:
    cfg = parse_config(CONFIG)
    digest = hashlib.sha256()
    converged, failed, desk_worst, kernels = desk(digest, cfg)
    failed_cells, surface_iterations, surface_worst = surface(digest, cfg)
    solves = converged["requests"] + failed["requests"]
    print(f"sha256 {digest.hexdigest()}")
    print(f"desk pool: {solves} solves, {failed['requests']} failed, worst relative NECPR error {desk_worst:.3e}")
    for kind, work in (("converged", converged), ("failed", failed)):
        print(
            f"desk work, {work['requests']} {kind}: {work['iterations']} iterations, "
            f"{work['halvings']} halvings"
        )
    print("desk solver calls: " + ", ".join(f"{count} {name}" for name, count in kernels.items()))
    print(
        f"surface: {failed_cells} failed cells, {surface_iterations} iterations, "
        f"worst relative value error {surface_worst:.3e}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
