import hashlib
import importlib.util
import os
from dataclasses import replace

from blocktrade.config import parse_config
from blocktrade.solver import NonConvergenceError, newton_solve
from conftest import solve_batch

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pool_digest.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("pool_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def halvings(solve):
    return sum(step < 1.0 for step in solve.steps)


def test_the_desk_digest_repeats_counts_the_pinned_failure_and_meets_the_stored_necprs(monkeypatch):
    # tools/pool_digest.py solves all 1201 requests (seconds); here the first drawn one and the pinned one
    tool = load_tool()
    pool = tool._load("desk_pool.json")
    small = dict(pool, requests=[pool["requests"][0], pool["requests"][-1]])
    assert small["requests"][-1]["pinned"]
    monkeypatch.setattr(tool, "_load", lambda name: small)
    cfg = parse_config(tool.CONFIG)
    opts = replace(cfg.solve, n_steps=pool["n_steps"])
    first, pinned = (tool.problem_of(cfg, request) for request in small["requests"])
    digests = hashlib.sha256(), hashlib.sha256()
    (converged, failed, worst, calls), again = (tool.desk(digest, cfg) for digest in digests)
    assert worst < 1e-9 and failed["requests"] == 0
    # the pinned request's shooting attempt stalls at its 15th iteration, after 14 iterations and 2 halvings
    with tool.counting_calls("_propagate", "_direction_by_banded") as shooting:
        (shot,) = solve_batch(pinned, [0.0], [pinned.q0], opts)
        alone = newton_solve(first, opts)
    assert isinstance(shot, NonConvergenceError)
    assert (shot.iterations, halvings(shot)) == (14, 2)
    # its retry converges in 5 full steps: both requests converge, and the work counts both attempts
    assert converged == {
        "requests": 2,
        "iterations": alone.iterations + 19,
        "halvings": halvings(alone) + 2,
    }
    # one retry, which neither shoots nor falls back to dgtsv
    assert calls == {
        "shooting kernels": shooting["_propagate"],
        "dgtsv fallbacks": shooting["_direction_by_banded"],
        "block retries": 1,
    }
    assert again == (converged, failed, worst, calls)
    assert digests[0].hexdigest() == digests[1].hexdigest()
