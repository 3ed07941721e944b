import hashlib
import importlib.util
import os

from blocktrade.config import parse_config

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pool_digest.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("pool_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_desk_digest_repeats_counts_the_pinned_failure_and_meets_the_stored_necprs(monkeypatch):
    # tools/pool_digest.py solves all 1201 requests (seconds); here the first drawn one and the pinned one
    tool = load_tool()
    pool = tool._load("desk_pool.json")
    small = dict(pool, requests=[pool["requests"][0], pool["requests"][-1]])
    assert small["requests"][-1]["pinned"]
    monkeypatch.setattr(tool, "_load", lambda name: small)
    cfg = parse_config(tool.CONFIG)
    digests = hashlib.sha256(), hashlib.sha256()
    (converged, failed, worst), again = (tool.desk(digest, cfg) for digest in digests)
    assert converged["requests"] == 1 and worst < 1e-9
    # the pinned request's exact work: every iteration, halving and least-bad step it takes before it fails
    assert failed == {"requests": 1, "iterations": 50, "halvings": 35, "no_descent": 36}
    assert again == (converged, failed, worst)
    assert digests[0].hexdigest() == digests[1].hexdigest()
