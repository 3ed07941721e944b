"""The closed loop of passes, the checks on every pass, and the per-layer metrics.

While an untraced pass runs, a speed probe (``speed.py``) reads the machine's
speed every ``speed.TICK_S`` seconds, and once before and after the pass.
End-to-end times are scaled by those readings; their own time is left out.
Traced passes are read only before and after, so that no reading falls inside
a span. Span and probe times of the per-layer metrics are not scaled.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

import numpy as np
from blocktrade import legendre, solver

import gates
import workloads as wl
from speed import Speedometer
from stats import median, nearest_rank
from tracing import Tracer

# counters that must repeat exactly, pass after pass and run after run
EXACT_COUNTERS = (
    "failed_ops",
    "solver.calls",
    "solver.newton_iters",
    "solver.nonconverged",
    "objective.calls",
    "value_function.cells_solved",
    "value_function.cells_failed",
    "montecarlo.draws",
)


class Run:
    def __init__(self):
        self.plain = []  # (Pass, Speedometer)
        self.traced = []  # (Pass, Speedometer, Tracer)
        self.missing_hooks = []


def _probed(workload, ticking):
    speed = Speedometer(workload.probe)
    speed.mark()
    with speed.ticking() if ticking else nullcontext():
        result = workload.run_pass()
    speed.mark()
    return result, speed


def op_times(result, speed):
    """(raw, scaled) seconds of each operation of a pass, readings left out."""
    return [speed.work(start, end) for start, end in result.times]


def run_passes(workload, seconds, traced):
    """Untraced passes (alternating with traced ones when ``traced``) until the
    next round would end past ``seconds``; always at least one round."""
    run = Run()
    start = time.perf_counter()
    rounds = 0
    while True:
        run.plain.append(_probed(workload, ticking=True))
        if traced:
            tracer = Tracer()
            with tracer.installed(wl.HOOKS) as missing:
                result, speed = _probed(workload, ticking=False)
            run.traced.append((result, speed, tracer))
            run.missing_hooks = missing
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return run


def trace_counters(tracer, workload):
    spans = tracer.spans
    solves = [s for s in spans if s.name.startswith("solver.")]
    return {
        "solver.calls": len(solves),
        "solver.newton_iters": sum(s.info["iterations"] for s in solves if s.info),
        "solver.nonconverged": sum(s.error == "NonConvergenceError" for s in solves),
        "objective.calls": sum(s.name.startswith("objective.") for s in spans),
        "montecarlo.draws": getattr(workload, "draws", 0),
    }


def _gate(name, workload, outputs, reference):
    if name == "desk":
        return gates.desk_gate(outputs["stream"], outputs["necpr"], workload.pool)
    if name == "surface":
        return gates.surface_gate(
            outputs["values"], outputs["failed"], outputs["structure_ok"], reference
        )
    if "error" in outputs:
        return None  # a failed operation, counted as such; nothing to gate
    return gates.montecarlo_gate(
        outputs["z_mean"], outputs["variance_ratio"], outputs["excess_kurtosis"]
    )


def check(name, workload, run):
    """Gate every pass and require exact counters to agree between passes."""
    reference = None
    if name == "surface":
        with open(wl.SURFACE_REFERENCE) as fh:
            reference = json.load(fh)
    passes = [p for p, *_ in run.plain + run.traced]
    verdicts = [_gate(name, workload, p.outputs, reference) for p in passes]
    verdicts = [v for v in verdicts if v is not None]
    errors = []
    if not verdicts:
        errors.append("no pass produced an output to check")
    failing = [v for v in verdicts if not v["ok"]]

    counters = [dict(p.counters) for p in passes]
    for c, (_, _, tracer) in zip(counters[len(run.plain):], run.traced):
        c.update(trace_counters(tracer, workload))
    merged = {}
    for c in counters:
        for key, value in c.items():
            if merged.setdefault(key, value) != value:
                errors.append(f"counter {key} changed between passes: {merged[key]} then {value}")

    times = [op_times(p, speed) for p, speed in run.plain]
    return {
        "correct": not failing and not errors,
        "gate": failing[0] if failing else (verdicts[0] if verdicts else None),
        "errors": errors,
        "counters": {k: merged[k] for k in EXACT_COUNTERS if k in merged},
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        # a pass's wall time is the sum of its operations' times
        "walls": [sum(s for _, s in ts) for ts in times],
        "latencies": [s for ts in times for _, s in ts],
        "raw_walls": [sum(r for r, _ in ts) for ts in times],
        "raw_latencies": [r for ts in times for r, _ in ts],
        "probe": run.plain[0][1].name if run.plain else None,
        "probe_s": [r for _, speed in run.plain for r in speed.readings],
        "passes": {"plain": len(run.plain), "traced": len(run.traced)},
        "missing_hooks": run.missing_hooks,
    }


def _per_call(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def probes(cfg, seed):
    """Public functions called on the workload's own inputs, outside any pass."""
    problem = cfg.problem
    traj = solver.newton_solve(problem, wl.solve_options(cfg))
    ham = legendre.hamiltonian_of(problem.cost)
    p = traj.p[:-1]
    rng = np.random.default_rng(seed)
    floor = [
        _per_call(lambda: rng.standard_normal(wl.MC_PATHS), 100) / wl.MC_PATHS * 1e9
        for _ in range(4)
    ]
    return {
        "solver.residual_us": _per_call(lambda: solver.discrete_residual(problem, traj), 200) * 1e6,
        "legendre.slope_us": _per_call(lambda: ham.slope(p), 500) * 1e6,
        "legendre.curvature_us": _per_call(lambda: ham.curvature(p), 500) * 1e6,
        "montecarlo.rng_floor_ns_per_draw": median(floor),
    }


def _median_or_zero(values):
    return median(values) if values else 0.0


def layer_metrics(cfg, run, counters, seed):
    """Per-layer metrics from the traced passes, their exact ``counters``, the
    probes, and the untraced walls."""
    solve_ms, eval_us, theta_us, pricing_self_ms = [], [], [], []
    vf_self_s, check_ms, simulate_s, coverage = [], [], [], []
    for result, speed, tracer in run.traced:
        wall = sum(raw for raw, _ in op_times(result, speed))
        selfs = tracer.self_times()
        pass_vf_self = pass_check = pass_sim = top = 0.0
        for s, own in zip(tracer.spans, selfs):
            if s.parent is None:
                top += s.duration
            if s.name.startswith("solver."):
                solve_ms.append(s.duration * 1e3)
            elif s.name == "objective.eval_I":
                eval_us.append(s.duration * 1e6)
            elif s.name == "closed_forms.theta_infinity":
                theta_us.append(s.duration * 1e6)
            elif s.name == "pricing.price_finite":
                pricing_self_ms.append(own * 1e3)
            elif s.name == "value_function.build_grid":
                pass_vf_self += own
            elif s.name in ("value_function.hj_residual", "value_function.check_structure"):
                pass_check += s.duration
            elif s.name == "montecarlo.simulate_cash":
                pass_sim += s.duration
        vf_self_s.append(pass_vf_self)
        check_ms.append(pass_check * 1e3)
        simulate_s.append(pass_sim)
        coverage.append(100.0 * top / wall)

    draws = counters["montecarlo.draws"]
    sim = _median_or_zero(simulate_s)
    plain_wall = median([sum(s for _, s in op_times(p, sp)) for p, sp in run.plain])
    traced_wall = median([sum(s for _, s in op_times(p, sp)) for p, sp, _ in run.traced])
    metrics = {
        "solver.calls": counters["solver.calls"],
        "solver.newton_iters": counters["solver.newton_iters"],
        "solver.solve_p50_ms": _median_or_zero(solve_ms),
        "solver.solve_p95_ms": nearest_rank(solve_ms, 95)[0] if solve_ms else 0.0,
        "solver.nonconverged": counters["solver.nonconverged"],
        "objective.calls": counters["objective.calls"],
        "objective.eval_I_us": _median_or_zero(eval_us),
        "closed_forms.theta_inf_us": _median_or_zero(theta_us),
        "pricing.self_ms": _median_or_zero(pricing_self_ms),
        "value_function.cells_solved": counters.get("value_function.cells_solved", 0),
        "value_function.cells_failed": counters.get("value_function.cells_failed", 0),
        "value_function.self_s": _median_or_zero(vf_self_s),
        "value_function.check_ms": _median_or_zero(check_ms),
        "montecarlo.simulate_s": sim,
        "montecarlo.draws": draws,
        "montecarlo.ns_per_draw": sim / draws * 1e9 if draws else 0.0,
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
        "trace.span_coverage_pct": median(coverage),
    }
    metrics.update(probes(cfg, seed))
    return metrics
