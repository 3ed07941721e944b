"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import statistics
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gates  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


# --- order statistics ---------------------------------------------------------


def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    assert stats.median(values) == 4.0
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4)[::2])
    q1, q3 = stats.quartiles(values)
    assert stats.spread(values) == (q3 - q1) / 4.0


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 201))
    assert stats.nearest_rank(values, 50) == (100, 100)
    assert stats.nearest_rank(values, 95) == (190, 10)
    assert stats.nearest_rank(values[:-1], 95)[1] == 9
    assert stats.nearest_rank([7.0], 95) == (7.0, 0)


def test_p95_needs_200_samples_for_ten_beyond():
    assert stats.nearest_rank(range(200), 95)[1] == stats.MIN_BEYOND
    assert stats.nearest_rank(range(199), 95)[1] < stats.MIN_BEYOND


def test_empty_and_out_of_range_inputs_are_rejected():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.nearest_rank([], 95)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


# --- desk inputs --------------------------------------------------------------


def test_desk_stream_is_seeded_stratified_and_keeps_the_known_defect():
    pool = wl.draw_pool(seed=0, per_horizon=12)
    a = wl.desk_stream(pool, seed=5, per_horizon=4)
    assert a == wl.desk_stream(pool, seed=5, per_horizon=4)
    assert a != wl.desk_stream(pool, seed=6, per_horizon=4)
    assert len(a) == len(set(a)) == 4 * len(wl.HORIZONS) + len(wl.KNOWN_DEFECTS)
    for horizon in wl.HORIZONS:
        drawn = [i for i in a if pool[i]["horizon"] == horizon and not pool[i]["pinned"]]
        assert len(drawn) == 4
    assert all(i in a for i, req in enumerate(pool) if req["pinned"])


def test_desk_pass_is_large_enough_for_its_p95():
    ops = wl.DESK_PER_HORIZON * len(wl.HORIZONS) + len(wl.KNOWN_DEFECTS)
    assert stats.nearest_rank(range(ops), 95)[1] >= stats.MIN_BEYOND


# --- correctness gates --------------------------------------------------------


def _pool(*necprs):
    return [{"necpr": x} for x in necprs]


def test_desk_gate_accepts_matching_prices_and_skips_failed_operations():
    verdict = gates.desk_gate([0, 1, 2], [100.0, None, 0.0], _pool(100.0, 50.0, 0.0))
    assert verdict["ok"] and verdict["checked"] == 2


def test_desk_gate_rejects_a_tampered_price():
    verdict = gates.desk_gate([0, 1], [100.0, 50.0 * (1 + 1e-8)], _pool(100.0, 50.0))
    assert not verdict["ok"]
    assert verdict["mismatches"][0]["request"] == 1
    assert not gates.desk_gate([0], [math.nan], _pool(100.0))["ok"]


def test_desk_gate_counts_newly_converged_requests_as_unchecked():
    verdict = gates.desk_gate([0], [42.0], _pool(None))
    assert verdict["ok"] and verdict["unchecked"] == 1


def test_desk_gate_on_real_prices_rejects_tampering():
    from blocktrade import price_finite
    from blocktrade.config import parse_config

    cfg = parse_config(os.path.join(os.path.dirname(HERE), wl.CONFIG_PATH))
    pool = wl.draw_pool()
    with open(wl.DESK_POOL) as fh:
        stored = json.load(fh)["requests"]
    assert [{k: r[k] for k in ("horizon", "q0", "gamma", "pinned")} for r in stored] == pool
    picks = [0, 1]  # two short-horizon requests keep this fast
    necprs = [price_finite(wl.desk_problem(cfg.problem, pool[i]), wl.solve_options(cfg)).necpr_T
              for i in picks]
    assert gates.desk_gate(picks, necprs, stored)["ok"]
    necprs[0] *= 1 + 1e-6
    assert not gates.desk_gate(picks, necprs, stored)["ok"]


def _surface_reference():
    values = [[0.0, 1.0, 4.0], [0.0, 2.0, None]]
    failed = [[False, False, False], [False, False, True]]
    return {"values": values, "failed": failed, "structure_ok": True}


def _surface_outputs():
    values = np.array([[0.0, 1.0, 4.0], [0.0, 2.0, np.nan]])
    failed = np.array([[False, False, False], [False, False, True]])
    return values, failed


def test_surface_gate_accepts_the_reference():
    values, failed = _surface_outputs()
    assert gates.surface_gate(values, failed, True, _surface_reference())["ok"]


def test_surface_gate_rejects_tampered_values_mask_verdict_and_shape():
    ref = _surface_reference()
    values, failed = _surface_outputs()
    tampered = values.copy()
    tampered[1, 1] *= 1 + 1e-8
    assert not gates.surface_gate(tampered, failed, True, ref)["ok"]
    tampered = values.copy()
    tampered[0, 0] = 1e-300  # an exact zero must stay zero
    assert not gates.surface_gate(tampered, failed, True, ref)["ok"]
    mask = failed.copy()
    mask[1, 2] = False
    assert not gates.surface_gate(values, mask, True, ref)["ok"]
    assert not gates.surface_gate(values, failed, False, ref)["ok"]
    assert not gates.surface_gate(values[:, :2], failed[:, :2], True, ref)["ok"]


def test_montecarlo_gate_checks_each_criterion_9_verdict():
    assert gates.montecarlo_gate(0.5, 1.004, 0.01)["ok"]
    assert not gates.montecarlo_gate(3.2, 1.004, 0.01)["ok"]
    assert not gates.montecarlo_gate(-3.2, 1.004, 0.01)["ok"]
    assert not gates.montecarlo_gate(0.5, 0.94, 0.01)["ok"]
    assert not gates.montecarlo_gate(0.5, 1.004, -0.2)["ok"]
    assert not gates.montecarlo_gate(math.nan, 1.0, 0.0)["ok"]


# --- exact counters -----------------------------------------------------------


def _speedometer(*marks):
    """A speedometer whose marks are ``(start, end, reading)`` triples."""
    clock = iter(t for start, end, _ in marks for t in (start, end))
    readings = iter(reading for _, _, reading in marks)
    meter = speed.Speedometer(probe=lambda name: next(readings), clock=clock.__next__)
    for _ in marks:
        meter.mark()
    return meter


def _nominal():
    reading = speed.PROBES["python"][1]
    return _speedometer((-1.0, 0.0, reading), (1.0, 2.0, reading))


class _FakeWorkload:
    def __init__(self, counters):
        self._counters = iter(counters)

    def run_pass(self, meter=None):
        outputs = {"z_mean": 0.1, "variance_ratio": 1.0, "excess_kurtosis": 0.0}
        return wl.Pass([(0.0, 0.01)], 1, 0, outputs, {"failed_ops": next(self._counters)})


def test_check_reports_a_counter_that_changes_between_passes():
    run = measure.Run()
    workload = _FakeWorkload([0, 0])
    run.plain = [(workload.run_pass(), _nominal()), (workload.run_pass(), _nominal())]
    assert measure.check("montecarlo", workload, run)["correct"]
    workload = _FakeWorkload([0, 1])
    run.plain = [(workload.run_pass(), _nominal()), (workload.run_pass(), _nominal())]
    result = measure.check("montecarlo", workload, run)
    assert not result["correct"] and "failed_ops" in result["errors"][0]


def test_check_rejects_a_failing_gate():
    run = measure.Run()
    bad = wl.Pass([(0.0, 0.01)], 1, 0, {"z_mean": 4.0, "variance_ratio": 1.0, "excess_kurtosis": 0.0},
                  {"failed_ops": 0})
    run.plain = [(bad, _nominal())]
    assert not measure.check("montecarlo", None, run)["correct"]


# --- speed scaling ------------------------------------------------------------


def test_work_between_marks_is_scaled_by_their_readings_and_leaves_them_out():
    nominal = speed.PROBES["python"][1]
    meter = _speedometer((0.0, 1.0, nominal), (4.0, 5.0, 2 * nominal), (7.0, 8.0, 2 * nominal))
    assert meter.work(1.0, 4.0) == pytest.approx((3.0, 2.0))
    # an operation across the second reading: 2 s at 2/3 and 1 s at 1/2
    assert meter.work(2.0, 6.0) == pytest.approx((3.0, 2 * 2 / 3 + 1 / 2))
    assert meter.work(8.0, 9.0) == (0.0, 0.0)
    result = wl.Pass([(1.0, 2.5), (2.5, 7.0)], 2, 0, {}, {})
    raw, scaled = zip(*measure.op_times(result, meter))
    assert sum(raw) == pytest.approx(5.0)
    assert scaled == pytest.approx((1.0, 1.5 * 2 / 3 + 2 / 2))


def test_ticking_marks_while_the_program_works_and_then_stops():
    meter = speed.Speedometer(probe=lambda name: 0.001)
    with meter.ticking(period=0.01):
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    marks = len(meter.marks)
    assert marks >= 3
    time.sleep(0.05)
    assert len(meter.marks) == marks


def test_setup_scaling_uses_the_named_probe():
    kernel, nominal = speed.PROBES["simulation"]
    assert speed.scale(2.0, [nominal, 3 * nominal], "simulation") == pytest.approx(1.0)


def test_every_probe_reads_a_positive_time():
    for name in speed.PROBES:
        assert 0.0 < speed.probe(name) < 1.0


# --- tracing ------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    outer, a, b = tracer.spans
    assert (a.parent, b.parent, outer.parent) == (0, 0, None)
    assert tracer.self_times() == [10.0 - 2.0 - 3.0, 2.0, 3.0]


def test_installed_hooks_wrap_then_restore_and_report_missing_attributes():
    module = types.ModuleType("fake")
    module.f = lambda x: x + 1
    original = module.f
    tracer = Tracer()
    hooks = [(module, "f", "fake.f", lambda r: {"r": r}), (module, "gone", "fake.gone", None)]
    with tracer.installed(hooks) as missing:
        assert module.f(1) == 2
    assert module.f is original
    assert missing == ["fake.gone"]
    assert [(s.name, s.info) for s in tracer.spans] == [("fake.f", {"r": 2})]


def test_a_span_records_the_exception_that_ended_it():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("boom"):
            raise KeyError("x")
    assert tracer.spans[0].error == "KeyError"
