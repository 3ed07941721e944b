import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from blocktrade import montecarlo
from blocktrade.montecarlo import BLOCK_PATHS, MAX_EULER_STEPS, MAX_PATHS, SimulationConfig, simulate_cash
from blocktrade.objective import cash_moments
from blocktrade.solver import Grid, SolveOptions, Trajectory, newton_solve
from conftest import linear_trajectory, make_reference_problem


@pytest.fixture(scope="module")
def solved():
    problem = make_reference_problem()
    return problem, newton_solve(problem, SolveOptions(n_steps=1000))


def test_config_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        SimulationConfig(n_paths=0)
    with pytest.raises(ValueError):
        SimulationConfig(n_substeps=0)


def test_config_bounds_path_count_and_seed():
    assert SimulationConfig(n_paths=MAX_PATHS).n_paths == MAX_PATHS  # a config, no allocation
    with pytest.raises(ValueError, match="n_paths"):
        SimulationConfig(n_paths=MAX_PATHS + 1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SimulationConfig(seed=-1)


def test_euler_step_count_is_bounded_before_the_schedule_is_built(monkeypatch):
    class Reached(Exception):
        pass

    def schedule(*args):
        raise Reached

    monkeypatch.setattr(montecarlo, "_schedule", schedule)
    problem = make_reference_problem()
    traj = linear_trajectory(problem, 1000)
    limit = MAX_EULER_STEPS // 1000
    with pytest.raises(ValueError, match="n_steps \\* n_substeps"):
        simulate_cash(problem, traj, SimulationConfig(n_paths=1, n_substeps=limit + 1))
    with pytest.raises(Reached):  # the bound itself is allowed
        simulate_cash(problem, traj, SimulationConfig(n_paths=1, n_substeps=limit))


def test_zero_volatility_paths_are_deterministic(solved):
    problem, traj = solved
    frozen = replace(problem, market=replace(problem.market, sigma=0.0))
    result = simulate_cash(frozen, traj, SimulationConfig(n_paths=64, n_substeps=2, seed=5), keep_samples=True)
    assert np.ptp(result.samples) == 0.0
    analytic = cash_moments(frozen, traj)
    assert result.mean == pytest.approx(analytic.mean, rel=1e-5)
    assert result.variance == 0.0


def test_seeded_runs_are_bit_identical(solved):
    problem, traj = solved
    cfg = SimulationConfig(n_paths=2000, n_substeps=1, seed=99)
    a = simulate_cash(problem, traj, cfg)
    b = simulate_cash(problem, traj, cfg)
    assert a.mean == b.mean
    assert a.variance == b.variance
    c = simulate_cash(problem, traj, SimulationConfig(n_paths=2000, n_substeps=1, seed=100))
    assert c.mean != a.mean


def test_moments_match_gaussian_law(solved):
    problem, traj = solved
    result = simulate_cash(problem, traj, SimulationConfig(n_paths=20_000, n_substeps=2, seed=2024))
    analytic = cash_moments(problem, traj)
    assert abs(result.mean - analytic.mean) < 3.0 * result.se_mean
    assert abs(result.variance / analytic.variance - 1.0) < 0.05
    assert abs(result.excess_kurtosis) < 0.1


def test_holding_strategy_wealth_is_pure_price_risk(solved):
    problem, _ = solved
    grid = Grid(n_steps=100, t_start=0.0, t_end=1.0)
    hold = Trajectory(grid=grid, q=np.full(101, problem.q0), p=np.zeros(101), v=np.zeros(100))
    result = simulate_cash(problem, hold, SimulationConfig(n_paths=40_000, n_substeps=1, seed=3))
    # no trading: mark-to-market wealth is q0 * S0 plus pure Brownian noise
    expected_mean = problem.q0 * problem.market.s0
    expected_var = problem.market.sigma**2 * problem.q0**2 * 1.0
    assert abs(result.mean - expected_mean) < 3.0 * result.se_mean
    assert result.variance / expected_var == pytest.approx(1.0, abs=0.05)


def _half_liquidation(problem, n):
    """Sells half the block at constant speed over one day."""
    grid = Grid(n_steps=n, t_start=0.0, t_end=1.0)
    q = np.linspace(problem.q0, problem.q0 / 2, n + 1)
    return Trajectory(grid=grid, q=q, p=np.zeros(n + 1), v=(q[:-1] - q[1:]) / grid.tau)


def test_partial_liquidation_matches_general_wealth_formula(solved):
    # sell half the block at constant speed, zero volatility: the terminal
    # wealth must equal the drifted mark-to-market value minus execution costs
    problem, _ = solved
    frozen = replace(problem, market=replace(problem.market, sigma=0.0))
    traj = _half_liquidation(problem, 100)
    q = traj.q
    result = simulate_cash(frozen, traj, SimulationConfig(n_paths=4, n_substeps=10, seed=0))

    sold = problem.q0 - q[-1]
    speed = traj.v[0]
    volume = problem.volume.rate
    exec_nonlinear = volume * float(problem.cost(speed / volume)) * 1.0
    exec_linear = problem.market.psi * sold
    expected = (
        problem.q0 * problem.market.s0
        - q[-1] * float(problem.impact(sold))
        - problem.impact.integral(sold)
        - exec_nonlinear
        - exec_linear
    )
    assert result.mean == pytest.approx(expected, rel=1e-6)


def _euler_loop(problem, traj, n_sub, rng, n):
    """Reference: price, flow and cash of each path stepped one substep at a
    time, the terminal wealth being cash plus the marked remaining inventory."""
    tau_sub = traj.grid.tau / n_sub
    schedule = [a.tolist() for a in montecarlo._schedule(problem, traj, n_sub)]
    prices = np.full(n, problem.market.s0)
    cash = np.zeros(n)
    flow = np.empty(n)
    z = np.empty(n)
    noise = problem.market.sigma * math.sqrt(tau_sub)
    for v, cost_rate, drift in zip(*schedule):
        np.multiply(prices, v, out=flow)
        flow -= cost_rate
        flow *= tau_sub
        cash += flow
        rng.standard_normal(out=z)
        z *= noise
        z += drift
        prices += z
    return float(traj.q[-1]) * prices + cash


@pytest.mark.parametrize("n_paths", [4, 50_001])
def test_weighted_sum_matches_the_euler_loop(solved, n_paths):
    # a partial liquidation with price risk and linear cost: the kernel's sum
    # of weighted increments is the loop's wealth on the same draws
    problem, _ = solved
    assert problem.market.sigma > 0 and problem.market.psi > 0
    traj = _half_liquidation(problem, 100)
    cfg = SimulationConfig(n_paths=n_paths, n_substeps=3, seed=23)
    samples = simulate_cash(problem, traj, cfg, keep_samples=True).samples

    n_blocks = -(-n_paths // BLOCK_PATHS)
    expected = []
    for b, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_blocks)):
        rng = np.random.Generator(np.random.SFC64(stream))
        size = min(BLOCK_PATHS, n_paths - b * BLOCK_PATHS)
        expected.append(_euler_loop(problem, traj, cfg.n_substeps, rng, size))
    expected = np.concatenate(expected)
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_euler_law_converges_at_first_order(solved):
    # the scheme's exact mean and variance carry no sampling error, so they
    # show its bias alone: both gaps to the analytic law halve per doubling
    problem, traj = solved
    analytic = cash_moments(problem, traj)
    gaps = []
    for n_sub in (1, 2, 4, 8):
        result = simulate_cash(problem, traj, SimulationConfig(n_paths=1, n_substeps=n_sub))
        gaps.append((result.euler_mean - analytic.mean, result.euler_variance - analytic.variance))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.9 <= coarse[0] / fine[0] <= 2.1
        assert 1.9 <= coarse[1] / fine[1] <= 2.1


def test_substeps_reduce_cash_bias(solved):
    problem, traj = solved
    frozen = replace(problem, market=replace(problem.market, sigma=0.0))
    analytic = cash_moments(frozen, traj)
    coarse = simulate_cash(frozen, traj, SimulationConfig(n_paths=2, n_substeps=1, seed=1))
    fine = simulate_cash(frozen, traj, SimulationConfig(n_paths=2, n_substeps=8, seed=1))
    assert abs(fine.mean - analytic.mean) < abs(coarse.mean - analytic.mean)


def test_samples_only_kept_on_request(solved):
    problem, traj = solved
    cfg = SimulationConfig(n_paths=16, n_substeps=1, seed=11)
    assert simulate_cash(problem, traj, cfg).samples is None
    kept = simulate_cash(problem, traj, cfg, keep_samples=True)
    assert kept.samples is not None and len(kept.samples) == 16


def _holding(problem, n_steps):
    grid = Grid(n_steps=n_steps, t_start=0.0, t_end=1.0)
    q = np.full(n_steps + 1, problem.q0)
    return Trajectory(grid=grid, q=q, p=np.zeros(n_steps + 1), v=np.zeros(n_steps))


@pytest.mark.parametrize("n_paths", [1, 4, 50_000, 50_001, 100_000])
def test_samples_come_in_path_order_from_one_stream_per_block(solved, n_paths):
    # holding the block weights every Brownian increment by the whole block,
    # so each path's wealth can be rebuilt from its block's spawned stream
    problem, _ = solved
    hold = _holding(problem, n_steps=3)
    cfg = SimulationConfig(n_paths=n_paths, n_substeps=2, seed=17)
    samples = simulate_cash(problem, hold, cfg, keep_samples=True).samples
    assert samples.shape == (n_paths,)

    weight = problem.market.sigma * math.sqrt(hold.grid.tau / cfg.n_substeps) * problem.q0
    n_blocks = -(-n_paths // BLOCK_PATHS)
    expected = []
    for b, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_blocks)):
        rng = np.random.Generator(np.random.SFC64(stream))
        size = min(BLOCK_PATHS, n_paths - b * BLOCK_PATHS)
        noise = np.zeros(size)
        for _ in range(hold.grid.n_steps * cfg.n_substeps):
            noise += rng.standard_normal(size) * weight
        expected.append(noise + problem.q0 * problem.market.s0)
    np.testing.assert_array_equal(samples, np.concatenate(expected))


def test_samples_do_not_depend_on_cpu_count(solved, monkeypatch):
    problem, _ = solved
    short = newton_solve(problem, SolveOptions(n_steps=10))
    cfg = SimulationConfig(n_paths=2 * BLOCK_PATHS + 7, n_substeps=2, seed=5)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # 3 threads on fewer cores, switching often
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
            runs.append(simulate_cash(problem, short, cfg, keep_samples=True).samples)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(runs[0], runs[1])
    np.testing.assert_array_equal(runs[0], runs[2])


def test_block_threads_are_joined(solved, monkeypatch):
    problem, _ = solved
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    before = threading.active_count()
    simulate_cash(problem, _holding(problem, 4), SimulationConfig(n_paths=2 * BLOCK_PATHS, seed=1))
    assert threading.active_count() == before


def test_worker_exception_reaches_the_caller(solved, monkeypatch):
    problem, _ = solved
    run_block = montecarlo._simulate_block

    def failing(*args):
        if args[-2].spawn_key == (1,):  # block 1 runs on the worker thread
            raise RuntimeError("block 1 failed")
        run_block(*args)

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "_simulate_block", failing)
    with pytest.raises(RuntimeError, match="block 1 failed"):
        simulate_cash(problem, _holding(problem, 2), SimulationConfig(n_paths=2 * BLOCK_PATHS))
