import math
from dataclasses import replace

import numpy as np
import pytest

from blocktrade import montecarlo
from blocktrade.montecarlo import MAX_EULER_STEPS, MAX_PATHS, SimulationConfig, euler_law, simulate_cash
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


@pytest.mark.parametrize("field", ["n_paths", "n_substeps", "seed"])
@pytest.mark.parametrize("value", [1000.0, 2.5, True, "2"])
def test_config_takes_integer_counts_only(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimulationConfig(**{field: value})
    assert getattr(SimulationConfig(**{field: np.int64(2)}), field) == 2


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


class _WeightedDraws:
    """Hands the Euler loop its draws from one generator and adds each draw,
    times the weight of its substep, to ``noise``."""

    def __init__(self, rng, weights, noise):
        self.rng, self.weights, self.noise = rng, iter(weights), noise

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        self.noise += next(self.weights) * out


@pytest.mark.parametrize("n_paths", [4, 50_001])
def test_weighted_sum_matches_the_euler_loop(solved, n_paths):
    # a partial liquidation with price risk and linear cost: c plus the sum of
    # the affine form's weighted increments is the loop's wealth on the same draws
    problem, _ = solved
    assert problem.market.sigma > 0 and problem.market.psi > 0
    traj = _half_liquidation(problem, 100)
    n_sub = 3
    c, weights = montecarlo._affine_form(problem, traj, n_sub)
    assert isinstance(weights, np.ndarray) and weights.shape == (traj.grid.n_steps * n_sub,)
    noise = np.zeros(n_paths)
    draws = _WeightedDraws(np.random.Generator(np.random.SFC64(23)), weights, noise)
    expected = _euler_loop(problem, traj, n_sub, draws, n_paths)
    assert next(draws.weights, None) is None  # one draw per weight
    np.testing.assert_allclose(c + noise, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("n_paths", [1, 4, 100_000])
def test_samples_are_the_euler_law_from_one_stream(solved, n_paths):
    # one standard normal per path, in path order, scaled by the scheme's exact standard deviation
    problem, traj = solved
    cfg = SimulationConfig(n_paths=n_paths, n_substeps=2, seed=17)
    result = simulate_cash(problem, traj, cfg, keep_samples=True)
    c, weights = montecarlo._affine_form(problem, traj, cfg.n_substeps)
    assert (result.euler_mean, result.euler_variance) == (c, math.fsum(weights * weights))
    z = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed))).standard_normal(n_paths)
    np.testing.assert_array_equal(result.samples, c + math.sqrt(result.euler_variance) * z)


def test_standard_errors_are_those_of_a_normal_sample(solved):
    # se_mean = sqrt(s^2 / n) and se_variance = s^2 sqrt(2 / (n - 1)), s^2 the unbiased variance of the kept sample
    problem, traj = solved
    cfg = SimulationConfig(n_paths=1000, n_substeps=2, seed=29)
    result = simulate_cash(problem, traj, cfg, keep_samples=True)
    variance = np.var(result.samples, ddof=1)
    assert result.variance == pytest.approx(variance, rel=1e-9)
    assert result.se_mean == pytest.approx(math.sqrt(variance / cfg.n_paths), rel=1e-9)
    assert result.se_variance == pytest.approx(variance * math.sqrt(2.0 / (cfg.n_paths - 1)), rel=1e-9)


def test_euler_law_converges_at_first_order(solved):
    # the scheme's exact mean and variance carry no sampling error, so they
    # show its bias alone: both gaps to the analytic law halve per doubling
    problem, traj = solved
    analytic = cash_moments(problem, traj)
    gaps = []
    for n_sub in (1, 2, 4, 8):
        mean, variance = euler_law(problem, traj, n_sub)
        gaps.append((mean - analytic.mean, variance - analytic.variance))
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
