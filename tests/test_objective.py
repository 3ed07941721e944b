import math

import numpy as np
import pytest
from dataclasses import replace

from blocktrade.closed_forms import ac_trajectory
from blocktrade.objective import cash_moments, eval_I, expected_utility
from blocktrade.solver import Grid, SolveOptions, Trajectory, newton_solve
from conftest import linear_trajectory, make_quadratic_problem, make_reference_problem

# Finite-horizon optimum of the reference problem, computed independently by
# adaptive Runge-Kutta shooting on the continuous system plus adaptive
# quadrature of the objective (rtol 1e-12).
REFERENCE_OPTIMUM = 6922.6095


def test_zero_trajectory_scores_zero():
    problem = make_reference_problem(q0=0.0)
    traj = newton_solve(problem, SolveOptions(n_steps=50))
    assert eval_I(problem, traj, psi=0.004) == 0.0


def test_linear_liquidation_closed_form():
    # constant speed q0/T: I = eta q0^2 / (V T) + gamma sigma^2 q0^2 T / 6
    problem = make_quadratic_problem(eta=0.01)
    line = linear_trajectory(problem, 4000)
    expected = 0.01 * problem.q0**2 / (5e6 * 1.0) + 2.5e-7 * problem.q0**2 / 6.0
    assert eval_I(problem, line, psi=0.0) == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(10916.666666666666, rel=1e-12)


def test_reference_optimum_against_independent_oracle(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=2000))
    assert eval_I(reference_problem, traj, psi=0.0) == pytest.approx(
        REFERENCE_OPTIMUM, rel=1e-3
    )


def test_linear_cost_shift_identity(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=500))
    base = eval_I(reference_problem, traj, psi=0.0)
    shifted = eval_I(reference_problem, traj, psi=0.004)
    assert shifted == pytest.approx(base + 0.004 * reference_problem.q0, rel=1e-12)


def test_quadrature_convergence_on_closed_form_curve(quadratic_problem):
    values = {}
    for n in (200, 400):
        grid = Grid(n_steps=n, t_start=0.0, t_end=1.0)
        q = ac_trajectory(quadratic_problem, grid.times)
        traj = Trajectory(grid=grid, q=q, p=np.zeros(n + 1))
        values[n] = eval_I(quadratic_problem, traj, psi=0.0)
    assert abs(values[200] - values[400]) < 0.005 * values[400]


def test_grid_mismatch_rejected(reference_problem):
    line = linear_trajectory(replace(reference_problem, horizon=2.0), 100)
    with pytest.raises(ValueError):
        eval_I(reference_problem, line, psi=0.0)


def test_cash_moments_decomposition(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=1000))
    dist = cash_moments(reference_problem, traj)
    c = dist.components
    assert dist.mean == pytest.approx(c.mtm - c.pmi - c.exec_nonlinear - c.exec_linear, rel=1e-14)
    assert c.mtm == reference_problem.q0 * 40.0
    assert c.pmi == pytest.approx(24175.0, rel=0.01)
    assert c.exec_linear == pytest.approx(0.004 * reference_problem.q0, rel=1e-12)
    assert dist.variance >= 0.0
    # exec_nonlinear + gamma/2 * variance is the optimal objective
    combined = c.exec_nonlinear + 0.5 * reference_problem.market.gamma * dist.variance
    assert combined == pytest.approx(REFERENCE_OPTIMUM, rel=1e-3)


def test_cash_moments_zero_inventory():
    problem = make_reference_problem(q0=0.0)
    traj = newton_solve(problem, SolveOptions(n_steps=50))
    dist = cash_moments(problem, traj)
    assert dist.mean == 0.0
    assert dist.variance == 0.0


def test_cash_moments_requires_liquidation(reference_problem):
    grid = Grid(n_steps=10, t_start=0.0, t_end=1.0)
    q = np.full(11, reference_problem.q0)
    traj = Trajectory(grid=grid, q=q, p=np.zeros(11))
    with pytest.raises(ValueError):
        cash_moments(reference_problem, traj)


def test_cash_moments_requires_a_curve_from_time_zero(reference_problem):
    grid = Grid(n_steps=10, t_start=0.5, t_end=1.0)
    traj = Trajectory(grid=grid, q=np.linspace(reference_problem.q0, 0.0, 11), p=np.zeros(11))
    with pytest.raises(ValueError, match="full-horizon trajectory must start at t=0"):
        cash_moments(reference_problem, traj)
    assert eval_I(reference_problem, traj) > 0.0  # the objective values a curve from any time


def test_variance_bounded_by_worst_case(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=500))
    dist = cash_moments(reference_problem, traj)
    worst = reference_problem.market.sigma**2 * reference_problem.q0**2 * 1.0
    assert 0.0 < dist.variance <= worst


def test_certainty_equivalent_identity(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=500))
    result = expected_utility(reference_problem, traj)
    dist = cash_moments(reference_problem, traj)
    gamma = reference_problem.market.gamma
    expected_ce = dist.mean - 0.5 * gamma * dist.variance
    assert result.certainty_equivalent == pytest.approx(expected_ce, rel=1e-14)
    # recover the certainty equivalent from the utility itself
    assert -math.log(-result.utility) / gamma == pytest.approx(expected_ce, rel=1e-10)
    assert result.log_neg_utility == pytest.approx(-gamma * expected_ce, rel=1e-14)


def test_utility_zero_inventory_is_minus_one():
    problem = make_reference_problem(q0=0.0)
    traj = newton_solve(problem, SolveOptions(n_steps=50))
    result = expected_utility(problem, traj)
    assert result.utility == -1.0
    assert result.certainty_equivalent == 0.0


def test_utility_saturates_but_log_form_stays_finite(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=300))
    # huge risk aversion: CE goes deeply negative, -exp overflows to -inf
    blown = replace(
        reference_problem, market=replace(reference_problem.market, gamma=0.5)
    )
    result = expected_utility(blown, traj)
    assert result.certainty_equivalent < 0
    assert result.utility == -math.inf
    assert math.isfinite(result.log_neg_utility)
    # moderate case: utility underflows to -0.0 while the log form is exact
    mild = replace(reference_problem, market=replace(reference_problem.market, gamma=1e-4))
    result2 = expected_utility(mild, traj)
    assert result2.utility == 0.0
    assert math.isfinite(result2.log_neg_utility)
