import math

import numpy as np
import pytest
from dataclasses import replace

from blocktrade.closed_forms import ac_trajectory
from blocktrade.market_model import LiquidationProblem, MarketParams, PowerLawCost
from blocktrade.objective import eval_I
from blocktrade.solver import (
    Grid,
    NonConvergenceError,
    SolveOptions,
    _direction_by_banded,
    _linear_defect,
    discrete_residual,
    initial_guess,
    newton_solve,
    solve_from,
)
from conftest import linear_trajectory, make_reference_problem


def test_initial_guess_endpoints_and_first_dual(reference_problem):
    grid = Grid(n_steps=2, t_start=0.0, t_end=1.0)
    guess = initial_guess(reference_problem, grid)
    assert guess.q[0] == reference_problem.q0
    assert guess.q[-1] == 0.0
    assert guess.p[0] == 0.0
    # tau * gamma * sigma^2 * q_1 = 0.5 * 2.5e-7 * 250000
    assert guess.p[1] == pytest.approx(0.03125, rel=1e-12)


def test_initial_guess_is_linear(reference_problem):
    grid = Grid(n_steps=10, t_start=0.0, t_end=1.0)
    guess = initial_guess(reference_problem, grid)
    expected = reference_problem.q0 * (1 - np.arange(11) / 10)
    assert np.allclose(guess.q, expected, rtol=0, atol=1e-9)


def test_residual_of_initial_guess_without_risk_term():
    # with gamma = 0 the dual starts at zero, so the q-defect is just -q0/J
    problem = LiquidationProblem(
        q0=500_000.0,
        horizon=1.0,
        market=MarketParams(s0=40.0, sigma=0.5, gamma=0.0, psi=0.0),
        volume=make_reference_problem().volume,
        cost=PowerLawCost(eta=0.01, phi=1.0),
        impact=make_reference_problem().impact,
    )
    grid = Grid(n_steps=2, t_start=0.0, t_end=1.0)
    guess = initial_guess(problem, grid)
    report = discrete_residual(problem, guess)
    assert np.allclose(report.q_residual, [-250_000.0, -250_000.0])
    assert np.allclose(report.p_residual, 0.0)


def test_residual_affine_in_inventory_perturbation(reference_problem):
    # for fixed p the p-defect is affine in q: shifting one node moves it by
    # exactly -tau * gamma * sigma^2 * delta
    traj = newton_solve(reference_problem, SolveOptions(n_steps=50))
    base = discrete_residual(reference_problem, traj)
    delta = 1234.5
    q = traj.q.copy()
    q[10] += delta
    bumped = replace(traj, q=q)
    report = discrete_residual(reference_problem, bumped)
    tau = traj.grid.tau
    ksq = reference_problem.market.gamma * reference_problem.market.sigma**2
    assert report.p_residual[9] - base.p_residual[9] == pytest.approx(-tau * ksq * delta, rel=1e-9)
    assert report.p_residual[10] - base.p_residual[10] == pytest.approx(0.0, abs=1e-12)


def test_converged_solution_certificate(reference_problem):
    opts = SolveOptions(n_steps=500)
    traj = newton_solve(reference_problem, opts)
    report = discrete_residual(reference_problem, traj)
    assert report.max_abs <= 1e-10 * reference_problem.q0
    assert report.max_abs == pytest.approx(traj.max_residual, abs=1e-16)


def test_solution_monotone_and_boundary_exact(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=800))
    assert traj.q[0] == reference_problem.q0
    assert traj.q[-1] == 0.0
    assert np.all(np.diff(traj.q) <= 1e-9 * reference_problem.q0)
    assert np.all(traj.q >= -1e-9 * reference_problem.q0)
    assert np.all(np.diff(traj.p) >= -1e-12)


def test_quadratic_cost_matches_closed_form(quadratic_problem):
    errors = {}
    for n in (1000, 2000):
        traj = newton_solve(quadratic_problem, SolveOptions(n_steps=n))
        exact = ac_trajectory(quadratic_problem, traj.grid.times)
        errors[n] = np.max(np.abs(traj.q - exact))
    assert errors[2000] <= 1e-4 * quadratic_problem.q0
    assert errors[1000] / errors[2000] >= 1.5


def test_grid_convergence_on_quadratic_case(quadratic_problem):
    q = {n: newton_solve(quadratic_problem, SolveOptions(n_steps=n)).q for n in (500, 1000, 2000)}
    d_coarse = np.max(np.abs(q[500] - q[1000][::2]))
    d_fine = np.max(np.abs(q[1000] - q[2000][::2]))
    assert d_coarse / d_fine >= 1.5


def test_zero_inventory_returns_zero_curve(reference_problem):
    problem = replace(reference_problem, q0=0.0)
    traj = newton_solve(problem, SolveOptions(n_steps=100))
    assert np.all(traj.q == 0.0)
    assert np.all(traj.v == 0.0)
    assert traj.iterations == 0
    assert eval_I(problem, traj, psi=0.0) == 0.0


def test_linear_cost_term_never_enters_the_solver(reference_problem):
    a = newton_solve(make_reference_problem(psi=0.0), SolveOptions(n_steps=400))
    b = newton_solve(make_reference_problem(psi=0.004), SolveOptions(n_steps=400))
    assert np.max(np.abs(a.q - b.q)) <= 1e-10 * reference_problem.q0
    assert np.max(np.abs(a.p - b.p)) <= 1e-12


def test_higher_risk_aversion_liquidates_faster():
    lo = newton_solve(make_reference_problem(gamma=5e-7), SolveOptions(n_steps=600))
    hi = newton_solve(make_reference_problem(gamma=2e-6), SolveOptions(n_steps=600))
    assert np.all(hi.q <= lo.q + 1e-9 * 500_000.0)
    assert hi.q[300] < lo.q[300]  # strictly below in the interior


def test_newton_beats_linear_liquidation(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=500))
    line = linear_trajectory(reference_problem, 500)
    optimal = eval_I(reference_problem, traj, psi=0.0)
    straight = eval_I(reference_problem, line, psi=0.0)
    assert optimal <= straight * (1 - 1e-9)


def test_non_convergence_error_carries_residual(reference_problem):
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(reference_problem, SolveOptions(n_steps=300, max_iter=1))
    assert err.value.residual > 0
    assert err.value.iterations == 1


def test_solve_from_start_equals_full_solve(reference_problem):
    opts = SolveOptions(n_steps=400)
    a = newton_solve(reference_problem, opts)
    b = solve_from(reference_problem, 0.0, reference_problem.q0, opts)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)


def test_solve_from_zero_inventory(reference_problem):
    traj = solve_from(reference_problem, 0.25, 0.0, SolveOptions(n_steps=100))
    assert np.all(traj.q == 0.0)
    assert eval_I(reference_problem, traj, psi=0.0) == 0.0


def test_solve_from_midpoint_matches_shifted_closed_form(quadratic_problem):
    traj = solve_from(quadratic_problem, 0.5, quadratic_problem.q0, SolveOptions(n_steps=1000))
    shifted = replace(quadratic_problem, horizon=0.5)
    oracle = ac_trajectory(shifted, traj.grid.times - 0.5)
    assert np.max(np.abs(traj.q - oracle)) <= 1e-4 * quadratic_problem.q0


def test_solve_from_rejects_bad_window(reference_problem):
    with pytest.raises(ValueError):
        solve_from(reference_problem, 1.0, 100.0)
    with pytest.raises(ValueError):
        solve_from(reference_problem, -0.1, 100.0)
    with pytest.raises(ValueError):
        solve_from(reference_problem, 0.5, -1.0)


def test_superquadratic_cost_rejected_on_newton_path(reference_problem):
    from blocktrade.legendre import SingularCurvatureError

    problem = replace(reference_problem, cost=PowerLawCost(eta=0.02, phi=1.5))
    with pytest.raises(SingularCurvatureError):
        newton_solve(problem, SolveOptions(n_steps=100))


def test_long_horizon_solve_is_stable():
    problem = make_reference_problem(horizon=5.0)
    traj = newton_solve(problem, SolveOptions(n_steps=5000))
    assert traj.max_residual <= 1e-10 * problem.q0
    assert np.all(np.diff(traj.q) <= 1e-9 * problem.q0)


def test_piecewise_volume_solve():
    from blocktrade.market_model import PiecewiseLinearVolume

    base = make_reference_problem()
    curve = PiecewiseLinearVolume(((0.0, 4e6), (0.5, 6e6), (1.0, 4e6)))
    problem = replace(base, volume=curve)
    traj = newton_solve(problem, SolveOptions(n_steps=500))
    assert traj.max_residual <= 1e-10 * problem.q0
    assert np.all(np.diff(traj.q) <= 1e-9 * problem.q0)


@pytest.mark.parametrize(
    "field, value", [("horizon", math.inf), ("sigma", math.inf), ("gamma", math.nan)]
)
def test_non_finite_problem_raises_instead_of_converging(reference_problem, field, value):
    # unvalidated input: the residual is NaN from the start and must not count as converged
    if field == "horizon":
        problem = replace(reference_problem, horizon=value)
    else:
        problem = replace(reference_problem, market=replace(reference_problem.market, **{field: value}))
    # arithmetic on infinities warns; what is checked here is the typed error
    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError):
        newton_solve(problem, SolveOptions(n_steps=100))


@pytest.mark.parametrize("J", [2, 3, 1000])
def test_banded_direction_solves_linearized_system(J):
    rng = np.random.default_rng(J)
    c = rng.uniform(0.1, 2.0, J).tolist()
    e = rng.normal(size=J).tolist()
    b = 0.3
    dq, dp = _direction_by_banded(c, e, b)
    assert dq.shape == dp.shape == (J + 1,)
    assert dq[0] == 0.0 and dq[-1] == 0.0
    scale = max(1.0, float(np.max(np.abs(dq))), float(np.max(np.abs(dp))))
    assert _linear_defect(c, e, b, dq, dp) <= 1e-13 * scale
