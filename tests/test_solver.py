import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktrade.closed_forms import ac_trajectory
from blocktrade.market_model import (
    ConstantVolume,
    CustomCost,
    LiquidationProblem,
    MarketParams,
    PiecewiseLinearVolume,
    PowerLawCost,
)
from blocktrade.objective import eval_I
from blocktrade import solver, value_function
from blocktrade.solver import (
    MAX_STEPS,
    Grid,
    NonConvergenceError,
    ResidualReport,
    SolveOptions,
    Trajectory,
    _direction_by_banded,
    _direction_by_hessian,
    _linear_defect,
    _propagate,
    discrete_residual,
    initial_guess,
    newton_solve,
    solve_from,
)
from conftest import (
    linear_trajectory,
    make_quadratic_problem,
    make_reference_problem,
    solve_batch,
    straight_line,
)


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


def test_a_trajectory_works_out_its_speeds_from_its_curve_and_its_iterations_from_its_history(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=50))
    assert traj.iterations == len(traj.history) == len(traj.steps) > 0
    q = traj.q.copy()
    q[10] += 1234.5
    moved = replace(traj, q=q)  # no stale speeds: cell 9 sells 1234.5 shares less, cell 10 as many more
    assert np.array_equal(moved.v, (q[:-1] - q[1:]) / traj.grid.tau)
    assert moved.v[9] < traj.v[9] and moved.v[10] > traj.v[10]
    bare = Trajectory(traj.grid, traj.q, traj.p)  # a complete curve, from no solve
    assert np.array_equal(bare.v, traj.v) and bare.iterations == 0


def test_converged_solution_certificate(reference_problem):
    opts = SolveOptions(n_steps=500)
    traj = newton_solve(reference_problem, opts)
    report = discrete_residual(reference_problem, traj)
    assert report.max_abs <= 1e-10 * reference_problem.q0
    assert report.max_abs == pytest.approx(traj.max_residual, abs=1e-16)


def test_residual_report_keeps_a_nan_q_defect():
    report = ResidualReport(p_residual=np.zeros(3), q_residual=np.array([0.0, np.nan, 0.0]))
    assert math.isnan(report.max_abs)


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
    opts = SolveOptions(n_steps=300, max_iter=1)
    shot = solo(reference_problem, 0.0, reference_problem.q0, opts)
    assert isinstance(shot, NonConvergenceError)
    assert shot.max_residual > 0
    assert shot.iterations == 1
    # the retry from the matched curve gets max_iter iterations of its own, and its error carries both attempts
    with pytest.raises(NonConvergenceError, match="after 2 iterations") as err:
        newton_solve(reference_problem, opts)
    assert err.value.iterations == 2 and err.value.history[:1] == shot.history
    assert 0 < err.value.max_residual == err.value.history[-1] < shot.max_residual


def without_risk(problem):
    """``problem`` with gamma * sigma**2 underflowed to 0: p is constant along every curve that meets its recurrence."""
    return replace(problem, market=replace(problem.market, sigma=1e-300))


def test_a_solo_solve_from_a_price_without_curvature_fails_as_degenerate(reference_problem):
    # the straight line's p = 0 holds all along, where H'' vanishes for phi < 1: no direction exists
    problem, opts = without_risk(reference_problem), SolveOptions(n_steps=50)
    shot = solo(problem, 0.0, problem.q0, opts)
    assert isinstance(shot, NonConvergenceError) and "degenerate linearization" in str(shot)
    assert shot.iterations == 0 and shot.steps == ()
    # the retry starts on the matched curve, here the straight line at the price of its rate, where H'' > 0
    traj = newton_solve(problem, opts)
    assert traj.iterations == 0 and traj.max_residual <= 1e-10 * problem.q0
    assert np.allclose(traj.q, problem.q0 * np.linspace(1.0, 0.0, opts.n_steps + 1), rtol=0.0, atol=1e-9 * problem.q0)


def test_a_degenerate_member_leaves_the_block_and_its_blockmate_keeps_its_bits(reference_problem):
    # member 0 starts on the straight line at p = 0, member 1 off its optimum at p < 0, where H'' > 0
    problem, opts, q0 = without_risk(reference_problem), SolveOptions(n_steps=50), reference_problem.q0
    x = np.linspace(0.0, 1.0, opts.n_steps + 1)
    q_rows, p_starts = np.array([q0 * (1.0 - x), 0.5 * q0 * (1.0 - x) ** 2]), np.array([0.0, -0.02])
    degenerate, converged = solve_batch(problem, [0.0, 0.5], [q0, 0.5 * q0], opts, (q_rows, p_starts))
    assert isinstance(degenerate, NonConvergenceError) and "degenerate linearization" in str(degenerate)
    assert degenerate.iterations == 0
    assert converged.iterations > 0 and converged.max_residual <= 1e-10 * 0.5 * q0
    assert np.allclose(converged.q, 0.5 * q0 * (1.0 - x), rtol=0.0, atol=1e-9 * q0)  # no risk: the straight line
    assert_same_outcome(converged, solve_batch(problem, [0.5], [0.5 * q0], opts, (q_rows[1:], p_starts[1:]))[0])


def test_members_that_converge_stall_degenerate_and_go_on_in_one_iteration_each_keep_their_one_member_bits(
    reference_problem,
):
    # without risk p is constant along a curve, and the optimum is the straight line at the price of its rate:
    # member 0 starts 1e-6 off that price and converges by its first step, member 1 goes on, member 2 at p = 0
    # has no curvature, and member 3 at p = -1e-300 so little that every step length overshoots
    problem, opts, q0 = without_risk(reference_problem), SolveOptions(n_steps=50), reference_problem.q0
    x, cost = np.linspace(0.0, 1.0, opts.n_steps + 1), problem.cost
    rate_price = -(1.0 + cost.phi) * cost.eta * (q0 / problem.volume.rate) ** cost.phi  # t = 0, S = 1
    t_starts, q_starts = [0.0, 0.5, 0.2, 0.4], [q0, 0.5 * q0, q0, q0]
    q_rows = np.array([q0 * (1.0 - x), 0.5 * q0 * (1.0 - x) ** 2, q0 * (1.0 - x), q0 * (1.0 - x)])
    p_starts = np.array([rate_price * (1.0 + 1e-6), -0.02, 0.0, -1e-300])
    block = solve_batch(problem, t_starts, q_starts, opts, (q_rows, p_starts))
    assert [isinstance(r, Trajectory) for r in block] == [True, True, False, False]
    assert [r.iterations for r in block[:1] + block[2:]] == [1, 0, 0] and block[1].iterations > 1
    assert "degenerate linearization" in str(block[2]) and "no step length lowers" in str(block[3])
    for k, result in enumerate(block):
        rows = slice(k, k + 1)
        (alone,) = solve_batch(problem, t_starts[rows], q_starts[rows], opts, (q_rows[rows], p_starts[rows]))
        assert str(result) == str(alone)
        for name in ("max_residual", "history", "steps") + (("q", "p") if isinstance(alone, Trajectory) else ()):
            got, expected = (np.asarray(getattr(r, name), dtype=float) for r in (result, alone))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (k, name)


@pytest.mark.parametrize("changes", [dict(gamma=1e12), dict(horizon=1e15)], ids=["gamma", "horizon"])
def test_a_solo_solve_whose_shooting_chains_overflow_fails_typed_without_a_warning(changes):
    # the chains' products b * dq overflowed, and numpy warned of it before the defect test sent the step to dgtsv
    with pytest.raises(NonConvergenceError):
        newton_solve(make_reference_problem(**changes), SolveOptions(n_steps=200))


def test_matched_curves_of_a_volume_whose_cell_sum_overflows_are_finite():
    # at 1e308 the 200 cells' sum overflowed in vol.mean, and the curves were NaN after a warning
    problem = replace(make_reference_problem(), volume=ConstantVolume(1e308))
    work = solver._Workspace(problem, [0.0, 0.5], 200)
    out, scratch = np.empty((2, 2, 201))
    p0 = solver._matched_curves(problem, work)(np.array([5e5, 2e5]), out, scratch)
    assert np.isfinite(p0).all() and np.isfinite(out).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_start_extrapolates_a_polynomial_in_inventory(m):
    # the start of a value-surface cell is a base curve plus the deviations
    # extrapolated in the inventory Q: from m >= 2 deviations, one of degree m - 1
    # comes back exactly at the next evenly spaced node; one deviation is scaled,
    # which is exact for a deviation proportional to Q. The base (here a power of Q
    # times a fixed row) never enters the prediction, and the slots older than the
    # last m weigh nothing. Rows hold q (J+1 entries) and then p[0], as in build_grid.
    grid = Grid(n_steps=20, t_start=0.0, t_end=1.0)
    rng = np.random.default_rng(m)
    coef, base_row = rng.uniform(0.5, 1.5, (m, 22)), rng.uniform(0.5, 1.5, 22)
    degrees = np.arange(m) if m > 1 else np.ones(1)
    coef[:, 0] = base_row[0] = 0.0  # a deviation vanishes at q[0] = Q, where the base is Q

    def base(Q):
        row = np.append(Q**1.7 * base_row[:-1], Q**0.3 * base_row[-1])
        row[0] = Q
        return row

    def deviation(Q):
        return (Q**degrees) @ coef

    nodes = 2.0 + 0.5 * np.arange(5)  # four slots, then the start's inventory
    q_start = nodes[-1]
    weights = value_function._weights(4, q_start / nodes[-2])
    start, scratch = np.empty((2, 1, 22))
    value_function._predict(weights[m : m + 1], [deviation(Q)[None] for Q in nodes[:-1]], base(q_start)[None], start, scratch)
    q, p = np.empty((2, 1, 21))
    solver._start(np.array([[grid.tau * 0.7]]), np.array([q_start]), q, p, (start[:, :-1], start[:, -1]))
    q, p = q[0], p[0]
    expected = deviation(q_start) + base(q_start)
    assert q[0] == q_start and q[-1] == 0.0
    np.testing.assert_allclose(q[1:-1], expected[1:-2], rtol=1e-12)
    assert p[0] == pytest.approx(expected[-1], rel=1e-12)
    # p is the forward pass of the p-recurrence, so its defect is rounding
    np.testing.assert_allclose(p[1:] - p[:-1], grid.tau * 0.7 * q[1:], rtol=1e-12)


def one_row_start(tau_ksq, n_steps, q_start, base, stencil, Q):
    """A member's start from its base and (deviation, p[0]) pairs as one-row code: the reference for bit identity."""
    m = len(stencil)
    if base is None:
        q = (1.0 - np.arange(n_steps + 1) / n_steps) * q_start
        p0 = 0.0
    elif m == 1:
        ((q_left, p0_left),) = stencil
        s = q_start / Q
        q, p0 = s * q_left + base[0], s * p0_left + base[1]
    else:
        weights = [(-1) ** (m - 1 - i) * math.comb(m, i) for i in range(m)]
        q = sum(w * q_i for w, (q_i, _) in zip(weights, stencil)) + base[0]
        p0 = sum(w * p0_i for w, (_, p0_i) in zip(weights, stencil)) + base[1]
    q[0], q[-1] = q_start, 0.0
    p = np.full(n_steps + 1, p0)
    p[1:] += tau_ksq * np.cumsum(q[1:])
    return q, p


@pytest.mark.parametrize("depths", [[0] * 5, [1] * 5, [2] * 5, [3] * 5, [4] * 5, [4, 0, 2, 4, 1]])
def test_a_block_start_is_each_rows_one_row_start_bit_for_bit(depths):
    # the K rows predicted together, each with the weights of its own depth, and
    # started together; each row predicted and started alone; and the one-row code:
    # the same bits, compared as int64; from a base curve, and from the straight
    # line (no start) where nothing is extrapolated
    rng = np.random.default_rng(len(set(depths)) + sum(depths))
    K, J = len(depths), 60
    b = rng.uniform(1e-4, 1.0, (K, 1))
    q_start = np.full(K, rng.uniform(1e4, 1e6))  # a block's cells share their inventory
    Q = q_start[0] * rng.uniform(0.5, 1.0)
    slots = [rng.normal(size=(K, J + 2)) * 10.0 ** rng.uniform(-3, 6, (K, J + 2)) for _ in range(4)]
    weights, depth = value_function._weights(4, q_start[0] / Q), np.array(depths)
    bases = [np.append(rng.uniform(0.0, 1e6, (K, J + 1)), rng.normal(size=(K, 1)), axis=1)]
    if not any(depths):
        bases.append(None)

    def start(rows, base):
        q, p = np.empty((2, len(b[rows]), J + 1))
        if base is None:
            solver._start(b[rows], q_start[rows], q, p)
        else:
            row, scratch = np.empty((2, *base[rows].shape))
            value_function._predict(weights[depth[rows]], [a[rows] for a in slots], base[rows], row, scratch)
            solver._start(b[rows], q_start[rows], q, p, (row[:, :-1], row[:, -1]))
        return q, p

    for base in bases:
        q, p = start(slice(None), base)
        for k, d in enumerate(depths):
            alone = start(slice(k, k + 1), base)
            pairs = [(a[k, :-1].copy(), a[k, -1]) for a in slots[4 - d :]]
            own = None if base is None else (base[k, :-1].copy(), base[k, -1])
            expected = one_row_start(float(b[k, 0]), J, q_start[k], own, pairs, Q)
            for got, one_row, reference in zip((q[k], p[k]), (alone[0][0], alone[1][0]), expected):
                assert np.array_equal(got.view(np.int64), one_row.view(np.int64))
                assert np.array_equal(got.view(np.int64), reference.view(np.int64))


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


@pytest.mark.parametrize("t_hat, q_hat", [(0.1, math.nan), (0.1, math.inf), (math.nan, 1e5), (math.inf, 1e5)])
def test_solve_from_rejects_a_non_finite_start_before_solving(reference_problem, t_hat, q_hat):
    with pytest.raises(ValueError, match="t_hat|q_hat"):
        solve_from(reference_problem, t_hat, q_hat)


def test_superquadratic_cost_rejected_on_newton_path(reference_problem):
    from blocktrade.legendre import SingularCurvatureError

    problem = replace(reference_problem, cost=PowerLawCost(eta=0.02, phi=1.5))
    with pytest.raises(SingularCurvatureError, match="closed forms"):
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
    c = rng.uniform(0.1, 2.0, (1, J))
    e = rng.normal(size=(1, J))
    b = np.array([0.3])
    dq, dp, singular = _direction_by_banded(c, e, b)
    assert dq.shape == dp.shape == (1, J + 1)
    assert not singular.any()
    assert dq[0, 0] == 0.0 and dq[0, -1] == 0.0
    scale = max(1.0, float(np.max(np.abs(dq))), float(np.max(np.abs(dp))))
    assert _linear_defect(c, e, b[:, None], dq, dp, np.empty((3, 1, J)))[0] <= 1e-13 * scale


@pytest.mark.parametrize("J", [2, 3, 1000])
def test_hessian_direction_solves_linearized_system(J):
    # dq from the SPD Hessian, dp from the p-recurrence: at J = 1000 the rows hold to 4.3e-15
    # of the scale here, dgtsv's to 1.6e-16
    rng = np.random.default_rng(J)
    c = rng.uniform(0.1, 2.0, (3, J))
    e = rng.normal(size=(3, J))
    b = np.array([0.3, 1.7, 0.02])
    dq, dp, singular = _direction_by_hessian(c, e, b)
    assert not singular.any() and (dq[:, 0] == 0.0).all() and (dq[:, -1] == 0.0).all()
    scale = max(1.0, float(np.max(np.abs(dq))), float(np.max(np.abs(dp))))
    assert _linear_defect(c, e, b[:, None], dq, dp, np.empty((3, 3, J))).max() <= 1e-13 * scale


def assert_same_outcome(batched, alone):
    """A block member's result is bit for bit its solo solve's, error or trajectory."""
    assert type(batched) is type(alone)
    assert (batched.max_residual, batched.iterations) == (alone.max_residual, alone.iterations)
    if isinstance(alone, NonConvergenceError):
        assert str(batched) == str(alone)
        return
    assert batched.grid == alone.grid
    for name in ("q", "p", "v"):
        assert np.array_equal(getattr(batched, name), getattr(alone, name))


def solo(problem, t, q, opts):
    """The shooting attempt of ``solve_from`` alone: one member from the straight line, without the retry."""
    (result,) = solve_batch(problem, [t], [q], opts)
    return result


def solo_by_block_direction(problem, t, q, opts):
    """``solo`` with every direction taken as a block's, as a block member's is: one member handed the straight line."""
    (result,) = solve_batch(problem, [t], [q], opts, straight_line(problem, t, q, opts.n_steps))
    return result


def assert_same_convergence(batched, alone):
    """Same iteration count and the same failure as the shooting solo solve."""
    assert type(batched) is type(alone)
    assert batched.iterations == alone.iterations
    if isinstance(alone, NonConvergenceError):
        assert str(batched).split(" (")[0] == str(alone).split(" (")[0]


def one_row(direction, k):
    return tuple(part[k : k + 1] for part in direction)


def assert_rows_are_their_one_row_calls(c, e, b, direction=_direction_by_hessian):
    block = direction(c, e, b)
    for k in range(len(b)):
        alone = direction(c[k : k + 1], e[k : k + 1], b[k : k + 1])
        for got, expected in zip(one_row(block, k), alone):
            assert_same_bits(got, expected)
    return block


@pytest.mark.parametrize("J", [2, 3, 1000])
@pytest.mark.parametrize("K", [2, 5])
def test_block_direction_equals_each_members_one_row_call(K, J):
    rng = np.random.default_rng(10 * K + J)
    c = rng.uniform(0.0, 3.0, (K, J))
    e = rng.normal(size=(K, J)) * 10.0 ** rng.uniform(-8, 3, (K, J))
    b = rng.uniform(0.01, 2.0, K)
    dq, dp, singular = assert_rows_are_their_one_row_calls(c, e, b)
    assert dq.shape == dp.shape == (K, J + 1)
    assert not singular.any()
    # the block router: a member with c_0 = 0 (a straight-line start) takes dgtsv, the others dptsv
    c[1, 0] = 0.0
    routed = assert_rows_are_their_one_row_calls(c, e, b)
    assert not routed[2].any()
    for got, expected in zip(one_row(routed, 1), _direction_by_banded(c[1:2], e[1:2], b[1:2])):
        assert_same_bits(got, expected)


# The one-member shooting pass as it was before both chains shared one loop,
# and the direction by scipy's solve_banded: the references for bit identity.
def two_loop_propagate(c, e, b, dp_start):
    dq, dp = [0.0], [dp_start]
    dqj, dpj = 0.0, dp_start
    for cj, ej in zip(c, e):
        dqj = dqj + cj * dpj + ej
        dpj = dpj + b * dqj
        dq.append(dqj)
        dp.append(dpj)
    return np.array(dq), np.array(dp)


def two_loop_shooting_chains(c, e, b):
    dq0, dp0 = two_loop_propagate(c, e, b, 0.0)
    dq1, dp1 = two_loop_propagate(c, e, b, 1.0)
    return np.stack((dq0, dq1)), np.stack((dp0, dp1))


def solve_banded_direction(c, e, b):
    from scipy.linalg import solve_banded

    J = len(c)
    ab = np.zeros((3, 2 * J))
    ab[0, 1:-1] = 1.0
    ab[1, 0::2] = -np.asarray(c)
    ab[1, 1:-1:2] = -b
    ab[1, -1] = 1.0
    ab[2, :-1] = -1.0
    rhs = np.zeros(2 * J)
    rhs[0::2] = e
    x = solve_banded((1, 1), ab, rhs)
    dq = np.zeros(J + 1)
    dq[1:J] = x[1 : 2 * J - 2 : 2]
    dp = np.empty(J + 1)
    dp[:J] = x[0 : 2 * J - 1 : 2]
    dp[J] = x[2 * J - 1]
    return dq, dp


def solve_banded_rows(c, e, b, work=None):
    """``_direction_by_banded`` row by row through solve_banded, into fresh arrays whatever ``work``."""
    dq, dp = np.zeros((2, len(b), c.shape[1] + 1))
    singular = np.zeros(len(b), dtype=bool)
    for k in range(len(b)):
        try:
            dq[k], dp[k] = solve_banded_direction(c[k], e[k], b[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return dq, dp, singular


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("J", [2, 3, 1000])
@pytest.mark.parametrize("overflow", [False, True])
def test_one_pass_kernel_equals_the_two_loop_chains_bit_for_bit(J, overflow):
    rng = np.random.default_rng(J)
    if overflow:  # fast growth; zero curvature times an infinite dp gives NaN
        c = rng.uniform(0.0, 1e3, J) * (rng.uniform(size=J) > 0.2)
        e = rng.normal(size=J) * 1e300
        b = 50.0
    else:
        c = rng.uniform(0.0, 3.0, J)
        e = rng.normal(size=J) * 10.0 ** rng.uniform(-8, 3, J)
        b = 0.3
    # both input kinds: lists, and memoryviews of rows of (1, J) arrays as _newton_direction passes
    inputs = (c.tolist(), e.tolist()), (memoryview(c[None][0]), memoryview(e[None][0]))
    with np.errstate(all="ignore"):
        for kind in inputs:
            dq, dp = _propagate(*kind, b)
            for row, start in ((0, 0.0), (1, 1.0)):
                dq_ref, dp_ref = two_loop_propagate(c.tolist(), e.tolist(), b, start)
                assert_same_bits(dq[row], dq_ref)
                assert_same_bits(dp[row], dp_ref)
    if overflow and J == 1000:
        assert np.isinf(dq).any() and np.isnan(dq).any()


@pytest.mark.parametrize("J", [2, 3, 1000])
def test_direct_gtsv_equals_solve_banded_bit_for_bit(J):
    # each member alone, then the three through the router, which sends each to dgtsv when
    # none is SPD (c_0 = 0, as at a straight-line start)
    rng = np.random.default_rng(J)
    c = rng.uniform(0.0, 2.0, (3, J))
    e = rng.normal(size=(3, J))
    b = np.array([0.3, 1.7, 0.02])
    for k in range(3):
        args = c[k : k + 1], e[k : k + 1], b[k : k + 1]
        for got, expected in zip(_direction_by_banded(*args), solve_banded_rows(*args)):
            assert_same_bits(got, expected)
    c[:, 0] = 0.0
    for got, expected in zip(_direction_by_hessian(c, e, b), solve_banded_rows(c, e, b)):
        assert_same_bits(got, expected)


def test_direct_gtsv_marks_a_singular_system():
    # with H'' = 0 along the whole path no dq depends on dp_0
    c, e = np.zeros((1, 50)), np.ones((1, 50))
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded_direction(c[0], e[0], 0.3)
    assert _direction_by_banded(c, e, np.array([0.3]))[2].tolist() == [True]


def test_overflowing_and_nan_members_leave_their_blockmates_bits():
    rng = np.random.default_rng(8)
    K, J = 5, 300
    c = rng.uniform(0.1, 2.0, (K, J))
    e = rng.normal(size=(K, J))
    b = np.full(K, 0.3)
    e[1], b[1] = rng.normal(size=J) * 1e300, 50.0
    c[3, 100] = np.nan
    with np.errstate(all="ignore"):
        dq, dp, _ = assert_rows_are_their_one_row_calls(c, e, b)
    assert np.abs(dp[1]).max() > 1e290 and np.isnan(dp[3]).any()
    assert np.isfinite(dq[[0, 2, 4]]).all() and np.isfinite(dp[[0, 2, 4]]).all()


def test_a_nan_member_leaves_its_blockmates_the_bits_of_their_dptsv_calls():
    # LDL^T carries a NaN across a zero coupling entry (0 * NaN is NaN), so the block is re-solved;
    # every member is SPD here, so the block goes into one dptsv call first
    rng = np.random.default_rng(9)
    K, J = 5, 300
    c = rng.uniform(0.1, 2.0, (K, J))
    e = rng.normal(size=(K, J))
    b = np.full(K, 0.3)
    e[1, 100], e[3, 50] = np.nan, np.nan
    dq, dp, singular = assert_rows_are_their_one_row_calls(c, e, b)
    assert np.isnan(dq[1]).any() and np.isnan(dp[3]).any() and not singular.any()
    assert np.isfinite(dq[[0, 2, 4]]).all() and np.isfinite(dp[[0, 2, 4]]).all()


def test_a_member_without_curvature_is_marked_singular_alone_through_dgtsv():
    rng = np.random.default_rng(7)
    c = rng.uniform(0.1, 2.0, (4, 200))
    c[2] = 0.0
    e = rng.normal(size=(4, 200))
    b = np.full(4, 0.3)
    _, _, singular = assert_rows_are_their_one_row_calls(c, e, b)
    assert singular.tolist() == [False, False, True, False]


def gtsv_system(n=2000):
    rng = np.random.default_rng(n)
    return rng.normal(size=n - 1), rng.uniform(1.0, 3.0, n), rng.normal(size=n - 1), rng.normal(size=n)


def ptsv_system(n=2000):
    rng = np.random.default_rng(n)
    return rng.uniform(3.0, 4.0, n), rng.uniform(-1.0, 1.0, n - 1), rng.normal(size=n)


def test_private_lapack_load_equals_scipy_linalg_and_leaves_it_importable():
    # in a fresh interpreter: the load must not import scipy.linalg, which works afterwards
    src = os.path.dirname(os.path.dirname(solver.__file__))
    code = (
        "import sys, numpy as np\n"
        "from blocktrade.solver import _lapack\n"
        "rng = np.random.default_rng(2000)\n"
        "n = 2000\n"
        "gt = rng.normal(size=n - 1), rng.uniform(1.0, 3.0, n), rng.normal(size=n - 1), rng.normal(size=n)\n"
        "pt = rng.uniform(3.0, 4.0, n), rng.uniform(-1.0, 1.0, n - 1), rng.normal(size=n)\n"
        "private = _lapack().dgtsv(*gt)[3], _lapack().dptsv(*pt)[2]\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from scipy.linalg.lapack import dgtsv, dptsv\n"
        "assert dgtsv(*gt)[3].tobytes() == private[0].tobytes()\n"
        "assert dptsv(*pt)[2].tobytes() == private[1].tobytes()\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_lapack_falls_back_to_the_public_import(monkeypatch):
    from scipy.linalg.lapack import dgtsv, dptsv

    def refuse(*args, **kwargs):
        raise ImportError("private path unavailable")

    expected = dgtsv(*gtsv_system())[3], dptsv(*ptsv_system())[2]
    monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
    solver._lapack.cache_clear()
    try:
        assert solver._lapack().dgtsv is dgtsv and solver._lapack().dptsv is dptsv
        assert_same_bits(solver._lapack().dgtsv(*gtsv_system())[3], expected[0])
        assert_same_bits(solver._lapack().dptsv(*ptsv_system())[2], expected[1])
    finally:
        solver._lapack.cache_clear()


@pytest.mark.parametrize("horizon", [5.0, 20.0])
def test_long_horizon_solve_equals_the_two_loop_and_solve_banded_routines(horizon, monkeypatch):
    problem = make_reference_problem(horizon=horizon)
    calls = []

    def counted(*args):
        calls.append(args)
        return _direction_by_banded(*args)

    monkeypatch.setattr(solver, "_direction_by_banded", counted)
    traj = newton_solve(problem)
    assert calls  # the fallback ran
    monkeypatch.setattr(solver, "_propagate", two_loop_shooting_chains)
    monkeypatch.setattr(solver, "_direction_by_banded", solve_banded_rows)
    before = newton_solve(problem)
    for name in ("q", "p", "v"):
        assert_same_bits(getattr(traj, name), getattr(before, name))
    assert (traj.iterations, traj.max_residual) == (before.iterations, before.max_residual)


def test_long_horizon_batch_takes_the_fallback_and_matches_solo_solves(monkeypatch):
    # at T = 20 a solo solve needs the dgtsv fallback; a block from the straight line, where
    # H''(0) = 0, sends each member to dgtsv alone, and takes the Hessian direction after
    problem = make_reference_problem(horizon=20.0)
    opts = SolveOptions(n_steps=400)
    starts = [(0.0, 5e5), (5.0, 2e5), (10.0, 1e6), (0.0, 5e4)]
    calls = []

    def counted(direction):
        return lambda *args: calls.append(direction.__name__) or direction(*args)

    for direction in (_direction_by_banded, _direction_by_hessian):
        monkeypatch.setattr(solver, direction.__name__, counted(direction))
    batched = solve_batch(problem, *zip(*starts), opts)
    member_by_member = ["_direction_by_hessian", "_direction_by_banded"] * len(starts)
    assert calls[: 1 + 2 * len(starts)] == ["_direction_by_hessian", *member_by_member]
    assert "_direction_by_banded" not in calls[1 + 2 * len(starts) :]
    monkeypatch.undo()
    for result, (t, q) in zip(batched, starts):
        assert_same_outcome(result, solo_by_block_direction(problem, t, q, opts))
        assert_same_convergence(result, solo(problem, t, q, opts))


def test_history_and_steps_explain_a_stall():
    # shooting's rounding noise keeps this request above the default tolerance: at its 15th iteration no
    # step length lowers the residual, and it fails there with the record of the 14 iterations before
    problem, opts = make_reference_problem(gamma=7.16e-6, q0=2.92e5, horizon=1.0), SolveOptions(n_steps=1000)
    err = solo(problem, 0.0, problem.q0, opts)
    assert isinstance(err, NonConvergenceError) and "no step length lowers the residual" in str(err)
    assert len(err.history) == len(err.steps) == err.iterations == 14
    assert err.history[-1] == err.max_residual > 1e-10 * problem.q0
    # the retry from the matched curve converges in 5 full steps, and the trajectory keeps both attempts' record
    traj = newton_solve(problem, opts)
    assert traj.history[:14] == err.history and traj.steps[:14] == err.steps
    assert (traj.iterations, traj.steps[14:]) == (19, (1.0,) * 5)
    assert traj.history[-1] == traj.max_residual <= 1e-10 * problem.q0


def test_steps_record_the_step_each_iteration_took(monkeypatch):
    # the stalling request halves its steps, and its last search takes none
    problem = make_reference_problem(gamma=7.16e-6, q0=2.92e5, horizon=1.0)
    tried = []  # every step length the line search evaluated, in order
    candidate = solver._Block.candidate

    def logged(self, ham, alpha, dq, dp):
        tried.append(alpha)
        return candidate(self, ham, alpha, dq, dp)

    monkeypatch.setattr(solver._Block, "candidate", logged)
    err = solo(problem, 0.0, problem.q0, SolveOptions(n_steps=1000))
    assert isinstance(err, NonConvergenceError)
    # each iteration tries alpha = 1, 1/2, ... until one lowers the residual; the stalled one tries all 21
    starts = [i for i, alpha in enumerate(tried) if alpha == 1.0]
    searches = [tried[a:b] for a, b in zip(starts, starts[1:] + [len(tried)])]
    assert len(err.steps) == len(searches) - 1 == err.iterations
    assert all(search == [2.0**-h for h in range(len(search))] for search in searches)
    assert [search[-1] for search in searches[:-1]] == list(err.steps) and min(err.steps) < 1.0
    assert len(searches[-1]) == solver.MAX_HALVINGS + 1
    # newton_solve repeats those searches, then the retry's: five full steps, recorded after the shooting ones
    shooting = len(tried)
    retried = newton_solve(problem, SolveOptions(n_steps=1000))
    assert tried[2 * shooting :] == [1.0] * 5 and retried.steps == err.steps + (1.0,) * 5

    traj = newton_solve(make_quadratic_problem(), SolveOptions(n_steps=200))
    assert traj.steps == (1.0,) * traj.iterations


def test_converged_history_ends_at_the_reported_residual(reference_problem):
    traj = newton_solve(reference_problem, SolveOptions(n_steps=200))
    assert len(traj.history) == traj.iterations
    assert traj.history[-1] == traj.max_residual
    assert all(a > b for a, b in zip(traj.history, traj.history[1:]))


ENVELOPE_PROBLEMS = [
    make_reference_problem(),
    replace(make_reference_problem(horizon=0.5, q0=2e5), cost=PowerLawCost(0.02, 0.5)),
    replace(make_reference_problem(horizon=2.0, gamma=3e-6, q0=1e6), cost=PowerLawCost(0.05, 1.0)),
    replace(make_reference_problem(horizon=1.5, gamma=5e-7, q0=8e5), cost=PowerLawCost(0.01, 0.8)),
]


@pytest.mark.parametrize("problem", ENVELOPE_PROBLEMS)
def test_envelope_identity_for_the_inventory_gradient(problem):
    # the discrete NECPR is the minimum of eval_I over the grid, so its q0
    # derivative is the solver's dual price plus the first cell's risk term
    q0 = problem.q0
    opts = SolveOptions(n_steps=200, newton_tol=1e-12 * q0)

    def necpr(q):
        shifted = replace(problem, q0=q)
        return eval_I(shifted, newton_solve(shifted, opts))

    h = 1e-4 * q0
    central = (necpr(q0 + h) - necpr(q0 - h)) / (2.0 * h)
    traj = newton_solve(problem, opts)
    m = problem.market
    exact = -traj.p[0] + 0.5 * m.gamma * m.sigma**2 * traj.grid.tau * q0
    assert central == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("problem", ENVELOPE_PROBLEMS)
def test_envelope_identity_for_the_risk_aversion_gradient(problem):
    # gamma enters eval_I only through the risk term, so the derivative of the
    # minimum is that term's: half sigma**2 tau times the trapezoid of q**2
    m = problem.market
    opts = SolveOptions(n_steps=200, newton_tol=1e-12 * problem.q0)

    def necpr(gamma):
        shifted = replace(problem, market=replace(m, gamma=gamma))
        return eval_I(shifted, newton_solve(shifted, opts))

    h = 1e-4 * m.gamma
    central = (necpr(m.gamma + h) - necpr(m.gamma - h)) / (2.0 * h)
    traj = newton_solve(problem, opts)
    trapezoid = np.sum(0.5 * (traj.q[:-1] ** 2 + traj.q[1:] ** 2))
    assert central == pytest.approx(0.5 * m.sigma**2 * traj.grid.tau * trapezoid, rel=1e-8)


def test_failing_member_is_returned_and_leaves_the_others_bit_identical(reference_problem):
    # alone, the 2e6 block needs 8 iterations and the others at most 7
    opts = SolveOptions(n_steps=200, max_iter=7)
    starts = [(0.0, 5e5), (0.5, 1e5), (0.0, 2e6), (0.8, 5e3)]
    work = solver._Workspace(reference_problem, [t for t, _ in starts], opts.n_steps)
    q_rows, p_rows = np.full((2, len(starts), opts.n_steps + 1), -1.0)
    batched = solver._solve_batch(reference_problem, work, [q for _, q in starts], opts, q_rows, p_rows)
    assert [isinstance(r, NonConvergenceError) for r in batched] == [False, False, True, False]
    assert (q_rows[2] == -1.0).all() and (p_rows[2] == -1.0).all()  # the failed member's rows are as they were
    for k in (0, 1, 3):  # a converged member's curve is the caller's rows
        assert np.shares_memory(batched[k].q, q_rows[k]) and np.shares_memory(batched[k].p, p_rows[k])
    for result, (t, q) in zip(batched, starts):
        assert_same_outcome(result, solo_by_block_direction(reference_problem, t, q, opts))
        assert_same_convergence(result, solo(reference_problem, t, q, opts))


def test_line_search_stops_once_every_member_has_its_step(monkeypatch):
    # the first iteration takes alpha = 1 for the first member and 1/2 for the second
    problem = make_reference_problem(gamma=1e-7)
    starts = [(0.0, 5e5), (0.5, 5e5)]
    tried = []  # (members evaluated, alpha) of every candidate: each try evaluates the whole block
    candidate = solver._Block.candidate

    def logged(self, ham, alpha, dq, dp):
        tried.append((self.member.size, alpha))
        return candidate(self, ham, alpha, dq, dp)

    monkeypatch.setattr(solver._Block, "candidate", logged)
    first, second = solve_batch(problem, *zip(*starts), SolveOptions(n_steps=200))
    assert first.steps == (1.0,) * 4 and second.steps == (0.5, 1.0, 1.0, 1.0)
    # no halving runs once both members have their step: one more call than iterations
    assert tried == [(2, 1.0), (2, 0.5), (2, 1.0), (2, 1.0), (2, 1.0)]


def test_one_search_takes_a_full_and_a_halved_step_and_stalls_a_member_each_with_its_solo_bits(monkeypatch):
    # at newton_tol = 1e-12 shares every member reaches its rounding floor; the sixth search of this
    # block takes the full step for member 0, no step for member 1, which fails alone, and a halving for member 2
    problem = make_reference_problem(gamma=2e-7)
    starts = [(0.0, 1.5e6), (0.5, 5e4), (0.75, 1e5)]
    opts = SolveOptions(n_steps=100, newton_tol=1e-12, max_iter=6)
    searches, states = [], {}  # each search's (members, steps, failed); each solve's rows after it
    line_search, solve = solver._line_search, "block"

    def logged(ham, block, dq, dp):
        taken = line_search(ham, block, dq, dp)
        searches.append((block.member.tolist(), taken.tolist(), (block.failure != "").tolist()))
        for k, member in enumerate(block.member.tolist()):
            states.setdefault((solve, member), []).append(np.stack((block.q[k], block.p[k])).view(np.int64))
        return taken

    monkeypatch.setattr(solver, "_line_search", logged)
    batched = solve_batch(problem, *zip(*starts), opts)
    assert searches[5] == ([0, 1, 2], [1.0, 0.0, 0.5], [False, True, False])
    assert "no step length" in str(batched[1]) and batched[1].iterations == 5  # the record of the searches before
    assert searches[0][1] == [1.0, 0.5, 0.25]  # the first search halves member 1 once and member 2 twice
    for member, (t, q) in enumerate(starts):
        solve = member
        alone = solo_by_block_direction(problem, t, q, opts)
        assert_same_outcome(batched[member], alone)
        for name in ("history", "steps"):
            got, expected = (np.asarray(getattr(r, name)) for r in (batched[member], alone))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name
        block_rows, alone_rows = states["block", member], states[member, 0]
        assert len(block_rows) == len(alone_rows) == opts.max_iter
        assert all(np.array_equal(a, b) for a, b in zip(block_rows, alone_rows))


@pytest.mark.parametrize(
    "starts, poisoned", [([(0.0, 5e5), (0.5, 5e5), (0.2, 1e5)], 1), ([(0.5, 5e5)], 0)], ids=["blockmates", "lone"]
)
def test_a_member_with_only_nan_candidates_stalls_alone(reference_problem, monkeypatch, starts, poisoned):
    # the poisoned member's first direction is NaN: a NaN residual never lowers its own, so no step length
    # improves it and it leaves with its starting residual, and the others keep their solo bits; a lone
    # member ends the loop. Each member is handed the straight line, so a lone one takes the block direction too
    opts = SolveOptions(n_steps=200)
    lines = [straight_line(reference_problem, t, q, opts.n_steps) for t, q in starts]
    start = np.concatenate([q for q, _ in lines]), np.concatenate([p0 for _, p0 in lines])
    newton_direction, calls = solver._newton_direction, []

    def poison(c, e, *rest):
        dq, dp, singular = newton_direction(c, e, *rest)
        if not calls:
            dq[poisoned] = np.nan
        calls.append(len(c))
        return dq, dp, singular

    monkeypatch.setattr(solver, "_newton_direction", poison)
    batched = solve_batch(reference_problem, *zip(*starts), opts, start)
    monkeypatch.undo()
    assert calls[:2] == ([3, 2] if len(starts) > 1 else [1])
    failed = batched[poisoned]
    assert isinstance(failed, NonConvergenceError) and "no step length lowers the residual" in str(failed)
    assert (failed.iterations, failed.history, failed.steps) == (0, (), ())
    t, q = starts[poisoned]
    guess = initial_guess(reference_problem, Grid(opts.n_steps, t, reference_problem.horizon), q)
    assert failed.max_residual == discrete_residual(reference_problem, guess).max_abs
    for member in set(range(len(starts))) - {poisoned}:
        assert_same_outcome(batched[member], solo_by_block_direction(reference_problem, *starts[member], opts))


def test_a_full_step_solo_iteration_evaluates_one_candidate(reference_problem, monkeypatch):
    # the full step is tried on the whole block before any per-member state is made
    tried = []
    candidate = solver._Block.candidate

    def logged(self, ham, alpha, dq, dp):
        tried.append(alpha)
        return candidate(self, ham, alpha, dq, dp)

    monkeypatch.setattr(solver._Block, "candidate", logged)
    traj = newton_solve(reference_problem, SolveOptions(n_steps=1000))
    assert traj.steps == (1.0,) * traj.iterations
    assert tried == [1.0] * traj.iterations


@pytest.mark.parametrize("horizon, fallbacks", [(0.25, 0), (20.0, 9)])
def test_a_shared_workspace_gives_a_solo_solve_the_bits_of_a_fresh_one(horizon, fallbacks, monkeypatch):
    # the shooting defect uses the dgtsv bands as scratch, and at T = 20 a fallback
    # dgtsv refills them; no result may read what an earlier call or step left there
    problem = make_reference_problem(horizon=horizon)
    opts = SolveOptions(n_steps=1000)
    banded = []
    direction_by_banded = solver._direction_by_banded

    def counted(c, e, b, work=None):
        banded.append(len(c))
        return direction_by_banded(c, e, b, work)

    monkeypatch.setattr(solver, "_direction_by_banded", counted)
    fresh = solve_batch(problem, [0.0], [problem.q0], opts)[0]
    assert len(banded) == fallbacks
    work = solver._Workspace(problem, [0.0], opts.n_steps)
    for array in (work.bands, work.c, work.e, work.tau_vol, work.dq, work.dp, *work.state):
        array.fill(np.nan)
    for _ in range(2):
        shared = solve_batch(problem, [0.0], [problem.q0], opts, work=work)[0]
        for name in ("q", "p", "history", "steps"):
            got, expected = (np.asarray(getattr(traj, name)) for traj in (shared, fresh))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name


def test_a_warm_block_allocates_little_beyond_its_results(reference_problem):
    # the Newton loop writes into the workspace; a 21-member block at 1000 steps, in
    # which members leave at different iterations, peaked at 5.4 times its results
    # when every iteration allocated its arrays
    t_nodes = np.linspace(0.0, 0.9, 21)
    q_starts = [reference_problem.q0] * len(t_nodes)
    opts = SolveOptions(n_steps=1000)
    work = solver._Workspace(reference_problem, t_nodes, opts.n_steps)
    solve_batch(reference_problem, t_nodes, q_starts, opts, work=work)
    tracemalloc.start()
    try:
        results = solve_batch(reference_problem, t_nodes, q_starts, opts, work=work)
        speeds = [traj.v for traj in results]  # worked out on access: traced like q and p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({traj.iterations for traj in results}) > 1
    returned = sum(traj.q.nbytes + traj.p.nbytes + v.nbytes for traj, v in zip(results, speeds))
    assert peak <= 1.25 * returned  # less than one (members x steps) array more


@pytest.mark.parametrize("horizon", [0.25, 20.0])
def test_a_warm_solo_solve_allocates_little_beyond_its_shooting_chains(horizon):
    # a shooting iteration makes the kernel's 4 (n_steps + 1) chains; the affine
    # combination and its defect go to the workspace (3.7 times the chains when
    # they and the kernel's input lists were allocated every iteration)
    problem = make_reference_problem(horizon=horizon)
    opts = SolveOptions(n_steps=1000)
    work = solver._Workspace(problem, [0.0], opts.n_steps)
    q, p = np.empty((2, 1, opts.n_steps + 1))  # the caller's rows for the converged curve
    solver._solve_batch(problem, work, [problem.q0], opts, q, p)
    tracemalloc.start()
    try:
        solver._solve_batch(problem, work, [problem.q0], opts, q, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4 * (opts.n_steps + 1) * 8


def test_returned_trajectories_own_their_arrays(reference_problem, monkeypatch):
    # a solo solve's trajectory outlives the workspace its solve made, and a block
    # writes its members' curves to the caller's rows: no view pins the workspace
    made, workspace = [], solver._Workspace

    def tracked(*args):
        work = workspace(*args)
        made.extend(weakref.ref(a) for a in (work, work.bands, work.dq.base, *work.state))
        return work

    monkeypatch.setattr(solver, "_Workspace", tracked)
    traj = solve_from(reference_problem, 0.2, 3e5, SolveOptions(n_steps=100))
    monkeypatch.undo()
    assert len(made) == 5 and all(ref() is None for ref in made)
    assert traj.q[0] == 3e5 and np.isfinite(traj.p).all()
    starts = [(0.0, 5e5), (0.2, 3e5), (0.4, 1e5)]
    opts = SolveOptions(n_steps=100)
    work = solver._Workspace(reference_problem, [t for t, _ in starts], opts.n_steps)
    q, p = np.empty((2, len(starts), opts.n_steps + 1))
    solver._solve_batch(reference_problem, work, [q0 for _, q0 in starts], opts, q, p)
    assert q[:, 0].tolist() == [q0 for _, q0 in starts] and np.isfinite(p).all()
    kept = q.copy(), p.copy()
    solver._solve_batch(reference_problem, work, [1e5, 2e5, 4e5], opts, *np.empty((2, 3, 101)))
    assert np.array_equal(q, kept[0]) and np.array_equal(p, kept[1])  # a later block left them as they were
    for array in (q, p):
        assert not any(np.shares_memory(array, w) for w in (work.bands, work.dq, work.dp, *work.state))


@pytest.mark.parametrize("field", ["n_steps", "max_iter"])
@pytest.mark.parametrize("value", [100.0, 2.5, True, "100"])
def test_solve_options_take_integer_counts_only(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolveOptions(**{field: value})
    assert getattr(SolveOptions(**{field: np.int64(100)}), field) == 100


@pytest.mark.parametrize(
    "n_steps, t_start, t_end, message",
    [(1, 0.0, 1.0, "n_steps must be at least 2"), (10, 0.5, 0.5, "t_end must exceed"), (10, 0.5, 0.25, "t_end must exceed")],
)
def test_a_grid_needs_two_cells_on_a_window_forward_in_time(n_steps, t_start, t_end, message):
    with pytest.raises(ValueError, match=message):
        Grid(n_steps=n_steps, t_start=t_start, t_end=t_end)


def test_solve_options_allow_one_iteration_and_no_fewer():
    assert SolveOptions(max_iter=1).max_iter == 1
    with pytest.raises(ValueError, match="max_iter must be positive"):
        SolveOptions(max_iter=0)


def test_step_count_is_bounded():
    assert SolveOptions(n_steps=MAX_STEPS).n_steps == MAX_STEPS
    with pytest.raises(ValueError, match="n_steps"):
        SolveOptions(n_steps=MAX_STEPS + 1)


@pytest.mark.parametrize("sample_bound", [10.0, 1e6])
@pytest.mark.parametrize("phi", [0.65, 1.0])
def test_custom_cost_copy_of_a_power_law_solves_to_its_necpr(phi, sample_bound):
    power = replace(make_reference_problem(), cost=PowerLawCost(eta=0.02, phi=phi))
    custom = replace(power, cost=CustomCost(lambda r: 0.02 * abs(r) ** (1 + phi), sample_bound))
    opts = SolveOptions(n_steps=100)
    expected = eval_I(power, newton_solve(power, opts))
    traj = newton_solve(custom, opts)
    assert traj.max_residual <= 1e-10 * custom.q0
    assert eval_I(custom, traj) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.5, 2.0), phi=st.floats(0.3, 0.9))
def test_discrete_necpr_scale_law_property(mu, phi):
    # with lam = mu ** ((1 + phi) / (phi - 1)), scaling q by lam and time by mu
    # multiplies the cost and the risk term of every cell by lam**(1+phi) * mu**-phi
    problem = replace(make_reference_problem(), cost=PowerLawCost(eta=0.02, phi=phi))
    lam = mu ** ((1.0 + phi) / (phi - 1.0))
    scaled = replace(problem, q0=lam * problem.q0, horizon=mu * problem.horizon)
    necpr = eval_I(problem, newton_solve(problem))
    assert eval_I(scaled, newton_solve(scaled)) == pytest.approx(
        lam ** (1.0 + phi) * mu ** (-phi) * necpr, rel=1e-12
    )


def _necpr_order_ratio(problem, n=1000):
    """(theta_{n/2} - theta_n) / (theta_n - theta_{2n}), which is 4 for a second-order scheme."""
    th = [eval_I(problem, newton_solve(problem, SolveOptions(n_steps=m))) for m in (n // 2, n, 2 * n)]
    return (th[0] - th[1]) / (th[1] - th[2])


# The reference stock over T <= 2 with daily volume in [1e6, 1e7]. Larger gamma,
# volume or horizon reach the shooting direction's noise floor: in about 1% of
# such draws one of the three solves stalls above the default tolerance, which
# says nothing about the order. Knots sit on tenths of the horizon, nodes of all
# three grids: a knot inside a cell adds an O(tau**2) error whose constant
# depends on where in the cell it falls, so where the smooth error is small the
# ratio strays from 4 even though the order is still 2.
_VOLUMES = st.floats(1e6, 1e7)
_HORIZONS = st.floats(0.05, 2.0)


@settings(max_examples=20, deadline=None)
@given(horizon=_HORIZONS, rate=_VOLUMES)
def test_necpr_is_second_order_under_constant_volume(horizon, rate):
    problem = replace(make_reference_problem(horizon=horizon), volume=ConstantVolume(rate))
    assert 3.8 <= _necpr_order_ratio(problem) <= 4.2


@settings(max_examples=20, deadline=None)
@given(
    horizon=_HORIZONS,
    ends=st.tuples(_VOLUMES, _VOLUMES),
    inner=st.dictionaries(st.integers(1, 9), _VOLUMES, min_size=1, max_size=3),
)
def test_necpr_is_second_order_under_piecewise_linear_volume(horizon, ends, inner):
    # sampling the volume at the right end of each cell made this ratio about 2
    knots = ((0.0, ends[0]), *((horizon * j / 10, v) for j, v in sorted(inner.items())), (horizon, ends[1]))
    problem = replace(make_reference_problem(horizon=horizon), volume=PiecewiseLinearVolume(knots))
    assert 3.8 <= _necpr_order_ratio(problem) <= 4.2


def discrete_ac_curve(problem, grid, q_start):
    """The exact discrete optimum for phi = 1 and constant volume (Almgren & Chriss, 2000).

    Eliminating p from the two recurrences leaves q[j+1] - 2 q[j] + q[j-1] = a q[j]
    with a = gamma sigma**2 tau**2 V / (2 eta) = (2 sinh(omega / 2))**2, solved with
    both boundary values by q[j] = q_start sinh(omega (n - j)) / sinh(omega n). The
    ratio is written with exp and expm1, which stay finite for omega n > 710.
    """
    m, n = problem.market, grid.n_steps
    a = m.gamma * m.sigma**2 * grid.tau**2 * problem.volume.rate / (2.0 * problem.cost.eta)
    omega = 2.0 * math.asinh(0.5 * math.sqrt(a))
    j = np.arange(n + 1)
    return q_start * np.exp(-omega * j) * np.expm1(-2.0 * omega * (n - j)) / math.expm1(-2.0 * omega * n)


def stiff_ac_problem(horizon=20.0, gamma=1e-5, rate=2e7, eta=1e-3, q0=2e6):
    """Almgren-Chriss (phi = 1) on constant volume; the defaults are the stiffest corner of the draws below."""
    return replace(
        make_reference_problem(gamma=gamma, q0=q0, horizon=horizon),
        volume=ConstantVolume(rate),
        cost=PowerLawCost(eta, 1.0),
    )


@settings(max_examples=200, deadline=None)
@given(
    horizon=st.floats(0.05, 20.0),
    gamma=st.floats(1e-7, 1e-5),
    rate=st.floats(1e6, 2e7),
    eta=st.floats(1e-3, 1.0),
    n=st.integers(20, 3000),
    q0=st.floats(5e4, 2e6),
)
@example(horizon=20.0, gamma=1e-5, rate=2e7, eta=1e-3, n=20, q0=2e6)
def test_block_solve_is_the_exact_discrete_almgren_chriss_curve(horizon, gamma, rate, eta, n, q0):
    problem = stiff_ac_problem(horizon, gamma, rate, eta, q0)
    # Within the default tolerance, 1e-10 * q. In a scan of 3128 random members the block
    # direction missed by at most 2.0e-11 * q (dgtsv: 2.8e-12 * q): its second-order form solves
    # the last step less accurately. It meets the stiffest corner (the @example) to 1.5e-15 * q,
    # where dgtsv missed by 6.1e-11 * q at any tolerance: its first step left a p-defect of 3e-10,
    # which no step corrects, since the p-rows of the linearized system have a zero right-hand side.
    starts = [(0.0, q0), (0.5 * horizon, 0.5 * q0)]  # two members: the block direction
    for traj, (_, q) in zip(solve_batch(problem, *zip(*starts), SolveOptions(n_steps=n)), starts):
        assert isinstance(traj, Trajectory)
        assert np.max(np.abs(traj.q - discrete_ac_curve(problem, traj.grid, q))) <= 1e-10 * q


@pytest.mark.parametrize("tol", [None, 1e-14 * 2e6])
def test_block_solve_meets_the_stiff_almgren_chriss_corner_to_rounding(tol):
    # the dgtsv direction left a p-defect of 3e-10 here and missed by 6.1e-11 * q at either tolerance
    problem = stiff_ac_problem()
    starts = [(0.0, problem.q0), (10.0, 0.5 * problem.q0)]
    for traj, (_, q) in zip(solve_batch(problem, *zip(*starts), SolveOptions(n_steps=20, newton_tol=tol)), starts):
        assert isinstance(traj, Trajectory)
        assert np.max(np.abs(traj.q - discrete_ac_curve(problem, traj.grid, q))) <= 1e-13 * q


@pytest.mark.xfail(
    strict=True,
    reason="for kappa * T in about [10, 35] shooting leaves a p-defect that passes the tolerance in shares",
)
def test_solo_solve_is_the_exact_discrete_almgren_chriss_curve():
    # kappa * T = 27.7; a 2-member block meets the curve to 5e-14 * q0 and the NECPR to the bit
    problem = replace(make_reference_problem(horizon=3.5), cost=PowerLawCost(0.01, 1.0))
    traj = newton_solve(problem, SolveOptions(n_steps=1000))
    q = discrete_ac_curve(problem, traj.grid, problem.q0)
    exact = Trajectory(grid=traj.grid, q=q, p=np.zeros_like(q))
    assert np.max(np.abs(traj.q - q)) <= 1e-11 * problem.q0
    assert eval_I(problem, traj) == pytest.approx(eval_I(problem, exact), rel=1e-12)


def tight_solve(problem, t_start, q_start, n_steps, matched=False):
    """A two-member block of one start at 1e-14 * q0: the discrete minimizer to rounding. The start is the straight
    line (the dgtsv direction where H''(0) = 0), or with ``matched`` the matched Almgren-Chriss curve."""
    opts = SolveOptions(n_steps=n_steps, newton_tol=1e-14 * problem.q0, max_iter=200)
    work, start = solver._Workspace(problem, [t_start] * 2, n_steps), None
    if matched:
        q = np.empty((2, n_steps + 1))
        start = q, solver._matched_curves(problem, work)(q_start, q, np.empty_like(q))
    first, second = solve_batch(problem, [t_start] * 2, [q_start] * 2, opts, start, work)
    assert isinstance(first, Trajectory) and np.array_equal(first.q, second.q)
    return first


def sweep_draw(seed):
    """The reference problem with a power-law cost and a constant volume, and a step count: T, gamma, q0, the
    volume, eta and n drawn log-uniform and phi uniform over the sweep ranges, by a generator seeded ``seed``."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    horizon, gamma, q0 = log_uniform(0.05, 20.0), log_uniform(1e-7, 1e-5), log_uniform(5e4, 2e6)
    phi = float(rng.uniform(0.3, 1.0))
    rate, eta, n = log_uniform(1e6, 2e7), log_uniform(1e-3, 1.0), round(log_uniform(50, 3000))
    problem = make_reference_problem(gamma=gamma, q0=q0, horizon=horizon)
    return replace(problem, cost=PowerLawCost(eta, phi), volume=ConstantVolume(rate)), n


RETRIED = [  # (problem, n): shooting fails on each, and the retry from the matched curve converges
    (make_reference_problem(gamma=7.16e-6, q0=2.92e5, horizon=1.0), 1000),  # the desk workload's pinned request
    (make_reference_problem(gamma=2.25e-6, q0=5.09e5, horizon=1.84), 500),  # a stall of a random scan
    (without_risk(make_reference_problem()), 1000),  # degenerate linearization
    (make_reference_problem(gamma=1e-300), 1000),  # a stall at residual 6.5e199
]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.integers(0, 2**32 - 1).map(sweep_draw))
@example(case=RETRIED[0])
@example(case=RETRIED[1])
@example(case=RETRIED[2])
@example(case=RETRIED[3])
def test_every_solo_solve_converges_across_the_sweep_ranges(case):
    problem, n = case
    traj = newton_solve(problem, SolveOptions(n_steps=n))
    assert traj.max_residual <= 1e-10 * problem.q0


@pytest.mark.parametrize("problem, n", RETRIED, ids=["pinned", "stall", "sigma_1e-300", "gamma_1e-300"])
def test_a_retried_solo_solve_prices_the_discrete_minimizer(problem, n):
    opts = SolveOptions(n_steps=n)
    (shot,) = solve_batch(problem, [0.0], [problem.q0], opts)
    assert isinstance(shot, NonConvergenceError)
    traj = newton_solve(problem, opts)
    assert traj.iterations >= shot.iterations and traj.history[: shot.iterations] == shot.history
    # with gamma * sigma**2 at 0 or 2.5e-301 the straight line is the minimizer; tight_solve, a block from it
    # where H''(0) = 0, fails there as shooting does
    risk_free = problem.market.gamma * problem.market.sigma**2 < 1e-200
    exact = linear_trajectory(problem, n) if risk_free else tight_solve(problem, 0.0, problem.q0, n)
    assert eval_I(problem, traj, psi=0.0) == pytest.approx(eval_I(problem, exact, psi=0.0), rel=1e-12, abs=0.0)


def test_a_solo_solve_that_no_first_step_improves_converges_through_the_retry():
    # one of 12 such solves among 20332 random solo solves (phi 0.30-0.37, T <= 0.2): no step length
    # lowers the straight line's residual, so shooting stalls at iteration 0 and the retry converges
    problem = replace(
        make_reference_problem(gamma=1.64e-7, q0=146886.0, horizon=0.2),
        cost=PowerLawCost(0.82, 0.305),
        volume=ConstantVolume(8575781.0),
    )
    opts = SolveOptions(n_steps=66)
    shot = solo(problem, 0.0, problem.q0, opts)
    assert isinstance(shot, NonConvergenceError) and "no step length lowers the residual" in str(shot)
    assert (shot.iterations, shot.steps) == (0, ())
    traj = newton_solve(problem, opts)
    assert traj.max_residual <= 1e-10 * problem.q0
    # tight_solve's block from the straight line stalls at iteration 0 as well; one from the matched curve does not
    tight_opts = SolveOptions(n_steps=66, newton_tol=1e-14 * problem.q0, max_iter=200)
    for line in solve_batch(problem, [0.0] * 2, [problem.q0] * 2, tight_opts):
        assert isinstance(line, NonConvergenceError) and line.iterations == 0
    tight = tight_solve(problem, 0.0, problem.q0, 66, matched=True)
    assert np.max(np.abs(traj.q - tight.q)) <= 1e-12 * problem.q0
    assert eval_I(problem, traj) == pytest.approx(eval_I(problem, tight), rel=1e-12)


@pytest.mark.parametrize("horizon", [1.0, 5.0, 20.0])
def test_the_tail_of_a_minimizer_is_the_minimizer_from_its_node(horizon):
    # the discrete functional adds up cell by cell, so from node j on a uniform mesh the tail of
    # the minimizer is the minimizer from (t_j, q_j) on the remaining n - j steps of the same tau
    problem, n = make_reference_problem(horizon=horizon), 1000
    full = tight_solve(problem, 0.0, problem.q0, n)
    for j in (100, 500, 900):
        t_j, q_j = full.grid.times[j], full.q[j]
        tail = tight_solve(problem, t_j, q_j, n - j)
        assert tail.grid.tau == pytest.approx(full.grid.tau, rel=1e-14)
        assert np.max(np.abs(tail.q - full.q[j:])) <= 1e-12 * problem.q0
        cut = Trajectory(grid=tail.grid, q=full.q[j:], p=full.p[j:])
        assert eval_I(problem, cut) == pytest.approx(eval_I(problem, tail), rel=1e-13)


def first_order_terms(problem, traj):
    """Per interior node j of a power-law solve: L'(rho_{j-1}) - L'(rho_j), gamma sigma**2 tau q_j, and the
    largest difference of the two that the solve's residuals leave, to first order; and the rates rho.

    rho_j = v_j / V_j misses the rate -H'(p_j) of the dual price, at which L' is exactly -p_j, by the
    q-defect of cell j over tau V_j, which moves L'(rho_j) by about phi L'(rho_j) times that miss over
    rho_j; the p-defect of cell j - 1 adds itself.
    """
    cost, m, q = problem.cost, problem.market, traj.q
    rho = traj.v / traj.grid.cell_volume(problem.volume)
    slope = cost.eta * (1.0 + cost.phi) * np.sign(rho) * np.abs(rho) ** cost.phi
    report, eps = discrete_residual(problem, traj), np.finfo(float).eps
    step = np.abs(q[:-1] - q[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = cost.phi * np.abs(slope) * (np.abs(report.q_residual) + 4 * eps * q[:-1]) / step
    miss[step == 0.0] = np.inf
    bound = np.abs(report.p_residual[:-1]) + miss[:-1] + miss[1:] + 4 * eps * np.abs(slope[:-1])
    return slope[:-1] - slope[1:], m.gamma * m.sigma**2 * traj.grid.tau * q[1:-1], bound, rho


@settings(max_examples=25, deadline=None)
@given(
    horizon=st.floats(0.05, 20.0),
    gamma=st.floats(1e-7, 1e-5),
    q0=st.floats(5e4, 2e6),
    phi=st.floats(0.3, 1.0),
    rate=st.floats(1e6, 2e7),
    eta=st.floats(1e-3, 1.0),
    n=st.integers(50, 3000),
)
def test_a_block_solve_meets_the_first_order_conditions_and_its_rate_falls(horizon, gamma, q0, phi, rate, eta, n):
    # at the discrete minimum L'(rho_{j-1}) - L'(rho_j) = gamma sigma**2 tau q_j > 0, so the rate strictly
    # falls while inventory is left: checked wherever the residuals resolve the right-hand side. In 600
    # random members and the 250 converged ones at the corners of these ranges the two sides differed by
    # at most 1.01 times what the residuals leave; a member that does not converge says nothing here
    problem = replace(
        make_reference_problem(gamma=gamma, q0=q0, horizon=horizon),
        cost=PowerLawCost(eta, phi),
        volume=ConstantVolume(rate),
    )
    starts = [(0.0, q0), (0.3 * horizon, 0.5 * q0)]
    for traj in solve_batch(problem, *zip(*starts), SolveOptions(n_steps=n)):
        if isinstance(traj, Trajectory):
            drop, rise, bound, rho = first_order_terms(problem, traj)
            assert np.all(np.abs(drop - rise) <= 2.0 * bound)
            resolved = rise > 4.0 * bound
            assert np.all(rho[1:][resolved] < rho[:-1][resolved])


def test_the_reference_solve_resolves_its_first_order_conditions_at_every_node(reference_problem):
    # the property above checks something: here every interior node is resolved
    starts = [(0.0, reference_problem.q0), (0.5, 0.5 * reference_problem.q0)]
    for traj in solve_batch(reference_problem, *zip(*starts), SolveOptions(n_steps=1000)):
        drop, rise, bound, rho = first_order_terms(reference_problem, traj)
        assert np.all(rise > 4.0 * bound) and np.all(np.abs(drop - rise) <= 2.0 * bound)
        assert np.all(np.diff(rho) < 0.0)


@pytest.mark.parametrize("problem", ENVELOPE_PROBLEMS)
def test_no_perturbation_that_keeps_both_endpoints_lowers_the_objective(problem):
    # eval_I grows quadratically away from the minimum: by 3e-6 to 3e-5 relative at 1e-2 of q,
    # 1e-4 times that at 1e-4 of q, on these problems
    n = 200
    rng = np.random.default_rng(3)
    nodes = np.arange(n + 1) / n
    for traj in (newton_solve(problem, SolveOptions(n_steps=n)), tight_solve(problem, 0.0, problem.q0, n)):
        least = eval_I(problem, traj)
        for scale in (1e-2, 1e-4):
            for k in range(10):
                bump = rng.normal(size=n + 1) if k % 2 else np.sin(np.pi * (k // 2 + 1) * nodes)
                q = traj.q * (1.0 + scale * bump)  # q_n = 0 stays
                q[0] = traj.q[0]
                moved = Trajectory(grid=traj.grid, q=q, p=traj.p)
                assert eval_I(problem, moved) > least
