import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from blocktrade.closed_forms import ac_trajectory, theta_infinity
from blocktrade.legendre import SingularCurvatureError
from blocktrade.market_model import PiecewiseLinearVolume, PowerLawCost
from blocktrade.objective import eval_I
from blocktrade import solver, value_function
from blocktrade.solver import (
    MAX_STEPS,
    _Workspace as Workspace,
    Grid,
    NonConvergenceError,
    SolveOptions,
    Trajectory,
    newton_solve,
    solve_from,
)
from blocktrade.value_function import (
    ValueGrid,
    asymptotic_convergence,
    build_grid,
    check_structure,
    hj_residual,
)
from conftest import forking, solve_batch
OPTS = SolveOptions(n_steps=500)
GRID_ARRAYS = ("values", "failed", "iterations", "residuals")


def test_single_cell_equals_direct_solve(reference_problem):
    grid = build_grid(reference_problem, [0.0], [reference_problem.q0], OPTS)
    direct = eval_I(reference_problem, newton_solve(reference_problem, OPTS), psi=0.0)
    assert grid.values[0, 0] == pytest.approx(direct, rel=1e-12)


def test_zero_inventory_column_is_exact(reference_problem):
    grid = build_grid(reference_problem, [0.0, 0.3, 0.6], [0.0, 1e5], OPTS)
    assert np.all(grid.values[:, 0] == 0.0)
    assert np.all(grid.values[:, 1] > 0.0)
    assert not grid.failed.any()


def test_grid_cells_match_closed_form_objective(quadratic_problem):
    t_nodes = np.linspace(0.0, 0.8, 5)
    q_nodes = np.linspace(0.0, quadratic_problem.q0, 5)
    grid = build_grid(quadratic_problem, t_nodes, q_nodes, OPTS)
    for i, t in enumerate(t_nodes):
        for k, q in enumerate(q_nodes):
            if q == 0.0:
                continue
            probe = replace(quadratic_problem, q0=q, horizon=quadratic_problem.horizon - t)
            fine = Grid(n_steps=2000, t_start=0.0, t_end=probe.horizon)
            qs = ac_trajectory(probe, fine.times)
            traj = Trajectory(grid=fine, q=qs, p=np.zeros(2001))
            oracle = eval_I(probe, traj, psi=0.0)
            assert grid.values[i, k] == pytest.approx(oracle, rel=5e-3)


def test_build_grid_preconditions(reference_problem):
    with pytest.raises(ValueError):
        build_grid(reference_problem, [0.0, 0.99], [0.0, 1e5], OPTS)  # beyond T - eps
    with pytest.raises(ValueError):
        build_grid(reference_problem, [0.0, 0.5], [0.0, 1e5], OPTS, epsilon=0.001)
    with pytest.raises(ValueError):
        build_grid(reference_problem, [0.5, 0.2], [0.0, 1e5], OPTS)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_a_non_finite_safety_margin_is_refused_before_any_solve(reference_problem, monkeypatch, epsilon):
    # a NaN margin passed the 1% bound: a t-node at 0.99 T was solved and the grid's epsilon was NaN
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(value_function, "_solve_batch", no_solve)
    with pytest.raises(ValueError, match="safety margin must be at least 1% of the horizon and finite"):
        build_grid(reference_problem, [0.0, 0.99 * reference_problem.horizon], [0.0, 1e5], OPTS, epsilon=epsilon)


@pytest.mark.parametrize(
    "t_nodes, q_nodes",
    [([0.0, np.nan], [0.0, 1e5]), ([0.0, 0.5], [0.0, np.nan]), ([0.0, 0.5], [0.0, np.inf])],
    ids=["nan_t", "nan_q", "inf_q"],
)
def test_build_grid_rejects_non_finite_nodes_unsolved(reference_problem, t_nodes, q_nodes, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(value_function, "_solve_batch", no_solve)
    with pytest.raises(ValueError, match="t-nodes|q-nodes"):
        build_grid(reference_problem, t_nodes, q_nodes, OPTS)


@pytest.mark.parametrize("axis", ["t_nodes", "q_nodes"])
def test_build_grid_rejects_an_empty_axis_unsolved(reference_problem, axis, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(value_function, "_solve_batch", no_solve)
    nodes = {"t_nodes": [0.0, 0.5], "q_nodes": [0.0, 1e5], axis: []}
    with pytest.raises(ValueError, match=axis):
        build_grid(reference_problem, nodes["t_nodes"], nodes["q_nodes"], OPTS)


@pytest.mark.parametrize("horizons", [[], [np.nan, 1.0], [0.0, 1.0], [-1.0, 1.0], [1.0, np.inf], [1.0, 0.5]])
def test_asymptotic_convergence_rejects_invalid_horizons_unsolved(reference_problem, horizons, monkeypatch):
    # before, these raised IndexError, an accidental ValueError from math.ceil and ZeroDivisionError
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(value_function, "newton_solve", no_solve)
    with pytest.raises(ValueError, match="horizons"):
        asymptotic_convergence(reference_problem, horizons)


def test_failed_cells_are_masked(reference_problem):
    opts = SolveOptions(n_steps=100, max_iter=1)
    grid = build_grid(reference_problem, [0.0, 0.2], [0.0, reference_problem.q0], opts)
    assert grid.failed[:, 1].all()
    assert np.isnan(grid.values[0, 1])
    with pytest.raises(ValueError):
        hj_residual(
            build_grid(
                reference_problem,
                [0.0, 0.2, 0.4],
                [0.0, 2e5, 4e5],
                opts,
            )
        )


def test_hj_residual_shrinks_under_refinement(quadratic_problem):
    coarse_nodes = (np.linspace(0.0, 0.9, 11), np.linspace(0.0, quadratic_problem.q0, 11))
    fine_nodes = (np.linspace(0.0, 0.9, 21), np.linspace(0.0, quadratic_problem.q0, 21))
    coarse = hj_residual(build_grid(quadratic_problem, *coarse_nodes, OPTS))
    fine = hj_residual(build_grid(quadratic_problem, *fine_nodes, OPTS))
    assert fine.max_normalized < coarse.max_normalized
    assert coarse.max_normalized < 0.25


def test_hj_residual_takes_the_power_law_hamiltonian(reference_problem):
    # the report's H by Fenchel-Young must be the closed-form H = c |x|^(1 + 1/phi) of the power law
    nodes = (np.linspace(0.0, 0.9, 9), np.linspace(0.0, reference_problem.q0, 9))
    grid = build_grid(reference_problem, *nodes, OPTS)
    report = hj_residual(grid)
    (t, q), th, m = nodes, grid.values, reference_problem.market
    eta, phi = reference_problem.cost.eta, reference_problem.cost.phi
    c = phi / (1 + phi) ** (1 + 1 / phi) * eta ** (-1 / phi)
    dth_dt = (th[2:, 1:-1] - th[:-2, 1:-1]) / (t[2:] - t[:-2])[:, None]
    dth_dq = (th[1:-1, 2:] - th[1:-1, :-2]) / (q[2:] - q[:-2])
    risk = 0.5 * m.gamma * m.sigma**2 * q[1:-1] ** 2
    vol_h = reference_problem.volume.rate * c * np.abs(dth_dq) ** (1 + 1 / phi)
    # the residual cancels terms up to 6e4 down to about 40, so compare on the scale of its terms
    assert np.max(np.abs(report.residual - (-dth_dt - risk + vol_h)) / (risk + vol_h)) <= 1e-13


def test_hj_residual_requires_at_least_3x3(reference_problem):
    grid = build_grid(reference_problem, [0.0, 0.4], [0.0, 1e5], OPTS)
    with pytest.raises(ValueError):
        hj_residual(grid)


@pytest.mark.parametrize("spacing", [np.linspace(0.0, 1.0, 9), (np.arange(11) / 10) ** 2], ids=["even", "uneven"])
def test_structure_checks_pass_on_solved_grid(reference_problem, spacing):
    grid = build_grid(reference_problem, np.linspace(0.0, 0.9, 9), reference_problem.q0 * spacing, OPTS)
    report = check_structure(grid)
    assert report.ok and not grid.failed.any()
    names = {c.name for c in report.checks if c.checked}
    assert names == {"monotone_t", "monotone_q", "convex_q", "singularity_bound"}


def test_corrupted_cell_is_flagged(reference_problem):
    grid = build_grid(
        reference_problem,
        np.linspace(0.0, 0.9, 7),
        np.linspace(0.0, reference_problem.q0, 7),
        OPTS,
    )
    values = grid.values.copy()
    values[3, 3] *= 0.8  # hand-lowered interior cell
    broken = ValueGrid(
        t_nodes=grid.t_nodes,
        q_nodes=grid.q_nodes,
        values=values,
        epsilon=grid.epsilon,
        problem=grid.problem,
        failed=grid.failed,
    )
    report = check_structure(broken)
    assert not report.ok
    flagged = {c.name for c in report.checks if c.checked and not c.passed}
    assert flagged & {"monotone_t", "monotone_q", "convex_q"}


def test_failed_cells_violate_every_check_that_reads_them(reference_problem):
    # one Newton step solves no cell; the checks once passed on nine NaN cells
    # and warned of an all-NaN slice (warnings are errors in this suite)
    grid = build_grid(reference_problem, [0.0, 0.3, 0.6], [1e5, 2e5, 3e5], SolveOptions(n_steps=100, max_iter=1))
    assert grid.failed.all() and np.isnan(grid.values).all()
    report = check_structure(grid)
    assert not report.ok
    for check in report.checks:
        assert check.checked and not check.passed and check.violations > 0 and check.worst == 0.0


@pytest.mark.parametrize(
    "t_nodes, q_nodes, unchecked",
    [([0.0, 0.3, 0.6], [2e5], {"monotone_q", "convex_q"}), ([0.3], [0.0, 1e5, 2e5], {"monotone_t"})],
    ids=["one_column", "one_t_node"],
)
def test_a_grid_of_one_column_or_one_t_node_skips_the_checks_it_cannot_make(reference_problem, t_nodes, q_nodes, unchecked):
    report = check_structure(build_grid(reference_problem, t_nodes, q_nodes, OPTS))
    assert {c.name for c in report.checks if not c.checked} == unchecked
    assert report.ok


def test_time_shift_identity(reference_problem):
    # same remaining horizon and inventory means the same value
    q = 3e5
    a = eval_I(
        reference_problem, solve_from(reference_problem, 0.2, q, OPTS), psi=0.0
    )
    longer = replace(reference_problem, horizon=1.3)
    b = eval_I(longer, solve_from(longer, 0.5, q, OPTS), psi=0.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_value_blows_up_near_horizon(reference_problem):
    q = reference_problem.q0
    near = eval_I(
        reference_problem, solve_from(reference_problem, 0.99, q, OPTS), psi=0.0
    )
    far = eval_I(
        reference_problem, solve_from(reference_problem, 0.90, q, OPTS), psi=0.0
    )
    assert near >= 2.0 * far


@pytest.mark.parametrize("deficit, flagged", [(0.8e-9, False), (1.2e-9, True)], ids=["forgiven", "flagged"])
def test_convexity_forgives_a_deficit_of_1e_9_of_the_largest_value_and_no_more(reference_problem, deficit, flagged):
    grid = build_grid(reference_problem, np.linspace(0.0, 0.9, 5), np.linspace(0.0, reference_problem.q0, 5), OPTS)
    values = grid.values.copy()
    values[-1, 2] = 0.5 * (values[-1, 1] + values[-1, 3]) + 0.5 * deficit * values.max()  # over the chord
    checks = {check.name: check for check in check_structure(replace(grid, values=values)).checks}
    assert checks["convex_q"].violations == flagged
    assert all(checks[name].passed for name in ("monotone_t", "monotone_q", "singularity_bound"))


def test_convexity_is_the_second_difference_on_any_q_spacing(reference_problem):
    # a value linear in q has no deficit at uneven q-nodes; with the two neighbours' weights swapped, the
    # steps 2e5 then 1e5 would read a deficit of 2 * (1e5 - 2e5) per unit slope
    q_nodes = np.array([0.0, 1.0, 3.0, 4.0, 7.0]) * 1e5
    t_nodes = np.linspace(0.0, 0.9, 3)
    values = 1e3 * (1.0 + t_nodes[:, None]) + q_nodes[None, :]
    grid = ValueGrid(t_nodes, q_nodes, values, 0.1, reference_problem, np.zeros(values.shape, dtype=bool))
    checks = {check.name: check for check in check_structure(grid).checks}
    assert checks["convex_q"].checked and checks["convex_q"].passed
    assert checks["convex_q"].violations == 0 and abs(checks["convex_q"].worst) <= 1e-9 * values.max()


def test_the_singularity_bound_flags_a_cell_planted_just_below_it(reference_problem):
    # the bound V S L(q / (V S)) of a constant volume V over the time left S
    grid = build_grid(reference_problem, np.linspace(0.0, 0.9, 5), np.linspace(0.0, reference_problem.q0, 5), OPTS)
    assert check_structure(grid).ok
    volume, left = reference_problem.volume.rate, reference_problem.horizon - grid.t_nodes[-1]
    bound = volume * left * reference_problem.cost(grid.q_nodes[2] / (volume * left))
    values = grid.values.copy()
    values[-1, 2] = bound - 2e-9 * values.max()
    checks = {check.name: check for check in check_structure(replace(grid, values=values)).checks}
    assert checks["singularity_bound"].violations == 1


def test_asymptotic_convergence_reference(reference_problem):
    result = asymptotic_convergence(reference_problem, [0.5, 1.0, 2.0, 5.0], SolveOptions(n_steps=1000))
    assert np.all(np.diff(result.values) <= 1e-8 * result.values[0])
    assert result.limit == pytest.approx(theta_infinity(reference_problem), rel=1e-14)
    assert abs(result.gaps[-1]) / result.limit < 0.01
    assert np.all(result.gaps >= -1e-8 * result.limit)


def test_asymptotic_convergence_zero_inventory(reference_problem):
    result = asymptotic_convergence(replace(reference_problem, q0=0.0), [0.5, 1.0], SolveOptions(n_steps=200))
    assert np.all(result.values == 0.0)
    assert result.limit == 0.0


def solve_from_loop(problem, t_nodes, q_nodes, opts):
    """Values, failure mask and iteration counts of the shooting attempt of one ``solve_from`` per cell."""
    values = np.zeros((len(t_nodes), len(q_nodes)))
    failed = np.zeros_like(values, dtype=bool)
    iterations = np.zeros_like(values, dtype=int)
    for i, t in enumerate(t_nodes):
        for k, q in enumerate(q_nodes[1:], start=1):
            (traj,) = solve_batch(problem, [t], [q], opts)  # one member without a start: it shoots, and no retry
            iterations[i, k] = traj.iterations
            if isinstance(traj, NonConvergenceError):
                values[i, k], failed[i, k] = np.nan, True
            else:
                values[i, k] = eval_I(problem, traj, psi=0.0)
    return values, failed, iterations


@pytest.mark.parametrize("max_iter", [50, 6])
def test_grid_in_blocks_equals_a_solve_from_loop(reference_problem, max_iter, monkeypatch):
    opts = SolveOptions(n_steps=100, max_iter=max_iter)
    t_nodes = np.linspace(0.0, 0.9, 9)
    q_nodes = np.linspace(0.0, 2 * reference_problem.q0, 9)
    grid = build_grid(reference_problem, t_nodes, q_nodes, opts)
    # each cell starts from the columns to its left: never more iterations or
    # failures than a cold solve_from, and the same values where that converges
    values, failed, iterations = solve_from_loop(reference_problem, t_nodes, q_nodes, opts)
    assert failed.any() == (max_iter == 6)
    assert not (grid.failed & ~failed).any()
    assert np.all(grid.iterations <= iterations)
    assert np.allclose(grid.values[~failed], values[~failed], rtol=1e-12, atol=0.0)
    tolerance = np.broadcast_to(1e-10 * q_nodes, grid.values.shape)
    assert np.all(grid.residuals[~grid.failed] <= tolerance[~grid.failed])
    # where shooting fails, solve_from retries as a block of one from the cell's matched curve, with the bits of
    # that block after the shooting attempt's record
    for i, k in zip(*np.nonzero(failed)):
        curve, p0 = matched_curve(reference_problem, t_nodes[i], opts.n_steps)(q_nodes[k])
        start = curve[None], np.array([p0])
        (retry,) = solve_batch(reference_problem, [t_nodes[i]], [q_nodes[k]], opts, start)
        traj = solve_from(reference_problem, t_nodes[i], q_nodes[k], opts)
        assert (traj.iterations, traj.max_residual) == (iterations[i, k] + retry.iterations, retry.max_residual)
        assert np.array_equal(traj.q, retry.q)
        assert eval_I(reference_problem, traj, psi=0.0) == pytest.approx(grid.values[i, k], rel=1e-12, abs=0.0)

    # blockmates never affect a cell: columns split into blocks of 3 give the same bits
    monkeypatch.setattr(value_function, "_BLOCK_DOUBLES", 4 * (opts.n_steps + 1))
    split = build_grid(reference_problem, t_nodes, q_nodes, opts)
    for name in ("values", "failed", "iterations", "residuals"):
        assert np.array_equal(getattr(split, name), getattr(grid, name), equal_nan=True)

    # a block member is bit for bit a one-member batch from the same start (which
    # takes the block direction): its matched curve plus the deviations of the last
    # four converged cells of its row from theirs, extrapolated (the q-nodes are
    # evenly spaced), the stencil emptied by a failure
    for i in (0, 4, 8):
        matched, stencil = matched_curve(reference_problem, t_nodes[i], opts.n_steps), []
        for k, q in enumerate(q_nodes[1:], start=1):
            curve, p0 = matched(q)
            start = cell_start(curve, p0, stencil, q, q_nodes[k - 1])
            (alone,) = solve_batch(reference_problem, [t_nodes[i]], [q], opts, (start[0][None], np.array([start[1]])))
            assert (alone.iterations, alone.max_residual) == (grid.iterations[i, k], grid.residuals[i, k])
            if isinstance(alone, NonConvergenceError):
                assert grid.failed[i, k]
                stencil = []
            else:
                assert eval_I(reference_problem, alone, psi=0.0) == grid.values[i, k]
                stencil = (stencil + [(alone.q - curve, alone.p[0] - p0)])[-4:]


def matched_curve(problem, t_node, n_steps):
    """The writer of one t-node's matched curve: ``write(q_hat)`` returns the curve (J+1,) and its p[0]."""
    node = np.array([t_node])
    write = solver._matched_curves(problem, Workspace(problem, node, n_steps))

    def curve(q_hat):
        q, scratch = np.empty((2, 1, n_steps + 1))
        return q[0], float(write(q_hat, q, scratch)[0])

    return curve


def cell_start(curve, p0, stencil, q_hat, Q):
    """A cell's start (q, p[0]) as one-row code from its matched curve and the (q, p[0]) deviations to its left.

    One deviation, from the inventory Q, is scaled by q_hat / Q, and m >= 2
    take the binomial weights of the polynomial through them, summed from 0
    oldest first: the reference for bit identity.
    """
    m = len(stencil)
    weights = [q_hat / Q] if m == 1 else [(-1) ** (m - 1 - i) * math.comb(m, i) for i in range(m)]
    q = sum(w * q_i for w, (q_i, _) in zip(weights, stencil)) + curve
    return q, sum(w * p0_i for w, (_, p0_i) in zip(weights, stencil)) + p0


def forced_grid(problem, t_nodes, q_nodes, opts, forced, patch):
    """``build_grid`` with the cells (i, k) in ``forced`` failed after their solve, and each cell's record.

    The record maps (i, k) to the start (q, p[0]) the cell's block handed the
    solver, the q and p[0] it left in the cell's rows and whether it failed.
    """
    solve_batch, record = value_function._solve_batch, {}

    def forcing(problem, work, q_starts, opts, q, p, start):
        results = solve_batch(problem, work, q_starts, opts, q, p, start)
        k = int(np.flatnonzero(q_nodes == q_starts[0])[0])
        for m, (member, result) in enumerate(zip(work.grids, results)):
            i = int(np.flatnonzero(t_nodes == member.t_start)[0])
            if (i, k) in forced:
                results[m] = result = NonConvergenceError("forced", result.max_residual, result.history, result.steps)
            lost = isinstance(result, NonConvergenceError)
            record[i, k] = start[0][m].copy(), start[1][m], q[m].copy(), p[m, 0], lost
        return results

    patch.setattr(value_function, "_solve_batch", forcing)
    patch.setattr(value_function, "_FORK_WORK", math.inf)  # a forked child's records never reach this process
    return build_grid(problem, t_nodes, q_nodes, opts), record


def test_every_cell_of_a_grid_with_failures_starts_as_the_one_row_code(reference_problem, monkeypatch):
    # forced failures leave the rows of one block at stencil depths 0 to 4: every
    # cell's start is still the one-row code's from its own row's deviations,
    # compared as int64, and so is its p[0]
    t_nodes, q_nodes, opts = np.linspace(0.0, 0.9, 9), np.linspace(0.0, 2 * reference_problem.q0, 9), OPTS
    forced = {(0, 2), (1, 3), (2, 4), (3, 5), (5, 2), (5, 6), (7, 1)}
    grid, record = forced_grid(reference_problem, t_nodes, q_nodes, opts, forced, monkeypatch)
    assert grid.failed.sum() == len(forced)
    depths = np.zeros(grid.values.shape, dtype=int)
    for i, t in enumerate(t_nodes):
        matched, stencil = matched_curve(reference_problem, t, opts.n_steps), []
        for k, q in enumerate(q_nodes[1:], start=1):
            depths[i, k] = len(stencil)
            curve, p0 = matched(q)
            start_q, start_p0, solved_q, solved_p0, lost = record[i, k]
            expected_q, expected_p0 = cell_start(curve, p0, stencil, q, q_nodes[k - 1])
            assert np.array_equal(start_q.view(np.int64), expected_q.view(np.int64))
            assert np.float64(start_p0).view(np.int64) == np.float64(expected_p0).view(np.int64)
            stencil = [] if lost else (stencil + [(solved_q - curve, solved_p0 - p0)])[-4:]
    assert all(len(set(depths[:, k])) >= 3 for k in range(3, 9))  # mixed depths in every later block


def test_a_failed_cell_empties_its_stencil(reference_problem, monkeypatch):
    # the cell right of a failure starts from its matched curve alone, and the one
    # after that from its matched curve plus the deviation to its left scaled by
    # q_hat / Q, in q and p[0]; the failed cell's blockmates keep their stencils
    t_nodes, q_nodes, opts = np.linspace(0.0, 0.9, 9), np.linspace(0.0, 2 * reference_problem.q0, 9), OPTS
    _, record = forced_grid(reference_problem, t_nodes, q_nodes, opts, {(3, 3)}, monkeypatch)
    matched = matched_curve(reference_problem, t_nodes[3], opts.n_steps)
    (start_q, start_p0, solved_q, solved_p0, lost), (curve, p0) = record[3, 4], matched(q_nodes[4])
    assert not lost and np.array_equal(start_q, curve) and start_p0 == p0
    (start_q, start_p0, *_), (next_curve, next_p0) = record[3, 5], matched(q_nodes[5])
    s = q_nodes[5] / q_nodes[4]
    assert np.array_equal(start_q, s * (solved_q - curve) + next_curve) and start_p0 == s * (solved_p0 - p0) + next_p0
    assert not np.array_equal(start_q, next_curve) and start_p0 != next_p0
    for i in (2, 4):  # the blockmates predict from four columns, not from the matched curve alone
        assert not np.array_equal(record[i, 4][0], matched_curve(reference_problem, t_nodes[i], opts.n_steps)(q_nodes[4])[0])


def test_reference_surface_takes_at_most_520_iterations(reference_problem):
    # from the straight line this grid costs 2246 iterations, from the scaled
    # curve to the left 1075, from the polynomial predictor 689 (at most 6 in a
    # cell), from the matched curve plus the predicted deviation 464 (at most 3);
    # the surface is the stored one the benchmark's gate reads, to its 1e-9
    t_nodes = np.linspace(0.0, 0.9, 21)
    q_nodes = np.linspace(0.0, reference_problem.q0, 21)
    grid = build_grid(reference_problem, t_nodes, q_nodes, SolveOptions(n_steps=1000))
    assert not grid.failed.any()
    assert grid.iterations.sum() <= 520
    assert grid.iterations.max() <= 3
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference", "surface.json")) as f:
        stored = json.load(f)
    assert stored["n_steps"] == 1000 and stored["t_nodes"] == t_nodes.tolist() and stored["q_nodes"] == q_nodes.tolist()
    assert np.array_equal(grid.failed, np.array(stored["failed"], dtype=bool))
    np.testing.assert_allclose(grid.values, np.array(stored["values"], dtype=float), rtol=1e-9, atol=0.0)


def test_matched_curve_is_the_almgren_chriss_curve_for_a_quadratic_cost(quadratic_problem):
    # phi = 1 and a constant volume: kappa does not depend on the matching rate
    t_nodes, n_steps = np.linspace(0.0, 0.9, 7), 400
    work = Workspace(quadratic_problem, t_nodes, n_steps)
    curves, scratch = np.empty((2, len(t_nodes), n_steps + 1))
    for q_hat in (1e3, 2.5e5, 2e6):
        solver._matched_curves(quadratic_problem, work)(q_hat, curves, scratch)
        for t, curve, grid in zip(t_nodes, curves, work.grids):
            rest = replace(quadratic_problem, q0=q_hat, horizon=quadratic_problem.horizon - t)
            exact = ac_trajectory(rest, grid.times - t)
            np.testing.assert_allclose(curve, exact, rtol=0.0, atol=1e-14 * q_hat)


def test_build_grid_rejects_a_super_quadratic_power_law_unsolved(reference_problem, monkeypatch):
    # the matched start's price is never 0, so H'' stays finite there; the check comes first
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(value_function, "_solve_batch", no_solve)
    for phi in (1.2, 1.5, 2.0):
        problem = replace(reference_problem, cost=PowerLawCost(eta=0.02, phi=phi))
        with pytest.raises(SingularCurvatureError, match="phi"):
            build_grid(problem, [0.0, 0.5], [0.0, 1e5, 2e5], OPTS)


def test_a_warm_reference_surface_stays_under_the_traced_peak_of_copied_trajectories(reference_problem, monkeypatch):
    # copying every converged cell out as a Trajectory and stacking the block's
    # rows again for its values peaked at 5.61 MB; writing the curves into the
    # build's ring of the last four columns peaked at 4.90 MB, 5.08 MB with the
    # block's buffer of matched curves and 5.25 MB with its buffer of starts; in one
    # process, since a forked child's allocations are not traced here
    monkeypatch.setattr(value_function, "_FORK_WORK", math.inf)
    args = (reference_problem, np.linspace(0.0, 0.9, 21), np.linspace(0.0, reference_problem.q0, 21))
    build_grid(*args, SolveOptions(n_steps=1000))
    tracemalloc.start()
    try:
        build_grid(*args, SolveOptions(n_steps=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.6e6


U_SHAPED = PiecewiseLinearVolume(((0.0, 8e6), (0.5, 2e6), (1.0, 8e6)))


@pytest.mark.parametrize("volume, max_iter", [(None, 2), (U_SHAPED, 3)], ids=["constant", "u_shaped"])
def test_block_values_are_eval_I_of_each_member_bit_for_bit(reference_problem, volume, max_iter, monkeypatch):
    problem = reference_problem if volume is None else replace(reference_problem, volume=volume)
    t_nodes = np.linspace(0.0, 0.9, 9)
    q_nodes = np.linspace(0.0, 2 * problem.q0, 9)
    solve_batch = value_function._solve_batch
    blocks = []

    def recording(problem, work, q_starts, opts, q, p, *rest):
        results = solve_batch(problem, work, q_starts, opts, q, p, *rest)
        # the rows are the build's ring, which it overwrites: keep copies of the converged curves
        kept = [replace(r, q=r.q.copy(), p=r.p.copy()) if isinstance(r, Trajectory) else r for r in results]
        blocks.append(([member.t_start for member in work.grids], q_starts[0], kept))
        return results

    monkeypatch.setattr(value_function, "_solve_batch", recording)
    monkeypatch.setattr(value_function, "_FORK_WORK", math.inf)  # every block recorded in this process
    # from the matched curve the first column takes up to three Newton steps (four
    # under the U-shaped volume), and a failed cell leaves the next one to start
    # from that curve alone: max_iter fails the earliest t-nodes of every column,
    # and not the others
    grid = build_grid(problem, t_nodes, q_nodes, SolveOptions(n_steps=100, max_iter=max_iter))
    mixed = 0
    for t_starts, q, results in blocks:
        k = int(np.flatnonzero(q_nodes == q)[0])
        failures = [isinstance(result, NonConvergenceError) for result in results]
        mixed += 0 < sum(failures) < len(results)
        for t, result, fail in zip(t_starts, results, failures):
            i = int(np.flatnonzero(t_nodes == t)[0])
            if fail:
                assert grid.failed[i, k] and np.isnan(grid.values[i, k])
            else:
                assert grid.values[i, k] == eval_I(problem, result, psi=0.0)
    assert mixed and len(blocks) == len(q_nodes) - 1


def _scaled_and_predicted(problem, t_nodes, q_nodes, opts, monkeypatch):
    """Grids whose cells start from the scaled curve to the left, and from the predictor."""
    with monkeypatch.context() as patch:
        patch.setattr(value_function, "_STENCIL", 1)
        scaled = build_grid(problem, t_nodes, q_nodes, opts)
    return scaled, build_grid(problem, t_nodes, q_nodes, opts)


@pytest.mark.parametrize(
    "q_nodes",
    [np.geomspace(1e3, 1e6, 9), np.array([0.0, 0.5, 5e5, 1e6])],
    ids=["geometric", "jump"],
)
def test_uneven_q_nodes_keep_the_scaled_start(reference_problem, q_nodes, monkeypatch):
    # 0.5, 5e5 and 1e6 miss even spacing by 1e-6 relative, past the 1e-9 rule
    t_nodes = np.linspace(0.0, 0.9, 21)
    scaled, predicted = _scaled_and_predicted(reference_problem, t_nodes, q_nodes, OPTS, monkeypatch)
    for name in ("values", "failed", "iterations", "residuals"):
        assert np.array_equal(getattr(predicted, name), getattr(scaled, name), equal_nan=True)


@pytest.mark.parametrize(
    "volume, max_iter", [(None, 50), (None, 6), (U_SHAPED, 50)], ids=["max_iter_50", "max_iter_6", "u_shaped"]
)
def test_predictor_never_costs_a_cell_more_iterations_than_the_scaled_start(
    reference_problem, volume, max_iter, monkeypatch
):
    problem = reference_problem if volume is None else replace(reference_problem, volume=volume)
    t_nodes = np.linspace(0.0, 0.9, 9)
    q_nodes = np.linspace(0.0, 2 * problem.q0, 9)
    opts = SolveOptions(n_steps=100, max_iter=max_iter)
    scaled, predicted = _scaled_and_predicted(problem, t_nodes, q_nodes, opts, monkeypatch)
    assert not (predicted.failed & ~scaled.failed).any()
    assert np.all(predicted.iterations <= scaled.iterations)
    assert predicted.iterations.sum() < scaled.iterations.sum()
    solved = ~predicted.failed & ~scaled.failed
    assert np.allclose(predicted.values[solved], scaled.values[solved], rtol=1e-12, atol=0.0)


def test_grid_and_step_sizes_are_bounded(reference_problem, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(value_function, "_solve_batch", no_solve)
    monkeypatch.setattr(value_function, "newton_solve", no_solve)
    too_many = np.linspace(0.0, 0.5, value_function.MAX_GRID_NODES + 1)
    with pytest.raises(ValueError, match="at most"):
        build_grid(reference_problem, too_many, [0.0, 1e5], OPTS)
    # the last horizon would need 2e6 steps at the first one's resolution
    with pytest.raises(ValueError, match="n_steps"):
        asymptotic_convergence(reference_problem, [1e-6, 1.0], SolveOptions(n_steps=2))
    assert MAX_STEPS < 2_000_000


def test_a_group_holds_at_most_its_block_of_member_steps(reference_problem, monkeypatch):
    # room for 3 members of 101 steps, not 4: 8 t-nodes go in groups of 3, 3 and 2, each through both columns
    opts, sizes, solve = SolveOptions(n_steps=100), [], value_function._solve_batch

    def counted(problem, work, *args):
        sizes.append(len(work.grids))
        return solve(problem, work, *args)

    monkeypatch.setattr(value_function, "_solve_batch", counted)
    monkeypatch.setattr(value_function, "_FORK_WORK", math.inf)
    monkeypatch.setattr(value_function, "_BLOCK_DOUBLES", 4 * (opts.n_steps + 1) - 1)
    build_grid(reference_problem, np.linspace(0.0, 0.9, 8), [0.0, 2.5e5, 5e5], opts)
    assert sizes == [3, 3, 3, 3, 2, 2]


def never_shoot(patch):
    """Fail any shooting iteration, and so the build (or the forked worker) that runs one."""

    def shot(*args):
        raise AssertionError("a build shot")

    patch.setattr(solver, "_propagate", shot)


def same_grids(a, b):
    """Every output of two builds, the floats compared as int64."""
    return all(
        np.array_equal(*(np.asarray(getattr(grid, name)).view(np.int64) for grid in (a, b)))
        for name in ("values", "residuals")
    ) and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ("failed", "iterations"))


@pytest.mark.parametrize(
    "volume, n_t, q_nodes, max_iter, members",
    [
        (None, 9, None, 50, 64),
        (U_SHAPED, 9, None, 3, 64),
        (None, 9, None, 6, 4),
        (None, 9, np.array([0.0, 0.5, 5e5, 1e6]), 50, 64),
        (None, 3, None, 50, 64),
    ],
    ids=["constant", "u_shaped_failures", "groups_of_3", "uneven_nodes", "three_t_nodes"],
)
def test_a_forked_build_has_the_bits_of_a_build_in_one_process(
    reference_problem, volume, n_t, q_nodes, max_iter, members, monkeypatch
):
    never_shoot(monkeypatch)
    problem = reference_problem if volume is None else replace(reference_problem, volume=volume)
    t_nodes, opts = np.linspace(0.0, 0.9, n_t), SolveOptions(n_steps=100, max_iter=max_iter)
    q_nodes = np.linspace(0.0, 2 * problem.q0, 9) if q_nodes is None else q_nodes
    monkeypatch.setattr(value_function, "_BLOCK_DOUBLES", members * (opts.n_steps + 1))
    monkeypatch.setattr(value_function, "_FORK_WORK", math.inf)
    alone = build_grid(problem, t_nodes, q_nodes, opts)
    forks = forking(monkeypatch)
    monkeypatch.setattr(value_function, "_FORK_WORK", 0)
    forked = build_grid(problem, t_nodes, q_nodes, opts)
    assert len(forks) == 1
    assert same_grids(forked, alone)
    assert alone.failed.any() == (max_iter == 3)


@pytest.mark.parametrize("max_iter", [50, 6])
def test_a_rows_bits_do_not_depend_on_its_group(reference_problem, max_iter, monkeypatch):
    # a t-node built alone is a group of one, which takes the block direction as any group does
    never_shoot(monkeypatch)
    opts = SolveOptions(n_steps=100, max_iter=max_iter)
    t_nodes, q_nodes = np.linspace(0.0, 0.9, 9), np.linspace(0.0, 2 * reference_problem.q0, 9)
    whole = build_grid(reference_problem, t_nodes, q_nodes, opts)
    for i, t in enumerate(t_nodes):
        alone = build_grid(reference_problem, [t], q_nodes, opts)
        assert same_grids(alone, replace(whole, **{name: getattr(whole, name)[i : i + 1] for name in GRID_ARRAYS}))
    # groups of at most two t-nodes, the last of one, forked
    monkeypatch.setattr(value_function, "_BLOCK_DOUBLES", 2 * (opts.n_steps + 1) + opts.n_steps)
    monkeypatch.setattr(value_function, "_FORK_WORK", 0)
    forks = forking(monkeypatch)
    assert same_grids(build_grid(reference_problem, t_nodes, q_nodes, opts), whole)
    assert len(forks) == 1


def test_a_later_fork_of_the_caller_leaves_the_grid_its_own(reference_problem, monkeypatch):
    # the build's outputs are shared with its workers; the grid holds copies
    monkeypatch.setattr(value_function, "_FORK_WORK", 0)
    forks = forking(monkeypatch)
    grid = build_grid(reference_problem, np.linspace(0.0, 0.9, 4), np.linspace(0.0, reference_problem.q0, 3), OPTS)
    assert len(forks) == 1
    kept = [getattr(grid, name).copy() for name in GRID_ARRAYS]
    pid = os.fork()
    if pid == 0:
        try:
            for name in GRID_ARRAYS:
                getattr(grid, name)[:] = 1
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    for name, before in zip(GRID_ARRAYS, kept):
        assert np.array_equal(getattr(grid, name), before)


@pytest.mark.parametrize("exit_status", [1, 3], ids=["raises", "exits_3"])
def test_a_failed_worker_fails_the_build_and_is_reaped(reference_problem, exit_status, monkeypatch):
    parent, solve_batch = os.getpid(), value_function._solve_batch

    def failing(*args):
        if os.getpid() != parent:
            if exit_status == 3:
                os._exit(3)
            raise RuntimeError("a worker's solve failed")
        return solve_batch(*args)

    monkeypatch.setattr(value_function, "_solve_batch", failing)
    monkeypatch.setattr(value_function, "_FORK_WORK", 0)
    forks = forking(monkeypatch)
    with pytest.raises(value_function.GridWorkerError, match=f"status {exit_status}$"):
        build_grid(reference_problem, np.linspace(0.0, 0.9, 4), np.linspace(0.0, reference_problem.q0, 3), OPTS)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # no child is left to reap
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("condition", ["one_cpu", "python_thread", "little_work", "python_3_12", "not_linux"])
def test_a_build_forks_only_where_forking_is_safe_and_pays(reference_problem, condition, monkeypatch):
    args = (reference_problem, np.linspace(0.0, 0.9, 9), np.linspace(0.0, reference_problem.q0, 9))
    opts = SolveOptions(n_steps=100)
    expected = build_grid(*args, opts)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1 if condition == "one_cpu" else 2)))
    # the grid's 9 x 8 x 101 cell-steps reach the threshold, one short of it for little_work
    monkeypatch.setattr(value_function, "_FORK_WORK", 9 * 8 * 101 + (condition == "little_work"))
    if condition == "python_3_12":
        monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    elif condition == "not_linux":
        monkeypatch.setattr(sys, "platform", "darwin")

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if condition == "python_thread":
        thread.start()
    try:
        grid = build_grid(*args, opts)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(10)
    assert not thread.is_alive()
    assert np.array_equal(grid.values, expected.values)
