import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from blocktrade.closed_forms import ac_trajectory, theta_infinity
from blocktrade.legendre import SingularCurvatureError
from blocktrade.market_model import PiecewiseLinearVolume, PowerLawCost
from blocktrade.objective import eval_I
from blocktrade import value_function
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
from conftest import block_direction_alone, member_result, solve_batch
OPTS = SolveOptions(n_steps=500)


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
            traj = Trajectory(grid=fine, q=qs, p=np.zeros(2001), v=(qs[:-1] - qs[1:]) / fine.tau)
            oracle = eval_I(probe, traj, psi=0.0)
            assert grid.values[i, k] == pytest.approx(oracle, rel=5e-3)


def test_build_grid_preconditions(reference_problem):
    with pytest.raises(ValueError):
        build_grid(reference_problem, [0.0, 0.99], [0.0, 1e5], OPTS)  # beyond T - eps
    with pytest.raises(ValueError):
        build_grid(reference_problem, [0.0, 0.5], [0.0, 1e5], OPTS, epsilon=0.001)
    with pytest.raises(ValueError):
        build_grid(reference_problem, [0.5, 0.2], [0.0, 1e5], OPTS)


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


@pytest.mark.parametrize("horizons", [[], [np.nan, 1.0], [0.0, 1.0], [-1.0, 1.0], [1.0, np.inf]])
def test_asymptotic_convergence_rejects_invalid_horizons_unsolved(reference_problem, horizons, monkeypatch):
    # before, these raised IndexError, an accidental ValueError from math.ceil and ZeroDivisionError
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(value_function, "newton_solve", no_solve)
    with pytest.raises(ValueError, match="horizons"):
        asymptotic_convergence(reference_problem, 1e5, horizons)


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


def test_structure_checks_pass_on_solved_grid(reference_problem):
    grid = build_grid(
        reference_problem,
        np.linspace(0.0, 0.9, 9),
        np.linspace(0.0, reference_problem.q0, 9),
        OPTS,
    )
    report = check_structure(grid)
    assert report.ok
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


def test_single_column_grid_checks_degrade(reference_problem):
    grid = build_grid(reference_problem, [0.0, 0.3, 0.6], [2e5], OPTS)
    report = check_structure(grid)
    by_name = {c.name: c for c in report.checks}
    assert by_name["monotone_t"].checked
    assert by_name["singularity_bound"].checked
    assert not by_name["monotone_q"].checked
    assert not by_name["convex_q"].checked
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


def test_asymptotic_convergence_reference(reference_problem):
    result = asymptotic_convergence(
        reference_problem, 500_000.0, [0.5, 1.0, 2.0, 5.0], SolveOptions(n_steps=1000)
    )
    assert np.all(np.diff(result.values) <= 1e-8 * result.values[0])
    assert result.limit == pytest.approx(theta_infinity(reference_problem, 500_000.0), rel=1e-14)
    assert abs(result.gaps[-1]) / result.limit < 0.01
    assert np.all(result.gaps >= -1e-8 * result.limit)


def test_asymptotic_convergence_zero_inventory(reference_problem):
    result = asymptotic_convergence(reference_problem, 0.0, [0.5, 1.0], SolveOptions(n_steps=200))
    assert np.all(result.values == 0.0)
    assert result.limit == 0.0


def solve_from_loop(problem, t_nodes, q_nodes, opts):
    """Values, failure mask and iteration counts of one ``solve_from`` per cell."""
    values = np.zeros((len(t_nodes), len(q_nodes)))
    failed = np.zeros_like(values, dtype=bool)
    iterations = np.zeros_like(values, dtype=int)
    for i, t in enumerate(t_nodes):
        for k, q in enumerate(q_nodes[1:], start=1):
            try:
                traj = solve_from(problem, t, q, opts)
            except NonConvergenceError as exc:
                values[i, k], failed[i, k], iterations[i, k] = np.nan, True, exc.iterations
            else:
                values[i, k], iterations[i, k] = eval_I(problem, traj, psi=0.0), traj.iterations
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

    # blockmates never affect a cell: columns split into blocks of 3 give the same bits
    monkeypatch.setattr(value_function, "BATCH_MEMBERS", 4)
    split = build_grid(reference_problem, t_nodes, q_nodes, opts)
    for name in ("values", "failed", "iterations", "residuals"):
        assert np.array_equal(getattr(split, name), getattr(grid, name), equal_nan=True)

    # a block member is bit for bit a one-member batch on the block direction from
    # the same start: its matched curve plus the deviations of the last four
    # converged cells of its row from theirs, extrapolated (the q-nodes are evenly
    # spaced), the stencil emptied by a failure
    block_direction_alone(monkeypatch)
    for i in (0, 4, 8):
        node = t_nodes[i : i + 1]
        matched = value_function._matched_curves(reference_problem, node, Workspace(reference_problem, node, opts.n_steps, 1))
        stencil = []
        for k, q in enumerate(q_nodes[1:], start=1):
            curve, scratch = np.empty((2, 1, opts.n_steps + 1))
            base = curve, matched(q, slice(0, 1), curve, scratch)
            qs, p0s = [q_i[None] for q_i, _ in stencil], [p0 for _, p0 in stencil]
            (alone,) = solve_batch(reference_problem, [t_nodes[i]], [q], opts, (base, qs, p0s, q_nodes[k - 1 : k]))
            assert alone.iterations == grid.iterations[i, k]
            if isinstance(alone, NonConvergenceError):
                assert grid.failed[i, k] and alone.residual == grid.residuals[i, k]
                stencil = []
            else:
                assert eval_I(reference_problem, alone, psi=0.0) == grid.values[i, k]
                assert alone.max_residual == grid.residuals[i, k]
                stencil = (stencil + [(alone.q - curve[0], alone.p[:1] - base[1])])[-4:]


def test_reference_surface_takes_at_most_520_iterations(reference_problem):
    # from the straight line this grid costs 2246 iterations, from the scaled
    # curve to the left 1075, from the polynomial predictor 689 (at most 6 in a
    # cell), from the matched curve plus the predicted deviation 464 (at most 3)
    t_nodes = np.linspace(0.0, 0.9, 21)
    q_nodes = np.linspace(0.0, reference_problem.q0, 21)
    grid = build_grid(reference_problem, t_nodes, q_nodes, SolveOptions(n_steps=1000))
    assert not grid.failed.any()
    assert grid.iterations.sum() <= 520
    assert grid.iterations.max() <= 3


def test_matched_curve_is_the_almgren_chriss_curve_for_a_quadratic_cost(quadratic_problem):
    # phi = 1 and a constant volume: kappa does not depend on the matching rate
    t_nodes, n_steps = np.linspace(0.0, 0.9, 7), 400
    work = Workspace(quadratic_problem, t_nodes, n_steps, len(t_nodes))
    curves, scratch = np.empty((2, len(t_nodes), n_steps + 1))
    for q_hat in (1e3, 2.5e5, 2e6):
        value_function._matched_curves(quadratic_problem, t_nodes, work)(q_hat, slice(None), curves, scratch)
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


def test_a_warm_reference_surface_stays_under_the_traced_peak_of_copied_trajectories(reference_problem):
    # copying every converged cell out as a Trajectory and stacking the block's
    # rows again for its values peaked at 5.61 MB; writing the curves into the
    # build's ring of the last four columns peaked at 4.90 MB, and 5.08 MB with the
    # block's buffer of matched curves
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

    def recording(problem, t_starts, q_starts, opts, q, p, *rest):
        outcomes = solve_batch(problem, t_starts, q_starts, opts, q, p, *rest)
        rows = zip(t_starts, q.copy(), p.copy(), outcomes)
        results = [member_result(problem, t, opts.n_steps, *member) for t, *member in rows]
        blocks.append((t_starts, q_starts[0], results))
        return outcomes

    monkeypatch.setattr(value_function, "_solve_batch", recording)
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
        asymptotic_convergence(reference_problem, 1e5, [1e-6, 1.0], SolveOptions(n_steps=2))
    assert MAX_STEPS < 2_000_000
