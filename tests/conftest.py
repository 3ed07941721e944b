import os
from dataclasses import replace

import numpy as np
import pytest

from blocktrade import PowerLawCost
from blocktrade.config import parse_config

# The reference stock of configs/reference.cfg: a liquid large-cap stock,
# prices in currency per share, times in days. Daily volume 5M shares, block
# of 500k.
REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")
_REFERENCE = parse_config(REFERENCE_CONFIG).problem


def _changed(obj, **changes):
    return replace(obj, **{k: v for k, v in changes.items() if v is not None})


def make_reference_problem(gamma=None, q0=None, horizon=None, psi=None):
    """The reference problem; an argument left as None keeps the config's value."""
    problem = _changed(_REFERENCE, q0=q0, horizon=horizon)
    return replace(problem, market=_changed(problem.market, gamma=gamma, psi=psi))


def make_quadratic_problem(eta=0.01, **changes):
    """Quadratic-cost variant with a closed-form optimal curve."""
    return replace(make_reference_problem(**changes), cost=PowerLawCost(eta=eta, phi=1.0))


@pytest.fixture
def reference_problem():
    return make_reference_problem()


@pytest.fixture
def quadratic_problem():
    return make_quadratic_problem()


def linear_trajectory(problem, n_steps):
    """Straight-line liquidation as a hand-built trajectory."""
    from blocktrade.solver import Grid, Trajectory

    grid = Grid(n_steps=n_steps, t_start=0.0, t_end=problem.horizon)
    j = np.arange(n_steps + 1)
    q = problem.q0 * (1.0 - j / n_steps)
    v = (q[:-1] - q[1:]) / grid.tau
    return Trajectory(grid=grid, q=q, p=np.zeros(n_steps + 1), v=v)


def member_result(problem, t_start, n_steps, q, p, outcome):
    """A block member's result as a solo solve gives it: its trajectory on q and p, or its error."""
    from blocktrade.solver import Grid, NonConvergenceError, Trajectory

    if outcome.message is not None:
        return NonConvergenceError(*outcome)
    grid = Grid(n_steps=n_steps, t_start=t_start, t_end=problem.horizon)
    return Trajectory(grid, q, p, (q[:-1] - q[1:]) / grid.tau, outcome.iterations, outcome.residual, *outcome[3:])


def block_direction_alone(patch):
    """Give a one-member block a block's Newton direction (``solo=False``), as a member of a larger block has."""
    from blocktrade import solver

    direction = solver._newton_direction
    patch.setattr(solver, "_newton_direction", lambda c, e, b, now, tol, solo, work: direction(c, e, b, now, tol, False, work))


def solve_batch(problem, t_starts, q_starts, opts, start=None, work=None):
    """``solver._solve_batch`` with each member's ``member_result``, on rows of two arrays the call makes."""
    from blocktrade.solver import _solve_batch

    q, p = np.empty((2, len(t_starts), opts.n_steps + 1))
    outcomes = _solve_batch(problem, t_starts, q_starts, opts, q, p, start, work)
    return [member_result(problem, t, opts.n_steps, *member) for t, *member in zip(t_starts, q, p, outcomes)]
