import os
from dataclasses import replace

import numpy as np
import pytest

from blocktrade import ConstantVolume, LiquidationProblem, MarketParams, PowerLawCost, PowerLawImpact
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


def make_superquadratic_problem(q0=0.25, phi=3.0):
    """Cost rho ** (1 + phi), unit volume, gamma * sigma**2 = 6: at phi = 3, q0 = 0.25 dies out at the horizon 1."""
    return LiquidationProblem(
        q0=q0,
        horizon=1.0,
        market=MarketParams(s0=1.0, sigma=1.0, gamma=6.0),
        volume=ConstantVolume(1.0),
        cost=PowerLawCost(eta=1.0, phi=phi),
        impact=PowerLawImpact(k=0.0, beta=1.0),
    )


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
    return Trajectory(grid=grid, q=q, p=np.zeros(n_steps + 1))


def straight_line(problem, t_start, q_start, n_steps):
    """One member's straight-line start as an explicit ``start``: a lone member handed it takes the block direction."""
    from blocktrade.solver import Grid, initial_guess

    guess = initial_guess(problem, Grid(n_steps=n_steps, t_start=t_start, t_end=problem.horizon), q_start)
    return guess.q[None], guess.p[:1]


def forking(patch, cpus=2):
    """Count the children ``os.fork`` makes, with ``cpus`` CPUs to run on; returns the list of their pids."""
    import os

    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    patch.setattr(os, "fork", counted)
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return forks


def solve_batch(problem, t_starts, q_starts, opts, start=None, work=None):
    """``solver._solve_batch`` on ``work``, by default a workspace on ``t_starts``, and on rows of two arrays it makes."""
    from blocktrade.solver import _solve_batch, _Workspace

    work = _Workspace(problem, t_starts, opts.n_steps) if work is None else work
    q, p = np.empty((2, len(t_starts), opts.n_steps + 1))
    return _solve_batch(problem, work, q_starts, opts, q, p, start)
