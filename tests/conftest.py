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
