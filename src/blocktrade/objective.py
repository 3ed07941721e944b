"""Risk-adjusted cost functional and cash-flow statistics of a trading curve.

For a deterministic selling schedule the terminal cash is Gaussian; its mean
splits into mark-to-market value minus permanent impact, nonlinear execution
costs and proportional costs, and its variance is sigma**2 times the time
integral of the squared inventory. The functional combining execution costs
with half the risk-aversion-weighted variance is what the solver minimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market_model import LiquidationProblem
from .solver import Trajectory

__all__ = [
    "CashComponents",
    "CashDistribution",
    "UtilityResult",
    "eval_I",
    "cash_moments",
    "expected_utility",
]


@dataclass(frozen=True)
class CashComponents:
    mtm: float
    pmi: float
    exec_nonlinear: float
    exec_linear: float
    risk_var: float


@dataclass(frozen=True)
class CashDistribution:
    """Gaussian law of the terminal cash: mean, variance and the mean's split."""

    mean: float
    variance: float
    components: CashComponents


@dataclass(frozen=True)
class UtilityResult:
    """CARA utility of the terminal cash.

    ``log_neg_utility`` equals ``-gamma * certainty_equivalent`` and is always
    finite; ``utility`` itself saturates to -0.0 / -inf when the exponential
    would under- or overflow.
    """

    utility: float
    certainty_equivalent: float
    log_neg_utility: float


def _check_grid(problem: LiquidationProblem, traj: Trajectory, full_horizon: bool):
    t_tol = 1e-9 * max(1.0, problem.horizon)
    if abs(traj.grid.t_end - problem.horizon) > t_tol:
        raise ValueError(
            f"trajectory ends at {traj.grid.t_end}, problem horizon is {problem.horizon}"
        )
    if full_horizon and abs(traj.grid.t_start) > t_tol:
        raise ValueError("full-horizon trajectory must start at t=0")


def _cell_sums(problem: LiquidationProblem, traj: Trajectory) -> tuple[float, float, float]:
    """Per-cell sums of the quadrature: cost times volume, |v| and the q**2 trapezoid.

    The speed is constant per cell (one cost term per cell, volume sampled at
    the right endpoint), matching the discrete scheme; the squared inventory
    is integrated by the trapezoid rule. Each sum still needs a factor tau.
    """
    vol = np.asarray(problem.volume(traj.grid.times[1:]), dtype=float)
    cost = float(np.sum(vol * problem.cost(traj.v / vol)))
    speed = float(np.sum(np.abs(traj.v)))
    q_sq = float(np.sum(0.5 * (traj.q[:-1] ** 2 + traj.q[1:] ** 2)))
    return cost, speed, q_sq


def eval_I(problem: LiquidationProblem, traj: Trajectory, psi: float = 0.0) -> float:
    """Execution costs plus half the risk-aversion-weighted cash variance."""
    _check_grid(problem, traj, full_horizon=False)
    cost, speed, q_sq = _cell_sums(problem, traj)
    tau = traj.grid.tau
    m = problem.market
    return tau * cost + psi * tau * speed + 0.5 * m.gamma * m.sigma**2 * tau * q_sq


def cash_moments(problem: LiquidationProblem, traj: Trajectory) -> CashDistribution:
    """Mean/variance of the terminal cash for a full-horizon liquidating curve."""
    _check_grid(problem, traj, full_horizon=True)
    q0 = float(traj.q[0])
    if abs(float(traj.q[-1])) > 1e-9 * (q0 + 1.0):
        raise ValueError("trajectory does not liquidate (terminal inventory nonzero)")
    cost, speed, q_sq = _cell_sums(problem, traj)
    m = problem.market
    tau = traj.grid.tau

    mtm = q0 * m.s0
    pmi = problem.impact.integral(q0)
    exec_nonlinear = tau * cost
    exec_linear = m.psi * tau * speed
    variance = m.sigma**2 * tau * q_sq

    mean = mtm - pmi - exec_nonlinear - exec_linear
    return CashDistribution(
        mean=mean,
        variance=variance,
        components=CashComponents(
            mtm=mtm,
            pmi=pmi,
            exec_nonlinear=exec_nonlinear,
            exec_linear=exec_linear,
            risk_var=variance,
        ),
    )


def expected_utility(problem: LiquidationProblem, traj: Trajectory) -> UtilityResult:
    """CARA expected utility -exp(-gamma * CE) with CE = mean - gamma/2 * variance."""
    dist = cash_moments(problem, traj)
    gamma = problem.market.gamma
    ce = dist.mean - 0.5 * gamma * dist.variance
    x = gamma * ce
    if -x < 700.0:
        utility = -math.exp(-x)
    else:
        utility = -math.inf
    return UtilityResult(utility=utility, certainty_equivalent=ce, log_neg_utility=-x)
