"""Newton solver for the discretized optimal-liquidation boundary value problem.

The inventory q and its dual price p satisfy the first-order system

    dp/dt = gamma * sigma**2 * q,    dq/dt = V(t) * H'(p),
    q(0) = q0,  q(T) = 0,

where H is the Legendre transform of the execution cost function. On a
uniform grid t_j = j * tau the system is discretized as

    p[j+1] = p[j] + tau * gamma * sigma**2 * q[j+1]
    q[j+1] = q[j] + tau * V[j+1] * H'(p[j])

with the volume curve sampled at the right endpoint of each cell. Both
boundary values of q are imposed exactly, so the correction step of each
Newton iteration solves the linearized recurrences

    dq[j+1] = dq[j] + tau * V[j+1] * H''(p[j]) * dp[j] + e[j]
    dp[j+1] = dp[j] + tau * gamma * sigma**2 * dq[j+1]

with dq[0] = dq[J] = 0 and e[j] the local defect of the q-recurrence, by
affine shooting: the whole chain is an affine function of the single unknown
dp[0], so two forward passes (dp[0] = 0 and dp[0] = 1) pin it down. The
p-recurrence holds exactly along every iterate by construction, hence
convergence is declared on the q-residual alone (the p-residual is reported
too and stays at rounding level). A step-halving line search guards the early
iterations, where the power-law H' has strongly varying curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .legendre import SingularCurvatureError, hamiltonian_of
from .market_model import LiquidationProblem, PowerLawCost

__all__ = [
    "Grid",
    "Trajectory",
    "SolveOptions",
    "ResidualReport",
    "NonConvergenceError",
    "initial_guess",
    "discrete_residual",
    "newton_solve",
    "solve_from",
]


class NonConvergenceError(RuntimeError):
    """Newton iteration did not reach the residual tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with n_steps cells on [t_start, t_end]."""

    n_steps: int
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def tau(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Discretized trading curve with its dual price and implied speeds.

    ``v[j]`` is the (constant) selling speed on the cell (t_j, t_{j+1}],
    i.e. ``(q[j] - q[j+1]) / tau``.
    """

    grid: Grid
    q: np.ndarray
    p: np.ndarray
    v: np.ndarray
    iterations: int = 0
    max_residual: float = 0.0


@dataclass(frozen=True)
class SolveOptions:
    """Newton solver knobs. ``newton_tol`` defaults to 1e-10 * q0 at solve time."""

    n_steps: int = 1000
    newton_tol: Optional[float] = None
    max_iter: int = 50
    max_halvings: int = 20

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.newton_tol is not None and not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


@dataclass(frozen=True)
class ResidualReport:
    """Per-cell defects of the two discrete recurrences."""

    p_residual: np.ndarray
    q_residual: np.ndarray

    @property
    def max_abs(self) -> float:
        return max(
            float(np.max(np.abs(self.p_residual))),
            float(np.max(np.abs(self.q_residual))),
        )


def _speeds(grid: Grid, q: np.ndarray) -> np.ndarray:
    return (q[:-1] - q[1:]) / grid.tau


def initial_guess(problem: LiquidationProblem, grid: Grid, q_start: Optional[float] = None) -> Trajectory:
    """Linear-liquidation starting point.

    q[j] runs linearly from the starting inventory to zero and p is the exact
    forward propagation of the p-recurrence from p[0] = 0, so the initial
    p-residual vanishes.
    """
    if q_start is None:
        q_start = problem.q0
    j = np.arange(grid.n_steps + 1)
    q = (1.0 - j / grid.n_steps) * q_start
    ksq = problem.market.gamma * problem.market.sigma**2
    p = np.zeros(grid.n_steps + 1)
    p[1:] = grid.tau * ksq * np.cumsum(q[1:])
    return Trajectory(grid=grid, q=q, p=p, v=_speeds(grid, q))


def _residual_arrays(problem, ham, grid, vol, q, p):
    tau = grid.tau
    ksq = problem.market.gamma * problem.market.sigma**2
    rp = p[1:] - p[:-1] - tau * ksq * q[1:]
    rq = q[1:] - q[:-1] - tau * vol * ham.slope(p[:-1])
    return rp, rq


def discrete_residual(problem: LiquidationProblem, traj: Trajectory) -> ResidualReport:
    """Recompute the defects of both recurrences for a given trajectory."""
    ham = hamiltonian_of(problem.cost)
    vol = np.asarray(problem.volume(traj.grid.times[1:]), dtype=float)
    rp, rq = _residual_arrays(problem, ham, traj.grid, vol, traj.q, traj.p)
    return ResidualReport(p_residual=rp, q_residual=rq)


def _propagate(c, e, b, dp_start):
    """Forward pass of the linearized recurrences for a given dp[0]."""
    dq = [0.0]
    dp = [dp_start]
    dqj = 0.0
    dpj = dp_start
    for cj, ej in zip(c, e):
        dqj = dqj + cj * dpj + ej
        dpj = dpj + b * dqj
        dq.append(dqj)
        dp.append(dpj)
    return np.asarray(dq), np.asarray(dp)


def _direction_by_shooting(c, e, b):
    dq0, dp0 = _propagate(c, e, b, 0.0)
    dq1, dp1 = _propagate(c, e, b, 1.0)
    with np.errstate(all="ignore"):
        denom = dq1[-1] - dq0[-1]
        if not np.isfinite(denom) or denom == 0.0 or not np.isfinite(dq0[-1]):
            return None
        s = -dq0[-1] / denom
        dq = dq0 + s * (dq1 - dq0)
        dp = dp0 + s * (dp1 - dp0)
    dq[0] = 0.0
    dq[-1] = 0.0  # boundary is exact; cancel the rounding of the affine combination
    return dq, dp


def _direction_by_banded(c, e, b):
    """Direct tridiagonal solve of the same linearized system.

    Unknowns interleaved as (dp_0, dq_1, dp_1, ..., dq_{J-1}, dp_{J-1}, dp_J);
    the boundary values dq_0 = dq_J = 0 are eliminated. Stable for long
    horizons, where the homogeneous mode of the forward propagation grows past
    what double precision can cancel.
    """
    J = len(c)
    # row 2j: dq_{j+1} - dq_j - c_j dp_j = e_j;  row 2j+1: dp_{j+1} - dp_j - b dq_{j+1} = 0
    ab = np.zeros((3, 2 * J))
    ab[0, 1:-1] = 1.0  # dq_{j+1} in the q-rows, dp_{j+1} in the p-rows
    ab[1, 0::2] = -np.asarray(c)  # dp_j in the q-rows
    ab[1, 1:-1:2] = -b  # dq_{j+1} in the p-rows
    ab[1, -1] = 1.0  # dp_J in the last p-row
    ab[2, :-1] = -1.0  # dq_j in the q-rows, dp_j in the p-rows
    rhs = np.zeros(2 * J)
    rhs[0::2] = e
    x = solve_banded((1, 1), ab, rhs)
    dq = np.zeros(J + 1)
    dq[1:J] = x[1 : 2 * J - 2 : 2]
    dp = np.empty(J + 1)
    dp[:J] = x[0 : 2 * J - 1 : 2]
    dp[J] = x[2 * J - 1]
    return dq, dp


def _linear_defect(c, e, b, dq, dp):
    """How well a candidate direction satisfies the linearized recurrences."""
    c = np.asarray(c)
    e = np.asarray(e)
    rq = dq[1:] - dq[:-1] - c * dp[:-1] - e
    rp = dp[1:] - dp[:-1] - b * dq[1:]
    with np.errstate(invalid="ignore"):
        defect = max(float(np.max(np.abs(rq))), float(np.max(np.abs(rp))))
    return defect if np.isfinite(defect) else math.inf


def _newton_direction(c, e, b, current, tol):
    """Affine shooting first; banded fallback when cancellation wrecks the chain.

    Over long horizons the homogeneous mode of the forward pass grows
    exponentially and the final affine combination differences astronomically
    large numbers, leaving rounding noise where the correction should be. The
    defect of the candidate against the linearized system measures that damage
    directly; past the useful threshold the same system is re-solved by a
    pivoted tridiagonal factorization.
    """
    direction = _direction_by_shooting(c, e, b)
    threshold = max(0.01 * current, 0.1 * tol)
    if direction is not None and _linear_defect(c, e, b, *direction) <= threshold:
        return direction
    dq, dp = _direction_by_banded(c, e, b)
    dq[0] = 0.0
    dq[-1] = 0.0
    return dq, dp


def _solve_on_grid(problem: LiquidationProblem, grid: Grid, q_start: float, opts: SolveOptions) -> Trajectory:
    if isinstance(problem.cost, PowerLawCost) and problem.cost.phi > 1.0:
        raise SingularCurvatureError(
            "the Newton path needs finite H'' at p=0; power-law exponents above 1 "
            "are only supported through the closed forms"
        )
    ham = hamiltonian_of(problem.cost)
    tau = grid.tau
    b = tau * problem.market.gamma * problem.market.sigma**2
    vol = np.asarray(problem.volume(grid.times[1:]), dtype=float)
    tol = opts.newton_tol if opts.newton_tol is not None else 1e-10 * q_start
    tol = max(tol, 1e-300)

    guess = initial_guess(problem, grid, q_start)
    q, p = guess.q.copy(), guess.p.copy()
    rp, rq = _residual_arrays(problem, ham, grid, vol, q, p)
    current = max(float(np.max(np.abs(rp))), float(np.max(np.abs(rq))))

    iterations = 0
    while not current <= tol:  # a NaN residual never counts as converged
        if not math.isfinite(current):
            raise NonConvergenceError("non-finite residual", current, iterations)
        if iterations >= opts.max_iter:
            raise NonConvergenceError("Newton iteration stalled", current, iterations)

        c = (tau * vol * ham.curvature(p[:-1])).tolist()
        e = (-rq).tolist()
        try:
            dq, dp = _newton_direction(c, e, b, current, tol)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                "degenerate linearization (H'' vanishes along the whole path)",
                current,
                iterations,
            ) from None

        alpha = 1.0
        best = None
        accepted = None
        for _ in range(opts.max_halvings + 1):
            qc = q + alpha * dq
            pc = p + alpha * dp
            with np.errstate(all="ignore"):
                rpc, rqc = _residual_arrays(problem, ham, grid, vol, qc, pc)
                m = max(float(np.max(np.abs(rpc))), float(np.max(np.abs(rqc))))
            if math.isfinite(m):
                if m < current:
                    accepted = (qc, pc, rpc, rqc, m)
                    break
                if best is None or m < best[4]:
                    best = (qc, pc, rpc, rqc, m)
            alpha *= 0.5
        if accepted is None:
            if best is None:
                raise NonConvergenceError(
                    "line search found no finite candidate", current, iterations
                )
            accepted = best  # no halving improved; take the least-bad step, max_iter guards
        q, p, rp, rq, current = accepted
        iterations += 1

    return Trajectory(
        grid=grid,
        q=q,
        p=p,
        v=_speeds(grid, q),
        iterations=iterations,
        max_residual=current,
    )


def newton_solve(problem: LiquidationProblem, opts: Optional[SolveOptions] = None) -> Trajectory:
    """Solve the full-horizon liquidation problem."""
    opts = opts or SolveOptions()
    grid = Grid(n_steps=opts.n_steps, t_start=0.0, t_end=problem.horizon)
    return _solve_on_grid(problem, grid, problem.q0, opts)


def solve_from(
    problem: LiquidationProblem,
    t_hat: float,
    q_hat: float,
    opts: Optional[SolveOptions] = None,
) -> Trajectory:
    """Optimal trajectory from inventory q_hat at time t_hat to zero at the horizon."""
    opts = opts or SolveOptions()
    if not 0.0 <= t_hat < problem.horizon:
        raise ValueError("t_hat must lie in [0, horizon)")
    if q_hat < 0:
        raise ValueError("q_hat must be nonnegative")
    grid = Grid(n_steps=opts.n_steps, t_start=t_hat, t_end=problem.horizon)
    return _solve_on_grid(problem, grid, q_hat, opts)
