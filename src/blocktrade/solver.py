"""Newton solver for the discretized optimal-liquidation boundary value problem.

The inventory q and its dual price p satisfy the first-order system

    dp/dt = gamma * sigma**2 * q,    dq/dt = V(t) * H'(p),
    q(0) = q0,  q(T) = 0,

where H is the Legendre transform of the execution cost function. On a
uniform grid t_j = j * tau the system is discretized as

    p[j+1] = p[j] + tau * gamma * sigma**2 * q[j+1]
    q[j+1] = q[j] + tau * V[j] * H'(p[j])

with V[j] the volume curve at the midpoint of the cell (t_j, t_{j+1}), so the
scheme is second order in tau for every volume curve. Both boundary values of
q are imposed exactly, so the correction step of each Newton iteration solves
the linearized recurrences

    dq[j+1] = dq[j] + tau * V[j] * H''(p[j]) * dp[j] + e[j]
    dp[j+1] = dp[j] + tau * gamma * sigma**2 * dq[j+1]

with dq[0] = dq[J] = 0 and e[j] the local defect of the q-recurrence. A block
solves them by a pivoted tridiagonal factorization (LAPACK ``dgtsv``) of all
its members at once. A solo solve uses affine shooting: the whole chain is an
affine function of the single unknown dp[0], so two forward passes (dp[0] = 0
and dp[0] = 1) pin it down. Over long horizons the homogeneous mode of the
forward pass grows past what double precision can cancel, so a shooting
direction that misses the linearized system by more than a threshold is
replaced by the ``dgtsv`` solve.
A solve converges when the larger of its two residuals, max |p-defect| and
max |q-defect|, falls to the tolerance (1e-10 * q0 by default). Every start
satisfies the p-recurrence, but a p-defect that a step leaves is never
corrected, since the p-rows of the linearized system have a zero right-hand
side, and the stopping test compares it, in currency per share, with a
tolerance in shares. Known defect: for phi = 1 and kappa * T from about 10
to 35, with kappa = sqrt(gamma * sigma**2 * V / (2 * eta)), a shooting solve
can report convergence on a curve far from the exact discrete Almgren-Chriss
curve. On the reference stock with eta = 0.01 and
T = 3.5 a p-defect of 1.0e-6 passes, the q-residual is 9e-17 * q0 and the
curve is 5.3e-5 * q0 away. A step-halving line search guards the early
iterations, where the power-law H' has strongly varying curvature.

Solves run in blocks of members that share the problem, the horizon and the
step count; each member has its own start (t_hat, q_hat), hence its own tau,
volume row and tolerance. One Newton loop serves the whole block. A member
starts from the straight line from q_hat to zero, or, when the caller hands
it converged curves on the same grid from other inventories (``build_grid``
does, from up to four columns to the left), from a prediction out of them:
one curve scaled to q_hat, or the polynomial extrapolation in inventory of
two or more at evenly spaced inventories (continuation in inventory). The
members' tridiagonal systems sit one after another on the diagonal of one
system with zero coupling entries, so no pivot crosses a member boundary, and
every other rule (line search, stopping) is applied per member. A block
member's result is therefore bit for bit what the ``dgtsv`` direction gives
it alone from the same start: its blockmates never affect it. A block keeps
that direction when it shrinks to one member. Members leave the block as
they converge or fail, and a failing member never stops the others.
``newton_solve`` and ``solve_from`` are one-member blocks from the straight
line, which shoot.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .legendre import hamiltonian_of
from .market_model import LiquidationProblem

__all__ = [
    "MAX_STEPS",
    "MAX_HALVINGS",
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


MAX_STEPS = 1_000_000  # a block holds members * (n_steps + 1) doubles per array
MAX_HALVINGS = 20  # step halvings the line search tries per iteration


class NonConvergenceError(RuntimeError):
    """Newton iteration did not reach the residual tolerance.

    ``history``, ``no_descent`` and ``steps`` are as in :class:`Trajectory`.
    """

    def __init__(
        self,
        message: str,
        residual: float,
        iterations: int,
        history: tuple = (),
        no_descent: int = 0,
        steps: tuple = (),
    ):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations
        self.history = history
        self.no_descent = no_descent
        self.steps = steps


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

    def cell_volume(self, volume) -> np.ndarray:
        """The volume curve at each cell midpoint: the one sampling the solver and the objective share."""
        t = self.times
        return np.asarray(volume(0.5 * (t[:-1] + t[1:])), dtype=float)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Discretized trading curve with its dual price and implied speeds.

    ``v[j]`` is the (constant) selling speed on the cell (t_j, t_{j+1}],
    i.e. ``(q[j] - q[j+1]) / tau``. ``history`` holds the max residual after
    each Newton iteration and ``steps`` the step length alpha it accepted (1,
    or 2**-h after h halvings); ``no_descent`` counts the iterations in which
    no step length lowered the residual, so the least-bad step was taken.
    """

    grid: Grid
    q: np.ndarray
    p: np.ndarray
    v: np.ndarray
    iterations: int = 0
    max_residual: float = 0.0
    history: tuple = ()
    no_descent: int = 0
    steps: tuple = ()


@dataclass(frozen=True)
class SolveOptions:
    """Newton solver knobs. ``newton_tol`` defaults to 1e-10 * q0 at solve time."""

    n_steps: int = 1000
    newton_tol: Optional[float] = None
    max_iter: int = 50

    def __post_init__(self):
        if not 2 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must lie in [2, {MAX_STEPS}], got {self.n_steps}")
        if self.newton_tol is not None and not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


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
    q, p = _start(grid, problem.market.gamma * problem.market.sigma**2, q_start)
    return Trajectory(grid=grid, q=q, p=p, v=_speeds(grid, q))


def _start(grid: Grid, ksq: float, q_start: float, stencil=()):
    """A member's starting (q, p): the straight line, or a predictor from converged curves.

    ``stencil`` holds the converged (q, p[0]) of solves on the same grid from
    inventories Q_1 < ... < Q_m, oldest first, that together with q_start are
    evenly spaced (any two nodes are). One curve is scaled by
    s = q_start / Q_1, the line through it and the origin (natural-parameter
    continuation in inventory). From m >= 2 curves, q and p[0] are
    extrapolated to q_start by the polynomial of degree m - 1 through them,
    whose weights on evenly spaced nodes are binomial:
    q = sum_i (-1)**(m - i) * C(m, i - 1) * q_i. Both boundary values are set
    exactly, and p is the forward pass of the p-recurrence from p[0] (0 on
    the line), so the starting p-residual vanishes.
    """
    m = len(stencil)
    if m == 0:
        j = np.arange(grid.n_steps + 1)
        q = (1.0 - j / grid.n_steps) * q_start
        p0 = 0.0
    elif m == 1:
        ((q_left, p0_left),) = stencil
        s = q_start / q_left[0]
        q, p0 = s * q_left, s * p0_left
    else:
        weights = [(-1) ** (m - 1 - i) * math.comb(m, i) for i in range(m)]
        q = sum(w * q_i for w, (q_i, _) in zip(weights, stencil))
        p0 = sum(w * p0_i for w, (_, p0_i) in zip(weights, stencil))
    q[0], q[-1] = q_start, 0.0
    p = np.full(grid.n_steps + 1, p0)
    p[1:] += grid.tau * ksq * np.cumsum(q[1:])
    return q, p


def _residual_arrays(ham, tau_ksq, tau_vol, q, p):
    """Defects of both recurrences along the last axis, one row per member."""
    rp = p[..., 1:] - p[..., :-1] - tau_ksq * q[..., 1:]
    rq = q[..., 1:] - q[..., :-1] - tau_vol * ham.slope(p[..., :-1])
    return rp, rq


def _max_abs(a, b):
    """Per-row max(|a|, |b|); a NaN anywhere in a row gives NaN."""
    return np.maximum(np.max(np.abs(a), axis=-1), np.max(np.abs(b), axis=-1))


def discrete_residual(problem: LiquidationProblem, traj: Trajectory) -> ResidualReport:
    """Recompute the defects of both recurrences for a given trajectory."""
    ham = hamiltonian_of(problem.cost)
    tau = traj.grid.tau
    vol = traj.grid.cell_volume(problem.volume)
    ksq = problem.market.gamma * problem.market.sigma**2
    rp, rq = _residual_arrays(ham, tau * ksq, tau * vol, traj.q, traj.p)
    return ResidualReport(p_residual=rp, q_residual=rq)


def _propagate(c, e, b):
    """Both shooting passes of a solo solve in one loop on Python floats.

    Row 0 of the (2, J+1) dq and dp starts at dp[0] = 0, row 1 at dp[0] = 1.
    """

    def steps():
        dq0, dq1, dp0, dp1 = 0.0, 0.0, 0.0, 1.0
        yield from (dq0, dq1, dp0, dp1)
        for cj, ej in zip(c, e):
            dq0 = dq0 + cj * dp0 + ej
            dp0 = dp0 + b * dq0
            dq1 = dq1 + cj * dp1 + ej
            dp1 = dp1 + b * dq1
            yield dq0
            yield dq1
            yield dp0
            yield dp1

    chains = np.fromiter(steps(), float, 4 * (len(c) + 1)).reshape(-1, 2, 2).transpose(1, 2, 0)
    return chains[0], chains[1]


@functools.lru_cache(maxsize=None)
def _dgtsv():
    """LAPACK dgtsv from scipy's compiled extension, without importing ``scipy.linalg`` (0.3 s)."""
    try:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = os.path.join(scipy_dir, "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.dgtsv
    except Exception:  # a private path: any surprise takes the public import
        from scipy.linalg.lapack import dgtsv

        return dgtsv


def _direction_by_banded(c, e, b):
    """Pivoted tridiagonal solve (LAPACK dgtsv) of every member's linearized system in one call.

    Per member the unknowns are interleaved as (dp_0, dq_1, dp_1, ..., dq_{J-1},
    dp_{J-1}, dp_J), with dq_0 = dq_J = 0 eliminated. The members' systems
    follow one another on the diagonal with zero coupling entries, so no
    finite pivot crosses a member boundary and each member gets the bits of its
    one-row call. A singular or non-finite block is re-solved member by member,
    which marks the singular ones and leaves the others those same bits.
    Returns (K, J+1) dq and dp and the mask of singular members.
    """
    K, J = c.shape
    # row 2j: dq_{j+1} - dq_j - c_j dp_j = e_j;  row 2j+1: dp_{j+1} - dp_j - b dq_{j+1} = 0
    sub = np.full((K, 2 * J), -1.0)  # dq_j in the q-rows, dp_j in the p-rows
    sub[:, -1] = 0.0  # coupling to the next member
    diag = np.empty((K, 2 * J))
    diag[:, 0::2] = -c  # dp_j in the q-rows
    diag[:, 1::2] = -b[:, None]  # dq_{j+1} in the p-rows
    diag[:, -1] = 1.0  # dp_J in the last p-row
    sup = np.ones((K, 2 * J))  # dq_{j+1}, dp_{j+1}
    sup[:, -2:] = 0.0  # dq_J is eliminated; coupling to the next member
    rhs = np.zeros((K, 2 * J))
    rhs[:, 0::2] = e
    *_, x, info = _dgtsv()(sub.ravel()[:-1], diag.ravel(), sup.ravel()[:-1], rhs.ravel(), 1, 1, 1, 1)
    x = x.reshape(K, 2 * J)
    if K > 1 and (info != 0 or not np.isfinite(x).all()):
        alone = [_direction_by_banded(c[k : k + 1], e[k : k + 1], b[k : k + 1]) for k in range(K)]
        return tuple(np.concatenate(rows) for rows in zip(*alone))
    dq = np.zeros((K, J + 1))
    dq[:, 1:J] = x[:, 1:-1:2]
    return dq, np.append(x[:, 0::2], x[:, -1:], axis=1), np.full(K, info != 0)


def _linear_defect(c, e, b, dq, dp):
    """How well a direction satisfies the linearized recurrences, per row."""
    rq = dq[..., 1:] - dq[..., :-1] - c * dp[..., :-1] - e
    rp = dp[..., 1:] - dp[..., :-1] - b * dq[..., 1:]
    return _max_abs(rq, rp)


def _newton_direction(c, e, b, current, tol, solo):
    """The correction of every member: one dgtsv call for a block, affine shooting for a solo solve.

    Shooting steps both chains of the one member and combines them. Over long
    horizons the homogeneous mode of the forward pass grows exponentially and
    the final affine combination differences astronomically large numbers,
    leaving rounding noise where the correction should be. The defect of the
    candidate against the linearized system measures that damage directly;
    past the useful threshold the same system goes to dgtsv. Returns dq, dp
    and the mask of members whose linearization is singular (their rows are
    meaningless).
    """
    if not solo:
        return _direction_by_banded(c, e, b)
    (dq0, dq1), (dp0, dp1) = _propagate(c[0].tolist(), e[0].tolist(), float(b[0]))
    with np.errstate(all="ignore"):
        denom = dq1[-1] - dq0[-1]
        s = -dq0[-1] / denom
        dq = dq0 + s * (dq1 - dq0)
        dp = dp0 + s * (dp1 - dp0)
        dq[0] = dq[-1] = 0.0  # boundary is exact; cancel the rounding of the affine combination
        defect = _linear_defect(c[0], e[0], b[0], dq, dp)
    usable = math.isfinite(denom) and denom != 0.0 and math.isfinite(dq0[-1])
    if usable and defect <= max(0.01 * current[0], 0.1 * tol[0]):
        return dq[None], dp[None], np.zeros(1, dtype=bool)
    return _direction_by_banded(c, e, b)


class _Block:
    """Row-per-member arrays of the members still iterating, and what is fixed per member."""

    __slots__ = ("member", "tol", "b", "tau_ksq", "tau_vol", "q", "p", "rq", "current")

    def __init__(self, **rows):
        for name, value in rows.items():
            setattr(self, name, value)

    def keep(self, mask):
        """Drop the rows where ``mask`` is False; the kept rows are copied out of the old arrays."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])

    def candidate(self, ham, rows, alpha, dq, dp):
        """Trial point rows + alpha * direction with its q-residual and max residual."""
        qc = self.q[rows] + alpha * dq[rows]
        pc = self.p[rows] + alpha * dp[rows]
        with np.errstate(all="ignore"):
            rpc, rqc = _residual_arrays(ham, self.tau_ksq[rows], self.tau_vol[rows], qc, pc)
            m = _max_abs(rpc, rqc)
        return qc, pc, rqc, m

    def take(self, rows, qc, pc, rqc, m):
        self.q[rows], self.p[rows], self.rq[rows], self.current[rows] = qc, pc, rqc, m


def _line_search(ham, block, dq, dp):
    """Halve each member's step until its residual falls; update ``block`` in place.

    A member that no halving improves takes its least-bad finite step
    (``max_iter`` guards against stalling). Returns each member's step length,
    and the masks of the members that took the least-bad step and of those
    for which no halving gave a finite residual.
    """
    K = len(block.member)
    pending = np.ones(K, dtype=bool)
    taken = np.zeros(K)
    best = np.full(K, np.inf)  # least-bad finite residual so far, and its step
    best_alpha = np.zeros(K)
    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        whole = pending.all()
        rows = slice(None) if whole else np.flatnonzero(pending)
        qc, pc, rqc, m = block.candidate(ham, rows, alpha, dq, dp)
        accept = m < block.current[rows]  # a non-finite m never passes
        if whole and accept.all():
            block.q, block.p, block.rq, block.current = qc, pc, rqc, m
            return np.full(K, alpha), np.zeros(K, dtype=bool), np.zeros(K, dtype=bool)
        rows = np.arange(K)[rows]
        block.take(rows[accept], qc[accept], pc[accept], rqc[accept], m[accept])
        taken[rows[accept]] = alpha
        pending[rows[accept]] = False
        better = ~accept & (m < best[rows])
        best[rows[better]] = m[better]
        best_alpha[rows[better]] = alpha
        alpha *= 0.5
    found = np.isfinite(best)
    fallback = np.flatnonzero(pending & found)
    if fallback.size:
        block.take(fallback, *block.candidate(ham, fallback, best_alpha[fallback, None], dq, dp))
        taken[fallback] = best_alpha[fallback]
    return taken, pending & found, pending & ~found


def _trajectory(grid, q, p, iterations, residual, history, no_descent, steps):
    q, p = q.copy(), p.copy()  # a row view would keep the whole block's array alive
    return Trajectory(
        grid=grid,
        q=q,
        p=p,
        v=_speeds(grid, q),
        iterations=iterations,
        max_residual=float(residual),
        history=history,
        no_descent=no_descent,
        steps=steps,
    )


def _solve_batch(
    problem: LiquidationProblem, t_starts, q_starts, opts: SolveOptions, stencils=None
) -> list:
    """Solve from each (t_starts[k], q_starts[k]) to zero at the horizon, in one Newton loop.

    ``stencils[k]``, if given and not empty, holds converged (q, p[0]) on member
    k's grid from which ``_start`` extrapolates its starting curve; otherwise
    the member starts from the straight line. Returns, in member order, each
    member's ``Trajectory`` or the ``NonConvergenceError`` it failed with.
    Live members share the iteration counter, so a member's count is the
    loop's count when it leaves.
    """
    ham = hamiltonian_of(problem.cost)
    market = problem.market
    ksq = market.gamma * market.sigma**2
    grids = [Grid(n_steps=opts.n_steps, t_start=t, t_end=problem.horizon) for t in t_starts]
    stencils = stencils or [()] * len(grids)
    starts = [_start(grid, ksq, q, stencil) for grid, q, stencil in zip(grids, q_starts, stencils)]
    tau = np.array([grid.tau for grid in grids])
    vol = np.array([grid.cell_volume(problem.volume) for grid in grids])
    if opts.newton_tol is not None:
        tol = np.full(len(grids), opts.newton_tol)
    else:
        tol = 1e-10 * np.asarray(q_starts, dtype=float)
    block = _Block(
        member=np.arange(len(grids)),
        tol=np.maximum(tol, 1e-300),
        b=tau * market.gamma * market.sigma**2,
        tau_ksq=(tau * ksq)[:, None],
        tau_vol=tau[:, None] * vol,
        q=np.array([q for q, _ in starts]),
        p=np.array([p for _, p in starts]),
    )
    del starts, vol
    solo = len(grids) == 1  # a block keeps dgtsv when it shrinks to one member
    rp, block.rq = _residual_arrays(ham, block.tau_ksq, block.tau_vol, block.q, block.p)
    block.current = _max_abs(rp, block.rq)
    del rp

    results = [None] * len(grids)
    histories = [[] for _ in grids]
    steps = [[] for _ in grids]
    no_descent = [0] * len(grids)

    def record(k, message=None):
        """Store row k's result: its trajectory, or the error named by ``message``."""
        member = block.member[k]
        trail = (tuple(histories[member]), no_descent[member], tuple(steps[member]))
        if message is None:
            results[member] = _trajectory(
                grids[member], block.q[k], block.p[k], iterations, block.current[k], *trail
            )
        else:
            residual = float(block.current[k])
            results[member] = NonConvergenceError(message, residual, iterations, *trail)

    def drop(mask, message):
        """Fail the rows under ``mask``; True while members are left."""
        for k in np.flatnonzero(mask):
            record(k, message)
        block.keep(~mask)
        return bool(block.member.size)

    iterations = 0
    while True:
        current = block.current
        going = np.isfinite(current) & (current > block.tol)  # a NaN residual never converges
        if iterations >= opts.max_iter:
            going[:] = False
        if not going.all():
            for k in np.flatnonzero(~going):
                if current[k] <= block.tol[k]:
                    record(k)
                elif not math.isfinite(current[k]):
                    record(k, "non-finite residual")
                else:
                    record(k, "Newton iteration stalled")
            if not going.any():
                break
            block.keep(going)

        c = block.tau_vol * ham.curvature(block.p[:, :-1])
        dq, dp, singular = _newton_direction(c, -block.rq, block.b, block.current, block.tol, solo)
        del c
        if singular.any():
            if not drop(singular, "degenerate linearization (H'' vanishes along the whole path)"):
                break
            dq, dp = dq[~singular], dp[~singular]
        alpha, least_bad, stuck = _line_search(ham, block, dq, dp)
        del dq, dp
        for member, residual, step, took_least_bad, failed in zip(
            block.member.tolist(), block.current.tolist(), alpha.tolist(), least_bad.tolist(), stuck.tolist()
        ):
            if not failed:
                histories[member].append(residual)
                steps[member].append(step)
                no_descent[member] += took_least_bad
        if stuck.any() and not drop(stuck, "line search found no finite candidate"):
            break
        iterations += 1
    return results


def _solve_one(problem: LiquidationProblem, t_start: float, q_start: float, opts: SolveOptions) -> Trajectory:
    (result,) = _solve_batch(problem, [t_start], [q_start], opts)
    if isinstance(result, NonConvergenceError):
        raise result
    return result


def newton_solve(problem: LiquidationProblem, opts: Optional[SolveOptions] = None) -> Trajectory:
    """Solve the full-horizon liquidation problem."""
    return _solve_one(problem, 0.0, problem.q0, opts or SolveOptions())


def solve_from(
    problem: LiquidationProblem,
    t_hat: float,
    q_hat: float,
    opts: Optional[SolveOptions] = None,
) -> Trajectory:
    """Optimal trajectory from inventory q_hat at time t_hat to zero at the horizon."""
    if not 0.0 <= t_hat < problem.horizon:
        raise ValueError("t_hat must lie in [0, horizon)")
    if q_hat < 0:
        raise ValueError("q_hat must be nonnegative")
    return _solve_one(problem, t_hat, q_hat, opts or SolveOptions())
