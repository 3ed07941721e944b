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
solves them by the SPD primal Hessian in dq (LAPACK ``dptsv``; ``dgtsv`` for a
member where H'' is not positive). A solo solve, one member from the straight
line, uses affine shooting: the whole chain is an affine function of the
single unknown dp[0], so two forward passes (dp[0] = 0 and dp[0] = 1) pin it
down. Over long horizons the homogeneous mode of the forward pass grows past
what double precision can cancel, so a shooting direction that misses the
linearized system by more than a threshold is replaced by the ``dgtsv`` solve.
A solve converges when the larger of its two residuals, max |p-defect| and
max |q-defect|, falls to the tolerance (1e-10 * q0 by default). Every start
satisfies the p-recurrence, but a p-defect that a shooting or ``dgtsv`` step
leaves is never corrected, since the p-rows of the linearized system have a
zero right-hand side, and the stopping test compares it, in currency per
share, with a tolerance in shares. Known defect: for phi = 1 and kappa * T
from about 10 to 35, with kappa = sqrt(gamma * sigma**2 * V / (2 * eta)), a
shooting solve can report convergence on a curve far from the exact discrete
Almgren-Chriss curve. On the reference stock with eta = 0.01 and T = 3.5 a
p-defect of 1.0e-6 passes, the q-residual is 9e-17 * q0 and the
curve is 5.3e-5 * q0 away. A step-halving line search guards the early
iterations, where the power-law H' has strongly varying curvature.

Solves run in blocks of members that share the problem, the horizon and the
step count; each member has its own start (t_hat, q_hat), hence its own tau,
volume row and tolerance. One Newton loop serves the whole block and applies
every rule (direction, line search, stopping) per member, so a member's
result is bit for bit what the block direction gives it alone from the same
start: its blockmates never affect it, and it keeps that direction when it
shrinks to one member. ``_start`` writes every member's starting curve into
the block's rows at once: the curve the caller hands it (``build_grid`` hands
each cell its own), or else the straight line from q_hat to zero. Members
leave as they converge or fail, and a failing member never stops the others;
a converged member's q and p are copied into the caller's rows, and the block
returns each member's ``_Outcome``. The loop's arrays live in a
``_Workspace``. ``newton_solve`` and ``solve_from`` are one-member blocks from
the straight line, the only solves that shoot, and build their ``Trajectory``
on the q and p rows they hand it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
        _check_counts(self, "n_steps", "max_iter")
        if not 2 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must lie in [2, {MAX_STEPS}], got {self.n_steps}")
        if self.newton_tol is not None and not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


def _check_counts(options, *names):
    """Raise a ValueError naming the first of the fields ``names`` of ``options`` that holds no integer (or a bool)."""
    for name in names:
        value = getattr(options, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ResidualReport:
    """Per-cell defects of the two discrete recurrences."""

    p_residual: np.ndarray
    q_residual: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(_max_abs(self.p_residual, self.q_residual))


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
    ksq = problem.market.gamma * problem.market.sigma**2
    q, p = np.empty(grid.n_steps + 1), np.empty(grid.n_steps + 1)
    _start(np.array([[grid.tau * ksq]]), np.array([q_start], dtype=float), q[None], p[None])
    return Trajectory(grid=grid, q=q, p=p, v=_speeds(grid, q))


def _start(tau_ksq, q_start, q, p, start=None):
    """Write K members' starting (q, p) to the (K, J+1) rows q and p.

    ``tau_ksq`` (K, 1) is each member's tau * (gamma * sigma**2), ``q_start``
    (K,) its inventory. ``start`` = (q rows (K, J+1), p[0] (K,)) is copied;
    without it the start is the straight line from q_start to zero with
    p[0] = 0. Both boundary values are set exactly, and p is the forward pass
    of the p-recurrence from p[0], so the starting p-residual vanishes.
    """
    if start is None:
        np.multiply(1.0 - np.arange(q.shape[1]) / (q.shape[1] - 1), q_start[:, None], out=q)
        p0 = 0.0
    else:
        q[:], p0 = start
    q[:, 0], q[:, -1] = q_start, 0.0
    _p_recurrence(q, p0, tau_ksq, p)


def _p_recurrence(q, p0, b, p):
    """Write p[0] = p0 and p[j+1] = p[j] + b q[j+1] to the rows ``p``, as p0 + b * (q[1] + ... + q[j])."""
    p_rest = np.cumsum(q[:, 1:], axis=1, out=p[:, 1:])
    p_rest *= b
    p_rest += np.reshape(p0, (-1, 1))
    p[:, 0] = p0


def _residual_arrays(ham, tau_ksq, tau_vol, q, p, out=None):
    """Defects of both recurrences along the last axis, one row per member; ``out`` = (rp, rq, scratch)."""
    rp, rq, scratch = np.empty((3, *q[..., 1:].shape)) if out is None else out
    np.subtract(p[..., 1:], p[..., :-1], out=rp)
    rp -= np.multiply(tau_ksq, q[..., 1:], out=scratch)
    np.subtract(q[..., 1:], q[..., :-1], out=rq)
    rq -= np.multiply(tau_vol, ham.slope(p[..., :-1], out=scratch), out=scratch)
    return rp, rq


def _max_abs(a, b, out=(None, None)):
    """Per-row max(|a|, |b|); a NaN anywhere in a row gives NaN. ``out`` may take |a| and |b|."""
    largest = np.maximum.reduce
    return np.maximum(largest(np.abs(a, out=out[0]), axis=-1), largest(np.abs(b, out=out[1]), axis=-1))


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
def _lapack():
    """scipy's compiled LAPACK extension (dgtsv, dptsv), without importing ``scipy.linalg`` (0.3 s)."""
    try:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = os.path.join(scipy_dir, "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:  # a private path: any surprise takes the public import
        from scipy.linalg import lapack

        return lapack


def _direction_by_banded(c, e, b, work=None):
    """Pivoted tridiagonal solve (LAPACK dgtsv) of one member's linearized system: c and e (1, J), b (1,).

    The unknowns are interleaved as (dp_0, dq_1, dp_1, ..., dq_{J-1}, dp_{J-1}, dp_J), with dq_0 = dq_J = 0
    eliminated. Returns (1, J+1) dq and dp and whether the system is singular, in ``work`` if given.
    """
    J = c.shape[1]
    sub, diag, sup, rhs = np.empty((4, 2 * J)) if work is None else work.bands[:, 0]
    # row 2j: dq_{j+1} - dq_j - c_j dp_j = e_j;  row 2j+1: dp_{j+1} - dp_j - b dq_{j+1} = 0
    sub.fill(-1.0)  # dq_j in the q-rows, dp_j in the p-rows
    np.negative(c[0], out=diag[0::2])  # dp_j in the q-rows
    diag[1::2] = -b[0]  # dq_{j+1} in the p-rows
    diag[-1] = 1.0  # dp_J in the last p-row
    sup.fill(1.0)  # dq_{j+1}, dp_{j+1}
    sup[-2] = 0.0  # dq_J is eliminated
    rhs[0::2], rhs[1::2] = e[0], 0.0
    *_, x, info = _lapack().dgtsv(sub[:-1], diag, sup[:-1], rhs, 1, 1, 1, 1)
    dq, dp = np.empty((2, 1, J + 1)) if work is None else (work.dq[:1], work.dp[:1])
    dq[0, 0], dq[0, 1:J], dq[0, J] = 0.0, x[1:-1:2], 0.0
    dp[0, :J], dp[0, J] = x[0::2], x[-1]
    return dq, dp, np.array([info != 0])


def _direction_by_hessian(c, e, b, work=None):
    """Each member's direction from its primal Hessian in dq_1 .. dq_{J-1}: one dptsv call when every member is SPD.

    With w = 1 / c: (w_{i-1} + w_i + b) dq_i - w_{i-1} dq_{i-1} - w_i dq_{i+1} = e_{i-1} w_{i-1} - e_i w_i, then
    dp_0 = (dq_1 - e_0) / c_0 and the p-recurrence. The members' systems follow one another with zero coupling
    entries, so each gets the bits of its one-row call. Any other block, or a call that fails or turns non-finite
    (LDL^T carries a NaN across a zero coupling), goes member by member: dptsv alone, else ``_direction_by_banded``.
    """
    K, J = c.shape
    flat = (np.empty((4, K, 2 * J)) if work is None else work.bands[:, :K]).reshape(4, -1)
    (w, ew), (diag, off, rhs) = flat[0, : 2 * K * J].reshape(2, K, J), flat[1:, : K * (J - 1)].reshape(3, K, J - 1)
    with np.errstate(divide="ignore"):
        spd = (np.divide(1.0, c, out=w).min(axis=1) > 0.0) & (w.max(axis=1) < math.inf)  # NaN fails both
    dq, dp = np.empty((2, K, J + 1)) if work is None else (work.dq[:K], work.dp[:K])
    if spd.all():
        np.multiply(e, w, out=ew)
        np.subtract(ew[:, :-1], ew[:, 1:], out=rhs)
        np.add(w[:, :-1], w[:, 1:], out=diag)
        diag += b[:, None]
        np.negative(w[:, 1:], out=off)
        off[:, -1] = 0.0  # coupling to the next member
        if off.size > 1:
            *_, x, info = _lapack().dptsv(diag.ravel(), off.ravel()[:-1], rhs.ravel(), 1, 1, 1)
        else:  # one unknown: dptsv would scale by 1 / diag where a block of such members divides
            x, info = rhs / diag, 0
        x = x.reshape(K, J - 1)
        if info == 0 and (K == 1 or (np.isfinite(x.min()) and np.isfinite(x.max()))):
            dq[:, 0], dq[:, 1:J], dq[:, J] = 0.0, x, 0.0
            _p_recurrence(dq, (x[:, 0] - e[:, 0]) / c[:, 0], b[:, None], dp)
            return dq, dp, np.zeros(K, dtype=bool)
    if K == 1:  # H'' is not positive somewhere, or dptsv failed
        return _direction_by_banded(c, e, b, work)
    singular = np.empty(K, dtype=bool)
    for k in range(K):
        rows = slice(k, k + 1)
        dq[rows], dp[rows], singular[rows] = _direction_by_hessian(c[rows], e[rows], b[rows])
    return dq, dp, singular


def _linear_defect(c, e, b, dq, dp, out):
    """How well a direction satisfies the linearized recurrences, per row; ``out`` = three arrays shaped like c."""
    rq, rp, scratch = out
    np.subtract(dq[..., 1:], dq[..., :-1], out=rq)
    rq -= np.multiply(c, dp[..., :-1], out=scratch)
    rq -= e
    np.subtract(dp[..., 1:], dp[..., :-1], out=rp)
    rp -= np.multiply(b, dq[..., 1:], out=scratch)
    return _max_abs(rq, rp, out=(rq, rp))


def _newton_direction(c, e, b, current, tol, solo, work):
    """The correction of every member: the Hessian direction for a block, affine shooting for a solo solve.

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
        return _direction_by_hessian(c, e, b, work)
    (dq0, dq1), (dp0, dp1) = _propagate(memoryview(c[0]), memoryview(e[0]), float(b[0]))
    end, denom = float(dq0[-1]), float(dq1[-1]) - float(dq0[-1])
    if math.isfinite(denom) and denom != 0.0 and math.isfinite(end):
        s = -end / denom
        dq, dp = work.dq[0], work.dp[0]  # dq0 + s * (dq1 - dq0), and the same for dp
        with np.errstate(all="ignore"):
            np.add(np.multiply(np.subtract(dq1, dq0, out=dq), s, out=dq), dq0, out=dq)
            np.add(np.multiply(np.subtract(dp1, dp0, out=dp), s, out=dp), dp0, out=dp)
            dq[0] = dq[-1] = 0.0  # boundary is exact; cancel the rounding of the affine combination
            defect = _linear_defect(c[0], e[0], b[0], dq, dp, work.bands[:3, 0, : c.shape[1]])
        if defect <= max(0.01 * current[0], 0.1 * tol[0]):
            return dq[None], dp[None], np.zeros(1, dtype=bool)
    return _direction_by_banded(c, e, b, work)


class _Workspace:
    """The arrays a Newton block writes, and the data of its t-nodes: grid, tau, cell volumes, b.

    Per member-step, for up to ``members`` rows: four dgtsv or dptsv bands (two
    doubles each), c and e (also the line search's scratch), tau * V, dq, dp and two
    copies of (q, p, rq), 19 doubles; the start is written into the first copy
    of q and p.
    A shooting direction is combined into dq and dp, and its defect against the
    linearized system uses the bands as scratch until a fallback dgtsv refills them.
    """

    def __init__(self, problem: LiquidationProblem, t_nodes, n_steps: int, members: int):
        T, market = problem.horizon, problem.market
        self.grids = [Grid(n_steps=n_steps, t_start=t, t_end=T) for t in t_nodes]
        self.tau = np.array([grid.tau for grid in self.grids])
        self.vol = np.array([grid.cell_volume(problem.volume) for grid in self.grids])
        self.b = self.tau * market.gamma * market.sigma**2
        self.bands = np.empty((4, members, 2 * n_steps))
        self.c, self.e, self.tau_vol = np.empty((3, members, n_steps))
        self.dq, self.dp = np.empty((2, members, n_steps + 1))
        self.state = np.empty((2, 2, members, n_steps + 1)), np.empty((2, members, n_steps))


class _Block:
    """Row-per-member arrays of the members still iterating, and what is fixed per member."""

    __slots__ = ("member", "tol", "b", "tau_ksq", "current", "tau_vol", "q", "p", "rq", "spare", "scratch")

    def __init__(self, work, tol, ksq):
        K, ((q, p), rq) = len(work.grids), work.state
        self.member, self.tol, self.b, self.tau_ksq = np.arange(K), tol, work.b.copy(), work.tau[:, None] * ksq
        self.tau_vol = np.multiply(work.tau[:, None], work.vol, out=work.tau_vol[:K])
        self.q, self.p, self.rq, self.spare = q[0, :K], p[0, :K], rq[0, :K], (q[1, :K], p[1, :K], rq[1, :K])
        self.scratch = work.c, work.e  # free outside the direction solve

    def keep(self, mask):
        """Drop the rows where ``mask`` is False; the kept rows move up in place."""
        kept = np.flatnonzero(mask)
        moves = [(to, row) for to, row in enumerate(kept.tolist()) if to != row]
        for name in self.__slots__[:-2]:  # not spare and scratch
            rows = getattr(self, name)
            for to, row in moves:  # onto a row already moved or dropped
                rows[to] = rows[row]
            setattr(self, name, rows[: kept.size])

    def residual(self, ham, rows, q, p, rq):
        """Write the q-defects of (q, p), the members ``rows``, to ``rq``; return each row's max residual."""
        rp, scratch = self.scratch[0][: len(q)], self.scratch[1][: len(q)]
        _residual_arrays(ham, self.tau_ksq[rows], self.tau_vol[rows], q, p, out=(rp, rq, scratch))
        return _max_abs(rp, rq, out=(rp, scratch))

    def candidate(self, ham, rows, alpha, dq, dp):
        """Write rows + alpha * direction to the leading rows of ``spare``; return its max residuals."""
        K = self.member[rows].size
        q, p, rq = self.spare[0][:K], self.spare[1][:K], self.spare[2][:K]
        np.add(self.q[rows], np.multiply(alpha, dq[rows], out=q), out=q)
        np.add(self.p[rows], np.multiply(alpha, dp[rows], out=p), out=p)
        return self.residual(ham, rows, q, p, rq)

    def take(self, rows, picks, m):
        """Make the candidate's rows ``picks``, with max residuals ``m``, the state of members ``rows``."""
        for row, pick in zip(rows.tolist(), picks.tolist()):
            for state, spare in zip((self.q, self.p, self.rq), self.spare):
                state[row] = spare[pick]
        self.current[rows] = m

    def swap(self, m):
        """Make the whole candidate, with max residuals ``m``, the block's state."""
        state, K = (self.q, self.p, self.rq), self.member.size
        self.q, self.p, self.rq = (a[:K] for a in self.spare)
        self.spare, self.current = state, m


def _line_search(ham, block, dq, dp):
    """Halve each member's step until its residual falls; update ``block`` in place.

    A member that no halving improves takes its least-bad finite step
    (``max_iter`` guards against stalling). Returns each member's step length,
    and the masks of the members that took the least-bad step and of those
    for which no halving gave a finite residual. The full step is tried on the
    whole block first, and when every member accepts it nothing else is made.
    """
    K = len(block.member)
    with np.errstate(all="ignore"):
        m = block.candidate(ham, slice(None), 1.0, dq, dp)
        if (m < block.current).all():  # a non-finite m never passes
            block.swap(m)
            return np.ones(K), np.zeros(K, dtype=bool), np.zeros(K, dtype=bool)
        pending, rows, taken, alpha = np.ones(K, dtype=bool), np.arange(K), np.zeros(K), 1.0
        best, best_alpha = np.full(K, np.inf), np.zeros(K)  # least-bad finite residual so far, and its step
        for halvings in range(MAX_HALVINGS + 1):
            if halvings:
                rows = np.flatnonzero(pending)
                m = block.candidate(ham, rows, alpha, dq, dp)
            accept = m < block.current[rows]
            picks = np.flatnonzero(accept)
            block.take(rows[picks], picks, m[picks])
            taken[rows[picks]] = alpha
            pending[rows[picks]] = False
            if not pending.any():
                break
            better = ~accept & (m < best[rows])
            best[rows[better]] = m[better]
            best_alpha[rows[better]] = alpha
            alpha *= 0.5
        found = np.isfinite(best)
        fallback = np.flatnonzero(pending & found)
        if fallback.size:
            m = block.candidate(ham, fallback, best_alpha[fallback, None], dq, dp)
            block.take(fallback, np.arange(fallback.size), m)
            taken[fallback] = best_alpha[fallback]
    return taken, pending & found, pending & ~found


class _Outcome(NamedTuple):
    """How a block member ended: ``message`` names a failure (``NonConvergenceError(*outcome)``), None if converged."""

    message: Optional[str]
    residual: float
    iterations: int
    history: tuple
    no_descent: int
    steps: tuple


def _solve_batch(
    problem: LiquidationProblem, t_starts, q_starts, opts: SolveOptions, q_out, p_out, start=None, work=None
) -> list:
    """Solve from each (t_starts[k], q_starts[k]) to zero at the horizon, in one Newton loop.

    Member k starts from row k of ``start`` = (q rows (K, J+1), p[0] (K,)),
    by default from the straight line (``_start``); only a lone member without
    ``start`` shoots. A converged member's q and p are written to the rows
    ``q_out[k]`` and ``p_out[k]`` ((K, J+1) each); a failed member's rows are
    left as they were. Returns each member's ``_Outcome``, in member order.
    Live members share the iteration counter, so a member's count is the
    loop's count when it leaves. ``work``, if given, is a ``_Workspace`` on the
    t-nodes ``t_starts``, for at least as many members; else the call makes one.
    """
    ham = hamiltonian_of(problem.cost)
    ksq = problem.market.gamma * problem.market.sigma**2
    work = _Workspace(problem, t_starts, opts.n_steps, len(t_starts)) if work is None else work
    K = len(work.grids)
    q_starts = np.asarray(q_starts, dtype=float)
    tol = np.full(K, opts.newton_tol) if opts.newton_tol is not None else 1e-10 * q_starts
    block = _Block(work, np.maximum(tol, 1e-300), ksq)
    _start(block.tau_ksq, q_starts, block.q, block.p, start)
    solo = start is None and K == 1  # a block keeps its direction when it shrinks to one member
    block.current = block.residual(ham, slice(None), block.q, block.p, block.rq)

    results = [None] * K
    histories = [[] for _ in range(K)]
    steps = [[] for _ in range(K)]
    no_descent = [0] * K

    def record(k, message=None):
        """Store row k's outcome, and its q and p if it converged (``message`` None)."""
        member = block.member[k]
        if message is None:
            q_out[member], p_out[member] = block.q[k], block.p[k]
        trail = (tuple(histories[member]), no_descent[member], tuple(steps[member]))
        results[member] = _Outcome(message, float(block.current[k]), iterations, *trail)

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

        c = ham.curvature(block.p[:, :-1], out=work.c[: block.member.size])
        c *= block.tau_vol
        e = np.negative(block.rq, out=work.e[: len(c)])
        dq, dp, singular = _newton_direction(c, e, block.b, block.current, block.tol, solo, work)
        if singular.any():
            if not drop(singular, "degenerate linearization (H'' vanishes along the whole path)"):
                break
            dq, dp = dq[~singular], dp[~singular]
        alpha, least_bad, stuck = _line_search(ham, block, dq, dp)
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
    q, p = np.empty(opts.n_steps + 1), np.empty(opts.n_steps + 1)
    (outcome,) = _solve_batch(problem, [t_start], [q_start], opts, q[None], p[None])
    if outcome.message is not None:
        raise NonConvergenceError(*outcome)
    grid = Grid(opts.n_steps, t_start, problem.horizon)
    return Trajectory(grid, q, p, _speeds(grid, q), outcome.iterations, outcome.residual, *outcome[3:])


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
    if not 0.0 <= q_hat < math.inf:
        raise ValueError("q_hat must be nonnegative and finite")
    return _solve_one(problem, t_hat, q_hat, opts or SolveOptions())
