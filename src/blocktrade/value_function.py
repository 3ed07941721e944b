"""Liquidation value sampled on a (time, inventory) grid.

Each cell holds the minimal risk-adjusted cost of liquidating that inventory
from that time to the horizon, computed by the two-step route (solve the
trading curve, then evaluate the objective). The grid is the test bench for
the structural facts the value must satisfy: it solves a first-order
Hamilton-Jacobi equation in the interior, is monotone in both arguments,
convex in inventory, and dominated from below by a pure execution-cost bound
that blows up near the horizon. The grid therefore stops a safety margin
short of the terminal time.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .closed_forms import theta_infinity
from .legendre import SingularCurvatureError, hamiltonian_of
from .market_model import LiquidationProblem, PowerLawCost
from .objective import _objective, eval_I
from .solver import NonConvergenceError, SolveOptions, _matched_curves, _solve_batch, _Workspace, newton_solve

__all__ = [
    "GridWorkerError",
    "MAX_GRID_NODES",
    "MARGIN",
    "ValueGrid",
    "HJResidualReport",
    "PropertyCheck",
    "StructureReport",
    "AsymptoticResult",
    "build_grid",
    "hj_residual",
    "check_structure",
    "asymptotic_convergence",
]


# Member-steps (t-nodes x (n_steps + 1)) a group holds at most: doubles per block array, twice that per
# band array, so a group's memory stays put at any step count. 64 t-nodes at the default 1000 steps.
_BLOCK_DOUBLES = 64 * 1001
MAX_GRID_NODES = 1000  # per axis
MARGIN = 0.05  # the default safety margin before the horizon, as a share of it
_STRUCTURE_TOL = 1e-9  # structure checks forgive deficits this share of the largest value
_STENCIL = 4  # converged columns a cell's start is extrapolated from, at most
# Cell-steps (t-nodes x solved columns x (n_steps + 1)) from which a build forks. A fork and reap takes
# about 1.9 ms, and a forked build breaks even with one in process near 75k cell-steps, 13 ms (2-CPU VM).
_FORK_WORK = 75_000


class GridWorkerError(RuntimeError):
    """A forked worker of ``build_grid`` failed."""


@dataclass(frozen=True, eq=False)
class ValueGrid:
    """Liquidation values on t_nodes x q_nodes, with a per-cell failure mask.

    ``build_grid`` fills ``iterations`` with each cell's Newton iteration count
    and ``residuals`` with its final max residual (both at failure, for a
    failed cell; 0 on the zero-inventory column, which needs no solve). A grid
    assembled by hand may leave them None.
    """

    t_nodes: np.ndarray
    q_nodes: np.ndarray
    values: np.ndarray
    epsilon: float
    problem: LiquidationProblem
    failed: np.ndarray
    iterations: Optional[np.ndarray] = None
    residuals: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class HJResidualReport:
    """Interior defect of the Hamilton-Jacobi equation under central differences."""

    max_abs: float
    max_normalized: float
    argmax: tuple[float, float]
    residual: np.ndarray
    normalized: np.ndarray


@dataclass(frozen=True)
class PropertyCheck:
    """One structural property of a value grid: checked or not, passed or not, its violations and the worst."""
    name: str
    checked: bool
    passed: bool
    violations: int = 0
    worst: float = 0.0


@dataclass(frozen=True)
class StructureReport:
    """The structural checks of a value grid; ``ok`` when every checked one passed."""
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.checked)


@dataclass(frozen=True, eq=False)
class AsymptoticResult:
    """Finite-horizon values at growing horizons, their no-deadline limit and the gaps to it."""
    horizons: tuple[float, ...]
    values: np.ndarray
    limit: float
    gaps: np.ndarray


def build_grid(
    problem: LiquidationProblem,
    t_nodes: Sequence[float],
    q_nodes: Sequence[float],
    opts: Optional[SolveOptions] = None,
    epsilon: Optional[float] = None,
) -> ValueGrid:
    """Fill the grid in groups of t-nodes, each one inventory column at a time; the zero-inventory column is exact.

    The t-nodes go into groups of even size, at most ``_BLOCK_DOUBLES`` member-steps
    each, and each group solves every column in increasing q as one Newton
    block (continuation in inventory). A cell starts from its t-node's matched
    Almgren-Chriss curve at its inventory (``_matched_curves``) plus a
    deviation predicted out of the deviations of the same t-node's converged
    curves in the columns to its left from their own matched curves
    (``_weights``, ``_predict``, computed once per column for all groups): the
    polynomial in q through up to ``_STENCIL`` of them while those columns and
    its own are evenly spaced in q, and otherwise the deviation to its left
    scaled by the ratio of the two inventories. A failed cell empties its
    t-node's stencil, so the cell to its right starts from its matched curve
    alone, as a cell of the first solved column does. A group keeps its
    t-nodes' last ``_STENCIL`` deviations of q and p[0] in a ring of as many
    slots, and writes a block's start to one buffer: the slots summed oldest
    first from 0, each row with the weights of its stencil depth, plus the
    matched curves; the solver copies it and sets its boundary values and p.
    A block takes its Newton directions from one ``dptsv`` call, and a cell's
    result is bit for bit what that direction gives it alone from the same
    start, so neither its blockmates nor its group affect it. A group works
    in a ``solver._Workspace`` of its own (19 doubles per member-step) and
    three buffers of one double per member-step: its matched curves, its start
    and its p rows, the scratch of the other two before the solve. A block's
    converged curves overwrite the oldest slot of the ring (a failed cell's
    slot keeps finite stale numbers, which its emptied stencil reads with
    weight 0), are valued by one row-wise ``_objective`` call, every cell with
    the bits of its own ``eval_I`` (NaN for a failed one), and then lose their
    matched curves.

    The groups are independent, so a build of at least ``_FORK_WORK``
    cell-steps forks where that is safe: at least a group per CPU, the first
    run of groups here and each other in an ``os.fork`` child, which writes
    its rows to the outputs in anonymous shared memory (``GridWorkerError`` if
    it fails); the ``ValueGrid`` holds copies. A fork costs no fresh import,
    as a spawned worker would. The bits depend on neither the groups nor the
    number of processes. A cell's own ``solve_from`` shoots from the straight
    line, so the two agree only as far as shooting does: to 4.4e-16 relative
    on the reference grid, but not in the known defect of the ``solver``
    docstring, where shooting can stop on a wrong curve. README gives the
    iteration counts of the starts over 32 grids.
    A power-law cost with phi > 1 raises ``SingularCurvatureError`` before
    any solve: H'' is singular at p = 0, which the Newton path cannot serve.
    Solver failures do not abort the build: the cell is masked and left NaN.
    """
    opts = opts or SolveOptions()
    T = problem.horizon
    epsilon = MARGIN * T if epsilon is None else epsilon
    if not 0.01 * T <= epsilon < math.inf:
        raise ValueError(f"safety margin must be at least 1% of the horizon and finite, got {epsilon}")
    t_nodes = np.asarray(t_nodes, dtype=float)
    q_nodes = np.asarray(q_nodes, dtype=float)
    for name, nodes in (("t_nodes", t_nodes), ("q_nodes", q_nodes)):
        if not 1 <= len(nodes) <= MAX_GRID_NODES:
            raise ValueError(f"{name} must have at least 1 and at most {MAX_GRID_NODES} nodes, got {len(nodes)}")
    if np.any(np.diff(t_nodes) <= 0) or np.any(np.diff(q_nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    if not np.isfinite(t_nodes).all() or t_nodes[0] < 0 or t_nodes[-1] > T - epsilon + 1e-12 * T:
        raise ValueError(f"t-nodes must lie in [0, {T - epsilon}]")
    if not np.isfinite(q_nodes).all() or q_nodes[0] < 0:
        raise ValueError("q-nodes must be finite and nonnegative")

    if isinstance(problem.cost, PowerLawCost) and problem.cost.phi > 1.0:
        raise SingularCurvatureError(
            f"H'' is singular at p=0 for phi={problem.cost.phi} > 1, so the Newton path cannot solve the grid; "
            "power-law exponents above 1 are only supported through the closed forms"
        )

    shape = (len(t_nodes), len(q_nodes))
    values, failed, iterations, residuals = (  # zero-filled, and written in place by forked workers
        np.frombuffer(mmap.mmap(-1, math.prod(shape) * np.dtype(kind).itemsize), kind).reshape(shape)
        for kind in (float, bool, int, float)
    )
    columns, plan = np.flatnonzero(q_nodes), []  # each solved column's node, depth, slots and weights
    q_steps = np.diff(q_nodes).tolist()  # each window's steps agree to 1e-9 relative, tested on Python floats
    for solved, k in enumerate(columns):
        depth = 1  # one column to the left, at any spacing, or more while evenly spaced with this one
        while depth < min(k, _STENCIL):
            window = q_steps[k - depth - 1 : k]
            if max(window) - min(window) > 1e-9 * max(window):
                break
            depth += 1
        slots, new = [(solved - d) % _STENCIL for d in range(depth, 0, -1)], solved % _STENCIL
        weights = _weights(depth, q_nodes[k] / q_nodes[columns[solved - 1]])  # the first column reads no slot
        plan.append((k, depth, slots, new, weights))

    def solve(r):
        """Solve the group of t-nodes ``r`` (a slice) through every column, in a workspace and a ring of its own."""
        n = r.stop - r.start
        work = _Workspace(problem, t_nodes[r], opts.n_steps)
        matched_curves = _matched_curves(problem, work)
        # each t-node's deviations of its converged q (the first J+1 entries) and p[0] (the last) from their
        # matched curves in the last _STENCIL solved columns, a ring whose oldest slot a column's results
        # overwrite; kept counts each t-node's valid slots
        ring = np.zeros((_STENCIL, n, opts.n_steps + 2))
        kept = np.zeros(n, dtype=int)
        # the matched curves and the start, laid out as the ring's rows, and the scratch that holds the p
        # rows after the start is made (only p[0] is kept)
        base, guess, scratch = np.empty((3, n, opts.n_steps + 2))
        p = scratch[:, :-1]
        for k, depth, slots, new, weights in plan:
            row = ring[new]
            base[:, -1] = matched_curves(q_nodes[k], base[:, :-1], p)
            _predict(weights[np.minimum(kept, depth)], [ring[slot] for slot in slots], base, guess, scratch)
            q, q_hats = row[:, :-1], np.full(n, q_nodes[k])
            results = _solve_batch(problem, work, q_hats, opts, q, p, (guess[:, :-1], guess[:, -1]))
            lost = np.array([isinstance(result, NonConvergenceError) for result in results])
            failed[r, k], iterations[r, k] = lost, [result.iterations for result in results]
            residuals[r, k] = [result.max_residual for result in results]
            row[:, -1] = p[:, 0]
            kept = np.where(lost, 0, np.minimum(kept + 1, _STENCIL))
            values[r, k] = np.where(lost, np.nan, _objective(problem, work.tau, work.vol, q))
            row -= base

    # forking needs Linux, one Python thread (another could hold a lock the child needs) and Python below
    # 3.12, which warns at a fork beside other OS threads, as numpy's BLAS pool always is
    safe = sys.platform == "linux" and sys.version_info < (3, 12) and threading.active_count() == 1
    forks = safe and len(t_nodes) * len(columns) * (opts.n_steps + 1) >= _FORK_WORK
    cpus = len(os.sched_getaffinity(0)) if forks else 1
    size = max(1, _BLOCK_DOUBLES // (opts.n_steps + 1))
    count = max(math.ceil(len(t_nodes) / size), min(cpus, len(t_nodes)))
    groups = [slice(rows[0], rows[-1] + 1) for rows in np.array_split(np.arange(len(t_nodes)), count)]
    _fork_over(solve, groups, min(cpus, count))
    return ValueGrid(
        t_nodes=t_nodes,
        q_nodes=q_nodes,
        values=values.copy(),
        epsilon=epsilon,
        problem=problem,
        failed=failed.copy(),
        iterations=iterations.copy(),
        residuals=residuals.copy(),
    )


def _fork_over(solve, groups, workers):
    """``solve`` each of ``groups`` (row slices): the first of ``workers`` runs of them here, each other in a fork.

    ``solve`` writes to shared memory; a child leaves by ``os._exit``, with 1
    on any exception, and the parent reaps every child even when it raises.
    """
    shares = [groups[len(groups) * w // workers : len(groups) * (w + 1) // workers] for w in range(workers)]
    children = []
    try:
        for share in shares[1:]:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for group in share:
                        solve(group)
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        for group in shares[0]:
            solve(group)
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for status in statuses:
        if status != 0:
            raise GridWorkerError(f"a grid worker exited with status {status}")


def _weights(depth: int, s: float) -> np.ndarray:
    """Row d: a start's weights on its t-node's last ``depth`` deviations, oldest first, when d of them are valid.

    Row 0 is zero (the matched curve alone). Row 1 scales the newest deviation
    by s = q_hat / Q, the ratio of the cell's inventory to that column's
    (natural-parameter continuation in inventory). Row d >= 2 extrapolates the
    newest d, evenly spaced in q with q_hat, by the polynomial of degree d - 1
    through them, whose weights there are binomial: (-1)**(d - 1 - i) * C(d, i)
    on the i-th oldest.
    """
    weights = np.zeros((depth + 1, depth))
    weights[1, -1] = s
    for d in range(2, depth + 1):
        weights[d, depth - d :] = [(-1) ** (d - 1 - i) * math.comb(d, i) for i in range(d)]
    return weights


def _predict(weights, deviations, curves, out, scratch):
    """Write ``curves`` plus the ``deviations`` weighted row by row by ``weights``, summed from 0 oldest first."""
    out.fill(0.0)
    for w, deviation in zip(weights.T, deviations):
        out += np.multiply(w[:, None], deviation, out=scratch)
    out += curves


def hj_residual(grid: ValueGrid) -> HJResidualReport:
    """Plug central differences of the grid into the Hamilton-Jacobi equation.

    H at each q-difference x is ``rho |x| - L(rho)`` at rho = |H'(x)| (Fenchel-Young).
    The residual is reported both raw and normalized by the local scale of its
    terms, since the raw value spans orders of magnitude across the grid.
    """
    problem = grid.problem
    if grid.values.shape[0] < 3 or grid.values.shape[1] < 3:
        raise ValueError("need at least a 3x3 grid for interior differences")
    if grid.failed.any():
        raise ValueError("grid contains failed cells")

    th = grid.values
    t = grid.t_nodes
    q = grid.q_nodes
    dth_dt = (th[2:, :] - th[:-2, :]) / (t[2:] - t[:-2])[:, None]
    dth_dq = (th[:, 2:] - th[:, :-2]) / (q[2:] - q[:-2])[None, :]

    m = problem.market
    q_int = q[1:-1]
    t_int = t[1:-1]
    rho = np.abs(hamiltonian_of(problem.cost).slope(dth_dq[1:-1, :]))
    h_of_slope = rho * np.abs(dth_dq[1:-1, :]) - problem.cost(rho)
    vol_int = np.asarray(problem.volume(t_int), dtype=float)[:, None]
    risk = 0.5 * m.gamma * m.sigma**2 * q_int[None, :] ** 2

    residual = -dth_dt[:, 1:-1] - risk + vol_int * h_of_slope
    scale = risk + np.abs(vol_int * h_of_slope) + 1e-300
    normalized = np.abs(residual) / scale

    idx = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
    return HJResidualReport(
        max_abs=float(np.max(np.abs(residual))),
        max_normalized=float(np.max(normalized)),
        argmax=(float(t_int[idx[0]]), float(q_int[idx[1]])),
        residual=residual,
        normalized=normalized,
    )


def check_structure(grid: ValueGrid) -> StructureReport:
    """Verify monotonicity in time and inventory, convexity in inventory, and
    the execution-cost lower bound, cell-wise with a tolerance scaled to the
    largest finite grid value. A NaN cell (a failed solve) violates every
    check that reads it; ``worst`` is the least finite deficit."""
    th = grid.values
    problem = grid.problem
    finite = th[np.isfinite(th)]
    tol = _STRUCTURE_TOL * float(np.max(np.abs(finite))) if finite.size else 0.0
    checks = []

    def summarize(name, deficits):
        known = deficits[np.isfinite(deficits)]
        worst = float(np.min(known)) if known.size else 0.0
        violations = int(np.sum(~(deficits >= -tol)))  # a NaN deficit is a violation
        checks.append(
            PropertyCheck(
                name=name,
                checked=True,
                passed=violations == 0,
                violations=violations,
                worst=worst,
            )
        )

    if th.shape[0] >= 2:
        summarize("monotone_t", np.diff(th, axis=0))
    else:
        checks.append(PropertyCheck("monotone_t", checked=False, passed=True))

    if th.shape[1] >= 2:
        summarize("monotone_q", np.diff(th, axis=1))
    else:
        checks.append(PropertyCheck("monotone_q", checked=False, passed=True))

    if th.shape[1] >= 3:  # the second difference on any spacing; both weights are 1 on an even one
        left, right = np.diff(grid.q_nodes)[:-1], np.diff(grid.q_nodes)[1:]
        a, c = 2.0 * right / (left + right), 2.0 * left / (left + right)
        summarize("convex_q", a * th[:, :-2] - 2.0 * th[:, 1:-1] + c * th[:, 2:])
    else:
        checks.append(PropertyCheck("convex_q", checked=False, passed=True))

    # pure execution-cost lower bound; tight near the horizon where the value blows up
    remaining = problem.horizon - grid.t_nodes
    vol_lo, vol_hi = problem.volume.lo, problem.volume.hi
    rho = grid.q_nodes[None, :] / (vol_hi * remaining[:, None])
    bound = vol_lo * remaining[:, None] * problem.cost(rho)
    summarize("singularity_bound", th - bound)

    return StructureReport(tuple(checks))


def asymptotic_convergence(
    problem: LiquidationProblem,
    horizons: Sequence[float],
    opts: Optional[SolveOptions] = None,
) -> AsymptoticResult:
    """Liquidation values of the block q0 over growing horizons against the closed-form limit.

    The step count scales with the horizon so every solve runs at the same
    time resolution. The limit comes first, so a volume curve it refuses
    (anything but constant) fails before any solve.
    """
    limit = theta_infinity(problem)
    horizons = tuple(float(T) for T in horizons)
    if not horizons or not all(0.0 < T < math.inf for T in horizons):
        raise ValueError(f"horizons must be one or more positive finite times, got {horizons}")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    opts = opts or SolveOptions()
    tau_ref = horizons[0] / opts.n_steps

    # SolveOptions bounds every scaled step count before the first solve runs
    scaled = [replace(opts, n_steps=max(opts.n_steps, math.ceil(T / tau_ref))) for T in horizons]

    values = []
    for T, probe_opts in zip(horizons, scaled):
        probe = replace(problem, horizon=T)
        values.append(eval_I(probe, newton_solve(probe, probe_opts), psi=0.0))
    values = np.asarray(values)
    return AsymptoticResult(
        horizons=horizons,
        values=values,
        limit=limit,
        gaps=values - limit,
    )
