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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .closed_forms import theta_infinity
from .legendre import hamiltonian_of
from .market_model import LiquidationProblem
from .objective import _objective, eval_I
from .solver import NonConvergenceError, SolveOptions, _solve_batch, _Workspace, newton_solve

__all__ = [
    "BATCH_MEMBERS",
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


BATCH_MEMBERS = 64  # cells solved together in one Newton block, at most
# At most BATCH_MEMBERS * (n_steps + 1) doubles per block array, twice that per band
# array: past the default step count the block shrinks so its memory stays put.
_BLOCK_DOUBLES = BATCH_MEMBERS * 1001
MAX_GRID_NODES = 1000  # per axis
MARGIN = 0.05  # the default safety margin before the horizon, as a share of it
_STRUCTURE_TOL = 1e-9  # structure checks forgive deficits this share of the largest value
_STENCIL = 4  # converged columns a cell's start is extrapolated from, at most


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
    name: str
    checked: bool
    passed: bool
    violations: int = 0
    worst: float = 0.0


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.checked)


@dataclass(frozen=True, eq=False)
class AsymptoticResult:
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
    """Fill the grid one inventory column at a time; the zero-inventory column is exact without solving.

    The columns are solved in increasing q, each as one or more Newton blocks
    of at most ``BATCH_MEMBERS`` t-nodes, of even size (continuation in
    inventory). A cell starts from a prediction out of the converged curves of
    the same t-node in the columns to its left (``solver._start``): the
    polynomial in q through up to ``_STENCIL`` of them while those columns
    and its own are evenly spaced in q, and otherwise the curve to its left
    scaled by the ratio of the two inventories. A failed cell empties its
    t-node's stencil, so the cell to its right starts from the straight
    line, as a cell of the first solved column does. A block takes its Newton
    directions from one ``dgtsv`` call, and a cell's result is bit for bit
    what that direction gives it alone from the same start, so its
    blockmates never affect it; a block of one cell shoots. Every block of
    every column works in the one ``solver._Workspace`` of the build, sized to
    the largest block (19 doubles per member-step). The converged cells of a
    block are valued in one row-wise call, each with the bits of its own
    ``eval_I``. A cell agrees with its own ``solve_from`` wherever
    that converges, to rounding. On evenly spaced q-nodes no cell took more
    iterations than from the straight line or from the scaled curve to its
    left in any grid measured, while a jump of many orders of magnitude
    between neighbouring q-nodes can cost more than the straight line. Solver
    failures do not abort the build: the cell is masked and left NaN.
    """
    opts = opts or SolveOptions()
    T = problem.horizon
    epsilon = MARGIN * T if epsilon is None else epsilon
    if epsilon < 0.01 * T:
        raise ValueError("safety margin must be at least 1% of the horizon")
    t_nodes = np.asarray(t_nodes, dtype=float)
    q_nodes = np.asarray(q_nodes, dtype=float)
    if max(len(t_nodes), len(q_nodes)) > MAX_GRID_NODES:
        raise ValueError(f"a grid axis may have at most {MAX_GRID_NODES} nodes")
    if np.any(np.diff(t_nodes) <= 0) or np.any(np.diff(q_nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    if not np.isfinite(t_nodes).all() or t_nodes[0] < 0 or t_nodes[-1] > T - epsilon + 1e-12 * T:
        raise ValueError(f"t-nodes must lie in [0, {T - epsilon}]")
    if not np.isfinite(q_nodes).all() or q_nodes[0] < 0:
        raise ValueError("q-nodes must be finite and nonnegative")

    values = np.zeros((len(t_nodes), len(q_nodes)))
    failed = np.zeros_like(values, dtype=bool)
    iterations = np.zeros_like(values, dtype=int)
    residuals = np.zeros_like(values)
    size = max(1, min(BATCH_MEMBERS, _BLOCK_DOUBLES // (opts.n_steps + 1)))
    blocks = np.array_split(np.arange(len(t_nodes)), math.ceil(len(t_nodes) / size))
    work = _Workspace(problem, t_nodes, opts.n_steps, len(blocks[0]))
    stencils = [[] for _ in t_nodes]  # each t-node's converged (q, p[0]) in the last columns, oldest first
    for k, q in enumerate(q_nodes):
        if q == 0.0:
            continue
        depth = 1  # one column to the left, at any spacing, or more while evenly spaced with this one
        while depth < min(k, _STENCIL) and _evenly_spaced(q_nodes[k - depth - 1 : k + 1]):
            depth += 1
        for rows in blocks:
            part = work[rows]
            results = _solve_batch(
                problem, t_nodes[rows], [q] * len(rows), opts, [stencils[i][-depth:] for i in rows], part
            )
            values[rows, k] = _values(problem, results, part)
            for i, result in zip(rows, results):
                iterations[i, k] = result.iterations
                if isinstance(result, NonConvergenceError):
                    failed[i, k], residuals[i, k] = True, result.residual
                    stencils[i] = []
                else:
                    residuals[i, k] = result.max_residual
                    stencils[i] = (stencils[i] + [(result.q, result.p[0])])[-_STENCIL:]
            del results  # the trajectories' p and v would otherwise live through the next solve
    return ValueGrid(
        t_nodes=t_nodes,
        q_nodes=q_nodes,
        values=values,
        epsilon=epsilon,
        problem=problem,
        failed=failed,
        iterations=iterations,
        residuals=residuals,
    )


def _values(problem: LiquidationProblem, results, work) -> np.ndarray:
    """``eval_I`` of each converged member of a block in one row-wise call; NaN for a failed one.

    ``work`` is the block's ``solver._Workspace``, with every member's tau and cell volumes.
    """
    values = np.full(len(results), np.nan)
    solved = [k for k, result in enumerate(results) if not isinstance(result, NonConvergenceError)]
    if solved:
        q, v = np.array([results[k].q for k in solved]), np.array([results[k].v for k in solved])
        values[solved] = _objective(problem, work.tau[solved], work.vol[solved], q, v)
    return values


def _evenly_spaced(nodes) -> bool:
    steps = np.diff(nodes)
    return np.max(steps) - np.min(steps) <= 1e-9 * np.max(steps)


def hj_residual(grid: ValueGrid) -> HJResidualReport:
    """Plug central differences of the grid into the Hamilton-Jacobi equation.

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

    ham = hamiltonian_of(problem.cost)
    m = problem.market
    q_int = q[1:-1]
    t_int = t[1:-1]
    h_of_slope = ham.value(dth_dq[1:-1, :])
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
    largest grid value."""
    th = grid.values
    problem = grid.problem
    tol = _STRUCTURE_TOL * float(np.nanmax(np.abs(th))) if th.size else 0.0
    checks = []

    def summarize(name, deficits):
        worst = float(np.min(deficits)) if deficits.size else 0.0
        violations = int(np.sum(deficits < -tol))
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

    if th.shape[1] >= 3:
        if not _evenly_spaced(grid.q_nodes):
            raise ValueError("convexity check requires uniform q spacing")
        summarize("convex_q", th[:, :-2] - 2.0 * th[:, 1:-1] + th[:, 2:])
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
    q: float,
    horizons: Sequence[float],
    opts: Optional[SolveOptions] = None,
) -> AsymptoticResult:
    """Liquidation values of q over growing horizons against the closed-form limit.

    The step count scales with the horizon so every solve runs at the same
    time resolution. The limit comes first, so a volume curve it refuses
    (anything but constant) fails before any solve.
    """
    limit = theta_infinity(problem, q)
    horizons = tuple(float(T) for T in horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    opts = opts or SolveOptions()
    tau_ref = horizons[0] / opts.n_steps

    # SolveOptions bounds every scaled step count before the first solve runs
    scaled = [replace(opts, n_steps=max(opts.n_steps, math.ceil(T / tau_ref))) for T in horizons]

    values = []
    for T, probe_opts in zip(horizons, scaled):
        probe = replace(problem, horizon=T, q0=q)
        values.append(eval_I(probe, newton_solve(probe, probe_opts), psi=0.0))
    values = np.asarray(values)
    return AsymptoticResult(
        horizons=horizons,
        values=values,
        limit=limit,
        gaps=values - limit,
    )
