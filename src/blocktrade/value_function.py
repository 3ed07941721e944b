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
from .market_model import ConstantVolume, LiquidationProblem
from .objective import eval_I
from .solver import NonConvergenceError, SolveOptions, newton_solve, solve_from

__all__ = [
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


@dataclass(frozen=True, eq=False)
class ValueGrid:
    """Liquidation values on t_nodes x q_nodes, with a per-cell failure mask."""

    t_nodes: np.ndarray
    q_nodes: np.ndarray
    values: np.ndarray
    epsilon: float
    problem: LiquidationProblem
    failed: np.ndarray


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
    """Fill the grid cell by cell; the zero-inventory column is exact without solving.

    Solver failures do not abort the build: the cell is masked and left NaN.
    """
    opts = opts or SolveOptions()
    T = problem.horizon
    epsilon = 0.05 * T if epsilon is None else epsilon
    if epsilon < 0.01 * T:
        raise ValueError("safety margin must be at least 1% of the horizon")
    t_nodes = np.asarray(t_nodes, dtype=float)
    q_nodes = np.asarray(q_nodes, dtype=float)
    if np.any(np.diff(t_nodes) <= 0) or np.any(np.diff(q_nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    if t_nodes[0] < 0 or t_nodes[-1] > T - epsilon + 1e-12 * T:
        raise ValueError(f"t-nodes must lie in [0, {T - epsilon}]")
    if q_nodes[0] < 0:
        raise ValueError("q-nodes must be nonnegative")

    values = np.zeros((len(t_nodes), len(q_nodes)))
    failed = np.zeros_like(values, dtype=bool)
    for i, t in enumerate(t_nodes):
        for k, q in enumerate(q_nodes):
            if q == 0.0:
                continue
            try:
                traj = solve_from(problem, t, q, opts)
                values[i, k] = eval_I(problem, traj, psi=0.0)
            except NonConvergenceError:
                values[i, k] = np.nan
                failed[i, k] = True
    return ValueGrid(
        t_nodes=t_nodes,
        q_nodes=q_nodes,
        values=values,
        epsilon=epsilon,
        problem=problem,
        failed=failed,
    )


def hj_residual(grid: ValueGrid, problem: Optional[LiquidationProblem] = None) -> HJResidualReport:
    """Plug central differences of the grid into the Hamilton-Jacobi equation.

    The residual is reported both raw and normalized by the local scale of its
    terms, since the raw value spans orders of magnitude across the grid.
    """
    problem = problem or grid.problem
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


def check_structure(grid: ValueGrid, tol_scale: float = 1e-9) -> StructureReport:
    """Verify monotonicity in time and inventory, convexity in inventory, and
    the execution-cost lower bound, cell-wise with a tolerance scaled to the
    largest grid value."""
    th = grid.values
    problem = grid.problem
    tol = tol_scale * float(np.nanmax(np.abs(th))) if th.size else 0.0
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
        dq = np.diff(grid.q_nodes)
        if np.max(dq) - np.min(dq) > 1e-9 * np.max(dq):
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
    time resolution.
    """
    if not isinstance(problem.volume, ConstantVolume):
        raise ValueError("asymptotic comparison requires a constant volume curve")
    horizons = tuple(float(T) for T in horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    opts = opts or SolveOptions()
    tau_ref = horizons[0] / opts.n_steps

    values = []
    for T in horizons:
        n = max(opts.n_steps, math.ceil(T / tau_ref))
        probe = replace(problem, horizon=T, q0=q)
        probe_opts = replace(opts, n_steps=n)
        if q == 0.0:
            values.append(0.0)
            continue
        traj = newton_solve(probe, probe_opts)
        values.append(eval_I(probe, traj, psi=0.0))
    values = np.asarray(values)
    limit = theta_infinity(replace(problem, q0=q), q)
    return AsymptoticResult(
        horizons=horizons,
        values=values,
        limit=limit,
        gaps=values - limit,
    )
