"""Market and problem inputs for optimal liquidation.

Holds the execution-cost function, the permanent-impact curve, the market
volume curve and the risk parameters, plus sampling-based validation of the
modelling hypotheses (symmetry, convexity, monotonicity) that the solver and
the pricing formulas rely on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad

__all__ = [
    "PowerLawCost",
    "CustomCost",
    "ExecutionCostModel",
    "PowerLawImpact",
    "CustomImpact",
    "PermanentImpactModel",
    "ConstantVolume",
    "PiecewiseLinearVolume",
    "VolumeCurve",
    "MarketParams",
    "LiquidationProblem",
    "Check",
    "ValidationReport",
    "validate",
]


def _elementwise(fn, x):
    """Apply a scalar function to a scalar (giving a float) or to every element
    of an array (giving an array of the same shape)."""
    if not isinstance(x, float):  # plain floats skip numpy: inner solvers call per point
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return float(fn(float(x)))


@dataclass(frozen=True)
class PowerLawCost:
    """Execution cost density ``eta * |rho| ** (1 + phi)`` of the participation rate."""

    eta: float
    phi: float

    def __call__(self, rho):
        return self.eta * np.abs(rho) ** (1.0 + self.phi)


@dataclass(frozen=True)
class CustomCost:
    """User-supplied execution cost density.

    ``fn`` must be even, strictly convex, superlinear and zero at zero; the
    hypotheses are checked by sampling (see :func:`validate`). Evaluation is
    restricted to ``|rho| <= sample_bound``, element by element on arrays.
    """

    fn: Callable[[float], float]
    sample_bound: float

    def __call__(self, rho):
        return _elementwise(self._in_range, rho)

    def _in_range(self, rho: float) -> float:
        if abs(rho) > self.sample_bound:
            raise ValueError(
                f"participation rate {rho!r} outside sampled range "
                f"[-{self.sample_bound}, {self.sample_bound}]"
            )
        return self.fn(rho)


ExecutionCostModel = Union[PowerLawCost, CustomCost]


@dataclass(frozen=True)
class PowerLawImpact:
    """Permanent price impact ``F(q) = k * sgn(q) * |q| ** beta``.

    ``beta <= 1`` keeps F concave on the positive axis, i.e. the per-share
    impact does not grow as the position already sold grows.
    """

    k: float
    beta: float

    def __call__(self, q):
        return self.k * np.sign(q) * np.abs(q) ** self.beta

    def integral(self, q: float) -> float:
        """Integral of F over [0, q]: the permanent-impact cost of selling q shares."""
        if q < 0:
            raise ValueError("q must be nonnegative")
        return self.k * q ** (1.0 + self.beta) / (1.0 + self.beta)


@dataclass(frozen=True)
class CustomImpact:
    """User-supplied permanent-impact curve F (odd, nondecreasing, concave on R+)."""

    fn: Callable[[float], float]

    def __call__(self, q):
        return _elementwise(self.fn, q)

    def integral(self, q: float) -> float:
        if q < 0:
            raise ValueError("q must be nonnegative")
        if q == 0:
            return 0.0
        value, _ = quad(self.fn, 0.0, q, epsrel=1e-10, limit=200)
        return value


PermanentImpactModel = Union[PowerLawImpact, CustomImpact]


@dataclass(frozen=True)
class ConstantVolume:
    """Constant market volume curve (shares per unit time)."""

    rate: float

    @property
    def lo(self) -> float:
        return self.rate

    @property
    def hi(self) -> float:
        return self.rate

    @property
    def end_time(self) -> float:
        return np.inf

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        values = np.full(t.shape, self.rate)
        return values if values.ndim else float(values)


@dataclass(frozen=True)
class PiecewiseLinearVolume:
    """Volume curve interpolated linearly between (time, volume) knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        times = [t for t, _ in self.knots]
        if times[0] != 0.0:
            raise ValueError("first knot time must be 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")

    @classmethod
    def from_csv(cls, path) -> "PiecewiseLinearVolume":
        """Read knots from a CSV file with header ``time,volume``."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["time", "volume"]:
                raise ValueError(f"{path}: expected header 'time,volume'")
            knots = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected two columns")
                try:
                    knots.append((float(row[0]), float(row[1])))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(tuple(knots))

    @property
    def lo(self) -> float:
        return min(v for _, v in self.knots)

    @property
    def hi(self) -> float:
        return max(v for _, v in self.knots)

    @property
    def end_time(self) -> float:
        return self.knots[-1][0]

    def __call__(self, t):
        times = np.array([k[0] for k in self.knots])
        vols = np.array([k[1] for k in self.knots])
        t = np.asarray(t, dtype=float)
        values = np.interp(t, times, vols)
        return values if values.ndim else float(values)


VolumeCurve = Union[ConstantVolume, PiecewiseLinearVolume]


@dataclass(frozen=True)
class MarketParams:
    """Stock-level parameters.

    s0     initial price (currency per share)
    sigma  price volatility (currency per share per sqrt(time))
    gamma  absolute risk aversion (1 per currency)
    psi    proportional execution cost per share (spread, fees)
    """

    s0: float
    sigma: float
    gamma: float
    psi: float = 0.0


@dataclass(frozen=True)
class LiquidationProblem:
    """A full liquidation problem: sell q0 shares over [0, horizon]."""

    q0: float
    horizon: float
    market: MarketParams
    volume: VolumeCurve
    cost: ExecutionCostModel
    impact: PermanentImpactModel


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status:4s} {c.name}{suffix}")
        return "\n".join(lines)


def _cost_sample_grid(cost: ExecutionCostModel) -> np.ndarray:
    bound = cost.sample_bound if isinstance(cost, CustomCost) else 10.0
    return np.linspace(-bound, bound, 201)


def _superlinearity_points(cost: ExecutionCostModel) -> list[float]:
    points = [10.0, 100.0, 1000.0]
    if isinstance(cost, CustomCost) and cost.sample_bound < points[-1]:
        b = cost.sample_bound
        points = [b * 1e-2, b * 1e-1, b]
    return points


def _cost_checks(cost: ExecutionCostModel) -> list[Check]:
    checks = []
    if isinstance(cost, PowerLawCost):
        eta_ok = 0 < cost.eta < math.inf
        phi_ok = 0 < cost.phi < math.inf
        checks.append(Check("cost.eta", eta_ok, f"eta={cost.eta}"))
        checks.append(Check("cost.phi", phi_ok, f"phi={cost.phi}"))
        if not (eta_ok and phi_ok):
            return checks
    grid = _cost_sample_grid(cost)
    values = cost(grid)

    checks.append(Check("cost.zero_at_zero", abs(cost(0.0)) <= 1e-300))

    sym_err = np.max(np.abs(values - values[::-1]))
    sym_tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    checks.append(Check("cost.even", sym_err <= sym_tol, f"max asymmetry {sym_err:.3g}"))

    pos = values[grid > 0]
    checks.append(Check("cost.increasing", bool(np.all(np.diff(pos) > 0))))

    pts = _superlinearity_points(cost)
    slopes = (cost(np.array(pts)) / pts).tolist()
    checks.append(
        Check(
            "cost.superlinear",
            slopes[0] < slopes[1] < slopes[2],
            f"L(r)/r at {pts}: {slopes}",
        )
    )

    # midpoint strict convexity over all pairs of a thinned grid
    coarse = grid[::5]
    cv = cost(coarse)
    i, j = np.triu_indices(len(coarse), k=1)
    mid = cost(0.5 * (coarse[i] + coarse[j]))
    checks.append(Check("cost.strictly_convex", bool(np.all(mid < 0.5 * (cv[i] + cv[j])))))
    return checks


def _impact_checks(impact: PermanentImpactModel, q_scale: float) -> list[Check]:
    checks = []
    if isinstance(impact, PowerLawImpact):
        k_ok = 0 <= impact.k < math.inf
        beta_ok = 0 < impact.beta <= 1
        checks.append(Check("impact.k", k_ok, f"k={impact.k}"))
        checks.append(Check("impact.beta", beta_ok, f"beta={impact.beta}"))
        if not (k_ok and beta_ok):
            return checks
    span = max(q_scale, 1.0)
    grid = np.linspace(0.0, span, 201)
    values = impact(grid)

    checks.append(Check("impact.zero_at_zero", abs(impact(0.0)) <= 1e-300))

    odd_pts = grid[1::20]
    odd_err = float(np.max(np.abs(impact(odd_pts) + impact(-odd_pts))))
    odd_tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    checks.append(Check("impact.odd", odd_err <= odd_tol, f"max |F(x)+F(-x)| {odd_err:.3g}"))

    mono_tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    checks.append(
        Check("impact.nondecreasing", bool(np.all(np.diff(values) >= -mono_tol)))
    )

    # midpoint concavity on the positive axis (equivalent to nonincreasing slope)
    second = values[:-2] - 2.0 * values[1:-1] + values[2:]
    checks.append(
        Check("impact.concave", bool(np.all(second <= mono_tol)))
    )
    return checks


def _volume_checks(volume: VolumeCurve, horizon: float) -> list[Check]:
    checks = []
    if isinstance(volume, ConstantVolume):
        checks.append(Check("volume.positive", volume.rate > 0, f"rate={volume.rate}"))
        checks.append(Check("volume.covers_horizon", True))
    else:
        checks.append(
            Check("volume.positive", all(v > 0 for _, v in volume.knots))
        )
        checks.append(
            Check(
                "volume.covers_horizon",
                volume.end_time >= horizon,
                f"last knot at {volume.end_time}, horizon {horizon}",
            )
        )
    return checks


def validate(problem: LiquidationProblem) -> ValidationReport:
    """Check every modelling hypothesis; collect results instead of raising.

    A q0 of exactly zero is accepted as the degenerate empty liquidation
    (solver and pricing short-circuit it); negative inventories fail, and so
    does every infinite or NaN parameter.
    """
    m = problem.market
    q0_ok = 0 <= problem.q0 < math.inf
    checks = [
        Check("problem.q0", q0_ok, f"q0={problem.q0}"),
        Check("problem.horizon", 0 < problem.horizon < math.inf, f"horizon={problem.horizon}"),
        Check("market.s0", 0 < m.s0 < math.inf, f"s0={m.s0}"),
        Check("market.sigma", 0 < m.sigma < math.inf, f"sigma={m.sigma}"),
        Check("market.gamma", 0 < m.gamma < math.inf, f"gamma={m.gamma}"),
        Check("market.psi", 0 <= m.psi < math.inf, f"psi={m.psi}"),
    ]
    checks.extend(_cost_checks(problem.cost))
    # a non-finite q0 has failed above; sample the impact on the unit range instead
    checks.extend(_impact_checks(problem.impact, problem.q0 if q0_ok else 0.0))
    checks.extend(_volume_checks(problem.volume, problem.horizon))
    return ValidationReport(tuple(checks))
