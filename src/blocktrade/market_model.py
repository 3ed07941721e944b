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
    "QuadratureError",
    "ValidationReport",
    "validate",
]

_QUAD_RTOL, _QUAD_HALVINGS = 1e-10, 6  # _integral: two levels' relative agreement, and its halvings of the step


def _on_array(fn, x):
    """Apply an array function to x as a float array; a scalar input gives a float."""
    out = fn(np.asarray(x, dtype=float))
    return out if np.ndim(out) else float(out)


def _elementwise(fn, x):
    """Apply a scalar function to every element of x, with the shape rule of :func:`_on_array`."""
    return _on_array(
        lambda a: np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape), x
    )


def _check_inventory(q):
    """Raise a ValueError unless the inventory q is nonnegative and finite."""
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be nonnegative and finite, got {q}")


def _inventory_fits(q) -> bool:
    """Whether q >= 0 and q * q is finite: the objective squares the inventory, and q ** (1 + beta) <= q * q past 1."""
    return 0.0 <= q and q * q < math.inf


def _premium_fits(impact: PowerLawImpact, q) -> bool:
    """Whether the PMI at the inventory q, and 1e4 times it (in basis points), is finite."""
    return 1e4 * impact.integral(q) < math.inf


class QuadratureError(ValueError):
    """The last two levels of the tanh-sinh rule still disagree after its last halving of the step."""


def _integral(f, q):
    """Integral of the array function f over [0, q] by the tanh-sinh rule of Takahasi & Mori (Publ. RIMS 9, 1974)."""
    _check_inventory(q)
    h, t, total, value = 0.125, np.arange(-25, 26) / 8, 0.0, math.nan  # level 0: 51 nodes, |t| <= 25/8
    for _ in range(_QUAD_HALVINGS + 1):
        u = np.exp(-math.pi * np.sinh(t))  # node q / (1 + u), its weight q pi cosh(t) u / (1 + u)**2
        total += np.dot(f(q / (1.0 + u)), np.cosh(t) * u / (1.0 + u) ** 2)
        last, value = value, float(math.pi * q * h * total)
        if abs(value - last) <= _QUAD_RTOL * abs(value):
            return value
        h, t = 0.5 * h, np.arange(0.5 * h - 3.125, 3.125, h)  # the next level's new nodes, all in one call of f
    raise QuadratureError(f"tanh-sinh levels of steps {4 * h} and {2 * h} differ by {value - last:.3g}, at {value}")


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
        rho = np.asarray(rho, dtype=float)
        outside = rho[np.abs(rho) > self.sample_bound]
        if outside.size:
            raise ValueError(
                f"participation rate {float(outside[0])!r} outside sampled range "
                f"[-{self.sample_bound}, {self.sample_bound}]"
            )
        return _elementwise(self.fn, rho)


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
        _check_inventory(q)
        return self.k * q ** (1.0 + self.beta) / (1.0 + self.beta)


@dataclass(frozen=True)
class CustomImpact:
    """User-supplied permanent-impact curve F (odd, nondecreasing, concave on R+)."""

    fn: Callable[[float], float]

    def __call__(self, q):
        return _elementwise(self.fn, q)

    def integral(self, q: float) -> float:
        return _integral(self, q)


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
        return _on_array(lambda a: np.full(a.shape, self.rate), t)


@dataclass(frozen=True)
class PiecewiseLinearVolume:
    """Volume curve interpolated linearly between (time, volume) knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        if not np.isfinite(self.knots).all():
            raise ValueError("knot times and volumes must be finite")
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
        return _on_array(lambda a: np.interp(a, times, vols), t)


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
    """One named check of ``validate``: whether it passed, and why not."""
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """The checks ``validate`` ran on a problem; ``ok`` when every one passed."""
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
        top = _superlinearity_points(cost)[-1]  # the largest rate sampled below
        # the samples reach eta * top ** (1 + phi), and the transform's coefficient holds eta ** (-1 / phi)
        with np.errstate(over="ignore"):
            phi_ok = bool(0 < cost.phi < math.inf and np.power(top, 1.0 + cost.phi) < math.inf)
            eta_ok = 0 < cost.eta < math.inf and not (
                phi_ok and (np.power(cost.eta, -1.0 / cost.phi) == math.inf or cost(top) == math.inf)
            )
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
    span = max(q_scale, 1.0)
    if isinstance(impact, PowerLawImpact):
        beta_ok = 0 < impact.beta <= 1
        with np.errstate(over="ignore"):  # the samples reach k * span ** beta, and their second differences twice that
            k_ok = bool(0 <= impact.k < math.inf and not (beta_ok and 2.0 * impact(span) == math.inf))
        if beta_ok:  # q_scale * q_scale is finite, and so is q_scale ** (1 + beta)
            k_ok = k_ok and _premium_fits(impact, q_scale)
        checks.append(Check("impact.k", k_ok, f"k={impact.k}"))
        checks.append(Check("impact.beta", beta_ok, f"beta={impact.beta}"))
        if not (k_ok and beta_ok):
            return checks
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
    lo, hi, end = volume.lo, volume.hi, volume.end_time
    return [
        Check("volume.positive", 0 < lo and hi < math.inf, f"volume in [{lo}, {hi}]"),
        Check("volume.covers_horizon", end >= horizon, f"ends at {end}, horizon {horizon}"),
    ]


def validate(problem: LiquidationProblem) -> ValidationReport:
    """Check every modelling hypothesis; collect results instead of raising.

    A q0 of exactly zero is accepted as the degenerate empty liquidation
    (solver and pricing short-circuit it); negative inventories fail, and so
    does every infinite or NaN parameter, a q0 whose square overflows, an s0
    whose mark-to-market value q0 * s0 does, a psi whose LEC in basis points,
    1e4 * psi * q0, does, and a power-law impact whose PMI at q0, or 1e4 times
    it, does.
    """
    m = problem.market
    q0_ok = _inventory_fits(problem.q0)
    q0 = problem.q0 if q0_ok else 0.0  # a q0 that fails is not multiplied below, and the impact is sampled on [0, 1]
    checks = [
        Check("problem.q0", q0_ok, f"q0={problem.q0}"),
        Check("problem.horizon", 0 < problem.horizon < math.inf, f"horizon={problem.horizon}"),
        Check("market.s0", 0 < m.s0 < math.inf and q0 * m.s0 < math.inf, f"s0={m.s0}"),
        Check("market.sigma", 0 < m.sigma < math.inf, f"sigma={m.sigma}"),
        Check("market.gamma", 0 < m.gamma < math.inf, f"gamma={m.gamma}"),
        Check("market.psi", 0 <= m.psi < math.inf and 1e4 * (m.psi * q0) < math.inf, f"psi={m.psi}"),
    ]
    checks.extend(_cost_checks(problem.cost))
    checks.extend(_impact_checks(problem.impact, q0))
    checks.extend(_volume_checks(problem.volume, problem.horizon))
    return ValidationReport(tuple(checks))
