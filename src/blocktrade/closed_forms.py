"""Closed-form trading curves and the time-unconstrained liquidation value.

Two execution-cost families admit explicit optimal curves under a constant
volume curve: the quadratic (Almgren-Chriss) case, whose curve is a ratio of
hyperbolic sines, and the super-quadratic case for small inventories, whose
curve is a power of a clipped affine function of time and dies out before the
horizon. Both serve as oracles for the Newton solver. The third closed form
is the infinite-horizon liquidation value, an integral of the inverted
Legendre transform, explicit for power-law costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .legendre import hamiltonian_of
from .market_model import ConstantVolume, LiquidationProblem, PowerLawCost

__all__ = [
    "ApplicabilityError",
    "SuperQuadraticParams",
    "ac_trajectory",
    "ac_speed",
    "superquadratic_trajectory",
    "theta_infinity",
    "theta_infinity_quadrature",
]


class ApplicabilityError(ValueError):
    """Inputs fall outside the regime where the closed form is valid."""


def _require_ac(problem: LiquidationProblem) -> tuple[float, float]:
    if not isinstance(problem.cost, PowerLawCost) or problem.cost.phi != 1.0:
        raise ValueError("closed form requires a quadratic cost (power law with phi = 1)")
    if not isinstance(problem.volume, ConstantVolume):
        raise ValueError("closed form requires a constant volume curve")
    m = problem.market
    kappa = math.sqrt(m.gamma * m.sigma**2 * problem.volume.rate / (2.0 * problem.cost.eta))
    return kappa, problem.horizon


def ac_trajectory(problem: LiquidationProblem, t):
    """Optimal inventory under quadratic costs and constant volume."""
    kappa, horizon = _require_ac(problem)
    t = np.asarray(t, dtype=float)
    values = problem.q0 * np.sinh(kappa * (horizon - t)) / np.sinh(kappa * horizon)
    return values if values.ndim else float(values)


def ac_speed(problem: LiquidationProblem, t):
    """Selling speed companion to :func:`ac_trajectory`."""
    kappa, horizon = _require_ac(problem)
    t = np.asarray(t, dtype=float)
    values = (
        problem.q0 * kappa * np.cosh(kappa * (horizon - t)) / np.sinh(kappa * horizon)
    )
    return values if values.ndim else float(values)


@dataclass(frozen=True)
class SuperQuadraticParams:
    """Inputs of the small-inventory closed form for costs eta * rho ** (2 + delta)."""

    eta: float
    delta: float
    q0: float
    horizon: float
    volume_rate: float
    gamma: float
    sigma: float

    def applicability_bound(self) -> float:
        """Largest starting inventory for which the closed form is claimed."""
        d, T, V = self.delta, self.horizon, self.volume_rate
        risk = self.gamma * self.sigma**2 / (2.0 * self.eta * (1.0 + d))
        return (
            (d / (2.0 + d)) ** ((2.0 + d) / d)
            * T ** ((2.0 + d) / d)
            * V ** ((1.0 + d) / d)
            * risk ** (1.0 / d)
        )

    def decay_rate(self) -> float:
        """Slope of the curve in the q ** (delta / (2 + delta)) coordinate."""
        d, V = self.delta, self.volume_rate
        risk = self.gamma * self.sigma**2 / (2.0 * self.eta * (1.0 + d))
        return (d / (2.0 + d)) * V ** ((1.0 + d) / (2.0 + d)) * risk ** (1.0 / (2.0 + d))

    def extinction_time(self) -> float:
        """Time at which the inventory hits zero, independent of the horizon."""
        d = self.delta
        return self.q0 ** (d / (2.0 + d)) / self.decay_rate()


def superquadratic_trajectory(params: SuperQuadraticParams, t):
    """Optimal inventory for super-quadratic costs and small starting inventory."""
    bound = params.applicability_bound()
    if params.q0 > bound * (1.0 + 1e-12):
        raise ApplicabilityError(
            f"q0={params.q0} exceeds the small-inventory bound {bound}"
        )
    d = params.delta
    t = np.asarray(t, dtype=float)
    base = params.q0 ** (d / (2.0 + d)) - params.decay_rate() * t
    values = np.clip(base, 0.0, None) ** ((2.0 + d) / d)
    return values if values.ndim else float(values)


def _theta_inf_constant(eta: float, phi: float) -> float:
    return (
        eta ** (1.0 / (1.0 + phi))
        / phi ** (phi / (1.0 + phi))
        * (1.0 + phi) ** 2
        / (1.0 + 3.0 * phi)
    )


def theta_infinity(problem: LiquidationProblem, q: float) -> float:
    """Liquidation value with no time constraint (constant volume only).

    Closed form for power-law costs, adaptive quadrature of the inverted
    transform otherwise. Refused for time-varying volume curves: the limit is
    only established for a constant curve, and a mean-volume substitute would
    be an unsupported extrapolation.
    """
    if not isinstance(problem.volume, ConstantVolume):
        raise ValueError("infinite-horizon value requires a constant volume curve")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q == 0:
        return 0.0
    m = problem.market
    scale = m.gamma * m.sigma**2 / (2.0 * problem.volume.rate)
    if isinstance(problem.cost, PowerLawCost):
        eta, phi = problem.cost.eta, problem.cost.phi
        return _theta_inf_constant(eta, phi) * scale ** (phi / (1.0 + phi)) * q ** (
            (1.0 + 3.0 * phi) / (1.0 + phi)
        )
    return theta_infinity_quadrature(problem, q)


def theta_infinity_quadrature(problem: LiquidationProblem, q: float) -> float:
    """Quadrature route to the same value; kept as an independent cross-check."""
    if not isinstance(problem.volume, ConstantVolume):
        raise ValueError("infinite-horizon value requires a constant volume curve")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q == 0:
        return 0.0
    m = problem.market
    scale = m.gamma * m.sigma**2 / (2.0 * problem.volume.rate)
    ham = hamiltonian_of(problem.cost)
    value, _ = quad(lambda x: ham.inverse(scale * x * x), 0.0, q, epsrel=1e-9, limit=200)
    return value
