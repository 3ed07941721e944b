"""Closed-form trading curves and the time-unconstrained liquidation value.

Two execution-cost families admit explicit optimal curves under a constant
volume curve: the quadratic (Almgren-Chriss) case, a ratio of hyperbolic sines
(a straight line where gamma * sigma**2 underflows to 0), and the super-quadratic
case for small inventories, a power of a clipped affine function of time that dies
out before the horizon. Both are oracles for the Newton solver. The third is the
infinite-horizon value: explicit for power-law costs, and for any cost the integral
of H^-1 from L alone (Beltrami identity) by ``market_model._integral``'s tanh-sinh rule.
"""

from __future__ import annotations

import math

import numpy as np

from .legendre import _cost_slope, _root
from .market_model import ConstantVolume, LiquidationProblem, PowerLawCost, _check_inventory, _integral, _on_array

__all__ = [
    "ApplicabilityError",
    "ac_trajectory",
    "ac_speed",
    "superquadratic_extinction_time",
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


def _ac_curve(q0, kappa_s, x, out=None, scratch=None, shift=0.0):
    """q0 * sinh(k * (1 - x)) / sinh(k) at x = t / S, for each k = kappa * S in kappa_s (and its own q0, if q0 is
    an array of kappa_s's shape): the Almgren-Chriss curves.

    Taken as q0 * e^(-k x) * expm1(2 k (x - 1)) / expm1(-2 k), which neither
    overflows nor loses the curve for any k > 0: the two exponents are outer
    products of kappa_s and x, one exp and one expm1, the second through
    ``scratch`` (made if None), and the result, shaped kappa_s.shape + x.shape,
    goes to ``out`` (made if None). ``shift`` = 2 adds 2 to the expm1 term, which gives
    -q0 * cosh(k * (1 - x)) / sinh(k).
    """
    flat = np.asarray(kappa_s) == 0  # gamma * sigma**2 underflowed: the k -> 0 limits, q0 * (1 - x) or -inf with shift
    kappa_s = np.where(flat, 1.0, kappa_s)
    out = np.empty(flat.shape + np.shape(x)) if out is None else out
    out = np.exp(np.multiply.outer(-kappa_s, x, out=out), out=out)
    tail = np.expm1(np.multiply.outer(2.0 * kappa_s, np.subtract(x, 1.0), out=scratch), out=scratch)
    if shift:
        tail += shift
    out *= tail
    scale = q0 / np.expm1(-2.0 * kappa_s)
    out *= np.reshape(scale, scale.shape + (1,) * np.ndim(x))
    if flat.any():  # each flat row takes its own q0
        out[flat] = -np.inf if shift else np.multiply.outer(np.broadcast_to(q0, flat.shape)[flat], 1.0 - x)
    return out


def ac_trajectory(problem: LiquidationProblem, t):
    """Optimal inventory under quadratic costs and constant volume."""
    kappa, horizon = _require_ac(problem)
    return _on_array(lambda a: _ac_curve(problem.q0, kappa * horizon, a / horizon), t)


def ac_speed(problem: LiquidationProblem, t):
    """Selling speed companion to :func:`ac_trajectory`."""
    kappa, horizon = _require_ac(problem)
    if kappa == 0.0:  # gamma * sigma**2 underflowed: the limit, the straight line's speed (else -0 * -inf)
        return _on_array(lambda a: np.full(a.shape, problem.q0 / horizon), t)
    return _on_array(lambda a: -kappa * _ac_curve(problem.q0, kappa * horizon, a / horizon, shift=2.0), t)


def _superquadratic(problem: LiquidationProblem) -> tuple[float, float]:
    """delta = phi - 1 of the cost eta * rho ** (2 + delta), and the rate at which q ** (delta / (2 + delta)) falls."""
    if not isinstance(problem.cost, PowerLawCost) or not problem.cost.phi > 1.0:
        raise ValueError("closed form requires a super-quadratic cost (power law with phi > 1)")
    if not isinstance(problem.volume, ConstantVolume):
        raise ValueError("closed form requires a constant volume curve")
    d, V, m = problem.cost.phi - 1.0, problem.volume.rate, problem.market
    risk = m.gamma * m.sigma**2 / (2.0 * problem.cost.eta * (1.0 + d))
    return d, (d / (2.0 + d)) * V ** ((1.0 + d) / (2.0 + d)) * risk ** (1.0 / (2.0 + d))


def superquadratic_extinction_time(problem: LiquidationProblem) -> float:
    """Time at which the small-inventory curve hits zero, independent of the horizon."""
    d, rate = _superquadratic(problem)
    return problem.q0 ** (d / (2.0 + d)) / rate


def superquadratic_trajectory(problem: LiquidationProblem, t):
    """Optimal inventory for super-quadratic costs and a small starting inventory: one that dies out by the horizon."""
    d, rate = _superquadratic(problem)
    bound = (rate * problem.horizon) ** ((2.0 + d) / d)  # the q0 whose curve dies out at the horizon
    if problem.q0 > bound * (1.0 + 1e-12):
        raise ApplicabilityError(f"q0={problem.q0} exceeds the small-inventory bound {bound}")
    start = problem.q0 ** (d / (2.0 + d))
    return _on_array(lambda a: np.clip(start - rate * a, 0.0, None) ** ((2.0 + d) / d), t)


def _theta_inf_constant(eta: float, phi: float) -> float:
    return (
        eta ** (1.0 / (1.0 + phi))
        / phi ** (phi / (1.0 + phi))
        * (1.0 + phi) ** 2
        / (1.0 + 3.0 * phi)
    )


def _risk_scale(problem: LiquidationProblem) -> float:
    """gamma * sigma**2 / (2 V) of the infinite-horizon value, for a constant volume V only.

    Refused for time-varying volume curves: the limit is only established for
    a constant curve, and a mean-volume substitute would be an unsupported
    extrapolation.
    """
    if not isinstance(problem.volume, ConstantVolume):
        raise ValueError("infinite-horizon value requires a constant volume curve")
    _check_inventory(problem.q0)  # a problem built in code may skip ``validate``
    m = problem.market
    return m.gamma * m.sigma**2 / (2.0 * problem.volume.rate)


def theta_infinity(problem: LiquidationProblem) -> float:
    """Liquidation value of the block q0 with no time constraint (constant volume only).

    Closed form for power-law costs, quadrature of the Beltrami price otherwise.
    """
    if not isinstance(problem.cost, PowerLawCost):
        return theta_infinity_quadrature(problem)
    scale = _risk_scale(problem)
    eta, phi = problem.cost.eta, problem.cost.phi
    return _theta_inf_constant(eta, phi) * scale ** (phi / (1.0 + phi)) * problem.q0 ** (
        (1.0 + 3.0 * phi) / (1.0 + phi)
    )


def _beltrami_price(cost, x):
    """H^-1(x) for x >= 0: the secant L' at the rate where rho L'(rho) - L(rho), H at p = L'(rho), reaches x."""
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be nonnegative")
    beltrami = lambda r: r * _cost_slope(cost, r) - cost(r)  # nondecreasing in r, as _root needs
    return _on_array(lambda a: _cost_slope(cost, _root(cost, beltrami, a)), x)


def theta_infinity_quadrature(problem: LiquidationProblem) -> float:
    """Quadrature route to the same value, from L alone: an independent cross-check of the closed form."""
    scale = _risk_scale(problem)
    return _integral(lambda x: _beltrami_price(problem.cost, scale * x * x), problem.q0)
