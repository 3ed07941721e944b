"""Legendre transform of the execution cost function.

The convex conjugate ``H(p) = sup_rho (rho * p - L(rho))`` maps a dual price
into the best trade-off achievable against the cost density L. Its derivative
returns the optimal participation rate at that dual price, which is what the
trading-curve solver consumes. Power-law costs get closed forms; anything else
goes through a derivative-free inner maximization (golden section), since no
smoothness of L beyond convexity is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .market_model import CustomCost, ExecutionCostModel, PowerLawCost, _elementwise

__all__ = [
    "PowerLawHamiltonian",
    "NumericHamiltonian",
    "Hamiltonian",
    "hamiltonian_of",
    "UnboundedTransformError",
    "SingularCurvatureError",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_DOUBLINGS = 60


class UnboundedTransformError(ValueError):
    """The inner maximization does not peak: L is not superlinear."""


class SingularCurvatureError(ValueError):
    """H'' blows up at p = 0 (power-law cost with phi > 1)."""


@dataclass(frozen=True)
class PowerLawHamiltonian:
    """Closed-form transform of ``L(rho) = eta * |rho| ** (1 + phi)``."""

    eta: float
    phi: float

    @cached_property
    def coefficient(self) -> float:
        return (
            self.phi
            / (1.0 + self.phi) ** (1.0 + 1.0 / self.phi)
            * self.eta ** (-1.0 / self.phi)
        )

    @cached_property
    def exponent(self) -> float:
        return 1.0 + 1.0 / self.phi

    def value(self, p):
        return self.coefficient * np.abs(p) ** self.exponent

    def slope(self, p):
        """Optimal participation rate at dual price p (odd, increasing)."""
        c, e = self.coefficient, self.exponent
        return c * e * np.sign(p) * np.abs(p) ** (e - 1.0)

    def curvature(self, p):
        c, e = self.coefficient, self.exponent
        if self.phi == 1.0:
            out = np.full(np.shape(p), 1.0 / (2.0 * self.eta))
            return out if out.ndim else float(out)
        if self.phi > 1.0 and np.any(np.asarray(p) == 0.0):
            raise SingularCurvatureError(
                f"H'' is singular at p=0 for phi={self.phi} > 1"
            )
        return c * e * (e - 1.0) * np.abs(p) ** (e - 2.0)

    def inverse(self, x):
        """Inverse of the restriction of H to the nonnegative half-line."""
        if np.any(np.asarray(x) < 0):
            raise ValueError("x must be nonnegative")
        phi = self.phi
        scale = self.eta ** (1.0 / (1.0 + phi)) * (1.0 + phi) / phi ** (phi / (1.0 + phi))
        return scale * np.asarray(x, dtype=float) ** (phi / (1.0 + phi))


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class NumericHamiltonian:
    """Transform computed by bracketed golden-section maximization.

    Takes a scalar or an array, maximizing once per element. The bracket
    starts at ``bracket_init`` and doubles until the objective turns over;
    more than 60 doublings means the transform is unbounded (L fails
    superlinearity). For ``CustomCost`` the bracket cannot leave the sampled
    participation range.
    """

    cost: ExecutionCostModel
    bracket_init: float = 1.0
    rho_tol: float = 1e-12

    def _max_rho(self) -> float:
        if isinstance(self.cost, CustomCost):
            return self.cost.sample_bound
        return math.inf

    def _maximize(self, p_abs: float) -> tuple[float, float]:
        # evenness of L: for p >= 0 the argmax of rho*p - L(rho) is at rho >= 0
        cost = self.cost

        def g(rho):
            return rho * p_abs - cost(rho)

        cap = self._max_rho()
        b = min(self.bracket_init, cap)
        doublings = 0
        while 2.0 * b <= cap and g(2.0 * b) >= g(b):
            b *= 2.0
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                raise UnboundedTransformError(
                    "transform bracket grew past 2**60 doublings: "
                    "cost function is not superlinear"
                )
        hi = 2.0 * b
        if hi > cap:
            if g(cap) > g(0.5 * cap):
                raise ValueError(
                    "transform argmax lies outside the sampled participation range"
                )
            hi = cap
        rho_star = _golden_max(g, 0.0, hi, self.rho_tol)
        return rho_star, g(rho_star)

    def _value(self, p: float) -> float:
        return self._maximize(abs(p))[1]

    def _slope(self, p: float) -> float:
        rho, _ = self._maximize(abs(p))
        return math.copysign(rho, p) if p != 0.0 else 0.0

    def _curvature(self, p: float) -> float:
        h = 1e-6 * max(1.0, abs(p))
        return (self._slope(p + h) - self._slope(p - h)) / (2.0 * h)

    def _inverse(self, x: float) -> float:
        if x < 0:
            raise ValueError("x must be nonnegative")
        if x == 0.0:
            return 0.0
        hi = 1.0
        doublings = 0
        while self._value(hi) < x:
            hi *= 2.0
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                raise UnboundedTransformError("could not bracket the inverse")
        lo = 0.0
        tol = 1e-12 * max(1.0, x)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self._value(mid) < x:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def value(self, p):
        return _elementwise(self._value, p)

    def slope(self, p):
        return _elementwise(self._slope, p)

    def curvature(self, p):
        return _elementwise(self._curvature, p)

    def inverse(self, x):
        return _elementwise(self._inverse, x)


Hamiltonian = Union[PowerLawHamiltonian, NumericHamiltonian]


def hamiltonian_of(cost: ExecutionCostModel) -> Hamiltonian:
    """Build the transform for a cost model, closed-form where possible."""
    if isinstance(cost, PowerLawCost):
        return PowerLawHamiltonian(eta=cost.eta, phi=cost.phi)
    return NumericHamiltonian(cost=cost)

