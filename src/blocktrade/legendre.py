"""Legendre transform of the execution cost function.

The convex conjugate ``H(p) = sup_rho (rho * p - L(rho))`` maps a dual price
into the best trade-off achievable against the cost density L. Its derivative
returns the optimal participation rate at that dual price, which is what the
trading-curve solver consumes. Power-law costs get closed forms. Any other
cost goes through one bisection in the rate, run on the whole array at once:
the argmax solves L'(rho) = |p|, with L' a symmetric secant, so no smoothness
of L beyond convexity is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, wraps
from typing import Union

import numpy as np

from .market_model import CustomCost, ExecutionCostModel, PowerLawCost, _on_array

__all__ = [
    "PowerLawHamiltonian",
    "NumericHamiltonian",
    "Hamiltonian",
    "hamiltonian_of",
    "UnboundedTransformError",
    "SingularCurvatureError",
]

_SECANT_STEP = 1e-5
_BEND_STEP = 1e-4  # relative step of the difference of secant slopes that gives L''
_TINY = np.finfo(float).tiny  # a secant already at |p| here puts the argmax at 0
_HALVINGS = 54  # the root lies in (hi/2, hi], so 54 halvings of [0, hi] reach one ulp
_MAX_STEPS = 1074  # halvings of 1 down to the smallest positive double


class UnboundedTransformError(ValueError):
    """The transform does not peak: the slope of L stops growing (not superlinear)."""


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
            return _on_array(lambda a: np.full(a.shape, 1.0 / (2.0 * self.eta)), p)
        if self.phi > 1.0 and np.any(np.asarray(p) == 0.0):
            raise SingularCurvatureError(
                f"H'' is singular at p=0 for phi={self.phi} > 1, so the Newton path cannot "
                "start; power-law exponents above 1 are only supported through the closed forms"
            )
        return c * e * (e - 1.0) * np.abs(p) ** (e - 2.0)

    def inverse(self, x):
        """Inverse of the restriction of H to the nonnegative half-line."""
        if np.any(np.asarray(x) < 0):
            raise ValueError("x must be nonnegative")
        phi = self.phi
        scale = self.eta ** (1.0 / (1.0 + phi)) * (1.0 + phi) / phi ** (phi / (1.0 + phi))
        return scale * np.asarray(x, dtype=float) ** (phi / (1.0 + phi))


def _scalar_or_array(method):
    """Run a method written for float arrays on a scalar (giving a float) or any array."""

    @wraps(method)
    def wrapped(self, x):
        return _on_array(partial(method, self), x)

    return wrapped


@dataclass(frozen=True)
class NumericHamiltonian:
    """Transform computed by one bisection in the rate, on a whole array at once.

    The argmax of ``rho * |p| - L(rho)`` is the rate where the symmetric secant
    of L, nondecreasing for any convex L, reaches |p|. Each element's bracket
    moves from 1 by factors of 2, then takes ``_HALVINGS`` fixed halvings. For
    ``CustomCost`` the secant stays inside the sampled participation range. A
    root beyond the largest rate tried raises ``UnboundedTransformError`` if the
    secant stopped growing there (L is not superlinear), ``ValueError`` if not.
    """

    cost: ExecutionCostModel

    def _cost_slope(self, rho):
        h = _SECANT_STEP
        rise = self.cost(rho * (1.0 + h)) - self.cost(rho * (1.0 - h))
        return np.divide(rise, rho, out=np.zeros_like(rise), where=rho > 0) / (2.0 * h)

    @property
    def _cap(self):
        """Largest rate whose secant stays inside the sampled participation range."""
        bound = self.cost.sample_bound if isinstance(self.cost, CustomCost) else np.finfo(float).max
        return bound / (1.0 + 2.0 * _SECANT_STEP)

    def _root(self, f, target):
        """Smallest rho >= 0 with f(rho) >= target, elementwise, for nondecreasing f."""
        cap = self._cap
        x = np.full(target.shape, min(1.0, cap))
        fx = f(x)
        down = (fx >= target) & (target > 0)
        if down.any():  # the root is 0 where f reaches the target at the smallest normal rate
            zero = np.zeros_like(down)
            zero[down] = f(np.full(np.count_nonzero(down), _TINY)) >= target[down]
            target, down = np.where(zero, 0.0, target), down & ~zero
        for _ in range(_MAX_STEPS):
            move = np.where(down, fx >= target, fx < target)
            if np.any(move & ~down & (x >= cap)):
                at_cap, below_cap = f(np.array([cap, 0.5 * cap]))
                if at_cap <= below_cap:
                    raise UnboundedTransformError("cost slope stops growing: cost function is not superlinear")
                raise ValueError("transform argmax lies outside the sampled participation range")
            if not move.any():
                break
            x = np.where(move, np.where(down, 0.5 * x, np.minimum(2.0 * x, cap)), x)
            fx = f(x)
        lo, hi = np.zeros_like(x), np.where(down, 2.0 * x, x)
        for _ in range(_HALVINGS):
            mid = 0.5 * (lo + hi)
            below = f(mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return np.where(target > 0, hi, 0.0)

    @_scalar_or_array
    def value(self, p):
        rho = np.abs(self.slope(p))
        return rho * np.abs(p) - self.cost(rho)

    @_scalar_or_array
    def slope(self, p):
        """Optimal participation rate at dual price p: the rate where L' is |p|."""
        return np.sign(p) * self._root(self._cost_slope, np.abs(p))

    @_scalar_or_array
    def curvature(self, p):
        """H''(p) = 1 / L''(rho) at rho = H'(p), L'' a central difference of the secant slope."""
        rho = np.abs(self.slope(p))
        hi, lo = np.minimum(rho * (1.0 + _BEND_STEP), self._cap), rho * (1.0 - _BEND_STEP)
        with np.errstate(divide="ignore", invalid="ignore"):  # rho = 0 is handled below
            out = np.asarray((hi - lo) / (self._cost_slope(hi) - self._cost_slope(lo)))
        at_zero = rho == 0.0  # there, difference H' itself across p
        if at_zero.any():
            pz = p[at_zero]
            h = 1e-6 * np.maximum(1.0, np.abs(pz))
            up, down = self.slope(np.array([pz + h, pz - h]))
            out[at_zero] = (up - down) / (2.0 * h)
        return out

    @_scalar_or_array
    def inverse(self, x):
        """Inverse of H on the nonnegative half-line: L' at the rate where H reaches x."""
        if np.any(x < 0):
            raise ValueError("x must be nonnegative")
        # rho * L'(rho) - L(rho) is H at p = L'(rho), nondecreasing in rho
        rho = self._root(lambda r: r * self._cost_slope(r) - self.cost(r), x)
        return self._cost_slope(rho)


Hamiltonian = Union[PowerLawHamiltonian, NumericHamiltonian]


def hamiltonian_of(cost: ExecutionCostModel) -> Hamiltonian:
    """Build the transform for a cost model, closed-form where possible."""
    if isinstance(cost, PowerLawCost):
        return PowerLawHamiltonian(eta=cost.eta, phi=cost.phi)
    return NumericHamiltonian(cost=cost)

