"""Block-trade prices and the risk-liquidity premium decomposition.

A block of q shares is worth its mark-to-market value minus a premium with
three parts: permanent market impact (PMI), linear execution costs (LEC), and
nonlinear execution costs plus price risk (NECPR). The NECPR part is the
optimal liquidation value: solved numerically on a finite horizon, and in
closed form when the buyer faces no time constraint. Proportional costs enter
only through the linear term; the optimal schedule itself never depends on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .closed_forms import theta_infinity
from .market_model import ConstantVolume, LiquidationProblem
from .objective import eval_I
from .solver import SolveOptions, newton_solve

__all__ = [
    "PriceDecomposition",
    "PremiumFloorError",
    "GammaBracketError",
    "floor_parts",
    "price_finite",
    "price_infinite",
    "implied_gamma",
]

GAMMA_BRACKET = (1e-12, 1e-2)  # risk aversions searched by implied_gamma


class PremiumFloorError(ValueError):
    """Quoted premium does not exceed the risk-free floor PMI + LEC."""


class GammaBracketError(ValueError):
    """No risk aversion inside the search bracket reproduces the quote."""


@dataclass(frozen=True)
class PriceDecomposition:
    """Premium split and resulting prices; basis points are relative to MtM."""

    mtm: float
    pmi: float
    lec: float
    necpr_T: Optional[float]
    necpr_inf: Optional[float]
    price_T: Optional[float]
    price_inf: Optional[float]
    premium_bp_T: Optional[float]
    premium_bp_inf: Optional[float]


def _bp(mtm: float, premium: float) -> float:
    return 1e4 * premium / mtm if mtm > 0 else 0.0


def floor_parts(problem: LiquidationProblem) -> tuple[float, float]:
    """(PMI, LEC) of the block q0; their sum is the premium floor, which no risk aversion moves."""
    return problem.impact.integral(problem.q0), problem.market.psi * problem.q0


def _assemble(problem: LiquidationProblem, necpr_T, necpr_inf) -> PriceDecomposition:
    mtm = problem.q0 * problem.market.s0
    pmi, lec = floor_parts(problem)
    price_T = mtm - pmi - lec - necpr_T if necpr_T is not None else None
    price_inf = mtm - pmi - lec - necpr_inf if necpr_inf is not None else None
    return PriceDecomposition(
        mtm=mtm,
        pmi=pmi,
        lec=lec,
        necpr_T=necpr_T,
        necpr_inf=necpr_inf,
        price_T=price_T,
        price_inf=price_inf,
        premium_bp_T=_bp(mtm, mtm - price_T) if price_T is not None else None,
        premium_bp_inf=_bp(mtm, mtm - price_inf) if price_inf is not None else None,
    )


def _necpr_T(problem: LiquidationProblem, opts: Optional[SolveOptions]) -> float:
    """The finite-horizon NECPR: solve the trading curve, then evaluate the objective."""
    return eval_I(problem, newton_solve(problem, opts), psi=0.0)


def price_finite(problem: LiquidationProblem, opts: Optional[SolveOptions] = None) -> PriceDecomposition:
    """Price the block on the problem's horizon via solve-then-evaluate.

    The infinite-horizon column is filled too whenever the volume curve is
    constant, since it comes for free in closed form.
    """
    necpr_T = _necpr_T(problem, opts)
    necpr_inf = theta_infinity(problem) if isinstance(problem.volume, ConstantVolume) else None
    return _assemble(problem, necpr_T, necpr_inf)


def price_infinite(problem: LiquidationProblem) -> PriceDecomposition:
    """Closed-form price of the block q0 with no liquidation deadline (constant volume only)."""
    return _assemble(problem, None, theta_infinity(problem))


def implied_gamma(
    problem: LiquidationProblem,
    quoted_premium: float,
    *,
    finite_horizon: bool = False,
    opts: Optional[SolveOptions] = None,
    rel_tol: float = 1e-6,
) -> float:
    """Risk aversion implied by a quoted total premium (currency).

    Strips the gamma-independent floor (PMI + LEC) and inverts the strictly
    increasing map gamma -> NECPR by bisection. The default inverts the
    closed-form infinite-horizon value (constant volume only);
    ``finite_horizon=True`` swaps in the slow route that solves the block's
    finite-horizon NECPR at every probe, as ``price_finite`` does. The
    bisection stops at ``rel_tol`` or when no double lies between its ends.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if not math.isfinite(quoted_premium):
        raise ValueError(f"quoted_premium must be finite, got {quoted_premium}")
    floor = sum(floor_parts(problem))
    target = quoted_premium - floor
    if target <= 0:
        raise PremiumFloorError(
            f"quoted premium {quoted_premium} does not exceed the floor {floor}"
        )

    def necpr(gamma: float) -> float:
        probe = replace(problem, market=replace(problem.market, gamma=gamma))
        if finite_horizon:
            return _necpr_T(probe, opts)
        return theta_infinity(probe)

    lo, hi = GAMMA_BRACKET
    f_lo, f_hi = necpr(lo), necpr(hi)
    if not f_lo <= target <= f_hi:
        raise GammaBracketError(
            f"target NECPR {target} outside bracket [{f_lo}, {f_hi}] "
            f"for gamma in [{lo}, {hi}]"
        )
    # bisection in log-gamma: the map is monotone and spans many decades
    while hi / lo - 1.0 > rel_tol and lo < (mid := math.sqrt(lo * hi)) < hi:
        if necpr(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
