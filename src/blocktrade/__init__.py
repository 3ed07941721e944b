"""Optimal liquidation trading curves and block-trade pricing."""

from .closed_forms import (
    ApplicabilityError,
    ac_speed,
    ac_trajectory,
    superquadratic_extinction_time,
    superquadratic_trajectory,
    theta_infinity,
    theta_infinity_quadrature,
)
from .legendre import (
    NumericHamiltonian,
    PowerLawHamiltonian,
    SingularCurvatureError,
    UnboundedTransformError,
    hamiltonian_of,
)
from .market_model import (
    ConstantVolume,
    CustomCost,
    CustomImpact,
    LiquidationProblem,
    MarketParams,
    PiecewiseLinearVolume,
    PowerLawCost,
    PowerLawImpact,
    QuadratureError,
    ValidationReport,
    validate,
)
from .montecarlo import SimulationConfig, SimulationResult, simulate_cash
from .objective import CashDistribution, UtilityResult, cash_moments, eval_I, expected_utility
from .pricing import (
    GammaBracketError,
    PremiumFloorError,
    PriceDecomposition,
    implied_gamma,
    price_finite,
    price_infinite,
)
from .solver import (
    Grid,
    NonConvergenceError,
    SolveOptions,
    Trajectory,
    discrete_residual,
    initial_guess,
    newton_solve,
    solve_from,
)
from .value_function import (
    AsymptoticResult,
    ValueGrid,
    asymptotic_convergence,
    build_grid,
    check_structure,
    hj_residual,
)

__version__ = "0.1.0"
