import warnings

import numpy as np
import pytest
from dataclasses import replace

from blocktrade.closed_forms import (
    ApplicabilityError,
    _ac_curve,
    _beltrami_price,
    _superquadratic,
    ac_speed,
    ac_trajectory,
    superquadratic_extinction_time,
    superquadratic_trajectory,
    theta_infinity,
    theta_infinity_quadrature,
)
from blocktrade.market_model import (
    ConstantVolume,
    CustomCost,
    LiquidationProblem,
    MarketParams,
    PiecewiseLinearVolume,
    PowerLawCost,
    PowerLawImpact,
    QuadratureError,
)
from blocktrade.legendre import hamiltonian_of
from conftest import make_quadratic_problem, make_reference_problem, make_superquadratic_problem


def unit_rate_problem():
    # gamma * sigma^2 * V / (2 eta) = 1
    return LiquidationProblem(
        q0=1.0,
        horizon=1.0,
        market=MarketParams(s0=1.0, sigma=1.0, gamma=1e-6, psi=0.0),
        volume=ConstantVolume(2e6),
        cost=PowerLawCost(eta=1.0, phi=1.0),
        impact=PowerLawImpact(k=0.0, beta=0.5),
    )


def test_ac_curve_at_zero_kappa_is_the_straight_line(quadratic_problem):
    # sigma**2 underflows, so kappa is 0: the curve is its limit, and the speed's factor cosh / sinh is infinite
    flat = replace(quadratic_problem, market=replace(quadratic_problem.market, sigma=1e-300))
    t = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(ac_trajectory(flat, t), flat.q0 * (1.0 - t))
    assert ac_trajectory(flat, 0.25) == flat.q0 * 0.75
    assert np.all(_ac_curve(1.0, np.zeros(2), t, shift=2.0) == -np.inf)


def test_ac_curve_with_a_q0_per_row_is_each_rows_own_curve():
    # a flat row once took the whole q0 array in q0 * (1 - x): "operands could not be broadcast together"
    x = np.linspace(0.0, 1.0, 67)
    q0, kappa_s = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 30.0])
    rows = _ac_curve(q0, kappa_s, x)
    for row, q, k in zip(rows, q0, kappa_s):
        assert row.tobytes() == _ac_curve(q, np.array([k]), x)[0].tobytes()
    assert np.array_equal(rows[1], 2.0 * (1.0 - x))
    shifted = _ac_curve(q0, kappa_s, x, shift=2.0)
    assert np.all(shifted[1] == -np.inf) and np.isfinite(shifted[[0, 2]]).all()


def test_ac_speed_at_zero_kappa_is_the_straight_lines_speed_without_a_warning(quadratic_problem):
    flat = replace(quadratic_problem, market=replace(quadratic_problem.market, sigma=1e-300))
    t = np.linspace(0.0, 0.5, 6) * flat.horizon
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # -0 * -inf would warn "invalid value" and give NaN
        speed, at_zero = ac_speed(flat, t), ac_speed(flat, 0.0)
    assert speed.shape == t.shape and np.all(speed == flat.q0 / flat.horizon)
    assert isinstance(at_zero, float) and at_zero == flat.q0 / flat.horizon


def test_ac_trajectory_endpoints(quadratic_problem):
    assert ac_trajectory(quadratic_problem, 0.0) == pytest.approx(quadratic_problem.q0, rel=1e-14)
    assert ac_trajectory(quadratic_problem, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_ac_trajectory_unit_rate_midpoint():
    problem = unit_rate_problem()
    assert ac_trajectory(problem, 0.5) == pytest.approx(0.443409441985037, rel=1e-12)


def test_ac_requires_quadratic_cost_and_constant_volume(reference_problem):
    with pytest.raises(ValueError):
        ac_trajectory(reference_problem, 0.5)
    piecewise = replace(
        make_quadratic_problem(), volume=PiecewiseLinearVolume(((0.0, 4e6), (1.0, 5e6)))
    )
    with pytest.raises(ValueError):
        ac_trajectory(piecewise, 0.5)


def test_ac_curve_solves_the_continuous_system(quadratic_problem):
    # rebuild the dual from its defining derivative and check dq/dt = V H'(p)
    problem = quadratic_problem
    eta = problem.cost.eta
    V = problem.volume.rate
    gs2 = problem.market.gamma * problem.market.sigma**2
    # dense quadrature: the dual nearly cancels at late times, amplifying
    # integration error relative to its local size
    t = np.linspace(0.0, 0.9, 40_001)
    q = ac_trajectory(problem, t)
    p0 = -2.0 * eta * ac_speed(problem, 0.0) / V
    p = p0 + gs2 * np.concatenate(([0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(t))))
    h = 1e-5
    for idx in range(2000, 40_001, 8000):
        qdot_fd = (ac_trajectory(problem, t[idx] + h) - ac_trajectory(problem, t[idx] - h)) / (2 * h)
        assert qdot_fd == pytest.approx(V * p[idx] / (2 * eta), rel=1e-4)


def test_ac_curve_and_speed_stay_finite_at_the_stiff_corner():
    # kappa * T = 3162: sinh(kappa * T) overflows, and the sinh ratio read NaN at every interior point
    stiff = make_quadratic_problem(eta=1e-3, gamma=1e-5, horizon=20.0, q0=2e6)
    stiff = replace(stiff, volume=ConstantVolume(2e7))
    t = np.linspace(0.0, stiff.horizon, 2001)
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # e^(-kappa t) may underflow to 0
        q, v = ac_trajectory(stiff, t), ac_speed(stiff, t)
    assert np.isfinite(q).all() and np.isfinite(v).all()
    assert q[0] == stiff.q0 and q[-1] == 0.0
    assert np.all(np.diff(q) <= 0.0) and np.all(v >= 0.0)


@pytest.mark.parametrize("horizon", [1e-3, 0.1, 0.5, 0.99])
def test_ac_curve_and_speed_are_the_sinh_forms_where_those_are_exact(horizon):
    # kappa = 50 per day on the quadratic reference stock at gamma = 1e-5 and V = 2e7: kappa * T from 0.05 to 49.5
    problem = replace(make_quadratic_problem(horizon=horizon, gamma=1e-5), volume=ConstantVolume(2e7))
    m = problem.market
    kappa = np.sqrt(m.gamma * m.sigma**2 * problem.volume.rate / (2.0 * problem.cost.eta))
    assert kappa * horizon <= 50.0
    t = np.linspace(0.0, horizon, 201)[:-1]
    sinh_q = problem.q0 * np.sinh(kappa * (horizon - t)) / np.sinh(kappa * horizon)
    sinh_v = problem.q0 * kappa * np.cosh(kappa * (horizon - t)) / np.sinh(kappa * horizon)
    np.testing.assert_allclose(ac_trajectory(problem, t), sinh_q, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(ac_speed(problem, t), sinh_v, rtol=1e-14, atol=0.0)


def test_superquadratic_bound_equality_case():
    # these inputs sit exactly on the applicability bound: extinction at the horizon
    problem = make_superquadratic_problem()
    assert superquadratic_extinction_time(problem) == pytest.approx(1.0, rel=1e-12)
    assert superquadratic_trajectory(problem, 0.0) == pytest.approx(0.25, rel=1e-14)
    assert superquadratic_trajectory(problem, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert superquadratic_trajectory(problem, 2.0) == 0.0


def test_superquadratic_rejects_large_inventory():
    with pytest.raises(ApplicabilityError):
        superquadratic_trajectory(make_superquadratic_problem(q0=0.3), 0.0)


@pytest.mark.parametrize(
    "change",
    [
        lambda p: replace(p, cost=PowerLawCost(eta=1.0, phi=1.0)),
        lambda p: replace(p, cost=PowerLawCost(eta=1.0, phi=0.65)),
        lambda p: replace(p, cost=CustomCost(fn=lambda r: abs(r) ** 4.0, sample_bound=1e3)),
        lambda p: replace(p, volume=PiecewiseLinearVolume(((0.0, 1.0), (1.0, 2.0)))),
    ],
    ids=["quadratic", "subquadratic", "custom_cost", "piecewise_volume"],
)
def test_superquadratic_closed_form_refuses_any_other_problem(change):
    problem = change(make_superquadratic_problem(q0=0.1))
    with pytest.raises(ValueError, match="closed form requires"):
        superquadratic_extinction_time(problem)
    with pytest.raises(ValueError, match="closed form requires"):
        superquadratic_trajectory(problem, 0.0)


@pytest.mark.parametrize("phi, q0", [(3.0, 0.1), (1.7, 0.01)])
def test_superquadratic_curve_keeps_the_beltrami_first_integral_at_zero(phi, q0):
    # the curve dies out before the horizon binds, so V L(v / V) (1 + delta) = gamma sigma**2 q**2 / 2 along it,
    # with L(rho) = eta rho ** (2 + delta) and delta = phi - 1
    problem = make_superquadratic_problem(q0=q0, phi=phi)
    t_end = superquadratic_extinction_time(problem)
    assert t_end < problem.horizon
    t, h = np.linspace(0.1, 0.9, 9) * t_end, 1e-6 * t_end
    q = superquadratic_trajectory(problem, t)
    v = (superquadratic_trajectory(problem, t - h) - superquadratic_trajectory(problem, t + h)) / (2.0 * h)
    m = problem.market
    np.testing.assert_allclose(phi * problem.cost(v), 0.5 * m.gamma * m.sigma**2 * q**2, rtol=1e-6)


def test_superquadratic_smooth_at_extinction():
    problem = make_superquadratic_problem(q0=0.1)
    t_end = superquadratic_extinction_time(problem)
    assert t_end < problem.horizon
    h = 1e-7
    left = (superquadratic_trajectory(problem, t_end - h) - superquadratic_trajectory(problem, t_end)) / h
    right = (superquadratic_trajectory(problem, t_end + h) - superquadratic_trajectory(problem, t_end)) / h
    scale = problem.q0 / problem.horizon
    assert abs(left) <= 1e-6 * scale
    assert abs(right) <= 1e-6 * scale


def test_superquadratic_not_twice_differentiable_at_extinction():
    # delta = 2 gives q ~ (t_end - t)^2 before extinction: curvature jumps
    problem = make_superquadratic_problem(q0=0.1)
    t_end = superquadratic_extinction_time(problem)
    h = 1e-4
    inside = superquadratic_trajectory(problem, t_end - 2 * h) - 2 * superquadratic_trajectory(
        problem, t_end - h
    ) + superquadratic_trajectory(problem, t_end)
    outside = superquadratic_trajectory(problem, t_end + 2 * h) - 2 * superquadratic_trajectory(
        problem, t_end + h
    ) + superquadratic_trajectory(problem, t_end)
    assert inside / h**2 == pytest.approx(2.0 * _superquadratic(problem)[1] ** 2, rel=1e-3)
    assert outside == 0.0


def test_theta_infinity_reference_values(reference_problem):
    assert theta_infinity(replace(reference_problem, q0=0.0)) == 0.0
    assert theta_infinity(reference_problem) == pytest.approx(6915.0, rel=0.01)
    high = make_reference_problem(gamma=2e-6)
    assert theta_infinity(high) == pytest.approx(9087.0, rel=0.01)
    low = make_reference_problem(gamma=5e-7)
    assert theta_infinity(low) == pytest.approx(5263.0, rel=0.01)


def test_theta_infinity_closed_form_versus_quadrature(reference_problem):
    for q in (1e3, 1e5, 1e6):
        closed = theta_infinity(replace(reference_problem, q0=q))
        quad = theta_infinity_quadrature(replace(reference_problem, q0=q))
        assert closed == pytest.approx(quad, rel=1e-10)


def test_theta_infinity_scaling_law(reference_problem):
    phi = reference_problem.cost.phi
    expo = (1 + 3 * phi) / (1 + phi)
    ratios = [theta_infinity(replace(reference_problem, q0=q)) / q**expo for q in (1e4, 1e5, 5e5, 2e6)]
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-9)


def test_theta_infinity_rejects_time_varying_volume(reference_problem):
    problem = replace(reference_problem, volume=PiecewiseLinearVolume(((0.0, 4e6), (1.0, 5e6))))
    with pytest.raises(ValueError):
        theta_infinity(problem)
    with pytest.raises(ValueError):
        theta_infinity(replace(reference_problem, q0=-1.0))


@pytest.mark.parametrize("q", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("value", [theta_infinity, theta_infinity_quadrature])
def test_theta_infinity_rejects_a_non_finite_or_negative_inventory(reference_problem, value, q):
    with pytest.raises(ValueError, match="q must be nonnegative and finite"):
        value(replace(reference_problem, q0=q))
    assert value(replace(reference_problem, q0=0.0)) == 0.0


def test_theta_infinity_custom_cost_equals_power_law(reference_problem):
    # wrapping the same power law as a black box must reproduce the closed form
    custom = CustomCost(fn=lambda r: 0.02 * abs(r) ** 1.65, sample_bound=1e9)
    problem = replace(reference_problem, cost=custom)
    for q in (1e4, 5e5):
        assert theta_infinity(replace(problem, q0=q)) == pytest.approx(
            theta_infinity(replace(reference_problem, q0=q)), rel=1e-9
        )


def test_theta_infinity_quadrature_raises_on_a_cancelling_cost(reference_problem):
    # cosh(r) - 1 cancels near r = 0 and leaves the secant slope noisy: the rule's levels never settle. The
    # same cost as 2 sinh(r / 2)**2 settles; its integral lies 4.7e-12 from a 30-digit one.
    cancelling = CustomCost(lambda r: 0.01 * (np.cosh(r / 50) - 1.0), 1e4)
    with pytest.raises(QuadratureError, match="tanh-sinh levels of steps"):
        theta_infinity_quadrature(replace(reference_problem, cost=cancelling, q0=1e3))
    stable = CustomCost(lambda r: 0.02 * np.sinh(r / 100) ** 2, 1e4)
    assert theta_infinity_quadrature(replace(reference_problem, cost=stable, q0=1e3)) == pytest.approx(
        2.2360682104234176e-4, rel=1e-10
    )


@pytest.mark.parametrize("eta, phi", [(0.02, 0.65), (0.5, 1.0), (3.0, 0.3)])
def test_beltrami_price_is_the_power_law_inverse(eta, phi):
    # H(p) = c |p|^(1 + 1/phi) inverts on p >= 0 to this power of x
    cost, scale = PowerLawCost(eta=eta, phi=phi), eta ** (1 / (1 + phi)) * (1 + phi) * phi ** (-phi / (1 + phi))
    x = np.logspace(-8, 4, 25)
    np.testing.assert_allclose(_beltrami_price(cost, x), scale * x ** (phi / (1 + phi)), rtol=1e-9, atol=0)
    assert _beltrami_price(cost, 0.0) == 0.0
    with pytest.raises(ValueError):
        _beltrami_price(cost, -1.0)


def test_beltrami_price_round_trips_through_fenchel_young():
    cost = CustomCost(lambda r: 0.5 * (np.cosh(r) - 1.0), 1e6)
    ham = hamiltonian_of(cost)
    for x in (0.1, 1.0, 25.0):
        p = _beltrami_price(cost, x)
        rho = abs(ham.slope(p))
        assert rho * p - cost(rho) == pytest.approx(x, rel=1e-9, abs=1e-12)
