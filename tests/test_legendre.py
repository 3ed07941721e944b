import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrade.legendre import (
    NumericHamiltonian,
    PowerLawHamiltonian,
    SingularCurvatureError,
    UnboundedTransformError,
    hamiltonian_of,
)
from blocktrade.market_model import CustomCost, PowerLawCost


def test_quadratic_closed_forms():
    # L = eta * rho^2 gives H(p) = p^2 / (4 eta)
    ham = PowerLawHamiltonian(eta=0.02, phi=1.0)
    assert ham.slope(1.0) == pytest.approx(25.0, rel=1e-14)
    assert ham.curvature(0.0) == pytest.approx(25.0, rel=1e-14)
    assert ham.curvature(0.37) == pytest.approx(25.0, rel=1e-14)


def test_zero_point_values():
    for ham in (PowerLawHamiltonian(0.02, 0.65), NumericHamiltonian(CustomCost(lambda r: r * r, 1e6))):
        assert ham.slope(0.0) == 0.0


def test_curvature_vanishes_at_zero_for_subquadratic():
    ham = PowerLawHamiltonian(eta=0.02, phi=0.65)
    assert ham.curvature(0.0) == 0.0


def test_curvature_singular_for_superquadratic_at_zero():
    ham = PowerLawHamiltonian(eta=0.02, phi=1.5)
    with pytest.raises(SingularCurvatureError):
        ham.curvature(0.0)
    assert math.isfinite(ham.curvature(0.1))


def test_closed_form_matches_numeric_transform():
    eta, phi = 0.02, 0.65
    closed = PowerLawHamiltonian(eta=eta, phi=phi)
    numeric = NumericHamiltonian(CustomCost(lambda r: eta * abs(r) ** (1 + phi), 1e9))
    rng = np.random.default_rng(12345)
    for p in rng.uniform(1e-3, 10.0, size=50):
        assert closed.slope(p) == pytest.approx(numeric.slope(p), rel=1e-7, abs=1e-12)


def test_slope_matches_finite_differences():
    cost = PowerLawCost(eta=0.02, phi=0.65)
    ham = hamiltonian_of(cost)

    def fenchel_young(p):  # H(p) = rho |p| - L(rho) at the optimal rate rho = |H'(p)|
        rho = abs(ham.slope(p))
        return rho * abs(p) - cost(rho)

    h = 1e-6
    for p in (0.05, 0.3, 2.0, -0.7):
        fd = (fenchel_young(p + h) - fenchel_young(p - h)) / (2 * h)
        assert ham.slope(p) == pytest.approx(fd, rel=1e-5)


def test_curvature_matches_finite_differences():
    ham = PowerLawHamiltonian(eta=0.02, phi=0.65)
    h = 1e-6
    for p in (0.05, 0.4, 1.5):
        fd = (ham.slope(p + h) - ham.slope(p - h)) / (2 * h)
        assert ham.curvature(p) == pytest.approx(fd, rel=1e-4)


def test_unbounded_transform_raises():
    # L(rho) = |rho| is not superlinear: the maximization runs away for |p| > 1
    ham = NumericHamiltonian(CustomCost(fn=abs, sample_bound=1e30))
    with pytest.raises(UnboundedTransformError):
        ham.slope(2.0)


def test_hamiltonian_of_dispatch():
    assert isinstance(hamiltonian_of(PowerLawCost(0.02, 0.65)), PowerLawHamiltonian)
    assert isinstance(hamiltonian_of(CustomCost(lambda r: r * r, 10.0)), NumericHamiltonian)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(-20.0, 20.0), step=st.floats(0.0, 20.0))
def test_transform_even_and_convex_property(p, step):
    # H is even and convex exactly when its slope is odd and nondecreasing
    ham = PowerLawHamiltonian(eta=0.05, phi=0.8)
    assert ham.slope(-p) == -ham.slope(p)
    assert ham.slope(p) <= ham.slope(p + step)


def test_numeric_transform_evaluates_arrays_element_by_element():
    ham = NumericHamiltonian(CustomCost(lambda r: 0.02 * abs(r) ** 1.65, 1e6))
    p = np.array([[-0.3, 0.0, 0.05], [0.2, 0.7, 1.1]])
    for method in (ham.slope, ham.curvature):
        values = method(p)
        assert values.shape == p.shape
        assert np.array_equal(values, [[method(v) for v in row] for row in p])
        assert isinstance(method(0.2), float)


@settings(max_examples=100, deadline=None)
@given(
    eta=st.floats(1e-4, 10.0),
    phi=st.floats(0.1, 1.0),
    p_abs=st.floats(1e-4, 50.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_numeric_transform_matches_power_law_property(eta, phi, p_abs, sign):
    p = sign * p_abs
    cost = CustomCost(lambda r: eta * abs(r) ** (1 + phi), 1e300)
    numeric, closed = NumericHamiltonian(cost), PowerLawHamiltonian(eta=eta, phi=phi)
    rho = numeric.slope(p)
    assert rho == pytest.approx(closed.slope(p), rel=1e-9)
    # Fenchel-Young at the numeric rate gives the closed-form H
    assert rho * p - cost(rho) == pytest.approx(closed.coefficient * abs(p) ** closed.exponent, rel=1e-9)


class _CountingCost:
    def __init__(self, cost):
        self.cost, self.calls = cost, 0

    def __call__(self, rho):
        self.calls += 1
        return self.cost(rho)


def test_numeric_slope_makes_the_same_cost_calls_for_any_array_size():
    calls = []
    for n in (10, 1000):
        counter = _CountingCost(CustomCost(lambda r: 0.02 * abs(r) ** 1.65, 1e6))
        rates = NumericHamiltonian(counter).slope(np.linspace(0.01, 5.0, n))
        assert rates.shape == (n,)
        calls.append(counter.calls)
    assert calls[0] == calls[1]


def test_array_with_one_bad_element_raises():
    unbounded = NumericHamiltonian(CustomCost(fn=abs, sample_bound=1e30))
    with pytest.raises(UnboundedTransformError):
        unbounded.slope(np.array([0.5, 2.0]))
    # the argmax of rho * 2 - rho**2 is rho = 1, past a sampled range of 0.5
    capped = NumericHamiltonian(CustomCost(fn=lambda r: r * r, sample_bound=0.5))
    assert capped.slope(np.array([0.1, 0.5])) == pytest.approx([0.05, 0.25], rel=1e-12)
    with pytest.raises(ValueError, match="outside the sampled participation range"):
        capped.slope(np.array([0.1, 2.0, 0.5]))


@pytest.mark.parametrize("phi", [0.65, 1.0])
def test_numeric_curvature_matches_power_law(phi):
    numeric = NumericHamiltonian(CustomCost(lambda r: 0.02 * abs(r) ** (1 + phi), 1e6))
    closed = PowerLawHamiltonian(eta=0.02, phi=phi)
    p = np.array([-0.05, 0.05, 0.4, 1.5, 10.0])
    assert numeric.curvature(p) == pytest.approx(closed.curvature(p), rel=1e-4)
    if phi == 1.0:  # the argmax is 0 at p = 0, where H'' is 1 / (2 eta)
        assert numeric.curvature(0.0) == pytest.approx(1.0 / (2.0 * 0.02), rel=1e-4)


def test_kinked_cost_finds_a_zero_argmax_without_walking_down():
    # L = |rho| + rho**2 has slope 1 at 0+, so the argmax is 0 for |p| <= 1
    calls = []

    def kinked(r):
        calls.append(r)
        return abs(r) + r * r

    ham = NumericHamiltonian(CustomCost(kinked, 10.0))
    assert 0.0 <= ham.slope(0.5) <= 1e-300
    assert len(calls) <= 200
    assert ham.curvature(0.5) == 0.0
    # past the kink, L'(rho) = 1 + 2 rho = 1.5 at rho = 0.25
    assert ham.slope(1.5) == pytest.approx(0.25, rel=1e-9)
    assert ham.curvature(1.5) == pytest.approx(0.5, rel=1e-6)
