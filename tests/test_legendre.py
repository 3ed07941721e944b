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
    assert ham.value(1.0) == pytest.approx(12.5, rel=1e-14)
    assert ham.slope(1.0) == pytest.approx(25.0, rel=1e-14)
    assert ham.curvature(0.0) == pytest.approx(25.0, rel=1e-14)
    assert ham.curvature(0.37) == pytest.approx(25.0, rel=1e-14)
    assert ham.inverse(12.5) == pytest.approx(1.0, rel=1e-12)


def test_zero_point_values():
    for ham in (PowerLawHamiltonian(0.02, 0.65), NumericHamiltonian(CustomCost(lambda r: r * r, 1e6))):
        assert ham.value(0.0) == pytest.approx(0.0, abs=1e-12)
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
    assert closed.value(0.1) == pytest.approx(numeric.value(0.1), rel=1e-8)
    rng = np.random.default_rng(12345)
    for p in rng.uniform(1e-3, 10.0, size=50):
        assert closed.value(p) == pytest.approx(numeric.value(p), rel=1e-8)
        assert closed.slope(p) == pytest.approx(numeric.slope(p), rel=1e-7, abs=1e-12)


def test_slope_matches_finite_differences():
    ham = PowerLawHamiltonian(eta=0.02, phi=0.65)
    h = 1e-6
    for p in (0.05, 0.3, 2.0, -0.7):
        fd = (ham.value(p + h) - ham.value(p - h)) / (2 * h)
        assert ham.slope(p) == pytest.approx(fd, rel=1e-5)


def test_curvature_matches_finite_differences():
    ham = PowerLawHamiltonian(eta=0.02, phi=0.65)
    h = 1e-6
    for p in (0.05, 0.4, 1.5):
        fd = (ham.slope(p + h) - ham.slope(p - h)) / (2 * h)
        assert ham.curvature(p) == pytest.approx(fd, rel=1e-4)


def test_inverse_round_trip_on_log_grid():
    ham = PowerLawHamiltonian(eta=0.02, phi=0.65)
    for p in np.logspace(-6, 3, 40):
        assert ham.inverse(ham.value(p)) == pytest.approx(p, rel=1e-8)
    assert ham.inverse(0.0) == 0.0
    assert ham.value(ham.inverse(1.0)) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        ham.inverse(-1.0)


def test_numeric_inverse_round_trip():
    ham = NumericHamiltonian(CustomCost(lambda r: 0.5 * (math.cosh(r) - 1.0), 1e6))
    for x in (0.1, 1.0, 25.0):
        assert ham.value(ham.inverse(x)) == pytest.approx(x, rel=1e-9, abs=1e-12)


def test_fenchel_young_identity():
    eta, phi = 0.02, 0.65
    cost = PowerLawCost(eta=eta, phi=phi)
    ham = hamiltonian_of(cost)
    rng = np.random.default_rng(7)
    for p in rng.uniform(-5.0, 5.0, size=100):
        rho = ham.slope(p)
        assert rho * p - cost(rho) == pytest.approx(ham.value(p), rel=1e-10, abs=1e-14)


def test_unbounded_transform_raises():
    # L(rho) = |rho| is not superlinear: the maximization runs away for |p| > 1
    ham = NumericHamiltonian(CustomCost(fn=abs, sample_bound=1e30))
    with pytest.raises(UnboundedTransformError):
        ham.value(2.0)


def test_hamiltonian_of_dispatch():
    assert isinstance(hamiltonian_of(PowerLawCost(0.02, 0.65)), PowerLawHamiltonian)
    assert isinstance(hamiltonian_of(CustomCost(lambda r: r * r, 10.0)), NumericHamiltonian)


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(1e-4, 10.0), phi=st.floats(0.1, 2.0), p=st.floats(1e-4, 50.0))
def test_round_trip_property(eta, phi, p):
    ham = PowerLawHamiltonian(eta=eta, phi=phi)
    assert ham.inverse(ham.value(p)) == pytest.approx(p, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(-20.0, 20.0))
def test_transform_even_and_convex_property(p):
    ham = PowerLawHamiltonian(eta=0.05, phi=0.8)
    assert ham.value(p) == ham.value(-p)
    assert ham.value(p) >= 0.0
    # midpoint convexity against 0
    assert ham.value(0.5 * p) <= 0.5 * ham.value(p) + 1e-12


def test_numeric_transform_evaluates_arrays_element_by_element():
    ham = NumericHamiltonian(CustomCost(lambda r: 0.02 * abs(r) ** 1.65, 1e6))
    p = np.array([[-0.3, 0.0, 0.05], [0.2, 0.7, 1.1]])
    for method, x in ((ham.value, p), (ham.slope, p), (ham.curvature, p), (ham.inverse, np.abs(p))):
        values = method(x)
        assert values.shape == x.shape
        assert np.array_equal(values, [[method(v) for v in row] for row in x])
        assert isinstance(method(0.2), float)
