import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrade.market_model import (
    ConstantVolume,
    CustomCost,
    CustomImpact,
    PiecewiseLinearVolume,
    PowerLawCost,
    PowerLawImpact,
    validate,
)
from conftest import make_reference_problem

from dataclasses import replace


def test_validate_reference_problem_ok():
    report = validate(make_reference_problem())
    assert report.ok, str(report)


def test_validate_negative_eta_fails():
    problem = replace(make_reference_problem(), cost=PowerLawCost(eta=-1.0, phi=0.65))
    report = validate(problem)
    assert not report.ok
    assert any(c.name == "cost.eta" and not c.passed for c in report.checks)


def test_validate_nonmonotone_custom_impact_fails():
    # F(1) = 2 but F(2) = 1: not nondecreasing
    def bad_f(q):
        return math.copysign(np.interp(abs(q), [0.0, 1.0, 2.0, 10.0], [0.0, 2.0, 1.0, 1.0]), q)

    problem = replace(make_reference_problem(q0=5.0), impact=CustomImpact(bad_f))
    report = validate(problem)
    assert not report.ok
    assert any(c.name == "impact.nondecreasing" and not c.passed for c in report.checks)


def test_validate_flags_negative_q0_and_sigma():
    problem = make_reference_problem(q0=-1.0)
    assert any(c.name == "problem.q0" and not c.passed for c in validate(problem).checks)
    bad = replace(make_reference_problem(), market=replace(make_reference_problem().market, sigma=0.0))
    assert any(c.name == "market.sigma" and not c.passed for c in validate(bad).checks)


def test_eval_cost_power_law_values():
    cost = PowerLawCost(eta=0.02, phi=0.65)
    assert cost(0.0) == 0.0
    assert cost(1.0) == pytest.approx(0.02, rel=1e-15)
    assert cost(-1.0) == pytest.approx(0.02, rel=1e-15)


def test_eval_cost_custom_respects_sample_bound():
    cost = CustomCost(fn=lambda r: r * r, sample_bound=2.0)
    assert cost(1.5) == pytest.approx(2.25)
    with pytest.raises(ValueError):
        cost(3.0)


@settings(max_examples=100, deadline=None)
@given(
    eta=st.floats(1e-6, 1e3),
    phi=st.floats(0.05, 3.0),
    rho=st.floats(-1e4, 1e4, allow_nan=False),
)
def test_cost_evenness_property(eta, phi, rho):
    cost = PowerLawCost(eta=eta, phi=phi)
    assert cost(rho) == cost(-rho)
    assert cost(rho) >= 0.0


def test_pmi_integral_matches_reference_values():
    impact = PowerLawImpact(k=4.5e-6, beta=0.75)
    assert impact.integral(500_000.0) == pytest.approx(24175.0, rel=0.01)
    assert impact.integral(1_000_000.0) == pytest.approx(81316.0, rel=0.01)
    assert impact.integral(0.0) == 0.0
    with pytest.raises(ValueError):
        impact.integral(-1.0)


def test_pmi_integral_custom_quadrature_against_analytic():
    # F(q) = tanh(q): integral over [0, q] is log(cosh(q))
    impact = CustomImpact(fn=math.tanh)
    for q in (0.5, 2.0, 7.5):
        assert impact.integral(q) == pytest.approx(math.log(math.cosh(q)), rel=1e-9)


def test_pmi_integral_convex_in_q():
    impact = PowerLawImpact(k=4.5e-6, beta=0.75)
    q = np.linspace(0.0, 1e6, 101)
    vals = np.array([impact.integral(x) for x in q])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-12 * np.max(vals))


def test_custom_cost_symmetry_sampled():
    cost = CustomCost(fn=lambda r: 0.5 * (math.cosh(2.0 * r) - 1.0), sample_bound=10.0)
    for rho in np.linspace(0.0, 10.0, 37):
        assert cost(rho) == pytest.approx(cost(-rho), rel=1e-12, abs=1e-15)


def test_volume_bounds_over_dense_sample():
    curve = PiecewiseLinearVolume(((0.0, 4e6), (0.3, 6e6), (0.7, 3e6), (1.0, 5e6)))
    t = np.linspace(0.0, 1.0, 10_000)
    values = curve(t)
    assert values.min() >= curve.lo
    assert values.max() <= curve.hi
    assert curve.lo == 3e6 and curve.hi == 6e6


def test_volume_csv_ingestion(tmp_path):
    path = tmp_path / "volume.csv"
    path.write_text("time,volume\n0,4000000\n0.5,6000000\n1.2,5000000\n")
    curve = PiecewiseLinearVolume.from_csv(path)
    assert curve(0.25) == pytest.approx(5e6)
    assert curve.end_time == 1.2
    report = validate(replace(make_reference_problem(), volume=curve))
    assert report.ok


def test_volume_csv_rejects_bad_header_and_times(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("t,vol\n0,1\n1,1\n")
    with pytest.raises(ValueError):
        PiecewiseLinearVolume.from_csv(bad_header)
    bad_times = tmp_path / "t.csv"
    bad_times.write_text("time,volume\n0,1\n0.5,1\n0.5,2\n")
    with pytest.raises(ValueError):
        PiecewiseLinearVolume.from_csv(bad_times)
    no_zero = tmp_path / "z.csv"
    no_zero.write_text("time,volume\n0.1,1\n0.5,1\n")
    with pytest.raises(ValueError):
        PiecewiseLinearVolume.from_csv(no_zero)


def test_volume_coverage_checked_against_horizon():
    curve = PiecewiseLinearVolume(((0.0, 4e6), (0.5, 5e6)))
    report = validate(replace(make_reference_problem(), volume=curve))
    assert any(c.name == "volume.covers_horizon" and not c.passed for c in report.checks)


def test_constant_volume_broadcasts():
    curve = ConstantVolume(5e6)
    assert curve(0.3) == 5e6
    assert np.all(curve(np.linspace(0, 1, 5)) == 5e6)


def test_custom_models_evaluate_arrays_element_by_element():
    cost = CustomCost(fn=lambda r: 0.5 * (math.cosh(2.0 * r) - 1.0), sample_bound=10.0)
    impact = CustomImpact(fn=math.tanh)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    for model in (cost, impact):
        values = model(x)
        assert values.shape == x.shape
        assert np.array_equal(values, [[model(v) for v in row] for row in x])
        assert isinstance(model(1.5), float)
        assert isinstance(model(np.float64(1.5)), float)
        assert model(np.array([])).shape == (0,)


def test_custom_cost_range_check_applies_to_every_element():
    cost = CustomCost(fn=lambda r: r * r, sample_bound=2.0)
    assert np.array_equal(cost(np.array([-2.0, 0.5, 2.0])), [4.0, 0.25, 4.0])
    with pytest.raises(ValueError, match="outside sampled range"):
        cost(np.array([0.0, 1.0, -2.5, 1.5]))


def test_nonconvex_custom_cost_fails_convexity_check():
    # even, increasing and superlinear, but 3 tanh|r| bends the sum concave near r = 0.66
    bent = CustomCost(fn=lambda r: r * r + 3.0 * math.tanh(abs(r)), sample_bound=10.0)
    report = validate(replace(make_reference_problem(), cost=bent))
    assert [c.name for c in report.failures()] == ["cost.strictly_convex"]
    convex = CustomCost(fn=lambda r: r * r + 2.0 * math.tanh(abs(r)), sample_bound=10.0)
    assert validate(replace(make_reference_problem(), cost=convex)).ok


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize(
    "check",
    ["problem.q0", "problem.horizon", "market.s0", "market.sigma", "market.gamma",
     "market.psi", "cost.eta", "cost.phi", "impact.k", "impact.beta"],
)
def test_validate_rejects_non_finite_inputs(check, value):
    owner, name = check.split(".")
    base = make_reference_problem()
    if owner == "problem":
        problem = replace(base, **{name: value})
    else:
        problem = replace(base, **{owner: replace(getattr(base, owner), **{name: value})})
    assert check in [c.name for c in validate(problem).failures()]
