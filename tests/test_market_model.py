import math
import warnings

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


def test_a_validation_report_prints_a_line_per_check_with_its_status_and_detail():
    report = validate(make_reference_problem(q0=-1.0))
    lines = str(report).splitlines()
    assert len(lines) == len(report.checks)
    assert lines[0] == "FAIL problem.q0 (q0=-1.0)"
    assert "ok   problem.horizon (horizon=1.0)" in lines and "ok   cost.increasing" in lines


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


@pytest.mark.parametrize("q", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("impact", [PowerLawImpact(k=4.5e-6, beta=0.75), CustomImpact(fn=math.tanh)])
def test_pmi_integral_rejects_a_non_finite_or_negative_inventory(impact, q):
    with pytest.raises(ValueError, match="q must be nonnegative and finite"):
        impact.integral(q)
    assert impact.integral(0.0) == 0.0


def test_pmi_integral_custom_quadrature_against_analytic():
    # F(q) = tanh(q): integral over [0, q] is log(cosh(q))
    impact = CustomImpact(fn=math.tanh)
    for q in (0.5, 2.0, 7.5):
        assert impact.integral(q) == pytest.approx(math.log(math.cosh(q)), rel=1e-9)


def test_pmi_integral_refines_where_the_first_level_misses():
    # on [0, 2e6] tanh turns over within 1e-6 of the interval's length: 51 nodes do not settle it
    nodes = []

    def counted_tanh(x):
        nodes.append(x)
        return math.tanh(x)

    q = 2e6
    assert CustomImpact(fn=counted_tanh).integral(q) == pytest.approx(q - math.log(2.0), rel=1e-10, abs=0)
    assert len(nodes) > 51


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
    # a NaN time passes the increasing check, since every comparison with it is False
    for rows in ("0,1\n1,inf\n", "0,1\nnan,1\n1,1\n"):
        non_finite = tmp_path / "f.csv"
        non_finite.write_text("time,volume\n" + rows)
        with pytest.raises(ValueError, match="finite"):
            PiecewiseLinearVolume.from_csv(non_finite)


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


@pytest.mark.parametrize(
    "check, value",
    [
        ("cost.phi", 902.0),
        ("cost.phi", 102.0),
        ("cost.eta", 1.797e308),
        ("cost.eta", 1e304),
        ("impact.k", 1.2e305),
        ("impact.k", 3.4e294),
    ],
)
def test_a_power_law_that_overflows_its_samples_fails_its_own_key_without_a_warning(check, value):
    # L(1000) = eta * 1000 ** (1 + phi), 2 F(q0) = 2 k q0 ** beta and 1e4 times the PMI at q0,
    # 1e4 k q0 ** (1 + beta) / (1 + beta), are the largest numbers validate makes
    owner, name = check.split(".")
    base = make_reference_problem()
    problem = replace(base, **{owner: replace(getattr(base, owner), **{name: value})})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [c.name for c in validate(problem).failures()] == [check]


def test_an_impact_sampled_past_a_block_below_one_share_fails_impact_k_without_a_warning():
    # at q0 = 0 the PMI is 0, but validate samples the impact up to q = 1, where 2 F(1) = 2 k overflows
    base = make_reference_problem(q0=0.0)
    problem = replace(base, impact=replace(base.impact, k=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [c.name for c in validate(problem).failures()] == ["impact.k"]


@pytest.mark.parametrize("check, value", [("cost.phi", 101.0), ("cost.eta", 1e302), ("impact.k", 3.3e294)])
def test_a_power_law_just_short_of_overflow_is_sampled(check, value):
    # at k = 3.3e294, 1e4 times the PMI at q0 is 1.77e308
    owner, name = check.split(".")
    base = make_reference_problem()
    problem = replace(base, **{owner: replace(getattr(base, owner), **{name: value})})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check not in [c.name for c in validate(problem).failures()]
