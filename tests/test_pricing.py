import numpy as np
import pytest
from dataclasses import replace

from blocktrade import pricing, value_function
from blocktrade.closed_forms import theta_infinity
from blocktrade.market_model import PiecewiseLinearVolume
from blocktrade.objective import eval_I
from blocktrade.pricing import (
    GammaBracketError,
    PremiumFloorError,
    floor_parts,
    implied_gamma,
    price_finite,
    price_infinite,
)
from blocktrade.solver import SolveOptions, newton_solve
from conftest import make_reference_problem

OPTS = SolveOptions(n_steps=1000)


def test_price_finite_reference_decomposition(reference_problem):
    d = price_finite(reference_problem, OPTS)
    assert d.mtm == 500_000.0 * 40.0
    assert d.pmi == pytest.approx(24175.0, rel=0.01)
    assert d.lec == pytest.approx(2000.0, rel=1e-12)
    assert d.necpr_inf == pytest.approx(6915.0, rel=0.01)
    assert d.necpr_T >= d.necpr_inf
    assert d.price_T == pytest.approx(d.mtm - d.pmi - d.lec - d.necpr_T, rel=1e-14)
    assert d.premium_bp_T == pytest.approx(1e4 * (d.mtm - d.price_T) / d.mtm, rel=1e-14)
    assert 16.0 <= d.premium_bp_T <= 17.0


def test_price_zero_block(reference_problem):
    d = price_finite(replace(reference_problem, q0=0.0), OPTS)
    assert d.mtm == d.pmi == d.lec == d.necpr_T == d.price_T == 0.0
    d_inf = price_infinite(replace(reference_problem, q0=0.0))
    assert d_inf.price_inf == 0.0
    assert d_inf.necpr_T is None


def test_closed_form_routes_refuse_time_varying_volume_before_any_solve(reference_problem, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(pricing, "newton_solve", no_solve)
    monkeypatch.setattr(value_function, "newton_solve", no_solve)
    problem = replace(reference_problem, volume=PiecewiseLinearVolume(((0.0, 4e6), (1.0, 5e6))))
    with pytest.raises(ValueError, match="constant volume"):
        implied_gamma(problem, 24175.0 + 2000.0 + 6915.0)
    with pytest.raises(ValueError, match="constant volume"):
        value_function.asymptotic_convergence(problem, [0.5, 1.0])


def test_price_infinite_low_gamma():
    d = price_infinite(make_reference_problem(gamma=5e-7))
    assert d.necpr_inf == pytest.approx(5263.0, rel=0.01)
    assert d.necpr_T is None and d.price_T is None


def test_price_infinite_small_block(reference_problem):
    d = price_infinite(replace(reference_problem, q0=250_000.0))
    assert d.necpr_inf == pytest.approx(2003.0, rel=0.01)
    assert d.pmi == pytest.approx(7187.0, rel=0.01)
    assert d.lec == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), -1.0])
def test_a_non_finite_or_negative_block_is_refused(reference_problem, q):
    for price in (price_infinite, floor_parts):
        with pytest.raises(ValueError, match="q must be nonnegative and finite"):
            price(replace(reference_problem, q0=q))
    assert floor_parts(replace(reference_problem, q0=0.0)) == (0.0, 0.0)
    assert price_infinite(replace(reference_problem, q0=0.0)).necpr_inf == 0.0


def test_premium_components_nonnegative(reference_problem):
    d = price_finite(reference_problem, OPTS)
    assert d.pmi >= 0 and d.lec >= 0 and d.necpr_T >= 0 and d.necpr_inf >= 0


def test_implied_gamma_round_trips_reference_rows(reference_problem):
    for gamma, necpr in ((5e-7, 5263.0), (1e-6, 6915.0), (2e-6, 9087.0)):
        quoted = 24175.0 + 2000.0 + necpr
        assert implied_gamma(reference_problem, quoted) == pytest.approx(gamma, rel=0.01)


def test_implied_gamma_floor_error(reference_problem):
    floor = reference_problem.impact.integral(500_000.0) + 2000.0
    with pytest.raises(PremiumFloorError):
        implied_gamma(reference_problem, floor)


def test_implied_gamma_bracket_error(reference_problem):
    with pytest.raises(GammaBracketError):
        implied_gamma(reference_problem, 1e9)


@pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_implied_gamma_rejects_a_tolerance_it_cannot_meet(reference_problem, rel_tol):
    # a NaN tolerance ended the bisection at once, at the bracket's midpoint 1e-7
    with pytest.raises(ValueError, match="rel_tol"):
        implied_gamma(reference_problem, 24175.0 + 2000.0 + 6915.0, rel_tol=rel_tol)


@pytest.mark.parametrize("quoted", [float("nan"), float("inf"), -float("inf")])
def test_implied_gamma_rejects_a_non_finite_quote_before_any_probe(reference_problem, monkeypatch, quoted):
    probes = []
    monkeypatch.setattr(pricing, "theta_infinity", lambda *args: probes.append(args))
    with pytest.raises(ValueError, match="quoted_premium"):
        implied_gamma(reference_problem, quoted)
    assert probes == []


def test_implied_gamma_stops_when_the_bracket_has_no_interior_double(reference_problem):
    # 1e-17 lies below the spacing of doubles near gamma = 1e-6, so no bracket is that narrow
    gamma = implied_gamma(reference_problem, 24175.0 + 2000.0 + 6915.0, rel_tol=1e-17)
    assert gamma == pytest.approx(1e-6, rel=0.01)


def test_implied_gamma_finite_horizon_path(reference_problem):
    target = price_finite(reference_problem, SolveOptions(n_steps=400)).necpr_T
    quoted = reference_problem.impact.integral(500_000.0) + 2000.0 + target
    gamma = implied_gamma(
        reference_problem,
        quoted,
        finite_horizon=True,
        opts=SolveOptions(n_steps=400),
        rel_tol=1e-4,
    )
    assert gamma == pytest.approx(1e-6, rel=0.01)


def test_finite_route_never_computes_the_no_deadline_value(reference_problem, monkeypatch):
    opts = SolveOptions(n_steps=200)
    quoted = reference_problem.impact.integral(500_000.0) + 2000.0 + 6000.0
    expected = implied_gamma(reference_problem, quoted, finite_horizon=True, opts=opts, rel_tol=1e-4)

    def refuse(*args):
        raise AssertionError("theta_infinity ran")

    monkeypatch.setattr(pricing, "theta_infinity", refuse)
    assert implied_gamma(reference_problem, quoted, finite_horizon=True, opts=opts, rel_tol=1e-4) == expected


def test_premium_monotone_and_convex_in_block_size(reference_problem):
    qs = np.linspace(50_000.0, 1_500_000.0, 10)
    premiums = np.array(
        [d.mtm - d.price_inf for d in (price_infinite(replace(reference_problem, q0=q)) for q in qs)]
    )
    assert np.all(np.diff(premiums) >= 0)
    second = premiums[:-2] - 2 * premiums[1:-1] + premiums[2:]
    assert np.all(second >= -1e-9 * premiums.max())


def test_premium_nonincreasing_in_horizon(reference_problem):
    values = []
    for T in (0.25, 0.5, 1.0, 2.0):
        problem = replace(reference_problem, horizon=T)
        values.append(eval_I(problem, newton_solve(problem, OPTS), psi=0.0))
    floor = theta_infinity(reference_problem)
    assert all(a >= b - 1e-9 * abs(a) for a, b in zip(values, values[1:]))
    assert all(v >= floor - 1e-9 * floor for v in values)


def test_premium_bp_superlinear_in_size(reference_problem):
    bps = []
    for q in (250_000.0, 500_000.0, 1_000_000.0):
        d = price_infinite(replace(reference_problem, q0=q))
        bps.append(d.premium_bp_inf)
    assert bps[0] < bps[1] < bps[2]


def test_necpr_inf_log_log_slope(reference_problem):
    phi = reference_problem.cost.phi
    expected = (1 + 3 * phi) / (1 + phi)
    q1, q2 = 1e5, 1e6
    slope = (
        np.log(theta_infinity(replace(reference_problem, q0=q2)) / theta_infinity(replace(reference_problem, q0=q1)))
        / np.log(q2 / q1)
    )
    assert slope == pytest.approx(expected, abs=1e-6)
