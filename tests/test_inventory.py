"""Stocking objective, closed form vs exact argmax, and curve properties."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail import inventory
from longtail.inventory import (
    MAX_SCAN,
    SCAN_BLOCK,
    InventoryParams,
    bruteforce_stock,
    closed_form_stock,
    inventory_curve,
)
from oracles import argmax_by_enumeration, bruteforce_whole_array, objective, objective_highprec, traced_peak


def _params(a=10.0, b=1.0, mu=0.25, alpha=3.5, y_max=1_000_000):
    return InventoryParams(profit_per_item=a, turnover_cost=b, mu=mu, alpha=alpha, y_max=y_max)


def test_objective_empty_inventory_is_zero():
    assert objective(0, _params()) == 0.0


def test_objective_single_rank():
    assert objective(1, _params()) == pytest.approx(9.5, abs=1e-12)


def test_objective_two_ranks_matches_highprec_oracle():
    expected = float(objective_highprec(2, 10, 1, 0.25, 3.5))
    assert objective(2, _params()) == pytest.approx(expected, abs=1e-12)
    assert objective(2, _params()) == pytest.approx(9.883883476483184, abs=1e-12)


def test_objective_rejects_negative_and_out_of_range_y():
    with pytest.raises(ValueError):
        objective(-1, _params())
    with pytest.raises(ValueError):
        objective(11, _params(y_max=10))


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=10.0),
    b=st.floats(min_value=0.01, max_value=10.0),
    mu=st.floats(min_value=1e-6, max_value=1.0),
    alpha=st.floats(min_value=0.1, max_value=6.0),
    y=st.integers(min_value=1, max_value=100),
)
def test_marginal_identity(a, b, mu, alpha, y):
    params = _params(a, b, mu, alpha)
    marginal = a * y ** (-alpha) - b * math.sqrt(mu)
    assert objective(y, params) - objective(y - 1, params) == pytest.approx(marginal, abs=1e-12)


def test_bruteforce_zero_profit_stocks_nothing():
    result = bruteforce_stock(_params(a=0.0))
    assert result.y_bruteforce == 0
    assert result.objective_at_optimum == 0.0
    assert result.y_closed_form == 0.0


def test_bruteforce_example_matches_enumeration_and_marginal_condition():
    params = _params(a=10.0, b=1.0, mu=0.25, alpha=3.5)
    result = bruteforce_stock(params)
    assert result.y_bruteforce == argmax_by_enumeration(params, 1000)
    y_star = result.y_bruteforce
    cost = 1.0 * math.sqrt(0.25)
    assert 10.0 * y_star ** (-3.5) >= cost > 10.0 * (y_star + 1) ** (-3.5)
    assert result.objective_at_optimum == pytest.approx(objective(y_star, params), rel=1e-12)


def test_bruteforce_boundary_cost_dominates():
    # B*sqrt(mu) >= A: nothing beyond rank 1 can pay for itself
    assert bruteforce_stock(_params(a=0.4, b=1.0, mu=0.25)).y_bruteforce == 0
    assert bruteforce_stock(_params(a=0.6, b=1.0, mu=0.25)).y_bruteforce == 1
    # exactly at the boundary A == B*sqrt(mu): rank 1 gains zero; prefer smaller y
    assert bruteforce_stock(_params(a=0.5, b=1.0, mu=0.25)).y_bruteforce == 0


def test_bruteforce_marks_a_capped_answer():
    result = bruteforce_stock(_params(a=1000.0, b=0.01, mu=0.01, alpha=1.5, y_max=50))
    assert result.capped and result.y_bruteforce == 50


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=0.5, max_value=10.0),
    mu=st.floats(min_value=0.04, max_value=1.0),
    alpha=st.floats(min_value=1.3, max_value=5.0),
)
def test_bruteforce_equals_enumeration(a, b, mu, alpha):
    # parameter ranges keep the marginal root well below the scan bound
    params = _params(a, b, mu, alpha, y_max=300)
    result = bruteforce_stock(params)
    assert result.y_bruteforce == argmax_by_enumeration(params, 300)


# A/(B*sqrt(mu)) = 1e6 with alpha = 0.5 puts the marginal root at 1e12:
# the objective still rises at y_max, so the scan covers all of 1..y_max
CAPPED = dict(a=1000.0, b=0.01, mu=0.01, alpha=0.5)


def assert_same_as_whole_array(params):
    y, best = bruteforce_whole_array(params)
    if not math.isfinite(best):  # an overflowing objective is refused, not answered
        with pytest.raises(ValueError, match="overflows float64"):
            bruteforce_stock(params)
        return
    result = bruteforce_stock(params)
    assert result.y_bruteforce == y
    assert repr(result.objective_at_optimum) == repr(best)  # exact bits


@pytest.mark.parametrize(
    "y_max",
    # one block of 65 536 ranks -1/+0/+1 and 3 blocks + 7, then the same
    # around the current SCAN_BLOCK
    [1, 65_535, 65_536, 65_537, 196_615, 200_003, 1_000_000]
    + [SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 3 * SCAN_BLOCK + 7],
)
def test_block_scan_matches_whole_array_when_capped(y_max):
    params = _params(**CAPPED, y_max=y_max)
    assert bruteforce_stock(params).y_bruteforce == y_max
    assert_same_as_whole_array(params)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a=0.0),
        dict(a=0.5, b=1.0, mu=0.25),  # A == B*sqrt(mu): y = 0 and 1 tie
        dict(a=200_003.5, b=1.0, mu=1.0, alpha=1.0),  # optimum at y = 200 003, many blocks in
        dict(a=65_536.0, b=1.0, mu=1.0, alpha=1.0),  # exact tie of y = 65535 and 65536
        pytest.param(  # A*sum and B*y overflow (inf from y = 2, NaN from y = 179770 on): refused
            dict(a=1.7e308, b=1e303, mu=1.0, alpha=0.1),
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
        # A*y_max overflows, but A*sum(i^-3.5) ~ 1.13e308 does not: answered
        dict(a=1e308, b=1.0, mu=1.0, alpha=3.5, y_max=1000),
    ],
)
def test_block_scan_matches_whole_array(kwargs):
    assert_same_as_whole_array(_params(**kwargs))


def test_tie_across_a_block_boundary_goes_to_the_smaller_y():
    # objective(65535) == objective(65536) exactly; with this block size they
    # fall in different blocks
    params = _params(a=65_536.0, b=1.0, mu=1.0, alpha=1.0)
    with mock.patch.object(inventory, "SCAN_BLOCK", 65_535):
        assert bruteforce_stock(params).y_bruteforce == 65_535
        assert_same_as_whole_array(params)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e4),
    b=st.floats(min_value=1e-3, max_value=10.0),
    mu=st.floats(min_value=1e-4, max_value=1.0),
    alpha=st.floats(min_value=0.2, max_value=5.0),
    y_max=st.integers(min_value=1, max_value=500),
    block=st.integers(min_value=1, max_value=40),
)
def test_small_blocks_match_whole_array(a, b, mu, alpha, y_max, block):
    params = _params(a, b, mu, alpha, y_max=y_max)
    with mock.patch.object(inventory, "SCAN_BLOCK", block):
        assert_same_as_whole_array(params)


def test_capped_scan_stays_below_one_megabyte():
    # reads 0.27 MB: four block buffers of 8192 float64; blocks of 65 536
    # ranks with a fresh array per step peaked at 2.6 MB
    _, peak = traced_peak(bruteforce_stock, _params(**CAPPED))
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "kwargs,field",
    [
        # inf - inf at y = 2 read as NaN and won: y 2, objective NaN; exactly, y = 0
        (dict(a=1.7e308, b=1.7e308, mu=1.0, alpha=0.1), "turnover_cost"),
        (dict(a=1e308, b=1e303, mu=1.0, alpha=0.5), "turnover_cost"),  # B * y_max = 1e309
        # A*sum reaches inf at y = 2 while B*y stays finite: y 2, objective inf
        (dict(a=1.7e308, b=1.0, mu=1.0, alpha=0.1, y_max=10), "profit_per_item"),
        # A*sum(i^-0.1) passes the largest float at y = 102590, blocks after the first
        (dict(a=5e303, b=1.0, mu=1.0, alpha=0.1, y_max=200_003), "profit_per_item"),
    ],
)
def test_overflowing_objective_is_refused(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} .* overflows float64"):
        bruteforce_stock(_params(**kwargs))


def test_overflowing_marginal_root_caps_the_scan():
    # (A/(B*sqrt(mu)))^(1/alpha) = 1e2000 is past every float
    result = bruteforce_stock(_params(a=1e10, b=1e-10, mu=1.0, alpha=0.01, y_max=10))
    assert result.capped and result.y_bruteforce == 10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a=1e12, b=1.0, mu=0.01, alpha=1.0, y_max=10**12),  # capped: it scanned for hours
        dict(a=1e12, b=1.0, mu=0.01, alpha=1.0, y_max=MAX_SCAN + 1),
        dict(a=1e10, b=1.0, mu=1.0, alpha=1.0, y_max=10**12),  # root 1e10: the scan stops at 1e10 + 1
    ],
)
def test_a_scan_past_the_bound_is_refused_before_any_work(kwargs):
    with mock.patch.object(inventory.np, "power", side_effect=AssertionError("the scan started")):
        with pytest.raises(ValueError, match=f"^y_max {kwargs['y_max']} .* more than the {MAX_SCAN} "):
            bruteforce_stock(_params(**kwargs))


def test_a_y_max_past_the_bound_keeps_answers_below_it():
    # the marginal root (10/0.5)^(1/3.5) ~ 2.35 bounds the scan, whatever y_max is
    assert bruteforce_stock(_params(y_max=10**12)) == bruteforce_stock(_params())


def test_closed_form_unit_base():
    value, floor = closed_form_stock(_params(a=1.0, b=1.0, mu=1.0, alpha=3.5))
    assert value == pytest.approx(1.0, rel=1e-12)
    assert floor == 1


def test_closed_form_large_ratio_stays_small():
    value, floor = closed_form_stock(_params(a=1e6, b=1.0, mu=1e-4, alpha=3.5))
    assert value == pytest.approx(1e8 ** (1 / 4.5), rel=1e-12)
    assert abs(value - 60) < 1
    assert value <= 100
    assert floor == 59


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_closed_form_scale_invariant_in_a_and_b(scale):
    base, _ = closed_form_stock(_params(a=7.0, b=2.0, mu=0.04, alpha=3.5))
    scaled, _ = closed_form_stock(_params(a=7.0 * scale, b=2.0 * scale, mu=0.04, alpha=3.5))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError, match="turnover_cost"):
        _params(b=0.0)
    with pytest.raises(ValueError, match="mu"):
        _params(mu=0.0)
    with pytest.raises(ValueError, match="mu"):
        _params(mu=1.5)
    with pytest.raises(ValueError, match="alpha"):
        _params(alpha=0.0)
    with pytest.raises(ValueError, match="profit_per_item"):
        _params(a=-1.0)
    with pytest.raises(ValueError, match="y_max"):
        _params(y_max=0)
    # the ratio A/(B*sqrt(mu)) must be a float: both optimizers divide by it
    with pytest.raises(ValueError, match="profit_per_item / "):
        _params(a=1e300, b=1e-300, mu=1.0)
    with pytest.raises(ValueError, match="profit_per_item / "):
        _params(a=1.0, b=1e-300, mu=1e-300)  # B*sqrt(mu) underflows to 0
    assert bruteforce_stock(_params(a=0.0, b=1e-300, mu=1e-300)).y_bruteforce == 0


def test_curve_matches_single_point_evaluation():
    points = inventory_curve(alpha=3.5, ab_ratios=(100.0,), mu_grid=(0.01,))
    value, floor = closed_form_stock(_params(a=100.0, b=1.0, mu=0.01, alpha=3.5))
    assert points[0].y_value == value
    assert points[0].y_floor == floor


def test_curve_monotone_decreasing_in_mu():
    points = inventory_curve(alpha=3.5, ab_ratios=(100.0,), mu_grid=(0.001, 0.01, 0.1, 0.5))
    values = [p.y_value for p in points]
    assert values == sorted(values, reverse=True)


def test_curve_monotone_increasing_in_ab_ratio():
    points = inventory_curve(alpha=3.5, ab_ratios=(10.0, 100.0, 1000.0), mu_grid=(0.01,))
    values = [p.y_value for p in points]
    assert values == sorted(values)


def test_curve_rejects_nonpositive_mu():
    with pytest.raises(ValueError, match="mu"):
        inventory_curve(mu_grid=(0.0, 0.1))


@pytest.mark.parametrize("ab", [0.0, -10.0, float("nan")])
def test_curve_rejects_a_nonpositive_ratio(ab):
    # a zero ratio stocks nothing, so its curve had no point on the log-log plot
    with pytest.raises(ValueError, match="^ab_ratios values must be > 0"):
        inventory_curve(ab_ratios=(10.0, ab), mu_grid=(0.1,))
