"""Exponent fitting, turnover statistics, and the sqrt(mu) calibration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longtail.analysis import (
    InsufficientDataError,
    calibrate_mu,
    expected_turnover,
    fit_alpha,
    fit_turnover_exponent,
    turnover,
)
from longtail.chartdata import read_sales_column
from oracles import power_law_samples, square_of_repr, traced_peak


def test_power_law_sampler_oracle():
    # validate the oracle itself before trusting it: survival function of the
    # continuous power law is (s/s_min)^(1-alpha)
    samples = power_law_samples(alpha=2.5, n=200_000, s_min=1.0, seed=11)
    assert samples.min() >= 1.0
    for threshold in (2.0, 5.0, 10.0):
        expected = threshold ** (1.0 - 2.5)
        observed = np.mean(samples > threshold)
        assert observed == pytest.approx(expected, rel=0.05)
    median_expected = 2.0 ** (1.0 / 1.5)
    assert np.median(samples) == pytest.approx(median_expected, rel=0.02)


def test_fit_alpha_recovers_synthetic_exponent():
    samples = power_law_samples(alpha=2.5, n=100_000, s_min=1.0, seed=7)
    fit = fit_alpha(samples, s_min=1)
    assert abs(fit.alpha - 2.5) < 0.05
    assert fit.n_samples == 100_000
    assert fit.std_error == pytest.approx((fit.alpha - 1) / math.sqrt(100_000))


def test_fit_alpha_all_samples_at_s_min_errors():
    with pytest.raises(InsufficientDataError):
        fit_alpha([2, 2, 2], s_min=2)


def test_fit_alpha_too_few_samples_errors():
    with pytest.raises(InsufficientDataError):
        fit_alpha([5], s_min=1)
    with pytest.raises(InsufficientDataError):
        fit_alpha([1, 1, 7], s_min=8)


def test_fit_alpha_rejects_bad_s_min():
    with pytest.raises(ValueError, match="s_min"):
        fit_alpha([1, 2, 3], s_min=0)


@settings(max_examples=50, deadline=None)
@given(factor=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False))
def test_fit_alpha_scale_covariance(factor):
    samples = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 40.0])
    base = fit_alpha(samples, s_min=1.0)
    scaled = fit_alpha(samples * factor, s_min=factor)
    assert scaled.alpha == pytest.approx(base.alpha, rel=1e-9)


def test_fit_memory_is_bounded(tmp_path):
    # 20 000 power-law sales up to 1e9, like a simulated market's; the list
    # is read inside the traced call, as the CLI's fit does
    sales = np.minimum(np.floor(power_law_samples(alpha=1.6, n=20_000, s_min=1.0, seed=3)), 1e9).astype(int)
    path = tmp_path / "sales.csv"
    path.write_text("sales\n" + "".join(f"{s}\n" for s in sales.tolist()))
    fit, peak = traced_peak(lambda: fit_alpha(read_sales_column(path)))
    assert fit.n_samples == 20_000
    # 0.35 MB; 0.67 MB with the reader's list, the converted samples, the
    # filtered copy and its ratios to s_min alive together
    assert peak < 500_000


def test_fit_leaves_the_callers_array_unmodified():
    samples = power_law_samples(alpha=2.5, n=1000, s_min=1.0, seed=5)
    before = samples.copy()
    fit = fit_alpha(samples, s_min=2.0)
    assert np.array_equal(samples, before)
    kept = before[before >= 2.0]
    # bit for bit the estimate of the out-of-place logs
    assert fit.alpha == 1.0 + kept.size / float(np.log(kept / 2.0).sum())


def turnover_of_list_and_iterator(lists):
    """turnover of a list of lists; a one-shot iterator over it, like model.top_lists, must give the same."""
    stats = turnover(lists)
    assert turnover(iter(lists)) == stats
    return stats


def test_turnover_identical_lists_is_zero():
    stats = turnover_of_list_and_iterator([[1, 2, 3]] * 4)
    assert stats.z_per_period == [0, 0, 0]
    assert stats.z_bar == 0.0


def test_turnover_disjoint_lists_is_y():
    stats = turnover_of_list_and_iterator([[1, 2, 3], [4, 5, 6]])
    assert stats.z_per_period == [3]
    assert stats.z_bar == 3.0


def test_turnover_single_entrant():
    stats = turnover_of_list_and_iterator([[1, 2, 3], [1, 3, 4]])
    assert stats.z_per_period == [1]


def test_turnover_needs_two_periods():
    for lists in ([], [[1, 2, 3]]):
        for given_as in (list, iter):
            with pytest.raises(InsufficientDataError):
                turnover(given_as(lists))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_turnover_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    lists = [rng.choice(50, size=5, replace=False).tolist() for _ in range(8)]
    relabel = rng.permutation(50).tolist()
    relabeled = [[relabel[i] for i in lst] for lst in lists]
    original = turnover(lists)
    mapped = turnover(relabeled)
    assert original.z_per_period == mapped.z_per_period


def test_expected_turnover_examples():
    assert expected_turnover(200, 0.0031) == pytest.approx(11.2, abs=0.1)
    assert expected_turnover(5, 0.0) == 0.0
    assert expected_turnover(10, 0.25) == pytest.approx(5.0, rel=1e-12)


def test_expected_turnover_monotone_in_y_and_mu():
    mus = [0.001, 0.01, 0.1, 0.5, 1.0]
    values = [expected_turnover(5, m) for m in mus]
    assert values == sorted(values) and len(set(values)) == len(values)
    ys = [1, 2, 5, 20]
    values = [expected_turnover(y, 0.1) for y in ys]
    assert values == sorted(values) and len(set(values)) == len(values)


def test_expected_turnover_validation():
    with pytest.raises(ValueError, match="mu"):
        expected_turnover(5, 1.5)
    with pytest.raises(ValueError, match="y"):
        expected_turnover(0, 0.5)


def test_fit_turnover_exponent_exact_recovery():
    mus = [0.001, 0.004, 0.02, 0.1, 0.5]
    points = [(m, 3.7 * m**0.4) for m in mus]
    fit = fit_turnover_exponent(points)
    assert abs(fit.slope - 0.4) < 1e-12
    assert abs(fit.intercept - math.log(3.7)) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_fit_turnover_exponent_errors():
    with pytest.raises(InsufficientDataError):
        fit_turnover_exponent([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError, match="positive"):
        fit_turnover_exponent([(0.1, 1.0), (0.2, 0.0), (0.3, 2.0)])
    with pytest.raises(ValueError, match="identical"):
        fit_turnover_exponent([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])


def test_calibrate_mu_round_trips_expected_turnover():
    for mu in (0.0, 1e-4, 1e-2, 0.25, 1.0):
        fraction = expected_turnover(5, mu) / 5
        assert abs(calibrate_mu(fraction) - mu) <= 1e-12


def test_calibrate_mu_reported_fraction_is_exact():
    # a monthly chart turning over 5.6% of its entries implies mu = 0.056^2
    assert calibrate_mu(0.056) == 0.003136


def test_calibrate_mu_bounds():
    assert calibrate_mu(0.0) == 0.0
    assert calibrate_mu(1.0) == 1.0
    with pytest.raises(ValueError):
        calibrate_mu(-0.01)
    with pytest.raises(ValueError):
        calibrate_mu(1.01)


@settings(max_examples=300, deadline=None)
@given(
    f=st.floats(0.0, 1.0)  # subnormals included
    | st.floats(0.0, 2.3e-308)
    | st.integers(0, 2**53).map(lambda i: i / 2**53)  # reprs of 15-17 digits, mostly
    | st.integers(1, 10**17 - 1).map(lambda m: float(f"0.{m:017d}"))
)
@example(f=5e-324)
@example(f=2.2250738585072014e-308)
@example(f=0.1)
@example(f=1 / 3)
@example(f=0.9999999999999999)
def test_calibrate_mu_squares_the_reported_decimal_exactly(f):
    assert calibrate_mu(f) == square_of_repr(f)
