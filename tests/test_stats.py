import math

import numpy as np
import pytest
from scipy.special import ndtri

from pairfunc.models import get_model
from pairfunc.stats import (
    SampleSummary,
    binomial_lower_tail_bound,
    concentration_check_G,
    is_degenerate,
    kolmogorov_to_standard_normal,
    loglinear_fit,
    poisson_upper_tail_bound,
    summarize_sample,
    variance_scaling_fit,
    wasserstein1_to_standard_normal,
)

from conftest import w1_quadrature_oracle


def test_summary_standardization():
    rng = np.random.default_rng(1)
    s = summarize_sample(rng.normal(3.0, 2.0, 500))
    assert abs(s.standardized.mean()) < 1e-12
    assert abs(s.standardized.var(ddof=1) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        summarize_sample([1.0])
    with pytest.raises(ValueError):
        summarize_sample([2.0, 2.0])


def test_w1_quantile_sample_is_small():
    m = 10_000
    sample = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert wasserstein1_to_standard_normal(sample) <= 1e-3


def test_w1_two_point_sample_matches_quadrature():
    sample = np.array([-1.0, 1.0])
    exact = wasserstein1_to_standard_normal(sample)
    oracle = w1_quadrature_oracle(sample)
    assert exact == pytest.approx(oracle, abs=1e-6)


def test_w1_shifted_sample_detects_mean_offset():
    rng = np.random.default_rng(2)
    sample = rng.normal(3.0, 1.0, 1000)
    assert wasserstein1_to_standard_normal(sample) >= 2.5


def test_w1_matches_quadrature_on_random_samples():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 400))
        sample = np.clip(rng.normal(0, 1.2, m), -7.5, 7.5)
        exact = wasserstein1_to_standard_normal(sample)
        oracle = w1_quadrature_oracle(sample)
        assert exact == pytest.approx(oracle, abs=1e-6)


def test_w1_invariances():
    rng = np.random.default_rng(4)
    sample = rng.normal(0, 1, 200)
    base = wasserstein1_to_standard_normal(sample)
    shuffled = sample.copy()
    rng.shuffle(shuffled)
    assert wasserstein1_to_standard_normal(shuffled) == pytest.approx(base, abs=1e-12)
    doubled = np.concatenate([sample, sample])
    assert wasserstein1_to_standard_normal(doubled) == pytest.approx(base, abs=1e-12)


def test_w1_continuous_in_entries():
    rng = np.random.default_rng(8)
    sample = rng.normal(0, 1, 100)
    base = wasserstein1_to_standard_normal(sample)
    nudged = sample.copy()
    nudged[13] += 1e-9
    assert abs(wasserstein1_to_standard_normal(nudged) - base) < 1e-8
    assert abs(kolmogorov_to_standard_normal(nudged) - kolmogorov_to_standard_normal(sample)) < 1e-8


def test_w1_rejects_bad_samples():
    with pytest.raises(ValueError):
        wasserstein1_to_standard_normal([])
    with pytest.raises(ValueError):
        wasserstein1_to_standard_normal([0.0, math.nan])
    with pytest.raises(ValueError):
        wasserstein1_to_standard_normal([0.0, math.inf])


def test_kolmogorov_one_point_sample():
    assert kolmogorov_to_standard_normal([0.0]) == pytest.approx(0.5)


def test_kolmogorov_quantile_sample_is_small():
    m = 10_000
    sample = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert kolmogorov_to_standard_normal(sample) <= 1e-3


def test_kolmogorov_weak_form_of_w1_relation():
    # d_K^2 <= 4 d_W holds comfortably on every sample we produce (a weak
    # conservative form of the square-root relation between the metrics)
    rng = np.random.default_rng(5)
    for _ in range(20):
        sample = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), 300)
        dk = kolmogorov_to_standard_normal(sample)
        dw = wasserstein1_to_standard_normal(sample)
        assert dk**2 <= 4.0 * dw


# -- scaling fits ---------------------------------------------------------------

def test_variance_fit_exact_quartic():
    fit = variance_scaling_fit([8, 16, 32], [8.0**4, 16.0**4, 32.0**4])
    assert fit.slope == pytest.approx(4.0, abs=1e-9)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)


def test_variance_fit_recovers_intercept():
    fit = variance_scaling_fit([8, 16, 32], [5 * 8.0**2, 5 * 16.0**2, 5 * 32.0**2])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-9)


def test_variance_fit_validation():
    with pytest.raises(ValueError):
        variance_scaling_fit([8, 16], [1.0, 2.0])
    with pytest.raises(ValueError):
        variance_scaling_fit([8, 16, 32], [1.0, -2.0, 3.0])


def test_loglinear_fit_r_squared():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, stderr, r2 = loglinear_fit(x, -0.7 * x + 0.1)
    assert slope == pytest.approx(-0.7)
    assert r2 == pytest.approx(1.0)


# -- concentration bounds ---------------------------------------------------------

def test_binomial_bound_value():
    bound = binomial_lower_tail_bound(100, 0.5)
    assert bound == pytest.approx(math.exp(-50 * (0.5 + 0.5 * math.log(0.5))))
    assert bound == pytest.approx(4.66e-4, rel=2e-3)
    assert 0.0 < bound < 1.0


def test_binomial_bound_monotone_in_m():
    values = [binomial_lower_tail_bound(m, 0.3) for m in (10, 50, 100, 500)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        binomial_lower_tail_bound(10, 1.0)


def test_binomial_bound_dominates_monte_carlo():
    rng = np.random.default_rng(6)
    draws = rng.binomial(100, 0.5, 100_000)
    freq = float(np.mean(draws < 25))
    assert freq <= binomial_lower_tail_bound(100, 0.5)


def test_poisson_bound_value_and_limit():
    bound = poisson_upper_tail_bound(10.0)
    assert bound == pytest.approx(math.exp(-math.log(8.0) / 4.0 * 10.0))
    assert bound == pytest.approx(5.52e-3, rel=2e-3)
    assert poisson_upper_tail_bound(1e-12) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        poisson_upper_tail_bound(0.0)


def test_poisson_bound_dominates_monte_carlo():
    rng = np.random.default_rng(7)
    draws = rng.poisson(10.0, 1_000_000)
    freq = float(np.mean(draws > 80))
    assert freq <= poisson_upper_tail_bound(10.0)


# -- compound-score concentration --------------------------------------------------

def test_concentration_exceedance_decreases_with_n():
    model = get_model("treelog-uniform")
    report = concentration_check_G(model, [16, 32, 64], beta3=0.125, replications=30, seed=404)
    assert report.frequencies[0] > report.frequencies[-1]
    assert all(f1 >= f2 for f1, f2 in zip(report.frequencies, report.frequencies[1:]))


def test_concentration_extreme_thresholds():
    model = get_model("treelog-uniform")
    huge = concentration_check_G(model, [16], beta3=1e3, replications=5, seed=1)
    assert huge.frequencies[0] == pytest.approx(1.0)
    zero = concentration_check_G(model, [16], beta3=0.0, replications=5, seed=1)
    assert zero.frequencies[0] == 0.0


def test_concentration_requires_sum_log_sum_model():
    with pytest.raises(ValueError):
        concentration_check_G(get_model("inversion-uniform"), [16], 0.1, 2, 1)


def test_ulp_apart_replications_are_a_degenerate_sample():
    # two treelog-tree replications one ulp apart: the same log terms summed
    # in another row order
    pair = [33.38997621591354, 33.389976215913535]
    assert pair[0] != pair[1] and np.var(pair) > 0
    assert is_degenerate(pair)
    with pytest.raises(ValueError, match="^sample variance must be positive$"):
        summarize_sample(pair)
    # a sampling spread is summarized as before
    spread = [33.38997621591354, 34.0]
    assert not is_degenerate(spread)
    assert summarize_sample(spread).count == 2
    assert is_degenerate([0.0, 0.0, 0.0]) and is_degenerate([2.0, 2.0])


def test_near_degenerate_sample_is_summarized():
    # a spread far above rounding but tiny next to the mean: the rounded mean
    # shifts the standardized mean past 1e-12, which the check must allow
    for seed in range(20):
        values = 50 + 5e-8 * np.random.default_rng(seed).standard_normal(200)
        assert not is_degenerate(values)
        s = summarize_sample(values)
        assert s.count == 200
        assert abs(s.standardized.var(ddof=1) - 1.0) < 1e-12


def test_summary_rejects_a_wrongly_standardized_sample():
    rng = np.random.default_rng(3)
    s = summarize_sample(50 + 5e-8 * rng.standard_normal(200))
    with pytest.raises(ValueError, match="mean 0 and variance 1"):
        SampleSummary(s.count, s.mean, s.variance, s.standardized + 1e-3)
    with pytest.raises(ValueError, match="mean 0 and variance 1"):
        SampleSummary(s.count, s.mean, s.variance, 1.001 * s.standardized)
    # a well-conditioned sample keeps the 1e-12 tolerance
    t = summarize_sample(rng.normal(3.0, 2.0, 500))
    with pytest.raises(ValueError, match="mean 0 and variance 1"):
        SampleSummary(t.count, t.mean, t.variance, t.standardized + 1e-11)
    with pytest.raises(ValueError, match="variance must be positive"):
        SampleSummary(t.count, t.mean, 0.0, t.standardized)
