"""Fisher combination, failure rates, rank model, and Spearman correlation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from washdetect.errors import EstimationError, InsufficientDataError
from washdetect.verdicts import (
    RankCoeffs,
    counterfactual_rank,
    failure_rate,
    fisher_combine,
    _average_ranks,
    spearman_rank_correlation,
    wash_failure_regression,
)


class TestFisher:
    def test_all_ones_not_rejected(self):
        res = fisher_combine([1.0, 1.0, 1.0])
        assert res.chi2 == pytest.approx(0.0)
        assert res.df == 6
        assert not res.reject

    def test_critical_value_at_df6(self):
        res = fisher_combine([0.5, 0.5, 0.5], alpha=0.05)
        assert res.critical_value == pytest.approx(12.592, abs=5e-4)

    def test_three_marginal_pvalues_reject(self):
        res = fisher_combine([0.05, 0.05, 0.05])
        assert res.chi2 == pytest.approx(-6 * math.log(0.05), rel=1e-12)
        assert res.chi2 == pytest.approx(17.97, abs=0.01)
        assert res.reject

    def test_critical_value_equals_scipy_stats_chi2_isf(self):
        # Fisher's df is 2k, so k = 1..20 covers every even df up to 40.
        for k in range(1, 21):
            for alpha in (1e-12, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5):
                res = fisher_combine([0.5] * k, alpha)
                oracle = float(stats.chi2.isf(alpha, 2 * k))
                assert res.critical_value == pytest.approx(oracle, rel=1e-12, abs=0), (k, alpha)

    def test_tiny_pvalues_floored_not_infinite(self):
        res = fisher_combine([1e-320, 0.5])
        assert math.isfinite(res.chi2)
        assert res.chi2 == pytest.approx(-2 * (math.log(1e-300) + math.log(0.5)), rel=1e-12)

    def test_underflowed_zero_is_floored(self):
        res = fisher_combine([0.0, 0.5])
        assert res.chi2 == pytest.approx(-2 * (math.log(1e-300) + math.log(0.5)), rel=1e-12)

    def test_out_of_range_p_rejected(self):
        with pytest.raises(EstimationError):
            fisher_combine([-0.1, 0.5])
        with pytest.raises(EstimationError):
            fisher_combine([1.5])

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fisher_combine([])

    @given(st.lists(st.floats(min_value=1e-10, max_value=1.0), min_size=1, max_size=6))
    def test_symmetric_in_arguments(self, ps):
        a = fisher_combine(ps)
        b = fisher_combine(list(reversed(ps)))
        assert a.chi2 == pytest.approx(b.chi2, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_monotone_decreasing_any_p_increases_chi2(self, ps, which):
        i = which % len(ps)
        smaller = list(ps)
        smaller[i] = ps[i] / 2
        assert fisher_combine(smaller).chi2 >= fisher_combine(ps).chi2


class TestFailureRate:
    def test_all_pass(self):
        assert failure_rate([False] * 8) == 0.0

    def test_three_of_twelve(self):
        outcomes = [True] * 3 + [False] * 9
        assert failure_rate(outcomes) == 0.25

    def test_skips_excluded_from_denominator(self):
        assert failure_rate([True, None, False, None]) == 0.5

    def test_no_completed_tests(self):
        with pytest.raises(InsufficientDataError):
            failure_rate([None, None])

    def test_order_invariant(self):
        a = [True, False, None, True, False, False]
        assert failure_rate(a) == failure_rate(list(reversed(a)))


class TestWashFailureRegression:
    def test_collinear_points_recovered_exactly(self):
        x = [0.0, 0.2, 0.4, 0.6, 0.8]
        y = [0.1 + 0.5 * v for v in x]
        fit = wash_failure_regression(x, y)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.1, abs=1e-12)
        assert fit.adj_r_squared == pytest.approx(1.0, abs=1e-9)

    def test_singular_failure_rates(self):
        with pytest.raises(EstimationError, match="singular"):
            wash_failure_regression([0.3, 0.3, 0.3], [0.1, 0.2, 0.3])

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            wash_failure_regression([0.1, 0.2], [0.1, 0.2])

    def test_graded_battery_slope_positive_and_significant(self):
        rng = np.random.default_rng(31)
        rates = np.linspace(0.0, 0.9, 20)
        wash = 0.4 + 0.6 * rates + rng.normal(0, 0.05, size=20)
        fit = wash_failure_regression(rates, wash)
        assert fit.slope > 0
        assert fit.slope_p < 0.05
        oracle_t = fit.slope / fit.slope_se
        assert fit.slope_t == pytest.approx(oracle_t)
        assert fit.slope_p == pytest.approx(2 * float(stats.t.sf(abs(oracle_t), 18)), rel=1e-9, abs=0)

    def test_slope_p_equals_scipy_stats_t(self):
        rng = np.random.default_rng(5)
        for n in range(3, 43):
            rates = np.linspace(0.0, 0.9, n)
            for slope in (0.0, 0.05, 0.6, -2.0):
                wash = 0.4 + slope * rates + rng.normal(0, 0.05, size=n)
                fit = wash_failure_regression(rates, wash)
                oracle = 2.0 * float(stats.t.sf(abs(fit.slope_t), n - 2))
                assert fit.slope_p == pytest.approx(oracle, rel=1e-12, abs=0), (n, slope)


class TestSpearman:
    def test_perfectly_inverse(self):
        volumes = [10.0, 20.0, 30.0, 40.0]
        ranks = [4.0, 3.0, 2.0, 1.0]
        assert spearman_rank_correlation(volumes, ranks) == pytest.approx(-1.0)

    def test_identical_order(self):
        assert spearman_rank_correlation([1, 5, 9], [2, 3, 11]) == pytest.approx(1.0)

    def test_matches_brute_force_rank_then_pearson(self):
        def brute(x, y):
            def ranks(v):
                order = sorted(range(len(v)), key=lambda i: v[i])
                r = [0.0] * len(v)
                i = 0
                while i < len(order):
                    j = i
                    while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                        j += 1
                    avg = (i + j) / 2 + 1
                    for k in range(i, j + 1):
                        r[order[k]] = avg
                    i = j + 1
                return r

            rx, ry = ranks(list(x)), ranks(list(y))
            n = len(rx)
            mx, my = sum(rx) / n, sum(ry) / n
            num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
            den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
            return num / den

        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.normal(size=n)
            if np.all(x == x[0]):
                continue
            assert spearman_rank_correlation(x, y) == pytest.approx(brute(x, y), abs=1e-12)

    def test_constant_list_undefined(self):
        with pytest.raises(EstimationError):
            spearman_rank_correlation([1.0, 1.0, 1.0], [1, 2, 3])

    @given(
        st.lists(st.floats(width=64), min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=0, max_size=40)
        )
    )
    def test_average_ranks_equal_scipy_stats_rankdata(self, xs):
        a = np.array(xs, dtype=np.float64)
        assert np.array_equal(_average_ranks(a), stats.rankdata(a), equal_nan=True)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=30))
    def test_invariant_under_monotone_transform(self, xs):
        if len(set(xs)) < 2:
            return
        ys = list(range(len(xs)))
        r1 = spearman_rank_correlation(xs, ys)
        r2 = spearman_rank_correlation([math.exp(x / 10) for x in xs], ys)
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestCounterfactualRank:
    def test_zero_wash_zero_improvement(self):
        assert counterfactual_rank(1e9, 0.0).improvement == 0

    def test_seventy_percent_wash(self):
        res = counterfactual_rank(1e9, 70.0)
        assert res.improvement == 23
        assert res.improvement_raw == pytest.approx(-19.202 * math.log(0.3), rel=1e-9)

    def test_fifty_percent_wash(self):
        assert counterfactual_rank(1e9, 50.0).improvement == 13

    def test_reported_rank_offset(self):
        res = counterfactual_rank(1e9, 70.0, reported_rank=40)
        assert res.counterfactual_rank == 63

    def test_log_base_10_option(self):
        # a model fitted on log10(volume) is the natural-log model with b / ln(10)
        res = counterfactual_rank(1e9, 70.0, coeffs=RankCoeffs(b=-19.202 / math.log(10)))
        assert res.improvement_raw == pytest.approx(-19.202 * math.log10(0.3), rel=1e-9)
        assert res.improvement == 10

    def test_full_wash_undefined(self):
        with pytest.raises(EstimationError):
            counterfactual_rank(1e9, 100.0)

    def test_volume_must_be_positive(self):
        with pytest.raises(EstimationError):
            counterfactual_rank(0.0, 10.0)

    @given(st.floats(min_value=0.0, max_value=99.0), st.floats(min_value=0.1, max_value=99.0))
    def test_strictly_increasing_in_wash(self, w1, w2):
        lo, hi = sorted((w1, w2))
        if hi - lo < 1e-9:
            return
        a = counterfactual_rank(5e8, lo).improvement_raw
        b = counterfactual_rank(5e8, hi).improvement_raw
        assert b > a

    def test_custom_coefficients(self):
        res = counterfactual_rank(100.0, 50.0, coeffs=RankCoeffs(a=10.0, b=-2.0))
        assert res.improvement_raw == pytest.approx(2.0 * math.log(2.0))
