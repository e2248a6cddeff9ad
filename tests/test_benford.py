"""Benford expectations, digit histograms, chi-squared, counterfactual bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from test_trades import first_significant_digits

from washdetect.benford import (
    DigitHistogram,
    benford_expected,
    chi_squared_benford,
    chi_squared_gof,
    chi_squared_pvalue,
    counterfactual_wash_benford,
    digit_histogram,
    histogram_rows,
)
from washdetect.errors import AmountError, EstimationError, InsufficientDataError
from washdetect.trades import BUILTIN_PAIR_SPECS, SortedAmounts, exact_sum
from washdetect.verdicts import P_FLOOR


def pearson_oracle(freqs, probs, n_eff):
    """Independent direct evaluation of the Pearson sum."""
    return n_eff * sum((f - p) ** 2 / p for f, p in zip(freqs, probs))


class TestExpectedLaw:
    def test_matches_log_formula_to_1e12(self):
        p = benford_expected()
        for d in range(1, 10):
            assert abs(p[d - 1] - math.log10(1 + 1 / d)) < 1e-12

    def test_printed_constants(self):
        p = benford_expected()
        assert p[0] == pytest.approx(0.3010, abs=5e-5)
        assert p[8] == pytest.approx(0.046, abs=5e-4)

    def test_sums_to_one(self):
        assert abs(benford_expected().sum() - 1.0) < 1e-12


class TestDigitHistogram:
    def test_small_example(self):
        amounts = np.array([10_000_000, 19_000_000, 20_000_000])  # 0.1, 0.19, 0.2
        hist = digit_histogram(amounts)
        assert hist.counts[0] == 2
        assert hist.counts[1] == 1
        assert hist.n == 3
        assert hist.volume_subunits[0] == 29_000_000

    def test_scale_invariance(self):
        amounts = np.array([123, 456, 789, 1011], dtype=np.int64)
        h1 = digit_histogram(amounts)
        h2 = digit_histogram(amounts * 10)
        assert h1.counts == h2.counts

    def test_empty_group_raises(self):
        with pytest.raises(InsufficientDataError, match="insufficient data"):
            digit_histogram(np.array([], dtype=np.int64))

    def test_log_uniform_sample_is_benford(self):
        # Log-uniform over exactly 3 decades has exactly Benford first digits.
        rng = np.random.default_rng(20190709)
        amounts = np.floor(10 ** rng.uniform(5, 8, size=1_000_000)).astype(np.int64)
        hist = digit_histogram(amounts)
        assert np.abs(hist.frequencies() - benford_expected()).max() < 0.002

    @given(st.lists(st.integers(min_value=1, max_value=10**12), min_size=1, max_size=100))
    def test_counts_partition(self, values):
        hist = digit_histogram(np.array(values, dtype=np.int64))
        assert hist.n == len(values)
        assert hist.total_volume_subunits == sum(values)

    # the digits' first and last amounts in each decade, and amounts near 2**62
    EDGES = [d * 10**k + e for k in range(19) for d in range(1, 10) for e in (-1, 0) if d * 10**k + e > 0]
    NEAR_2_62 = st.integers(min_value=2**62 - 10**6, max_value=2**62 - 1)

    @given(
        st.lists(
            st.one_of(st.integers(min_value=1, max_value=2**62 - 1), st.sampled_from(EDGES), NEAR_2_62),
            min_size=1,
            max_size=200,
        )
    )
    def test_matches_the_masked_exact_sum_oracle(self, values):
        x = np.array(values, dtype=np.int64)
        digits = first_significant_digits(x)
        want = DigitHistogram(
            tuple(int((digits == d).sum()) for d in range(1, 10)),
            tuple(exact_sum(x[digits == d]) for d in range(1, 10)),
        )
        assert digit_histogram(x) == want
        assert digit_histogram(SortedAmounts.of(x, BUILTIN_PAIR_SPECS["BTC/USD"])) == want

    def test_volumes_of_amounts_near_2_62_are_exact(self):
        x = np.full(1000, 2**62 - 1, dtype=np.int64)
        assert digit_histogram(x).volume_subunits[3] == 1000 * (2**62 - 1)

    @pytest.mark.parametrize("values", [[0, 100], [100, -10], [-(2**63)]])
    def test_non_positive_amount_raises(self, values):
        x = np.array(values, dtype=np.int64)
        for amounts in (x, SortedAmounts.of(x, BUILTIN_PAIR_SPECS["BTC/USD"])):
            with pytest.raises(AmountError, match="non-positive"):
                digit_histogram(amounts)


class TestChiSquared:
    def test_exact_benford_gives_zero(self):
        p = benford_expected()
        res = chi_squared_gof(p, p, 10_000)
        assert res.statistic == pytest.approx(0.0, abs=1e-25)
        assert res.p_value == pytest.approx(1.0)
        assert not res.reject

    def test_survival_function_reference_values(self):
        # Standard chi-squared table entries.
        assert chi_squared_pvalue(12.592, 6) == pytest.approx(0.05, abs=1e-4)
        assert chi_squared_pvalue(15.507, 8) == pytest.approx(0.05, abs=1e-4)

    def test_survival_matches_incomplete_gamma_to_1e10(self):
        # The upper-tail probability is the regularized upper incomplete
        # gamma Q(df/2, x/2); cross-check against arbitrary-precision mpmath
        # at 1e-12, down to the statistic whose tail is P_FLOOR.
        import mpmath

        with mpmath.workdps(40):
            for df in range(1, 41):
                def q(x):
                    return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)

                lo, hi = 0.0, 3000.0  # bisect for the x with q(x) = P_FLOOR
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if q(mid) > P_FLOOR else (lo, mid)
                for x in (0.5, 3.0, 12.592, 15.507, 40.0, 80.0, df / 2, float(df), 2.0 * df, lo / 2, lo):
                    assert chi_squared_pvalue(x, df) == pytest.approx(float(q(x)), rel=1e-12, abs=0), (df, x)

    def test_survival_equals_scipy_stats_chi2_sf(self):
        xs = [1e-300, 1e-8, 0.01, 0.5, 1.0, 2.5, 7.0, 12.592, 15.507, 40.0, 80.0, 300.0, 1500.0]
        for df in range(1, 41):
            for x in xs + [df - 0.5, float(df), 2.0 * df]:
                # abs: tails below the normal doubles (x = 1500) keep no relative precision
                oracle = pytest.approx(float(stats.chi2.sf(x, df)), rel=1e-12, abs=1e-307)
                assert chi_squared_pvalue(x, df) == oracle, (x, df)

    @pytest.mark.parametrize(
        "statistic,expected", [(-1.0, 1.0), (-math.inf, 1.0), (0.0, 1.0), (math.inf, 0.0)]
    )
    def test_survival_edges(self, statistic, expected):
        for df in (1, 8, 40):
            assert chi_squared_pvalue(statistic, df) == expected == float(stats.chi2.sf(statistic, df))

    @pytest.mark.parametrize("observed", [1.0, 0.5])
    def test_single_cell_is_an_error(self, observed):
        # One cell leaves no degree of freedom: no p-value exists.
        with pytest.raises(EstimationError, match="need at least 2 cells"):
            chi_squared_gof(np.array([observed]), np.array([1.0]), 100)

    def test_survival_of_nan_is_nan(self):
        assert math.isnan(chi_squared_pvalue(math.nan, 8))

    def test_uniform_digits_statistic(self):
        freqs = np.full(9, 1 / 9)
        expected = pearson_oracle(freqs, benford_expected(), 10_000)
        counts = np.ones(9, dtype=int) * 100
        hist = DigitHistogram(tuple(counts), tuple(int(c) for c in counts))
        res = chi_squared_benford(hist, effective_n=10_000)
        assert res.statistic == pytest.approx(expected, rel=1e-12)
        assert res.statistic == pytest.approx(4017.0, abs=0.5)
        assert res.reject

    def test_effective_n_defaults_to_raw_count(self):
        counts = (301, 176, 125, 97, 79, 67, 58, 51, 46)
        hist = DigitHistogram(counts, counts)
        res = chi_squared_benford(hist)
        assert res.effective_n == 1000

    def test_statistic_scale_invariant_in_amounts(self):
        rng = np.random.default_rng(7)
        amounts = rng.integers(1, 10**9, size=20_000).astype(np.int64)
        r1 = chi_squared_benford(digit_histogram(amounts), effective_n=10_000)
        r2 = chi_squared_benford(digit_histogram(amounts * 100), effective_n=10_000)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)

    def test_rejects_bad_effective_n(self):
        hist = DigitHistogram((1,) * 9, (1,) * 9)
        with pytest.raises(EstimationError):
            chi_squared_benford(hist, effective_n=0)

    def test_mixing_monotonicity(self):
        # Mixing wash concentrated on one digit never lowers the statistic.
        rng = np.random.default_rng(11)
        n = 200_000
        authentic = np.floor(10 ** rng.uniform(4, 8, size=n)).astype(np.int64)
        wash = rng.integers(40_000_000, 50_000_000, size=n).astype(np.int64)  # digit 4
        stats_along_grid = []
        for lam in np.arange(0.0, 1.0, 0.1):
            k = int(lam * n)
            tape = np.concatenate([authentic[: n - k], wash[:k]])
            res = chi_squared_benford(digit_histogram(tape), effective_n=10_000)
            stats_along_grid.append(res.statistic)
        assert all(b >= a for a, b in zip(stats_along_grid, stats_along_grid[1:]))


class TestCounterfactualWash:
    def test_exact_benford_equal_means_gives_zero(self):
        p = benford_expected()
        counts = tuple(int(round(1_000_000 * x)) for x in p)
        volumes = tuple(c * 50_000 for c in counts)  # equal mean sizes
        hist = DigitHistogram(counts, volumes)
        assert counterfactual_wash_benford(hist) == pytest.approx(0.0, abs=1e-9)

    def test_zero_digit_count_raises(self):
        counts = (100, 100, 100, 100, 0, 100, 100, 100, 100)
        hist = DigitHistogram(counts, counts)
        with pytest.raises(EstimationError, match="degenerate"):
            counterfactual_wash_benford(hist)

    def test_wash_concentrated_high_digits_detected(self):
        # Half the volume from bots trading uniform sizes with digits 6..9:
        # five anchors stay deflated, so the median clears zero.
        rng = np.random.default_rng(42)
        n_auth = 400_000
        authentic = np.floor(10 ** rng.uniform(4, 8, size=n_auth)).astype(np.int64)
        auth_volume = int(authentic.sum())
        wash_sizes = rng.integers(6 * 10**6, 10**7, size=2 * n_auth).astype(np.int64)
        k = np.searchsorted(np.cumsum(wash_sizes), auth_volume)
        tape = np.concatenate([authentic, wash_sizes[: k + 1]])
        value = counterfactual_wash_benford(digit_histogram(tape))
        assert value > 0.0
        # regression anchor, frozen from this seeded construction
        assert value == pytest.approx(0.6194068462851279, abs=1e-9)

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=9, max_size=9))
    @settings(max_examples=50)
    def test_result_is_a_fraction(self, counts):
        volumes = tuple(c * 1000 for c in counts)
        hist = DigitHistogram(tuple(counts), volumes)
        value = counterfactual_wash_benford(hist)
        assert 0.0 <= value <= 1.0


class TestExport:
    def test_csv_has_nine_rows(self):
        hist = digit_histogram(np.array([100, 200, 300], dtype=np.int64))
        rows = histogram_rows(hist)
        assert rows[0] == ["digit", "count", "frequency", "benford_expected"]
        assert [row[:2] for row in rows[1:]] == [[1, 1], [2, 1], [3, 1]] + [[d, 0] for d in range(4, 10)]
