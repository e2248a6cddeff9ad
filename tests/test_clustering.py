"""Window frequencies, round-vs-unrounded pairs, and the clustering t-test."""

import math

import numpy as np
import pytest
from scipy import stats

from washdetect.clustering import (
    WindowPair,
    cluster_pairs,
    clustering_t_test,
    run_cluster_test,
    size_histogram_rows,
)
from washdetect.distributions import t_cdf
from washdetect.errors import InsufficientDataError
from washdetect.trades import BUILTIN_PAIR_SPECS
from washdetect.verdicts import P_FLOOR

BTC = BUILTIN_PAIR_SPECS["BTC/USD"]
UNIT = BTC.subunits_per_base_unit


def subs(units_values):
    """Amounts in sub-units from base-unit sizes, exact for grid/10."""
    return np.array([int(round(v * 10)) * (UNIT // 10) for v in units_values], dtype=np.int64)


# Off every tested window, and below the center of its own windows at both
# steps (460 mod 500, 60 mod 100), so padding with it adds no window.
PAD_UNITS = 1_000_460.5


def padded(sizes):
    """``subs(sizes)`` plus a bit over 1% of PAD_UNITS, which lifts the
    99th-percentile cap on window centers above every size in ``sizes``."""
    sizes = list(sizes)
    return subs(sizes + [PAD_UNITS] * (len(sizes) // 99 + 1))


def windows(sizes):
    """Every window that holds a trade: cluster_pairs with no support floor or size cap."""
    return {p.center: p for p in cluster_pairs(padded(sizes), BTC, 100, min_support=1)}


class TestWindowFrequencies:
    def test_direct_ratio(self):
        # 1000 trades in the window, 164 exactly at the 200-unit center.
        sizes = [200] * 164 + [170.5] * 500 + [231] * 336
        w = windows(sizes)[200]
        assert w.window_count == 1000
        assert w.round_freq == pytest.approx(0.164)
        # 231 is the best competitor: 170.5 (the most frequent size) is not an integer size
        assert w.max_unrounded_freq == pytest.approx(0.336)

    def test_reference_window_scenario(self):
        # Window [150, 250) around 0.02 BTC: 16.42% at the center, best
        # competing unrounded size 2.54%.
        n = 5000
        n_center = int(round(0.1642 * n))
        n_best = int(round(0.0254 * n))
        sizes = [200] * n_center + [160] * n_best
        filler = n - n_center - n_best
        sizes += [150.5 + (k % 99) for k in range(filler)]  # never an integer size
        w = windows(sizes)[200]
        assert w.round_freq == pytest.approx(0.1642, abs=1e-4)
        assert w.max_unrounded_freq == pytest.approx(0.0254, abs=1e-4)

    def test_window_containing_only_center(self):
        assert list(windows([300] * 10).values()) == [WindowPair(300, 1.0, 0.0, 10)]

    def test_half_open_window(self):
        # 150 and 249 fall in [150, 250), 250 in the next window [250, 350)
        by_center = windows([150, 249, 250, 320, 320, 320])
        assert by_center[200] == WindowPair(200, 0.0, 0.5, 2)
        assert by_center[300] == WindowPair(300, 0.0, 0.75, 4)

    def test_empty_window(self):
        # no window is reported around 200 when no trade falls in [150, 250)
        assert list(windows([1000])) == [1000]

    def test_frequencies_form_subprobability(self):
        rng = np.random.default_rng(3)
        sizes = rng.uniform(150, 250, size=2000)
        w = windows(sizes)[200]
        assert w.round_freq + w.max_unrounded_freq <= 1.0 + 1e-12


class TestClusterPairs:
    def test_all_round_trades_have_zero_competitors(self):
        sizes = []
        for c in range(100, 2100, 100):
            sizes += [c] * 60
        pairs = cluster_pairs(padded(sizes), BTC, 100, min_support=50)
        assert len(pairs) >= 10
        assert all(p.max_unrounded_freq == 0.0 for p in pairs)
        assert all(p.round_freq == 1.0 for p in pairs)

    def test_min_support_skips_thin_windows(self):
        sizes = [200] * 60 + [300] * 10
        pairs = cluster_pairs(padded(sizes), BTC, 100, min_support=50)
        centers = [p.center for p in pairs]
        assert 200 in centers and 300 not in centers

    def test_step_500_excludes_multiples_of_100_from_competitors(self):
        # Window [400, 600): competitor candidates are integers that are not
        # multiples of 100; 400 and 450 present, only 450 may compete.
        sizes = [500] * 100 + [400] * 80 + [450] * 30 + [433.5] * 40
        pairs = cluster_pairs(padded(sizes), BTC, 500, min_support=50)
        w = [p for p in pairs if p.center == 500][0]
        assert w.round_freq == pytest.approx(100 / 250)
        assert w.max_unrounded_freq == pytest.approx(30 / 250)

    def test_uniform_fine_precision_has_no_integer_mass(self):
        rng = np.random.default_rng(5)
        amounts = rng.integers(1 * UNIT, 3000 * UNIT, size=200_000).astype(np.int64)
        pairs = cluster_pairs(amounts, BTC, 100)
        assert len(pairs) >= 10
        diffs = [p.difference for p in pairs]
        assert abs(float(np.mean(diffs))) < 1e-3  # analytic expectation is 0

    def test_cap_percentile_bounds_centers(self):
        sizes = [100] * 1000 + [200] * 1000 + [100000] * 5
        pairs = cluster_pairs(subs(sizes), BTC, 100)
        assert max(p.center for p in pairs) <= 200


class TestClusteringTTest:
    def test_degenerate_positive(self):
        pairs = [WindowPair(c, 0.2, 0.1, 100) for c in (100, 200, 300, 400)]
        res = clustering_t_test(pairs)
        assert res.p_value < 1e-12
        assert not res.reject  # clustering present

    def test_all_zero_differences(self):
        pairs = [WindowPair(c, 0.1, 0.1, 100) for c in (100, 200, 300)]
        res = clustering_t_test(pairs)
        assert res.p_value == 1.0
        assert res.reject  # no clustering

    def test_closed_form_t(self):
        rng = np.random.default_rng(123)
        d = rng.normal(0.05, 0.01, size=30)
        pairs = [WindowPair(100 * (i + 1), float(x), 0.0, 100) for i, x in enumerate(d)]
        res = clustering_t_test(pairs)
        expected_t = d.mean() / (d.std(ddof=1) / math.sqrt(30))
        assert res.t_statistic == pytest.approx(expected_t, rel=1e-12)
        assert res.p_value == pytest.approx(float(stats.t.sf(expected_t, 29)), rel=1e-9, abs=0)
        assert res.p_value < 1e-12

    def test_needs_two_pairs(self):
        with pytest.raises(InsufficientDataError):
            clustering_t_test([WindowPair(100, 0.5, 0.1, 60)])

    def test_anomaly_p_complements_clustering_p(self):
        rng = np.random.default_rng(9)
        d = rng.normal(0.0, 0.02, size=40)
        pairs = [WindowPair(100 * (i + 1), max(0.0, x), max(0.0, -x), 100) for i, x in enumerate(d)]
        res = clustering_t_test(pairs)
        assert res.anomaly_p == pytest.approx(1.0 - res.p_value, abs=1e-9)

    def test_p_values_equal_scipy_stats_t(self):
        rng = np.random.default_rng(17)
        for df in range(1, 41):
            for shift in (-0.3, -0.05, -0.01, 0.0, 0.002, 0.01, 0.05, 0.3):
                d = rng.normal(shift, 0.02, size=df + 1)
                pairs = [WindowPair(100 * (i + 1), max(0.0, x), max(0.0, -x), 100) for i, x in enumerate(d)]
                res = clustering_t_test(pairs)
                sf, cdf = float(stats.t.sf(res.t_statistic, df)), float(stats.t.cdf(res.t_statistic, df))
                assert res.p_value == pytest.approx(max(P_FLOOR, sf), rel=1e-12, abs=0), (df, shift)
                assert res.anomaly_p == pytest.approx(max(P_FLOOR, cdf), rel=1e-12, abs=0), (df, shift)

    def test_t_kernel_keeps_scipy_stats_values_at_infinity(self):
        for df in range(1, 41):
            for t in (-math.inf, math.inf):
                assert t_cdf(df, -t) == stats.t.sf(t, df)
                assert t_cdf(df, t) == stats.t.cdf(t, df)


class TestRunClusterTest:
    def test_insufficient_windows_flagged(self):
        sizes = [200] * 60 + [300] * 60
        res = run_cluster_test(padded(sizes), BTC, 100)
        assert res.insufficient
        assert res.n_pairs == 2
        assert not res.reject

    def test_round_heavy_tape_detects_clustering(self):
        rng = np.random.default_rng(17)
        background = rng.integers(50 * UNIT, 3000 * UNIT, size=60_000).astype(np.int64)
        round_sizes = (rng.integers(1, 30, size=25_000) * 100 * UNIT).astype(np.int64)
        res = run_cluster_test(np.concatenate([background, round_sizes]), BTC, 100)
        assert not res.insufficient
        assert res.mean_difference > 0
        assert res.p_value < 0.01
        assert not res.reject

    def test_adding_round_trades_raises_t(self):
        rng = np.random.default_rng(23)
        background = rng.integers(50 * UNIT, 3000 * UNIT, size=60_000).astype(np.int64)
        light = (rng.integers(1, 30, size=5_000) * 100 * UNIT).astype(np.int64)
        heavy = (rng.integers(1, 30, size=25_000) * 100 * UNIT).astype(np.int64)
        r_light = run_cluster_test(np.concatenate([background, light]), BTC, 100)
        r_heavy = run_cluster_test(np.concatenate([background, light, heavy]), BTC, 100)
        assert r_heavy.t_statistic >= r_light.t_statistic


class TestExport:
    def test_size_histogram_csv(self):
        sizes = subs([1.5, 2, 2, 500, 999])
        header, *lines = size_histogram_rows(sizes, BTC, lo_units=1, hi_units=1000, step=100)
        assert header == ["size_base_units", "count", "is_round_bin"]
        rows = {row[0]: row for row in lines}
        assert rows[1] == [1, 1, 0]  # 1.5 floors to 1
        assert rows[2] == [2, 2, 0]
        assert rows[500] == [500, 1, 1]  # multiple of 5*step highlighted
