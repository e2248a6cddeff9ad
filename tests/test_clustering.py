"""Window counts, the array windows against a per-window loop, and the clustering t-test."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from washdetect.clustering import (
    CAP_PERCENTILE,
    STEP_RADIUS,
    cluster_windows,
    clustering_t_test,
    run_cluster_test,
    size_histogram_rows,
)
from washdetect.distributions import t_cdf
from washdetect.errors import InsufficientDataError
from washdetect.trades import BUILTIN_PAIR_SPECS, SortedAmounts
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


def btc(amounts_subunits):
    """The BTC/USD group of these amounts."""
    return SortedAmounts.of(amounts_subunits, BTC)


def windows(sizes, step=100, min_support=1):
    """center -> (count, at_center, best) for each window of ``padded(sizes)``;
    with the default support floor, every window that holds a trade."""
    centers, *columns = cluster_windows(btc(padded(sizes)), step, min_support=min_support)
    return {int(c): tuple(int(col[i]) for col in columns) for i, c in enumerate(centers)}


def loop_windows(amounts_subunits, spec, step, min_support):
    """The windows as one Python pass per candidate center, each a
    ``(center, count, at_center, best)`` tuple, with its frequency difference."""
    radius = STEP_RADIUS[step]
    unit = spec.subunits_per_base_unit
    x = np.sort(np.asarray(amounts_subunits, dtype=np.int64))
    cap_units = int(x[max(1, math.ceil(CAP_PERCENTILE / 100.0 * x.size)) - 1]) // unit
    q, r = np.divmod(x, unit)
    int_vals, int_counts = np.unique(q[r == 0], return_counts=True)
    competitor_ok = int_vals % 100 != 0

    # candidate centers: the multiples of step within the radius of some size
    cell, offset = np.divmod(q, step)
    centers = np.unique(np.concatenate([cell[offset < radius], cell[offset >= step - radius] + 1])) * step
    centers = centers[(centers >= step) & (centers <= cap_units)]

    win_lo = np.searchsorted(x, (centers - radius) * unit, side="left")
    win_hi = np.searchsorted(x, (centers + radius) * unit, side="left")
    iv_lo = np.searchsorted(int_vals, centers - radius, side="left")
    iv_hi = np.searchsorted(int_vals, centers + radius, side="left")
    center_pos = np.searchsorted(int_vals, centers, side="left")

    rows, differences = [], []
    for i in range(centers.size):
        total = int(win_hi[i] - win_lo[i])
        if total < min_support:
            continue
        c = int(centers[i])
        pos = int(center_pos[i])
        at_center = int(int_counts[pos]) if pos < int_vals.size and int_vals[pos] == c else 0
        lo_i, hi_i = int(iv_lo[i]), int(iv_hi[i])
        mask = competitor_ok[lo_i:hi_i]
        best = int(int_counts[lo_i:hi_i][mask].max()) if mask.any() else 0
        rows.append((c, total, at_center, best))
        differences.append(at_center / total - best / total)
    return rows, differences


def assert_matches_loop(amounts, spec, step, min_support):
    got = cluster_windows(SortedAmounts.of(amounts, spec), step, min_support=min_support)
    assert all(a.dtype == np.int64 for a in got)
    # the same bytes whatever order the trades come in
    shuffled = cluster_windows(SortedAmounts.of(amounts[::-1], spec), step, min_support=min_support)
    assert [a.tobytes() for a in shuffled] == [a.tobytes() for a in got]
    rows, differences = loop_windows(amounts, spec, step, min_support)
    expected = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    for name, have, want in zip(("centers", "counts", "at_center", "best"), got, expected):
        assert have.tobytes() == want.tobytes(), name
    centers, counts, at_center, best = got
    assert (at_center / counts - best / counts).tobytes() == np.array(differences, dtype=np.float64).tobytes()


PAIRS = sorted(BUILTIN_PAIR_SPECS)


@st.composite
def window_cases(draw):
    """A pair, a grid, a support floor and a tape of sizes piled on window
    edges (center +- radius and one sub-unit below), round and integer sizes."""
    spec = BUILTIN_PAIR_SPECS[draw(st.sampled_from(PAIRS))]
    step = draw(st.sampled_from(sorted(STEP_RADIUS)))
    radius, unit = STEP_RADIUS[step], spec.subunits_per_base_unit
    edge = st.builds(
        lambda k, off, below: (k * step + off) * unit - below,
        st.integers(0, 12),
        st.sampled_from([-radius, 0, radius]),
        st.sampled_from([0, 1]),
    )
    size = st.one_of(
        edge,
        st.integers(1, 7000).map(lambda u: u * unit),
        st.integers(1, 60).map(lambda u: 100 * u * unit),
        st.integers(1, 7000 * unit),
    )
    piles = draw(st.lists(st.tuples(size.filter(lambda a: a > 0), st.integers(1, 60)), min_size=1, max_size=40))
    amounts = np.repeat(np.array([a for a, _ in piles], dtype=np.int64), [n for _, n in piles])
    return amounts, spec, step, draw(st.sampled_from([1, 5, 50]))


class TestArrayWindowsMatchLoop:
    @given(window_cases())
    def test_random_tapes(self, case):
        assert_matches_loop(*case)

    @pytest.mark.parametrize("min_support", [1, 5, 50])
    @pytest.mark.parametrize("step", sorted(STEP_RADIUS))
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("tape", ["all-round", "no-integer-size", "one-trade", "heavy-tailed"])
    def test_named_tapes(self, tape, pair, step, min_support):
        spec = BUILTIN_PAIR_SPECS[pair]
        unit = spec.subunits_per_base_unit
        rng = np.random.default_rng(11)
        if tape == "all-round":
            amounts = np.repeat(np.arange(1, 31) * 100 * unit, 60)
        elif tape == "no-integer-size":
            amounts = rng.integers(1, 5000, size=20_000) * unit + unit // 2
        elif tape == "one-trade":
            amounts = np.array([step * unit])
        else:
            amounts = (np.exp(rng.normal(5, 2, size=20_000)) * unit).astype(np.int64) + 1
        assert_matches_loop(amounts, spec, step, min_support)

    def test_empty_tape_has_no_windows(self):
        assert all(a.size == 0 and a.dtype == np.int64 for a in cluster_windows(btc(np.zeros(0, np.int64))))


class TestWindowFrequencies:
    def test_direct_ratio(self):
        # 1000 trades in the window, 164 exactly at the 200-unit center;
        # 231 is the best competitor: 170.5 (the most frequent size) is not an integer size
        sizes = [200] * 164 + [170.5] * 500 + [231] * 336
        assert windows(sizes)[200] == (1000, 164, 336)

    def test_reference_window_scenario(self):
        # Window [150, 250) around 0.02 BTC: 16.42% at the center, best
        # competing unrounded size 2.54%.
        n = 5000
        n_center = int(round(0.1642 * n))
        n_best = int(round(0.0254 * n))
        sizes = [200] * n_center + [160] * n_best
        filler = n - n_center - n_best
        sizes += [150.5 + (k % 99) for k in range(filler)]  # never an integer size
        count, at_center, best = windows(sizes)[200]
        assert at_center / count == pytest.approx(0.1642, abs=1e-4)
        assert best / count == pytest.approx(0.0254, abs=1e-4)

    def test_window_containing_only_center(self):
        assert windows([300] * 10) == {300: (10, 10, 0)}

    def test_half_open_window(self):
        # 150 and 249 fall in [150, 250), 250 in the next window [250, 350)
        by_center = windows([150, 249, 250, 320, 320, 320])
        assert by_center[200] == (2, 0, 1)
        assert by_center[300] == (4, 0, 3)

    def test_empty_window(self):
        # no window is reported around 200 when no trade falls in [150, 250)
        assert list(windows([1000])) == [1000]

    def test_frequencies_form_subprobability(self):
        rng = np.random.default_rng(3)
        sizes = rng.uniform(150, 250, size=2000)
        count, at_center, best = windows(sizes)[200]
        assert at_center + best <= count


class TestClusterPairs:
    def test_all_round_trades_have_zero_competitors(self):
        sizes = []
        for c in range(100, 2100, 100):
            sizes += [c] * 60
        centers, counts, at_center, best = cluster_windows(btc(padded(sizes)), 100, min_support=50)
        assert centers.size >= 10
        assert (best == 0).all()
        assert (at_center == counts).all()

    def test_min_support_skips_thin_windows(self):
        by_center = windows([200] * 60 + [300] * 10, min_support=50)
        assert 200 in by_center and 300 not in by_center

    def test_step_500_excludes_multiples_of_100_from_competitors(self):
        # Window [400, 600): competitor candidates are integers that are not
        # multiples of 100; 400 and 450 present, only 450 may compete.
        sizes = [500] * 100 + [400] * 80 + [450] * 30 + [433.5] * 40
        assert windows(sizes, 500, min_support=50)[500] == (250, 100, 30)

    def test_uniform_fine_precision_has_no_integer_mass(self):
        rng = np.random.default_rng(5)
        amounts = rng.integers(1 * UNIT, 3000 * UNIT, size=200_000).astype(np.int64)
        centers, counts, at_center, best = cluster_windows(btc(amounts), 100)
        assert centers.size >= 10
        assert abs(float(np.mean(at_center / counts - best / counts))) < 1e-3  # analytic expectation is 0

    def test_cap_percentile_bounds_centers(self):
        sizes = [100] * 1000 + [200] * 1000 + [100000] * 5
        centers, *_ = cluster_windows(btc(subs(sizes)), 100)
        assert centers.max() <= 200


class TestClusteringTTest:
    def test_degenerate_positive(self):
        res = clustering_t_test(np.full(4, 0.1))
        assert res.p_value < 1e-12
        assert not res.reject  # clustering present

    def test_all_zero_differences(self):
        res = clustering_t_test(np.zeros(3))
        assert res.p_value == 1.0
        assert res.reject  # no clustering

    def test_closed_form_t(self):
        rng = np.random.default_rng(123)
        d = rng.normal(0.05, 0.01, size=30)
        res = clustering_t_test(d)
        expected_t = d.mean() / (d.std(ddof=1) / math.sqrt(30))
        assert res.t_statistic == pytest.approx(expected_t, rel=1e-12)
        assert res.p_value == pytest.approx(float(stats.t.sf(expected_t, 29)), rel=1e-9, abs=0)
        assert res.p_value < 1e-12

    def test_needs_two_pairs(self):
        with pytest.raises(InsufficientDataError):
            clustering_t_test(np.array([0.4]))

    def test_anomaly_p_complements_clustering_p(self):
        rng = np.random.default_rng(9)
        res = clustering_t_test(rng.normal(0.0, 0.02, size=40))
        assert res.anomaly_p == pytest.approx(1.0 - res.p_value, abs=1e-9)

    def test_p_values_equal_scipy_stats_t(self):
        rng = np.random.default_rng(17)
        for df in range(1, 41):
            for shift in (-0.3, -0.05, -0.01, 0.0, 0.002, 0.01, 0.05, 0.3):
                res = clustering_t_test(rng.normal(shift, 0.02, size=df + 1))
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
        res = run_cluster_test(btc(padded(sizes)), 100)
        assert res.insufficient
        assert res.n_pairs == 2
        assert not res.reject

    def test_round_heavy_tape_detects_clustering(self):
        rng = np.random.default_rng(17)
        background = rng.integers(50 * UNIT, 3000 * UNIT, size=60_000).astype(np.int64)
        round_sizes = (rng.integers(1, 30, size=25_000) * 100 * UNIT).astype(np.int64)
        res = run_cluster_test(btc(np.concatenate([background, round_sizes])), 100)
        assert not res.insufficient
        assert res.mean_difference > 0
        assert res.p_value < 0.01
        assert not res.reject

    def test_adding_round_trades_raises_t(self):
        rng = np.random.default_rng(23)
        background = rng.integers(50 * UNIT, 3000 * UNIT, size=60_000).astype(np.int64)
        light = (rng.integers(1, 30, size=5_000) * 100 * UNIT).astype(np.int64)
        heavy = (rng.integers(1, 30, size=25_000) * 100 * UNIT).astype(np.int64)
        r_light = run_cluster_test(btc(np.concatenate([background, light])), 100)
        r_heavy = run_cluster_test(btc(np.concatenate([background, light, heavy])), 100)
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
