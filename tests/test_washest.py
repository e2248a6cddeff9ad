"""Roundness benchmark test, volume-ratio regression, wash estimates."""

import json
import math

import numpy as np
import pytest

from washdetect.errors import EstimationError, InsufficientDataError
from washdetect.ingest import WeeklyVolumeSplit
from washdetect.trades import BUILTIN_PAIR_SPECS, ExchangeMeta, RegulatoryClass
from washdetect.washest import (
    _design_matrix,
    _wash_volumes,
    cross_validate_regulated,
    dump_models,
    estimate_wash,
    fit_benchmark,
    fit_bootstrap,
    load_models,
    replicate_sd,
    roundness_chi_squared,
    roundness_distribution,
)

BTC = BUILTIN_PAIR_SPECS["BTC/USD"]


def split(ex, week, round_vol, unrounded_vol, pair="BTC/USD"):
    return WeeklyVolumeSplit(
        ex, pair, week, int(round(round_vol * 10**8)), int(round(unrounded_vol * 10**8))
    )


def identity_panel(ex, weeks=12, scale=1.0):
    return [split(ex, w, scale * (1 + w % 3), scale * (1 + w % 3)) for w in range(weeks)]


def reference_wash(rows, model, meta=None):
    """The wash rule as a loop over the weeks in order, one ``math.exp`` per
    week: the wash volume and percentage, and the flags."""
    x = iter(_design_matrix([r for r in rows if r.round_subunits > 0], model.feature_names, meta))
    coefficients = np.array(model.coefficients)
    flags = ()
    wash_volume = total = 0.0
    for row in rows:
        total += row.round_volume + row.unrounded_volume
        if row.round_subunits > 0:
            predicted = math.exp(float(next(x) @ coefficients))
            wash_volume += max(0.0, row.unrounded_volume - predicted)
        else:
            wash_volume += row.unrounded_volume
            flags = ("zero_round_weeks",)
    return wash_volume, 100.0 * wash_volume / total, flags


def loop_replicates(target, bench, n_boot, seed, meta=None, use_controls=False):
    """The bootstrap as one fit_benchmark and reference_wash per draw: the
    wash percentages of the kept draws whose model fitted every pair of the
    target, and the draws made."""
    rng = np.random.default_rng(seed)
    replicates = []
    kept = attempts = 0
    while kept < n_boot:
        attempts += 1
        if attempts > 10 * n_boot:
            raise EstimationError("too many singular replicates")
        sample = [bench[i] for i in rng.integers(0, len(bench), len(bench))]
        try:
            model = fit_benchmark(sample, meta=meta, use_controls=use_controls)
        except (EstimationError, InsufficientDataError):
            continue
        kept += 1
        if {r.pair for r in target} <= set(model.pair_levels):
            replicates.append(reference_wash(target, model, meta)[1])
    return replicates, attempts


def noisy_panel(ex, weeks, seed, pair="BTC/USD", ratio=2.5):
    rng = np.random.default_rng(seed)
    rows = []
    for w in range(weeks):
        v = float(np.exp(rng.normal(2.0, 1.0)))
        rows.append(split(ex, w, v, ratio * v * float(np.exp(rng.normal(0.0, 0.2))), pair))
    return rows


def wash_target(weeks=12, pair="BTC/USD"):
    return [split("U1", w, 1.0 + w % 5, 9.0 * (1.0 + w % 5), pair) for w in range(weeks)]


def controls_meta():
    meta = {
        f"R{i}": ExchangeMeta(f"R{i}", RegulatoryClass.REGULATED, age_years=i, rank=3 * i % 7 + 1,
                              traffic_pct=i * i % 5 + 1, unique_visitors=10 + i**3 % 11)
        for i in range(1, 7)
    }
    meta["U1"] = ExchangeMeta("U1", RegulatoryClass.UNREGULATED_TIER2, age_years=2.5, rank=4.0,
                              traffic_pct=3.0, unique_visitors=12.0)
    return meta


def oracle_panels():
    per_pair = [r for i in (1, 2, 3) for r in noisy_panel(f"R{i}", 12, i)]
    two_pairs = per_pair + [r for i in (1, 2, 3) for r in noisy_panel(f"R{i}", 12, 10 + i, "ETH/USD", 1.5)]
    rare_pair = per_pair + noisy_panel("R1", 2, 20, "ETH/USD", 1.5)
    six = [r for i in range(1, 7) for r in noisy_panel(f"R{i}", 20, 30 + i, ratio=2.0 + 0.1 * i)]
    zeros = per_pair + [split("R1", 90, 0.0, 3.0), split("R2", 91, 4.0, 0.0), split("R3", 92, 0.0, 0.0)]
    zero_target = wash_target() + [split("U1", 50, 0.0, 7.0), split("U1", 51, 0.0, 2.0)]
    # eight weeks at one round volume: a draw without R2's week 1 is singular,
    # and one with three or more of R2's zero-round week 2 is short of rows
    singular = [split("R1", w, 3.0, 7.0 + w) for w in range(8)]
    singular += [split("R2", 1, 5.0, 11.0), split("R2", 2, 0.0, 1.0)]
    return {
        "per-pair": (wash_target(), per_pair, {}),
        "pooled": (wash_target(pair="ETH/USD"), two_pairs, {}),
        "rare-pair": (wash_target(pair="ETH/USD"), rare_pair, {}),
        "controls": (wash_target(), six, {"meta": controls_meta(), "use_controls": True}),
        "zero-weeks": (zero_target, zeros, {}),
        "singular": (wash_target(), singular, {}),
    }


def batched_replicates(target, bench, n_boot, seed, meta=None, use_controls=False):
    """The wash percentages of fit_bootstrap's replicates that fitted every
    pair of the target, and its draws."""
    names, coefficients, fitted, draws = fit_bootstrap(bench, n_boot=n_boot, seed=seed, meta=meta, use_controls=use_controls)
    scored = np.all([fitted[pair] for pair in {r.pair for r in target}], axis=0)
    wash, total = _wash_volumes(target, names, coefficients[scored], meta)
    return 100.0 * wash / total, draws


class TestRoundnessDistribution:
    def test_buckets_count_all_trades(self):
        amounts = np.array([2_000_000, 2_130_000, 10_001], dtype=np.int64)
        dist = roundness_distribution(amounts, BTC)
        assert dist.sum() == 3
        assert dist[5] == 1  # 200 base units -> hundreds
        assert dist[3] == 1  # 213 base units -> ones
        assert dist[0] == 1  # 1.0001 base units -> thousandths or less

    def test_identical_distributions_give_zero(self):
        bench = np.array([10, 20, 30, 10, 10, 10, 5, 5])
        res = roundness_chi_squared(bench * 7, bench, effective_n=1000)
        assert res.statistic == pytest.approx(0.0, abs=1e-20)
        assert res.p_value == pytest.approx(1.0)

    def test_concentrated_target_hand_computed(self):
        bench = np.array([10, 20, 30, 10, 10, 10, 5, 5], dtype=float)
        target = np.array([100, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        probs = bench / bench.sum()
        freqs = target / target.sum()
        oracle = 1000 * sum((f - p) ** 2 / p for f, p in zip(freqs, probs))
        res = roundness_chi_squared(target, bench, effective_n=1000)
        assert res.statistic == pytest.approx(oracle, rel=1e-12)
        assert res.statistic == pytest.approx(9000.0, rel=1e-9)
        assert res.reject

    def test_zero_benchmark_buckets_merge_forward(self):
        bench = np.array([0, 0, 30, 10, 10, 10, 5, 0], dtype=float)
        target = np.array([5, 5, 20, 10, 10, 10, 5, 3], dtype=float)
        res = roundness_chi_squared(target, bench, effective_n=100)
        # cells: (buckets 0..2), 3, 4, 5, (6..7) -> df = 4
        assert res.df == 4
        assert math.isfinite(res.statistic)

    def test_wash_heavy_target_rejected(self):
        # benchmark: mostly round sizes; target: full-precision bot sizes
        rng = np.random.default_rng(2)
        bench_amounts = (rng.integers(1, 50, size=20_000) * BTC.round_modulus).astype(np.int64)
        target_amounts = rng.integers(4 * 10**8, 9 * 10**8, size=20_000).astype(np.int64)
        bench = roundness_distribution(bench_amounts, BTC)
        target = roundness_distribution(target_amounts, BTC)
        res = roundness_chi_squared(target, bench, effective_n=10_000, alpha=0.01)
        assert res.reject


class TestFitBenchmark:
    def test_identity_relation(self):
        model = fit_benchmark(identity_panel("R1"))
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.slope == pytest.approx(1.0, abs=1e-12)
        assert model.resid_se == pytest.approx(0.0, abs=1e-9)

    def test_doubled_unrounded(self):
        rows = [split("R1", w, v, 2 * v) for w, v in enumerate([1, 2, 3, 5, 8, 13, 21, 34])]
        model = fit_benchmark(rows)
        assert model.intercept == pytest.approx(math.log(2), abs=1e-10)
        assert model.slope == pytest.approx(1.0, abs=1e-10)

    def test_slope_recovered_under_multiplicative_noise(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rows = []
            for w in range(50):
                v_round = float(np.exp(rng.normal(2.0, 1.0)))
                v_unr = 2.5 * v_round * float(np.exp(rng.normal(0.0, 0.2)))
                rows.append(split("R1", w, v_round, v_unr))
            model = fit_benchmark(rows)
            if abs(model.slope - 1.0) < 0.1:
                hits += 1
        assert hits >= 93  # 95% of seeds, with binomial slack

    def test_zero_rows_dropped_and_counted(self):
        rows = identity_panel("R1") + [split("R1", 99, 0.0, 5.0), split("R1", 98, 5.0, 0.0)]
        model = fit_benchmark(rows)
        assert model.n_dropped == 2
        assert model.n_obs == 12

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError, match="insufficient benchmark data"):
            fit_benchmark(identity_panel("R1", weeks=5))

    def test_mixed_pairs_get_pair_terms(self):
        rows = identity_panel("R1") + [split("R1", w, 1.0, 1.0, pair="ETH/USD") for w in range(9)]
        model = fit_benchmark(rows)
        assert model.scope == "pooled"
        assert model.pair_levels == ("BTC/USD", "ETH/USD")
        assert model.feature_names == ("const", "ln_round", "pair=ETH/USD")
        single = fit_benchmark(identity_panel("R1"))
        assert single.scope == "per-pair" and single.feature_names == ("const", "ln_round")

    def test_singular_design_names_columns(self):
        meta = {
            "R1": ExchangeMeta("R1", RegulatoryClass.REGULATED, age_years=5.0, rank=1.0,
                               traffic_pct=2.0, unique_visitors=10.0),
        }
        rows = identity_panel("R1")
        # age is constant across the single exchange: collinear with the constant
        with pytest.raises(EstimationError, match="age_years"):
            fit_benchmark(rows, meta=meta, use_controls=True)

    def test_controls_require_meta(self):
        rows = identity_panel("R1")
        meta = {"R1": ExchangeMeta("R1", RegulatoryClass.REGULATED, age_years=5.0)}
        with pytest.raises(EstimationError, match="missing control"):
            fit_benchmark(rows, meta=meta, use_controls=True)

    def test_model_round_trips_through_json(self, tmp_path):
        model = fit_benchmark(identity_panel("R1"))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dump_models({"BTC/USD": model})))
        assert load_models(path) == {"BTC/USD": model}


class TestEstimateWash:
    def test_target_matching_benchmark_has_zero_wash(self):
        model = fit_benchmark(identity_panel("R1"))
        est = estimate_wash(identity_panel("U1"), model)
        assert est.wash_percent == pytest.approx(0.0, abs=1e-9)

    def test_doubled_unrounded_is_one_third_wash(self):
        model = fit_benchmark(identity_panel("R1"))
        target = [split("U1", w, v, 2 * v) for w, v in enumerate([1, 2, 3, 4])]
        est = estimate_wash(target, model)
        # legitimate unrounded = round volume; excess = half the unrounded side
        assert est.wash_percent == pytest.approx(100.0 / 3.0, rel=1e-9)
        assert est.wash_volume == pytest.approx(10.0, rel=1e-9)

    def test_zero_round_week_flagged_and_counted_as_excess(self):
        model = fit_benchmark(identity_panel("R1"))
        target = [split("U1", 0, 1.0, 1.0), split("U1", 1, 0.0, 3.0)]
        est = estimate_wash(target, model)
        assert "zero_round_weeks" in est.flags
        assert est.wash_volume == pytest.approx(3.0, abs=1e-9)

    def test_week_relabeling_invariance(self):
        model = fit_benchmark(identity_panel("R1"))
        target = [split("U1", w, 1.0 + w, 3.0 * (1 + w)) for w in range(6)]
        shuffled = list(reversed(target))
        a = estimate_wash(target, model)
        b = estimate_wash(shuffled, model)
        assert a.wash_percent == b.wash_percent

    def test_wash_percent_monotone_in_unrounded_scaling(self):
        model = fit_benchmark(identity_panel("R1"))
        pcts = []
        for k in (1.0, 1.5, 2.0, 4.0):
            target = [split("U1", w, v, k * v) for w, v in enumerate([1, 2, 3, 4])]
            pcts.append(estimate_wash(target, model).wash_percent)
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))

    def test_bounds(self):
        model = fit_benchmark(identity_panel("R1"))
        target = [split("U1", w, 0.5, 100.0) for w in range(4)]
        est = estimate_wash(target, model)
        assert 0.0 <= est.wash_percent <= 100.0
        assert est.wash_volume <= sum(r.unrounded_volume for r in target)

    def test_empty_panel(self):
        model = fit_benchmark(identity_panel("R1"))
        with pytest.raises(InsufficientDataError):
            estimate_wash([], model)

    def test_multi_exchange_panel_rejected(self):
        model = fit_benchmark(identity_panel("R1"))
        with pytest.raises(EstimationError):
            estimate_wash(identity_panel("U1") + identity_panel("U2"), model)

    @pytest.mark.parametrize("name", sorted(oracle_panels()))
    def test_matches_the_week_loop(self, name):
        target, bench, kwargs = oracle_panels()[name]
        model = fit_benchmark(bench, **kwargs)
        # the second target trades like the benchmark, so the floor cuts about half its weeks
        for rows in (target, noisy_panel("U1", 12, 99, target[0].pair)):
            est = estimate_wash(rows, model, meta=kwargs.get("meta"))
            volume, percent, flags = reference_wash(rows, model, kwargs.get("meta"))
            assert est.wash_volume == pytest.approx(volume, rel=1e-12, abs=0)
            assert est.wash_percent == pytest.approx(percent, rel=1e-12, abs=0)
            assert est.flags == flags

    def test_a_pair_outside_a_pooled_model_raises(self):
        bench = [r for i in (1, 2, 3) for r in noisy_panel(f"R{i}", 12, i)]
        bench += [r for i in (1, 2, 3) for r in noisy_panel(f"R{i}", 12, 10 + i, "LTC/USD", 1.5)]
        model = fit_benchmark(bench)
        assert model.pair_levels == ("BTC/USD", "LTC/USD")
        with pytest.raises(EstimationError, match="no benchmark model covers this pair"):
            estimate_wash(wash_target(pair="ETH/USD"), model)
        # an aggregate panel needs every one of its pairs covered
        with pytest.raises(EstimationError, match="no benchmark model covers this pair"):
            estimate_wash(wash_target() + wash_target(pair="ETH/USD"), model)
        assert estimate_wash(wash_target(pair="LTC/USD"), model).scope == "LTC/USD"

    def test_a_pair_outside_a_one_pair_model_raises(self, tmp_path):
        # a pooled fit whose usable rows hold one pair has no pair term; it
        # would score ETH/USD with BTC/USD's intercept
        model = fit_benchmark([r for i in (1, 2, 3) for r in noisy_panel(f"R{i}", 12, i)])
        assert (model.scope, model.pair_levels) == ("per-pair", ("BTC/USD",))
        with pytest.raises(EstimationError, match="no benchmark model covers this pair"):
            estimate_wash(wash_target(pair="ETH/USD"), model)
        assert estimate_wash(wash_target(), model).scope == "BTC/USD"
        # a model file that lists no pairs, as older files, loads and covers any pair
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"BTC/USD": {k: v for k, v in dump_models({"BTC/USD": model})["BTC/USD"].items() if k != "pair_levels"}}))
        old = load_models(path)["BTC/USD"]
        assert old.pair_levels == ()
        assert estimate_wash(wash_target(pair="ETH/USD"), old).scope == "ETH/USD"

    def test_all_zero_round_weeks_count_in_full(self):
        model = fit_benchmark(identity_panel("R1"))
        est = estimate_wash([split("U1", 0, 0.0, 1.0), split("U1", 1, 0.0, 2.0)], model)
        assert est.flags == ("zero_round_weeks",)
        assert est.wash_volume == pytest.approx(3.0, abs=1e-9)
        assert est.wash_percent == 100.0


class TestBootstrap:
    def test_noiseless_identity_has_zero_sd(self):
        bench = identity_panel("R1") + identity_panel("R2")
        target = [split("U1", w, v, 2 * v) for w, v in enumerate([1, 2, 3, 4])]
        sd = replicate_sd(target, fit_bootstrap(bench, n_boot=200, seed=1))
        assert sd == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(5)
        bench = []
        for w in range(30):
            v = float(np.exp(rng.normal(2.0, 1.0)))
            bench.append(split("R1", w, v, 2.5 * v * float(np.exp(rng.normal(0, 0.2)))))
        target = [split("U1", w, 2.0, 9.0) for w in range(8)]
        sd1 = replicate_sd(target, fit_bootstrap(bench, n_boot=300, seed=42))
        sd2 = replicate_sd(target, fit_bootstrap(bench, n_boot=300, seed=42))
        assert sd1 == sd2  # bit-exact
        assert sd1 > 0
        sd3 = replicate_sd(target, fit_bootstrap(bench, n_boot=300, seed=43))
        assert sd1 != sd3

    def test_minimum_replicates_enforced(self):
        with pytest.raises(EstimationError, match="need at least 100 bootstrap replicates"):
            fit_bootstrap([], n_boot=50)

    def test_a_bad_target_is_an_error(self):
        fit = fit_bootstrap(identity_panel("R1") + identity_panel("R2"), n_boot=100)
        with pytest.raises(InsufficientDataError, match="empty target panel"):
            replicate_sd([], fit)
        with pytest.raises(EstimationError, match="spans exchanges"):
            replicate_sd(identity_panel("U1") + identity_panel("U2"), fit)

    def test_all_singular_panel_exhausts_the_budget(self):
        # every round volume equal: ln_round is collinear with the constant
        bench = [split(f"R{i}", w, 2.0, 1.0 + w) for i in (1, 2) for w in range(10)]
        with pytest.raises(EstimationError, match="too many singular replicates"):
            fit_bootstrap(bench, n_boot=100)


class TestBatchedBootstrap:
    @pytest.mark.parametrize("name", sorted(oracle_panels()))
    def test_matches_one_refit_per_replicate(self, name):
        target, bench, kwargs = oracle_panels()[name]
        expected, expected_attempts = loop_replicates(target, bench, 200, 7, **kwargs)
        replicates, attempts = batched_replicates(target, bench, 200, 7, **kwargs)
        np.testing.assert_allclose(replicates, expected, rtol=1e-12, atol=0)
        assert attempts == expected_attempts
        sd = replicate_sd(target, fit_bootstrap(bench, n_boot=200, seed=7, **kwargs), meta=kwargs.get("meta"))
        assert sd == pytest.approx(float(np.std(expected, ddof=1)), rel=1e-12)

    def test_oracle_panels_reach_the_redraw_paths(self):
        panels = oracle_panels()
        _, attempts = batched_replicates(*panels["singular"][:2], 200, 7)
        assert attempts > 300  # about 40% of draws are redrawn
        _, attempts = batched_replicates(*panels["zero-weeks"][:2], 200, 7)
        assert attempts == 200
        # draws without an ETH/USD row are fitted as per-pair BTC/USD models
        rng = np.random.default_rng(7)
        rare = panels["rare-pair"][1]
        draws = rng.integers(0, len(rare), (200, len(rare)))
        has_eth = np.isin(draws, [len(rare) - 2, len(rare) - 1]).any(axis=1)
        assert 0 < np.count_nonzero(has_eth) < 200
        # every draw is kept, with no term for its base pair or a pair it
        # lacks, and records the pairs it fitted
        names, coefficients, fitted, attempts = fit_bootstrap(rare, n_boot=200, seed=7)
        assert names == ["const", "ln_round", "pair=BTC/USD", "pair=ETH/USD"] and attempts == 200
        assert not coefficients[:, 2].any()
        assert np.array_equal(coefficients[:, 3] != 0, has_eth)
        assert sorted(fitted) == ["BTC/USD", "ETH/USD"]
        assert fitted["BTC/USD"].all() and np.array_equal(fitted["ETH/USD"], has_eth)

    def test_a_target_is_scored_only_on_draws_that_fitted_its_pair(self):
        target, rare, _ = oracle_panels()["rare-pair"]
        rng = np.random.default_rng(7)
        draws = rng.integers(0, len(rare), (200, len(rare)))
        has_eth = np.isin(draws, [len(rare) - 2, len(rare) - 1]).any(axis=1)
        names, coefficients, _, _ = fit_bootstrap(rare, n_boot=200, seed=7)
        wash, total = _wash_volumes(target, names, coefficients[has_eth], None)
        sd = replicate_sd(target, fit_bootstrap(rare, n_boot=200, seed=7))
        assert sd == float(np.std(100.0 * wash / total, ddof=1))
        # too few such draws is an error, as any failed bootstrap is
        with pytest.raises(EstimationError, match=r"only \d+ of 100 replicates fitted ETH/USD, need 100"):
            replicate_sd(target, fit_bootstrap(rare, n_boot=100, seed=7))

    def test_chunks_do_not_change_the_replicates(self, monkeypatch):
        target, bench, kwargs = oracle_panels()["singular"]
        whole, attempts = batched_replicates(target, bench, 200, 3, **kwargs)
        # seven replicates a chunk: three design columns of float64 per row
        monkeypatch.setattr("washdetect.washest.BOOTSTRAP_GATHER_BYTES", 7 * len(bench) * 3 * 8)
        chunked, chunked_attempts = batched_replicates(target, bench, 200, 3, **kwargs)
        np.testing.assert_allclose(chunked, whole, rtol=1e-14, atol=0)
        assert chunked_attempts == attempts

    @pytest.mark.parametrize("n", [35, 36, 37, 832])
    def test_one_draw_of_many_rows_is_the_sequential_draws(self, n):
        # the batched bootstrap's kept set rests on this property of the stream
        batched = np.random.default_rng(5).integers(0, n, (40, n))
        rng = np.random.default_rng(5)
        assert np.array_equal(batched, [rng.integers(0, n, n) for _ in range(40)])


class TestCrossValidation:
    def test_identical_exchanges_read_near_zero(self):
        panels = {ex: identity_panel(ex) for ex in ("R1", "R2", "R3")}
        estimates, left_out = cross_validate_regulated(panels)
        assert set(estimates) == {"R1", "R2", "R3"} and left_out == {}
        assert all(e.wash_percent == pytest.approx(0.0, abs=1e-9) for e in estimates.values())

    def test_an_exchange_with_a_pair_the_others_lack_is_left_out(self):
        # R2 alone trades ETH/USD; R4 and R5 trade LTC/USD, but R5's weeks
        # there have no round volume, so no fit can use them
        ltc = [split("R4", w, 1 + w % 3, 1 + w % 3, "LTC/USD") for w in range(12)]
        panels = {
            "R1": identity_panel("R1"),
            "R2": [split("R2", w, 1 + w % 3, 1 + w % 3, "ETH/USD") for w in range(12)],
            "R3": identity_panel("R3"),
            "R4": identity_panel("R4") + ltc,
            "R5": identity_panel("R5") + [split("R5", w, 0.0, 1.0, "LTC/USD") for w in range(12)],
        }
        estimates, left_out = cross_validate_regulated(panels)
        assert left_out == {"R2": ["ETH/USD"], "R4": ["LTC/USD"]}
        assert set(estimates) == {"R1", "R3", "R5"}
        # R2 and R4 still train the others' fits, with a level for each pair
        for ex in ("R1", "R3"):
            assert estimates[ex].wash_percent == pytest.approx(0.0, abs=1e-9)
        assert estimates["R5"].flags == ("zero_round_weeks",)

    def test_requires_three_exchanges(self):
        with pytest.raises(InsufficientDataError):
            cross_validate_regulated({"R1": identity_panel("R1"), "R2": identity_panel("R2")})

    def test_heterogeneous_scales_stay_below_ten_percent(self):
        # 10x volume spread and multiplicative noise; mean estimate < 10%.
        means = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            panels = {}
            for i, ex in enumerate(("R1", "R2", "R3")):
                scale = 10.0**i
                rows = []
                for w in range(26):
                    v_round = scale * float(np.exp(rng.normal(1.0, 0.7)))
                    v_unr = 2.2 * v_round * float(np.exp(rng.normal(0.0, 0.15)))
                    rows.append(split(ex, w, v_round, v_unr))
                panels[ex] = rows
            estimates = cross_validate_regulated(panels)[0].values()
            means.append(np.mean([e.wash_percent for e in estimates]))
        assert float(np.mean(means)) < 10.0
        assert sum(m < 10.0 for m in means) >= 19
