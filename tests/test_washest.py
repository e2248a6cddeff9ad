"""Roundness benchmark test, volume-ratio regression, wash estimates."""

import json
import math

import numpy as np
import pytest

from washdetect.errors import EstimationError, InsufficientDataError
from washdetect.ingest import WeeklyVolumeSplit
from washdetect.trades import BUILTIN_PAIR_SPECS, ExchangeMeta, RegulatoryClass, parse_amount
from washdetect.washest import (
    bootstrap_wash_sd,
    cross_validate_regulated,
    dump_models,
    estimate_wash,
    fit_benchmark,
    load_models,
    predict_unrounded,
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


class TestRoundnessDistribution:
    def test_buckets_count_all_trades(self):
        amounts = np.array(
            [parse_amount("0.02"), parse_amount("0.0213"), parse_amount("0.00010001")],
            dtype=np.int64,
        )
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

    def test_predict_requires_positive_round(self):
        model = fit_benchmark(identity_panel("R1"))
        with pytest.raises(EstimationError):
            predict_unrounded(model, split("U1", 0, 0.0, 1.0))


class TestBootstrap:
    def test_noiseless_identity_has_zero_sd(self):
        bench = identity_panel("R1") + identity_panel("R2")
        target = [split("U1", w, v, 2 * v) for w, v in enumerate([1, 2, 3, 4])]
        sd = bootstrap_wash_sd(target, bench, n_boot=200, seed=1)
        assert sd == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(5)
        bench = []
        for w in range(30):
            v = float(np.exp(rng.normal(2.0, 1.0)))
            bench.append(split("R1", w, v, 2.5 * v * float(np.exp(rng.normal(0, 0.2)))))
        target = [split("U1", w, 2.0, 9.0) for w in range(8)]
        sd1 = bootstrap_wash_sd(target, bench, n_boot=300, seed=42)
        sd2 = bootstrap_wash_sd(target, bench, n_boot=300, seed=42)
        assert sd1 == sd2  # bit-exact
        assert sd1 > 0
        sd3 = bootstrap_wash_sd(target, bench, n_boot=300, seed=43)
        assert sd1 != sd3

    def test_minimum_replicates_enforced(self):
        with pytest.raises(EstimationError):
            bootstrap_wash_sd([], [], n_boot=50)


class TestCrossValidation:
    def test_identical_exchanges_read_near_zero(self):
        panels = {ex: identity_panel(ex) for ex in ("R1", "R2", "R3")}
        estimates = cross_validate_regulated(panels)
        assert set(estimates) == {"R1", "R2", "R3"}
        assert all(e.wash_percent == pytest.approx(0.0, abs=1e-9) for e in estimates.values())

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
            estimates = cross_validate_regulated(panels).values()
            means.append(np.mean([e.wash_percent for e in estimates]))
        assert float(np.mean(means)) < 10.0
        assert sum(m < 10.0 for m in means) >= 19
