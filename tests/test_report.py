"""Battery assembly, report JSON schema, and determinism."""

import json
import math
import threading
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np
import pytest
from scipy import stats

from washdetect import ingest, washest
from washdetect.errors import AmountError, EstimationError, PairConfigError
from washdetect.ingest import TradeDataset, TradeGroup
from washdetect.report import (
    BENFORD_EMULATION_N,
    RunConfig,
    dump_report_json,
    report_test_rows,
    report_to_json,
    run_battery,
    wash_estimate_rows,
)
from washdetect.synth import GeneratorConfig, gen_exchange
from washdetect.trades import ExchangeMeta, PairRegistry, RegulatoryClass
from washdetect.verdicts import P_FLOOR
from washdetect.washest import replicate_sd

REG = PairRegistry()


def make_dataset(specs):
    """specs: list of (exchange_id, seed, n, wash_fraction)."""
    ds = TradeDataset()
    for ex, seed, n, w in specs:
        cfg = GeneratorConfig(
            seed=seed,
            exchange_id=ex,
            n_trades=n,
            wash_fraction=w,
            profile="stable-panel",
        )
        tape = gen_exchange(cfg)
        ds.groups.update(tape.dataset.groups)
    return ds


def make_meta(regulated, tier2=()):
    meta = {ex: ExchangeMeta(ex, RegulatoryClass.REGULATED) for ex in regulated}
    meta.update({ex: ExchangeMeta(ex, RegulatoryClass.UNREGULATED_TIER2) for ex in tier2})
    return meta


@pytest.fixture(scope="module")
def battery():
    ds = make_dataset(
        [("R1", 1, 150_000, 0.0), ("R2", 2, 100_000, 0.0), ("R3", 3, 80_000, 0.0), ("U1", 4, 100_000, 0.8)]
    )
    meta = make_meta(["R1", "R2", "R3"], ["U1"])
    return run_battery(ds, REG, meta, RunConfig())


class TestBattery:
    def test_regulated_pass_everything(self, battery):
        for ex in battery.exchanges:
            if ex.exchange_id.startswith("R"):
                assert ex.failure_rate == 0.0
                for p in ex.pairs:
                    assert p.fisher is not None and not p.fisher.reject

    def test_wash_exchange_rejects_fisher_on_all_pairs(self, battery):
        u1 = next(ex for ex in battery.exchanges if ex.exchange_id == "U1")
        assert all(p.fisher is not None and p.fisher.reject for p in u1.pairs)
        assert u1.failure_rate >= 0.5

    def test_wash_estimate_near_injected(self, battery):
        u1 = next(ex for ex in battery.exchanges if ex.exchange_id == "U1")
        assert u1.wash_aggregate is not None
        assert u1.wash_aggregate.wash_percent == pytest.approx(80.0, abs=10.0)
        assert u1.rank_improvement is not None and u1.rank_improvement > 0

    def test_regulated_get_no_wash_estimate(self, battery):
        for ex in battery.exchanges:
            if ex.exchange_id.startswith("R"):
                assert ex.wash_aggregate is None

    def test_roundness_vs_regulated_benchmark(self, battery):
        u1 = next(ex for ex in battery.exchanges if ex.exchange_id == "U1")
        assert u1.pairs[0].roundness is not None
        assert u1.pairs[0].roundness.reject

    def test_cross_validation_present_and_small(self, battery):
        assert set(battery.cross_validation) == {"R1", "R2", "R3"}
        assert all(v < 10.0 for v in battery.cross_validation.values())

    def test_wash_summary_by_category(self, battery):
        assert "all_scored" in battery.wash_summary
        cell = battery.wash_summary["unregulated_tier2"]
        assert cell["n_exchanges"] == 1
        assert cell["equal_weighted"] == pytest.approx(80.0, abs=10.0)
        assert cell["volume_weighted"] == pytest.approx(cell["equal_weighted"])

    def test_wash_failure_fit_needs_three_scored_exchanges(self, battery):
        # only one unregulated exchange in this fixture
        assert battery.wash_failure_fit is None

    def test_failure_rate_by_pair(self, battery):
        assert "BTC/USD" in battery.failure_rate_by_pair
        assert 0.0 < battery.failure_rate_by_pair["BTC/USD"] < 1.0

    def test_wash_requested_without_benchmark_raises(self):
        ds = make_dataset([("U1", 4, 60_000, 0.5)])
        with pytest.raises(EstimationError, match="no-wash"):
            run_battery(ds, REG, None, RunConfig())

    def test_battery_only_mode(self):
        ds = make_dataset([("U1", 4, 60_000, 0.5)])
        rep = run_battery(ds, REG, None, RunConfig(estimate_wash=False))
        assert rep.exchanges[0].wash_aggregate is None
        assert rep.exchanges[0].failure_rate is not None

    def test_wash_failure_fit_with_graded_exchanges(self):
        # wash grades spread enough that failure rates are not all equal
        specs = [("R1", 1, 120_000, 0.0), ("R2", 2, 100_000, 0.0), ("R3", 3, 80_000, 0.0)]
        specs += [(f"U{i}", 40 + i, 80_000, w) for i, w in enumerate((0.05, 0.5, 0.9))]
        ds = make_dataset(specs)
        meta = make_meta(["R1", "R2", "R3"], ["U0", "U1", "U2"])
        rep = run_battery(ds, REG, meta, RunConfig())
        assert rep.wash_failure_fit is not None
        assert rep.wash_failure_fit.n == 3
        assert rep.wash_failure_fit.slope > 0

    def test_equal_failure_rates_leave_a_warning(self):
        # wash-only tapes fail every test, so the failure rates have no spread
        specs = [("R1", 1, 60_000, 0.0), ("R2", 2, 60_000, 0.0), ("R3", 3, 60_000, 0.0)]
        specs += [(f"U{i}", 50 + i, 60_000, 1.0) for i in range(3)]
        meta = make_meta(["R1", "R2", "R3"], ["U0", "U1", "U2"])
        rep = run_battery(make_dataset(specs), REG, meta, RunConfig())
        assert [ex.failure_rate for ex in rep.exchanges[3:]] == [1.0, 1.0, 1.0]
        assert rep.wash_failure_fit is None
        assert "wash-failure fit skipped: singular regression: all failure rates equal" in rep.warnings


class TestGroupsSideBySide:
    """The groups' tests run on up to ``ingest._WORKERS`` threads."""

    def test_report_is_the_same_on_one_thread_and_on_three(self, fast_thread_switches):
        ds = make_dataset(
            [("R1", 1, 20_000, 0.0), ("R2", 2, 15_000, 0.0), ("R3", 3, 12_000, 0.0), ("U1", 4, 15_000, 0.8)]
        )
        ds.groups.update(make_dataset([("U2", 5, 300, 0.5)]).groups)  # too few trades for most tests
        meta = make_meta(["R1", "R2", "R3"], ["U1", "U2"])
        texts = []
        for workers in (1, 3):
            with mock.patch.object(ingest, "_WORKERS", workers):
                texts.append(dump_report_json(run_battery(ds, REG, meta, RunConfig(bootstrap=100, seed=3))))
        assert texts[0] == texts[1]
        report = json.loads(texts[0])
        assert [ex["exchange_id"] for ex in report["exchanges"]] == ["R1", "R2", "R3", "U1", "U2"]
        assert report["exchanges"][3]["pairs"][0]["roundness"] is not None

    def test_the_first_failure_in_key_order_is_raised(self, fast_thread_switches):
        # A fails after sorting 400k amounts, C at once, so on three threads C fails first
        amounts = np.arange(400_000, dtype=np.int64)[::-1].copy()
        ds = make_dataset([("B", 2, 5_000, 0.0)])
        ds.groups[("A", "BTC/USD")] = TradeGroup("A", "BTC/USD", amounts, amounts, amounts.astype(np.float64))
        ds.groups[("C", "CCC/USD")] = TradeGroup("C", "CCC/USD", amounts[:1], amounts[:1], np.ones(1))
        before = threading.active_count()
        for workers in (1, 3):
            with mock.patch.object(ingest, "_WORKERS", workers), pytest.raises(AmountError, match="non-positive"):
                run_battery(ds, REG, config=RunConfig(estimate_wash=False))
            assert threading.active_count() == before
        alone = TradeDataset({("C", "CCC/USD"): ds.groups[("C", "CCC/USD")]})
        with pytest.raises(PairConfigError, match="CCC/USD"):
            run_battery(alone, REG, config=RunConfig(estimate_wash=False))


class TestBootstrapOncePerScope:
    """A scope's replicates are fitted once and scored on each of its targets."""

    @pytest.mark.parametrize("pool_pairs", [False, True], ids=["per-pair", "pooled"])
    def test_each_target_gets_the_sd_of_a_lone_call(self, pool_pairs):
        ds = TradeDataset()
        exchanges = [("R1", 0.0), ("R2", 0.0), ("R3", 0.0), ("U1", 0.3), ("U2", 0.6), ("U3", 0.9)]
        for i, (ex, wash) in enumerate(exchanges):
            for j, pair in enumerate(("BTC/USD", "ETH/USD")):
                config = GeneratorConfig(seed=10 * i + j, exchange_id=ex, pair=pair, n_trades=8_000,
                                         wash_fraction=wash, profile="stable-panel")
                ds.groups.update(gen_exchange(config).dataset.groups)
        meta = make_meta(["R1", "R2", "R3"], ["U1", "U2", "U3"])
        config = RunConfig(bootstrap=100, seed=3, pool_pairs=pool_pairs)
        fitted, fit = [], washest.fit_bootstrap

        def counted(rows, **kwargs):
            fitted.append(sorted({r.pair for r in rows}))
            return fit(rows, **kwargs)

        reports = []
        for workers in (1, 3):
            with mock.patch.object(ingest, "_WORKERS", workers), mock.patch.object(washest, "fit_bootstrap", counted):
                reports.append(run_battery(ds, REG, meta, config))
        scopes = [["BTC/USD", "ETH/USD"]] if pool_pairs else [["BTC/USD"], ["ETH/USD"]]
        assert fitted == 2 * scopes
        panel = {}
        for row in ingest.weekly_split(ds, REG):
            panel.setdefault((row.exchange_id, row.pair), []).append(row)
        for ex, again in zip(reports[0].exchanges[3:], reports[1].exchanges[3:]):
            assert [e.scope for e in ex.wash_by_pair] == ["BTC/USD", "ETH/USD"]
            for est, est_again in zip(ex.wash_by_pair, again.wash_by_pair):
                bench = [r for (reg, pair), rows in panel.items() if reg[0] == "R" and (pool_pairs or pair == est.scope)
                         for r in rows]
                lone_fit = fit(bench, n_boot=100, seed=3, meta=meta)
                lone = replicate_sd(panel[ex.exchange_id, est.scope], lone_fit, meta=meta)
                assert est.bootstrap_sd == lone == est_again.bootstrap_sd
            # the aggregate has an sd only where its pairs share the draws
            if not pool_pairs:
                assert ex.wash_aggregate.bootstrap_sd is None
                continue
            bench = [r for (reg, _), rows in panel.items() if reg[0] == "R" for r in rows]
            names, coefficients, _, _ = fit(bench, n_boot=100, seed=3, meta=meta)
            wash = total = 0.0
            for pair in ("BTC/USD", "ETH/USD"):
                pair_wash, pair_total = washest._wash_volumes(panel[ex.exchange_id, pair], names, coefficients, meta)
                wash, total = wash + pair_wash, total + pair_total
            summed = float(np.std(100.0 * wash / total, ddof=1))
            assert ex.wash_aggregate.bootstrap_sd == pytest.approx(summed, rel=1e-12)
            assert ex.wash_aggregate.bootstrap_sd == again.wash_aggregate.bootstrap_sd

    @pytest.mark.parametrize("pool_pairs", [False, True], ids=["per-pair", "pooled"])
    def test_a_one_pair_aggregate_has_its_pairs_sd(self, pool_pairs):
        # U1 also trades ETH/USD, which no regulated exchange does: even the
        # pooled model, fitted on BTC/USD alone, does not cover it
        ds = make_dataset([("R1", 1, 20_000, 0.0), ("R2", 2, 20_000, 0.0), ("R3", 3, 20_000, 0.0), ("U1", 4, 20_000, 0.8)])
        eth = GeneratorConfig(seed=5, exchange_id="U1", pair="ETH/USD", n_trades=20_000, wash_fraction=0.8)
        ds.groups.update(gen_exchange(eth).dataset.groups)
        meta = make_meta(["R1", "R2", "R3"], ["U1"])
        rep = run_battery(ds, REG, meta, RunConfig(bootstrap=100, pool_pairs=pool_pairs))
        assert [m.pair_levels for m in rep.benchmark_models.values()] == [("BTC/USD",)]
        u1 = rep.exchanges[3]
        assert "wash estimate failed for ETH/USD: no benchmark model covers this pair" in u1.flags
        (est,) = u1.wash_by_pair
        assert est.bootstrap_sd is not None
        assert u1.wash_aggregate.bootstrap_sd == est.bootstrap_sd


    def test_too_few_draws_with_the_target_pair_is_a_bootstrap_flag(self):
        # R1 alone trades ETH/USD, for two weeks: about one pooled draw in
        # eight holds neither week, and so does not fit ETH/USD
        ds = make_dataset([("R1", 1, 20_000, 0.0), ("R2", 2, 20_000, 0.0), ("R3", 3, 20_000, 0.0)])
        for ex, seed, weeks, wash in (("R1", 4, 2, 0.0), ("U1", 5, 12, 0.8)):
            cfg = GeneratorConfig(seed=seed, exchange_id=ex, pair="ETH/USD", n_trades=5_000, n_weeks=weeks,
                                  wash_fraction=wash, profile="stable-panel")
            ds.groups.update(gen_exchange(cfg).dataset.groups)
        meta = make_meta(["R1", "R2", "R3"], ["U1"])
        rep = run_battery(ds, REG, meta, RunConfig(bootstrap=100, pool_pairs=True))
        names, _, fitted, _ = washest.fit_bootstrap(
            [r for r in ingest.weekly_split(ds, REG) if r.exchange_id != "U1"], n_boot=100, seed=0
        )
        assert names[-1] == "pair=ETH/USD" and 0 < fitted["ETH/USD"].sum() < 100
        flag = f"bootstrap failed: only {fitted['ETH/USD'].sum()} of 100 replicates fitted ETH/USD, need 100"
        u1 = rep.exchanges[3]
        (est,) = u1.wash_by_pair
        assert est.bootstrap_sd is None and est.flags == (flag,)
        assert u1.wash_aggregate.bootstrap_sd is None and u1.wash_aggregate.flags == (flag,)


class TestAgainstScipy:
    def test_probabilities_match_scipy_stats(self, battery):
        """Every p-value and critical value of the report, recomputed with
        scipy.stats from the statistic and df it stores, agrees to 1e-12 and
        gives the same verdict."""
        alpha = battery.config.alpha
        checked = dict.fromkeys(("chi2", "t", "tail", "fisher"), 0)
        for ex in battery.exchanges:
            for p in ex.pairs:
                oriented = {}  # scipy's values of the p-values Fisher combines
                for name, chi in (("benford", p.benford), ("raw", p.benford_raw), ("roundness", p.roundness)):
                    if chi is not None:
                        oriented[name] = sf = float(stats.chi2.sf(chi.statistic, chi.df))
                        assert chi.p_value == pytest.approx(sf, rel=1e-12, abs=0)
                        assert chi.reject == (sf < alpha)
                        checked["chi2"] += 1
                for name, c in (("cluster_100", p.cluster_100), ("cluster_500", p.cluster_500)):
                    if c is not None and not c.insufficient:
                        sf = max(P_FLOOR, float(stats.t.sf(c.t_statistic, c.n_pairs - 1)))
                        oriented[name] = cdf = max(P_FLOOR, float(stats.t.cdf(c.t_statistic, c.n_pairs - 1)))
                        assert c.p_value == pytest.approx(sf, rel=1e-12, abs=0)
                        assert c.anomaly_p == pytest.approx(cdf, rel=1e-12, abs=0)
                        assert c.reject == (sf >= alpha)
                        checked["t"] += 1
                t = p.tail
                if t is not None:
                    inside = float(
                        stats.norm.cdf((2.0 - t.alpha_hill) / t.hill_se)
                        - stats.norm.cdf((1.0 - t.alpha_hill) / t.hill_se)
                    )
                    oriented["tail"] = max(P_FLOOR, inside)
                    assert t.anomaly_p == pytest.approx(oriented["tail"], rel=1e-12, abs=0)
                    outside = float(
                        stats.norm.cdf((1.0 - t.alpha_hill) / t.hill_se) + stats.norm.sf((2.0 - t.alpha_hill) / t.hill_se)
                    )
                    assert t.p_outside == pytest.approx(max(P_FLOOR, outside), rel=1e-12, abs=0)
                    checked["tail"] += 1
                if p.fisher is not None:
                    combined = (oriented["benford"], oriented["cluster_100"], oriented["tail"])
                    chi2 = -2.0 * sum(math.log(max(P_FLOOR, q)) for q in combined)
                    critical = float(stats.chi2.isf(alpha, p.fisher.df))
                    assert p.fisher.chi2 == pytest.approx(chi2, rel=1e-12, abs=0)
                    assert p.fisher.critical_value == pytest.approx(critical, rel=1e-12, abs=0)
                    assert p.fisher.reject == (chi2 > critical)
                    checked["fisher"] += 1
        fit = battery.wash_failure_fit
        if fit is not None:
            assert fit.slope_p == pytest.approx(2.0 * float(stats.t.sf(abs(fit.slope_t), fit.n - 2)), rel=1e-12, abs=0)
        assert min(checked.values()) > 0, checked


class TestSerialization:
    def test_json_validates_against_shipped_schema(self, battery):
        schema = json.loads(
            resources.files("washdetect").joinpath("report_schema.json").read_text()
        )
        jsonschema.validate(report_to_json(battery), schema)

    def test_schema_version_stamped(self, battery):
        assert report_to_json(battery)["schema_version"] == "1"

    def test_dump_is_deterministic(self, battery):
        ds = make_dataset([("R1", 1, 60_000, 0.0)])
        rep1 = run_battery(ds, REG, None, RunConfig(estimate_wash=False))
        rep2 = run_battery(
            make_dataset([("R1", 1, 60_000, 0.0)]), REG, None, RunConfig(estimate_wash=False)
        )
        assert dump_report_json(rep1) == dump_report_json(rep2)

    def test_flat_rows(self, battery):
        rows = report_test_rows(battery)
        assert rows[0] == ["exchange", "pair", "test", "statistic", "p_value", "passed"]
        tests = {r[2] for r in rows[1:]}
        assert {"benford", "cluster_100", "cluster_500", "pareto_levy", "fisher"} <= tests
        wash_rows = wash_estimate_rows(battery)
        assert any(r[0] == "U1" for r in wash_rows[1:])


class TestRunConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(alpha=0.0)
        with pytest.raises(ValueError):
            RunConfig(alpha=0.6)

    def test_bootstrap_minimum(self):
        with pytest.raises(ValueError):
            RunConfig(bootstrap=50)
        RunConfig(bootstrap=0)
        RunConfig(bootstrap=100)

    def test_default_effective_n(self):
        assert RunConfig().effective_n == BENFORD_EMULATION_N
