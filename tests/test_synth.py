"""Generator contracts: determinism, labels, and statistical self-tests."""

import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from washdetect.benford import chi_squared_benford, digit_histogram
from washdetect.clustering import run_cluster_test
from washdetect.errors import ConfigError
from washdetect.ingest import parse_trades
from washdetect import synth
from washdetect.synth import (
    START_MS,
    GeneratorConfig,
    gen_exchange,
    write_tape,
)
from washdetect.tailfit import fit_tail
from washdetect.trades import PairRegistry, first_significant_digits, is_round_mask


def tape_csv(cfg, include_labels=False):
    buf = io.StringIO()
    write_tape(gen_exchange(cfg), buf, include_labels=include_labels)
    return buf.getvalue()


class TestDeterminism:
    def test_identical_seeds_byte_identical(self):
        cfg = GeneratorConfig(seed=7, n_trades=50_000, wash_fraction=0.7)
        assert tape_csv(cfg) == tape_csv(cfg)

    def test_different_seeds_differ(self):
        a = GeneratorConfig(seed=7, n_trades=10_000)
        b = GeneratorConfig(seed=8, n_trades=10_000)
        assert tape_csv(a) != tape_csv(b)

    def test_round_trips_through_ingestion(self):
        cfg = GeneratorConfig(seed=3, n_trades=20_000, wash_fraction=0.4)
        text = tape_csv(cfg)
        ds, report = parse_trades(io.StringIO(text), "csv")
        assert report.n_rejected == 0
        g = ds.group(cfg.exchange_id, cfg.pair)
        assert g.n == cfg.n_trades
        assert g.amounts.tolist() == gen_exchange(cfg).group.amounts.tolist()

    @pytest.mark.parametrize("exchange_id", ["A,B", 'A"B', "A\nB", "A\r\nB", '"', " A "])
    def test_ids_that_need_quoting_round_trip(self, exchange_id):
        cfg = GeneratorConfig(seed=3, n_trades=500, exchange_id=exchange_id)
        ds, report = parse_trades(io.StringIO(tape_csv(cfg)), "csv")
        assert report.n_rejected == 0
        assert list(ds.groups) == [(exchange_id, cfg.pair)]
        assert ds.group(exchange_id, cfg.pair).n == cfg.n_trades

    def test_plain_ids_are_written_unquoted(self):
        text = tape_csv(GeneratorConfig(seed=3, n_trades=10, exchange_id="R1"))
        assert text.splitlines()[1].startswith("R1,BTC/USD,")

    def test_empty_id_is_rejected(self):
        with pytest.raises(ConfigError, match="exchange id"):
            GeneratorConfig(exchange_id="")

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile 'stable'"):
            GeneratorConfig(profile="stable")


# sha256 of tapes written by the row-by-row formatter that the column
# assembler replaced: (seed, pair, exchange id, rows, wash, profile, format,
# labels, digest). The last CSV tape is one row longer than 2**16 and the
# last JSONL tape one row longer than 2**14, so each ends past a chunk
# boundary of the writer.
GOLDEN_TAPES = [
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "csv", False, "04cf7af3c436a8106f42c14034db826e44fdd8d526192d6f5c134fd3ab3ff1ab"),
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "csv", True, "8a8e014a1d3a8a398bf137dae085bdb6f65471812366d36cc1fc13ba1b799703"),
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "jsonl", False, "51114c3751cbb3b1964357ab4fb0f214a0c0baf1f91f7b0c2727e16a18b54773"),
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "jsonl", True, "8ba5edf28cd8b5b06f6f329592f894c1d7e306970561166bc74bd15efb902efb"),
    (4, "ETH/USD", "R1", 2000, 0.3, "stable-panel", "csv", True, "57ea583c0fa1c7cc35789bae5df6e16e1feb50ca411117fadcf08339c970ca67"),
    (4, "ETH/USD", "R1", 2000, 0.3, "stable-panel", "jsonl", False, "3b5e9d7397a1e4813450778574ae4c6a359329c458379f852a87204767a76c36"),
    (5, "XRP/USD", "U1", 3000, 0.2, "default", "csv", False, "34608a31e2beb85f7f37baadc8d68d1a6139bc33f91a8499b4675c40f931a5b5"),
    (6, "LTC/USD", "U2", 2000, 0.8, "stable-panel", "jsonl", True, "bc3064db8d8d2ee107d1c1fdeb7fd27135dd16553fef6d2322060e7d888be6e0"),
    (7, "BTC/USD", "A,B", 500, 0.5, "default", "csv", True, "5d0dc7d86a498d012acb8854af146aef0b005eff86a54ab602703f7280007cd9"),
    (7, "BTC/USD", "A,B", 500, 0.5, "default", "jsonl", True, "21ab4493573b796982d0bd029a8e9918cc4484a3d297e0d3b8164b73cdf2b38c"),
    (8, "BTC/USD", 'Börse "1"', 500, 0.5, "default", "csv", False, "21c7268f8b853de8200033d6417638ba7e6e023ab190b87e4cd43a9350b667c7"),
    (9, "BTC/USD", "X1", 65_537, 0.4, "default", "csv", True, "0a568e37d3b3ba9d211d128e2961b592215a39184eceabd7c9ad1366b197d32f"),
    (10, "BTC/USD", "X1", 16_385, 0.4, "default", "jsonl", True, "f4bcce3e991aacf887b8e42a01cea72a22d3759d1a7c344fb08c60eb58e7a8fe"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("seed,pair,exchange_id,n,wash,profile,fmt,labels,digest", GOLDEN_TAPES)
    def test_tape_bytes_are_pinned(self, seed, pair, exchange_id, n, wash, profile, fmt, labels, digest):
        cfg = GeneratorConfig(
            seed=seed, exchange_id=exchange_id, pair=pair, n_trades=n, wash_fraction=wash, profile=profile
        )
        buf = io.StringIO()
        write_tape(gen_exchange(cfg), buf, fmt, labels)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_tape_crosses_a_chunk(self, fmt):
        assert max(n for _, _, _, n, _, _, f, _, _ in GOLDEN_TAPES if f == fmt) > synth._WRITE_ROWS[fmt]


def float_lines(values, json_names):
    """``_float_text`` of ``values``, one per line."""
    text = synth._float_text(values, json_names)
    return synth._rows_text([text, synth._const("\n")], values.size)


def oracle_floats(seed, n):
    """About ``9 * n`` floats in the classes a price formatter can get wrong."""
    rng = np.random.default_rng(seed)
    near = 10.0 ** rng.uniform(-5, 16, n)
    powers = 2.0 ** np.arange(-1074, 1024)
    return np.concatenate([
        9000.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, n))),  # random walks, as synth's prices
        10.0 ** rng.uniform(-6, 17, n),  # log-uniform over 1e-6..1e17
        np.rint(rng.uniform(0, 1e5, n) * 100) / 100,  # 2-decimal prices
        np.rint(rng.uniform(0, 1e3, n) * 10.0 ** (k := rng.integers(0, 8, n))) / 10.0**k,  # short decimals
        rng.integers(0, 2**53, n).astype(np.float64),  # integers
        np.nextafter(near, np.inf), np.nextafter(near, 0.0),  # neighbours of random doubles
        np.nextafter(powers, np.inf), np.nextafter(powers, 0.0), powers,
        np.nextafter(10.0 ** np.arange(-8, 23), np.inf), np.nextafter(10.0 ** np.arange(-8, 23), 0.0),
        rng.normal(0, 1, n) * 10.0 ** rng.integers(-5, 20, n),  # both signs, every notation
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, np.finfo(float).max],
    ])


# repr's own edges: its notation switches, ties in the last decimal, the
# extremes of the double.
FLOAT_EDGES = [
    1e-4, np.nextafter(1e-4, 0), 2.0**52 - 1, 2.0**52 - 0.5, 2.0**52, 1e16, 0.1, 0.2, 0.3, 0.1 + 0.2, 9.5, 0.5,
    2.5, 0.125, 1 / 3, 2 / 3, 9000.0, 9999.999999999998, 10000.0, 1e15 + 0.25, 4503599627370495.5, 0.0, -0.0,
    -1.5, float("nan"), float("inf"), -float("inf"), 5e-324, 2.2250738585072014e-308, np.finfo(float).max,
]


class TestFloatText:
    """``_float_text`` writes exactly what ``repr`` and ``json.dumps`` do."""

    @pytest.mark.parametrize("json_names", [False, True])
    def test_a_million_floats_match_repr_and_json(self, json_names):
        values = oracle_floats(0, 125_000)
        assert values.size > 1_000_000
        texts = map(repr, values.tolist()) if not json_names else json.dumps(values.tolist())[1:-1].split(", ")
        expected = "\n".join(texts) + "\n"
        chunk = synth._WRITE_ROWS["csv"]
        got = "".join(float_lines(values[lo : lo + chunk], json_names) for lo in range(0, values.size, chunk))
        assert got == expected

    @pytest.mark.parametrize("json_names", [False, True])
    def test_edges(self, json_names):
        values = np.array(FLOAT_EDGES + [2.0**k for k in range(-20, 60)] + [k + 0.5 for k in range(20)])
        expected = "".join((json.dumps(v) if json_names else repr(v)) + "\n" for v in values.tolist())
        assert float_lines(values, json_names) == expected

    @given(st.lists(st.floats(), min_size=1, max_size=50), st.booleans())
    def test_any_floats(self, floats, json_names):
        expected = "".join((json.dumps(v) if json_names else repr(v)) + "\n" for v in floats)
        assert float_lines(np.array(floats, dtype=np.float64), json_names) == expected

    def test_an_empty_chunk(self):
        assert float_lines(np.array([], dtype=np.float64), False) == ""

    def test_a_tie_is_left_to_repr(self):
        # 1e15 + 0.25 times 10 ends in .5: its one-decimal neighbours are
        # equally near, and repr breaks the tie
        _, _, tie = synth._shortest_decimals(np.array([1e15 + 0.25, 1e15 + 0.5, 0.1, 9000.01]))
        assert tie.tolist() == [True, False, False, False]

    # synth's own prices: the quick start's tapes and tape-roundtrip's, as
    # bench/workloads.py draws them at its seeds 0-2
    @pytest.mark.parametrize("bench_seed", [0, 1, 2])
    def test_synth_prices_never_take_repr(self, bench_seed):
        configs = [
            GeneratorConfig(seed=4 * bench_seed + k + 1, n_trades=n, exchange_id=ex, wash_fraction=w, profile="stable-panel")
            for k, (ex, n, w) in enumerate((("R1", 75_000, 0.0), ("R2", 50_000, 0.0), ("R3", 37_500, 0.0), ("U1", 50_000, 0.8)))
        ] + [
            GeneratorConfig(seed=10 * bench_seed + k, n_trades=25_000, exchange_id=ex, pair=pair, wash_fraction=w)
            for k, (ex, pair, w) in enumerate(
                (("X1", "BTC/USD", 0.0), ("X2", "ETH/USD", 0.3), ("X3", "LTC/USD", 0.0), ("X4", "XRP/USD", 0.5))
            )
        ]
        for cfg in configs:
            prices = gen_exchange(cfg).group.prices
            assert ((prices >= synth._FIXED_LOW) & (prices < synth._FIXED_HIGH)).all()
            assert not synth._shortest_decimals(prices)[2].any()


class TestAuthenticFlow:
    def test_full_round_grid_makes_every_trade_round(self):
        params = synth._AuthenticParams(rounding_propensity=1.0, grid_weights=((100, 1.0),), snap_min_multiples=0.0)
        rng = np.random.default_rng(1)
        sizes = 10.0 ** rng.uniform(2.0, 6.0, 20_000)
        spec = PairRegistry().get("BTC/USD")
        subunits = synth._snap_round(rng, params, sizes, spec.subunits_per_base_unit)
        assert is_round_mask(subunits, spec).all()

    def test_benford_self_test(self):
        cfg = GeneratorConfig(seed=11, n_trades=1_000_000)
        tape = gen_exchange(cfg)
        res = chi_squared_benford(digit_histogram(tape.group.amounts), effective_n=10_000)
        assert res.p_value > 0.05

    def test_tail_recovers_configured_alpha(self):
        cfg = GeneratorConfig(seed=12, n_trades=1_000_000)
        tape = gen_exchange(cfg)
        fit = fit_tail(tape.group.amounts / cfg.spec.subunits_per_base_unit)
        assert fit.alpha_hill == pytest.approx(1.5, abs=0.05)
        assert fit.alpha_ols == pytest.approx(1.5, abs=0.1)
        assert fit.in_pareto_levy

    def test_clustering_present(self):
        cfg = GeneratorConfig(seed=13, n_trades=400_000)
        tape = gen_exchange(cfg)
        res = run_cluster_test(tape.group.amounts, cfg.spec, 100)
        assert res.mean_difference > 0
        assert res.p_value < 0.01

    def test_clustering_significant_across_seeds_both_steps(self):
        # positive and significant at the 1% level at both grids, 20 seeds
        for step in (100, 500):
            hits = 0
            for seed in range(20):
                cfg = GeneratorConfig(seed=100 + seed, n_trades=150_000)
                tape = gen_exchange(cfg)
                res = run_cluster_test(tape.group.amounts, cfg.spec, step, alpha=0.01)
                if not res.insufficient and res.mean_difference > 0 and res.p_value < 0.01:
                    hits += 1
            assert hits >= 19, f"step {step}: only {hits}/20 seeds significant"

    def test_timestamps_inside_window_and_sorted(self):
        cfg = GeneratorConfig(seed=14, n_trades=5_000)
        g = gen_exchange(cfg).group
        assert (np.diff(g.timestamps) >= 0).all()
        assert g.timestamps[0] >= START_MS
        assert g.timestamps[-1] < START_MS + cfg.n_weeks * 7 * 86_400_000 + 101

    def test_round_sizes_follow_the_pair_base_unit(self):
        # ETH/USD counts base units of 0.001, not BTC's 0.0001: the tape is as
        # round under its own pair's rule as a BTC/USD tape is under BTC's.
        eth = PairRegistry().get("ETH/USD")
        cfg = GeneratorConfig(seed=1, pair="ETH/USD", n_trades=50_000)
        assert cfg.spec == eth
        assert is_round_mask(gen_exchange(cfg).group.amounts, eth).mean() == pytest.approx(0.20, abs=0.01)


class TestWashFlow:
    def test_digit_concentration(self):
        cfg = GeneratorConfig(seed=21, n_trades=100_000, wash_fraction=1.0)
        tape = gen_exchange(cfg)
        digits = np.unique(first_significant_digits(tape.group.amounts))
        assert set(digits.tolist()) <= {4, 5, 6, 7, 8}

    def test_wash_trades_essentially_never_round(self):
        cfg = GeneratorConfig(seed=22, n_trades=200_000, wash_fraction=1.0)
        tape = gen_exchange(cfg)
        round_share = is_round_mask(tape.group.amounts, cfg.spec).mean()
        assert round_share < 0.001

    def test_burst_pairs_share_size_and_timing(self):
        cfg = GeneratorConfig(seed=23, n_trades=10_000, wash_fraction=1.0)
        tape = gen_exchange(cfg)
        g = tape.group
        # every size appears an even number of times (paired legs)
        _, counts = np.unique(g.amounts, return_counts=True)
        assert (counts % 2 == 0).mean() > 0.99

    def test_wash_only_tape_shows_no_clustering(self):
        for seed in (31, 32, 33):
            cfg = GeneratorConfig(seed=seed, n_trades=300_000, wash_fraction=1.0)
            tape = gen_exchange(cfg)
            res = run_cluster_test(tape.group.amounts, cfg.spec, 100)
            assert res.insufficient or res.mean_difference <= 0 or res.p_value >= 0.05


class TestInterleaving:
    def test_counts_and_labels(self):
        cfg = GeneratorConfig(seed=41, n_trades=100_000, wash_fraction=0.5)
        tape = gen_exchange(cfg)
        assert tape.n_authentic + tape.n_wash == cfg.n_trades
        assert tape.labels.sum() == tape.n_wash
        assert tape.group.n == cfg.n_trades

    @pytest.mark.parametrize("w", [0.25, 0.5, 0.8])
    def test_realized_fraction_near_target(self, w):
        cfg = GeneratorConfig(seed=42, n_trades=100_000, wash_fraction=w)
        tape = gen_exchange(cfg)
        assert tape.realized_wash_fraction == pytest.approx(w, abs=0.02)

    def test_label_accounting_matches_volumes(self):
        cfg = GeneratorConfig(seed=43, n_trades=50_000, wash_fraction=0.3)
        tape = gen_exchange(cfg)
        g = tape.group
        wash_volume = int(g.amounts[tape.labels].sum())
        total = int(g.amounts.sum())
        assert tape.realized_wash_fraction == pytest.approx(wash_volume / total, abs=1e-12)

    def test_pure_cases(self):
        clean = gen_exchange(GeneratorConfig(seed=44, n_trades=10_000, wash_fraction=0.0))
        assert clean.n_wash == 0 and not clean.labels.any()
        allwash = gen_exchange(GeneratorConfig(seed=45, n_trades=10_000, wash_fraction=1.0))
        assert allwash.n_authentic == 0
        assert "no_authentic_flow" in allwash.flags

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            gen_exchange(GeneratorConfig(seed=1, n_trades=10, wash_fraction=1.5))


class TestLabelColumn:
    def test_gated_by_flag(self):
        cfg = GeneratorConfig(seed=51, n_trades=1000, wash_fraction=0.5)
        plain = tape_csv(cfg)
        labeled = tape_csv(cfg, include_labels=True)
        assert "label" not in plain.splitlines()[0]
        assert plain.splitlines()[0] == "exchange,pair,timestamp_ms,price,amount"
        assert labeled.splitlines()[0].endswith(",label")
        assert ",wash" in labeled

    def test_jsonl_output_parses(self):
        cfg = GeneratorConfig(seed=52, n_trades=500)
        buf = io.StringIO()
        write_tape(gen_exchange(cfg), buf, fmt="jsonl")
        ds, report = parse_trades(io.StringIO(buf.getvalue()), "jsonl")
        assert report.n_rejected == 0
        assert ds.n_trades == 500


class TestStablePanelProfile:
    def test_passes_detector_battery(self):
        cfg = GeneratorConfig(seed=61, n_trades=400_000, profile="stable-panel")
        tape = gen_exchange(cfg)
        g = tape.group
        b = chi_squared_benford(digit_histogram(g.amounts), effective_n=10_000)
        assert b.p_value > 0.05
        fit = fit_tail(g.amounts / cfg.spec.subunits_per_base_unit)
        assert fit.in_pareto_levy

    def test_weekly_volume_concentration(self):
        # No single trade may dominate a week: the point of the profile.
        cfg = GeneratorConfig(seed=62, n_trades=300_000, profile="stable-panel")
        g = gen_exchange(cfg).group
        weeks = (g.timestamps // 86_400_000 + 3) // 7
        for w in np.unique(weeks):
            amounts = g.amounts[weeks == w]
            assert amounts.max() / amounts.sum() < 0.05
