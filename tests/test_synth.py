"""Generator contracts: determinism, labels, and statistical self-tests."""

import csv
import io
import json
from itertools import zip_longest

import numpy as np
import pytest
from test_trades import canonical_amount, first_significant_digits

from washdetect.benford import chi_squared_benford, digit_histogram
from washdetect.clustering import run_cluster_test
from washdetect.errors import ConfigError
from washdetect.ingest import CSV_HEADER, parse_trades
from washdetect import synth
from washdetect.synth import (
    START_MS,
    GeneratorConfig,
    gen_exchange,
    write_tape,
)
from washdetect.tailfit import fit_tail
from washdetect.trades import MAX_AMOUNT_SUBUNITS, PairRegistry, SortedAmounts, is_round_mask


def amounts_of(tape):
    """The sorted amounts of a labeled tape's group, of its pair."""
    return SortedAmounts.of(tape.group.amounts, tape.config.spec)


def tape_csv(cfg, include_labels=False):
    buf = io.StringIO()
    write_tape(gen_exchange(cfg), buf, include_labels=include_labels)
    return buf.getvalue()


def first_difference(got, want):
    """None if two texts (or byte strings) are equal, else their first line
    that differs: its number and both versions. An assertion on this reports
    one line, where pytest's diff of two whole tapes runs for minutes."""
    if got == want:
        return None
    lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next((i, g, w) for i, (g, w) in enumerate(lines, 1) if g != w)


class TestDeterminism:
    def test_identical_seeds_byte_identical(self):
        cfg = GeneratorConfig(seed=7, n_trades=50_000, wash_fraction=0.7)
        assert first_difference(tape_csv(cfg), tape_csv(cfg)) is None

    def test_different_seeds_differ(self):
        a = GeneratorConfig(seed=7, n_trades=10_000)
        b = GeneratorConfig(seed=8, n_trades=10_000)
        assert tape_csv(a) != tape_csv(b)

    def test_round_trips_through_ingestion(self):
        cfg = GeneratorConfig(seed=3, n_trades=20_000, wash_fraction=0.4)
        tape = gen_exchange(cfg)
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            write_tape(tape, buf, fmt)
            ds, report = parse_trades(io.StringIO(buf.getvalue()), fmt)
            assert report.n_rejected == 0
            g = ds.group(cfg.exchange_id, cfg.pair)
            assert g.n == cfg.n_trades
            for column in ("timestamps", "amounts", "prices"):
                assert getattr(g, column).tobytes() == getattr(tape.group, column).tobytes(), (fmt, column)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_price_off_the_tick_is_refused(self, fmt):
        tape = gen_exchange(GeneratorConfig(seed=3, n_trades=100))
        for price in (0.1 + 0.2, 8999.999, 0.0, -1.0, float("nan"), float("inf"), 1e20):
            tape.group.prices[40] = price
            with pytest.raises(ValueError, match="not a positive multiple of the 0.01 tick"):
                write_tape(tape, io.StringIO(), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_negative_timestamp_is_refused(self, fmt):
        tape = gen_exchange(GeneratorConfig(seed=3, n_trades=100))
        tape.group.timestamps[0] = -1  # ingest would reject the row
        with pytest.raises(ValueError, match="negative timestamp -1"):
            write_tape(tape, io.StringIO(), fmt)

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


def oracle_tape(tape, fmt, include_labels):
    """The tape as a row-by-row writer writes it: ``csv.writer`` rows, or
    ``json.dumps(row, sort_keys=True)`` lines with the price spliced in as
    its two-decimal text."""
    g = tape.group
    buf = io.StringIO()
    if fmt == "csv":
        buf.write(",".join(CSV_HEADER) + (",label" if include_labels else "") + "\n")
        writer = csv.writer(buf, lineterminator="\n")
    for ts, price, amount, wash in zip(g.timestamps.tolist(), g.prices.tolist(), g.amounts.tolist(), tape.labels.tolist()):
        ticks = round(price * 100)
        assert ticks / 100 == price
        price_text = f"{ticks // 100}.{ticks % 100:02d}"
        label = ["wash" if wash else "authentic"] if include_labels else []
        if fmt == "csv":
            writer.writerow([g.exchange_id, g.pair, ts, price_text, canonical_amount(amount), *label])
            continue
        row = {"exchange": g.exchange_id, "pair": g.pair, "timestamp_ms": ts, "price": None, "amount": canonical_amount(amount)}
        row.update({"label": label[0]} if label else {})
        # in JSON text a bare quote only closes a string, so this is the key
        buf.write(json.dumps(row, sort_keys=True).replace('"price": null', f'"price": {price_text}') + "\n")
    return buf.getvalue()


# (seed, pair, exchange id, rows, wash, profile, format, labels, chunks the
# writer assembles the tape in). The last CSV tape is one row longer than
# 2**16 and the last JSONL tape one row longer than 2**14, so each ends one
# row past a chunk boundary of the writer.
GOLDEN_TAPES = [
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "csv", False, 1),
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "csv", True, 1),
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "jsonl", False, 1),
    (3, "BTC/USD", "X1", 2000, 0.5, "default", "jsonl", True, 1),
    (4, "ETH/USD", "R1", 2000, 0.3, "stable-panel", "csv", True, 1),
    (4, "ETH/USD", "R1", 2000, 0.3, "stable-panel", "jsonl", False, 1),
    (5, "XRP/USD", "U1", 3000, 0.2, "default", "csv", False, 1),
    (6, "LTC/USD", "U2", 2000, 0.8, "stable-panel", "jsonl", True, 1),
    (7, "BTC/USD", "A,B", 500, 0.5, "default", "csv", True, 1),
    (7, "BTC/USD", "A,B", 500, 0.5, "default", "jsonl", True, 1),
    (8, "BTC/USD", 'Börse "1"', 500, 0.5, "default", "csv", False, 1),
    (9, "BTC/USD", "X1", 65_537, 0.4, "default", "csv", True, 3),
    (10, "BTC/USD", "X1", 16_385, 0.4, "default", "jsonl", True, 2),
    *(
        (11, "BTC/USD", exchange_id, 500, 0.5, "default", fmt, labels, 1)
        # a NUL, a 4-byte UTF-8 character, and a lone surrogate as undecodable argv bytes give
        for exchange_id in ("X\x001", "\U0001f4b1", "X\udcff")
        for fmt in ("csv", "jsonl")
        for labels in (False, True)
    ),
    (12, "BTC/USD", "X1", 2000, 0.5, "default", "csv", False, 1),
    (12, "BTC/USD", "X1", 2000, 0.5, "default", "jsonl", True, 1),
]


def spanning_amounts():
    """Amounts of every count of unit digits, 1 to 11, beside every count of
    fraction digits, 0 to 8, the largest near ``MAX_AMOUNT_SUBUNITS``."""
    units = [0, *(int("9" * k) for k in range(1, 11)), (MAX_AMOUNT_SUBUNITS - 1) // 10**8 - 1]
    fractions = [0, 7 * 10**7, *(int("5" + "0" * (f - 2) + "3") * 10 ** (8 - f) for f in range(2, 9))]
    amounts = np.array([u * 10**8 + f for u in units for f in fractions if u or f], np.int64)
    assert amounts.max() < MAX_AMOUNT_SUBUNITS
    return amounts


# Written over the first rows of the tapes of these seeds, so that one chunk
# holds every width of amount text
GOLDEN_AMOUNTS = {12: spanning_amounts()}


class TestGoldenBytes:
    """The column assembler writes what a row-by-row writer does."""

    @pytest.mark.parametrize("seed,pair,exchange_id,n,wash,profile,fmt,labels,chunks", GOLDEN_TAPES)
    def test_tape_bytes_are_pinned(self, seed, pair, exchange_id, n, wash, profile, fmt, labels, chunks):
        cfg = GeneratorConfig(
            seed=seed, exchange_id=exchange_id, pair=pair, n_trades=n, wash_fraction=wash, profile=profile
        )
        tape = gen_exchange(cfg)
        amounts = GOLDEN_AMOUNTS.get(seed)
        if amounts is not None:
            tape.group.amounts[: amounts.size] = amounts
        buf = io.StringIO()
        write_tape(tape, buf, fmt, labels)
        assert first_difference(buf.getvalue(), oracle_tape(tape, fmt, labels)) is None
        assert -(-n // synth._WRITE_ROWS[fmt]) == chunks

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_tape_crosses_a_chunk(self, fmt):
        assert max(chunks for *_, f, _, chunks in GOLDEN_TAPES if f == fmt) > 1


class TestTimeOrder:
    """One sort of (time, row) keys orders the trades as a stable sort of their times."""

    @pytest.mark.parametrize("n,distinct", [(1, 1), (2, 1), (1024, 3), (1025, 1024), (100_000, 2000), (65_536, 65_536)])
    def test_matches_a_stable_argsort_with_ties(self, n, distinct):
        rng = np.random.default_rng(n)
        # times spread over the whole span a 12-week tape can have, each shared by about n / distinct rows
        times = rng.choice(12 * synth.MS_PER_WEEK + synth.BURST_GAP_MS[1], size=distinct, replace=False)
        timestamps = START_MS + rng.choice(times, size=n)
        assert (synth._time_order(timestamps) == np.argsort(timestamps, kind="stable")).all()

    @pytest.mark.parametrize("n,weeks", [(2**30 + 1, 12), (2**40, 12), (1, 2**40), (2**10 + 1, 2**23)])
    def test_a_config_over_the_key_is_refused_before_a_draw(self, n, weeks, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
        with pytest.raises(ConfigError, match="overflow the 63-bit key"):
            gen_exchange(GeneratorConfig(n_trades=n, n_weeks=weeks))

    def test_the_largest_config_under_the_key_is_accepted(self):
        assert synth._split_counts(GeneratorConfig(n_trades=2**30, n_weeks=12)) == (2**30, 0)
        assert synth._split_counts(GeneratorConfig(n_trades=2**10, n_weeks=2**23)) == (2**10, 0)


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
        res = chi_squared_benford(digit_histogram(amounts_of(tape)), effective_n=10_000)
        assert res.p_value > 0.05

    def test_tail_recovers_configured_alpha(self):
        cfg = GeneratorConfig(seed=12, n_trades=1_000_000)
        tape = gen_exchange(cfg)
        fit = fit_tail(amounts_of(tape))
        assert fit.alpha_hill == pytest.approx(1.5, abs=0.05)
        assert fit.alpha_ols == pytest.approx(1.5, abs=0.1)
        assert fit.in_pareto_levy

    def test_clustering_present(self):
        cfg = GeneratorConfig(seed=13, n_trades=400_000)
        tape = gen_exchange(cfg)
        res = run_cluster_test(amounts_of(tape), 100)
        assert res.mean_difference > 0
        assert res.p_value < 0.01

    def test_clustering_significant_across_seeds_both_steps(self):
        # positive and significant at the 1% level at both grids, 20 seeds
        for step in (100, 500):
            hits = 0
            for seed in range(20):
                cfg = GeneratorConfig(seed=100 + seed, n_trades=150_000)
                tape = gen_exchange(cfg)
                res = run_cluster_test(amounts_of(tape), step, alpha=0.01)
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
            res = run_cluster_test(amounts_of(tape), 100)
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

    def test_one_trade_with_some_wash_flags_no_wash_flow(self):
        tape = gen_exchange(GeneratorConfig(seed=46, n_trades=1, wash_fraction=0.5))
        assert tape.flags == ("no_wash_flow",)
        assert tape.n_wash == 0 and not tape.labels.any()
        clean = GeneratorConfig(seed=46, n_trades=1)
        assert gen_exchange(clean).flags == ()
        assert tape_csv(tape.config) == tape_csv(clean)

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
        b = chi_squared_benford(digit_histogram(amounts_of(tape)), effective_n=10_000)
        assert b.p_value > 0.05
        fit = fit_tail(amounts_of(tape))
        assert fit.in_pareto_levy

    def test_weekly_volume_concentration(self):
        # No single trade may dominate a week: the point of the profile.
        cfg = GeneratorConfig(seed=62, n_trades=300_000, profile="stable-panel")
        g = gen_exchange(cfg).group
        weeks = (g.timestamps // 86_400_000 + 3) // 7
        for w in np.unique(weeks):
            amounts = g.amounts[weeks == w]
            assert amounts.max() / amounts.sum() < 0.05
