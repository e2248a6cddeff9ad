"""Parsing, grouping, weekly volume splits, and the unrounded subset."""

import csv
import io
import math
from datetime import date, datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from washdetect import ingest
from washdetect.errors import AmountError, ParseError, WashdetectError
from washdetect.ingest import (
    CSV_HEADER,
    ParseReport,
    TradeDataset,
    make_group,
    parse_trades,
    unrounded_subset,
    week_index,
    weekly_split,
)
from washdetect.trades import PairRegistry, parse_amount

REG = PairRegistry()

CSV_SAMPLE = """exchange,pair,timestamp_ms,price,amount
R2,BTC/USD,1562630400000,8000.5,0.0200
R2,BTC/USD,1562630460000,8001.0,0.0213
R2,ETH/USD,1562630400000,210.0,1.5
U8,BTC/USD,1562630400000,8000.0,0.12345678
"""


def ms(y, mo, d, h=0, mi=0, s=0, msec=0):
    return int(datetime(y, mo, d, h, mi, s, msec * 1000, tzinfo=timezone.utc).timestamp() * 1000)


def oracle_week_index(timestamp_ms):
    """Independent calendar computation: days since Monday 1969-12-29, over 7."""
    day = datetime.fromtimestamp(timestamp_ms / 1000.0, tz=timezone.utc).date()
    return (day - date(1969, 12, 29)).days // 7


def one_group(timestamps, amounts, pair="BTC/USD", exchange="X"):
    """A dataset of one group, with price 1.0 on every row."""
    group = make_group(exchange, pair, timestamps, amounts, np.ones(len(amounts)))
    return TradeDataset({(exchange, pair): group})


class TestParse:
    def test_csv_happy_path(self):
        ds, report = parse_trades(io.StringIO(CSV_SAMPLE), "csv")
        assert report.n_accepted == 4
        assert report.n_rejected == 0
        assert set(ds.groups) == {("R2", "BTC/USD"), ("R2", "ETH/USD"), ("U8", "BTC/USD")}
        g = ds.group("R2", "BTC/USD")
        assert g.amounts.tolist() == [parse_amount("0.0200"), parse_amount("0.0213")]

    def test_rejects_are_logged_with_line_numbers(self):
        text = CSV_SAMPLE + "U9,BTC/USD,1562630400000,8000.0,0.123456789\n"
        text += "U9,BTC/USD,1562630400000,-5,0.1\n"
        text += "U9,BTC/USD,1562630400000,8000.0,0\n"
        ds, report = parse_trades(io.StringIO(text), "csv")
        assert report.n_accepted == 4
        assert report.n_rejected == 3
        assert report.rejected[0] == (6, "precision overflow: '0.123456789' has more than 8 decimals")
        assert report.rejected[1][0] == 7
        assert "non-positive" in report.rejected[1][1]

    def test_strict_mode_aborts(self):
        text = CSV_SAMPLE + "U9,BTC/USD,x,8000.0,0.1\n"
        with pytest.raises(ParseError, match="line 6"):
            parse_trades(io.StringIO(text), "csv", strict=True)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            list(parse_trades(io.StringIO("a,b,c,d,e\n1,2,3,4,5\n"), "csv"))

    def test_empty_file_gives_empty_dataset(self):
        ds, report = parse_trades(io.StringIO("exchange,pair,timestamp_ms,price,amount\n"), "csv")
        assert ds.groups == {}
        assert ds.n_trades == 0
        assert report.n_accepted == 0

    def test_jsonl(self):
        lines = (
            '{"exchange": "R2", "pair": "BTC/USD", "timestamp_ms": 1562630400000,'
            ' "price": 8000.5, "amount": "0.0200"}\n'
            "not json\n"
        )
        ds, report = parse_trades(io.StringIO(lines), "jsonl")
        assert report.n_accepted == 1
        assert report.n_rejected == 1
        assert ds.group("R2", "BTC/USD").amounts[0] == parse_amount("0.02")

    def test_dedupe_flag(self):
        text = CSV_SAMPLE + "R2,BTC/USD,1562630400000,8000.5,0.0200\n"
        ds, report = parse_trades(io.StringIO(text), "csv", dedupe=True)
        assert report.n_deduplicated == 1
        assert ds.group("R2", "BTC/USD").n == 2
        # duplicates kept by default
        ds2, _ = parse_trades(io.StringIO(text), "csv")
        assert ds2.group("R2", "BTC/USD").n == 3

    def test_groups_sorted_by_timestamp(self):
        g = make_group("X", "BTC/USD", [30, 10, 20], [100, 200, 300], [1.0, 2.0, 3.0])
        assert g.timestamps.tolist() == [10, 20, 30]
        assert g.amounts.tolist() == [200, 300, 100]
        assert g.prices.tolist() == [2.0, 3.0, 1.0]


class TestInputBoundary:
    def test_undecodable_byte_is_a_line_reject(self, tmp_path):
        path = tmp_path / "tape.csv"
        path.write_bytes(CSV_SAMPLE.encode() + b"U9,BTC/USD,1562630400000,8000.0,0.1\xff\n" + b"U9,BTC/USD,1,1.0,1\n")
        ds, report = parse_trades(path)
        assert report.n_accepted == 5
        assert [line for line, _ in report.rejected] == [6]
        assert report.rejected[0][1].startswith("undecodable line: 'utf-8' codec can't decode byte 0xff")
        with pytest.raises(ParseError, match="line 6: undecodable line"):
            parse_trades(path, strict=True)

    def test_undecodable_header_is_a_parse_error(self):
        with pytest.raises(ParseError, match="header"):
            parse_trades(b"exchange,pair,timestamp_ms,price,amount\xff\nX,BTC/USD,1,1.0,1\n")

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("X,BTC/USD,1,1.0,٥", "malformed amount '٥'"),
            ("X,BTC/USD,٥,1.0,1", "bad timestamp '٥'"),
            ("X,BTC/USD,1,٥,1", "bad price '٥'"),
        ],
    )
    def test_non_ascii_digits_are_rejected(self, row, reason):
        ds, report = parse_trades(io.StringIO(f"{','.join(CSV_HEADER)}\n{row}\n"))
        assert ds.groups == {}
        assert report.rejected == [(2, reason)]

    @pytest.mark.parametrize("price", ["inf", "nan", "1e999"])
    def test_non_finite_price_is_rejected_before_the_amount(self, price):
        ds, report = parse_trades(io.StringIO(f"{','.join(CSV_HEADER)}\nX,BTC/USD,1,{price},x\n"))
        assert ds.groups == {}
        assert report.rejected == [(2, f"non-finite price '{price}'")]

    def test_timestamp_outside_int64_is_rejected(self):
        text = f"{','.join(CSV_HEADER)}\nX,BTC/USD,9223372036854775807,1.0,1\nX,BTC/USD,9223372036854775808,1.0,1\n"
        ds, report = parse_trades(io.StringIO(text))
        assert ds.group("X", "BTC/USD").timestamps.tolist() == [2**63 - 1]
        assert report.rejected == [(3, "timestamp out of range '9223372036854775808'")]

    def test_jsonl_exponent_amount_is_exact(self):
        line = '{"exchange": "X", "pair": "BTC/USD", "timestamp_ms": 1, "price": 1.5, "amount": 1e-7}\n'
        ds, report = parse_trades(io.StringIO(line), "jsonl")
        assert report.rejected == []
        assert ds.group("X", "BTC/USD").amounts.tolist() == [10]
        assert ds.group("X", "BTC/USD").prices.tolist() == [1.5]

    def test_quoted_newline_record_numbered_by_its_first_line(self):
        # the record on lines 2-3 holds a newline inside quotes; the bad row
        # after it is on physical line 4, though it is the third record
        text = (
            f'{",".join(CSV_HEADER)}\nX,BTC/USD,1,1.5,"2\n"\nX,BTC/USD,x,1.5,1\n"Y\nZ",BTC/USD,1,1.5,x\n'
            'X,BTC/USD,1,1.5,"3\nX,BTC/USD,1,1.5,1\n"\n'
        )
        ds, report = parse_trades(io.StringIO(text))
        assert ds.group("X", "BTC/USD").amounts.tolist() == [2 * 10**8]
        assert report.rejected == [
            (4, "bad timestamp 'x'"),
            (5, "malformed amount 'x'"),
            (7, "malformed amount '3\\nX,BTC/USD,1,1.5,1\\n'"),
        ]

    def test_scalar_path_sees_only_off_grammar_rows(self):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_amount(text)

        quoted = 'R2,BTC/USD,1562630400000,8000.5,"0.5"\n'
        with mock.patch.object(ingest, "parse_amount", counting):
            ds, _ = parse_trades(io.StringIO(CSV_SAMPLE))
            assert calls == []
            ds, _ = parse_trades(io.StringIO(CSV_SAMPLE + quoted))
        assert calls == ["0.5"]
        assert ds.group("R2", "BTC/USD").amounts.tolist() == [2_000_000, 50_000_000, 2_130_000]


# ---------------------------------------------------------------------------
# Equivalence with a reference parse built from csv.reader, int, float and
# parse_amount, on tapes that mix canonical rows with edge forms.


def _oracle_fields(row):
    if len(row) != 5:
        raise AmountError(f"expected 5 columns, got {len(row)}")
    exchange, pair, ts_text, price_text, amount_text = row
    if not exchange:
        raise AmountError("missing exchange id")
    if not pair:
        raise AmountError("missing pair")
    try:
        ts = int(ts_text.encode("ascii"))  # UnicodeEncodeError is a ValueError
    except ValueError:
        raise AmountError(f"bad timestamp {ts_text!r}") from None
    if not -(2**63) <= ts < 2**63:
        raise AmountError(f"timestamp out of range {ts_text!r}")
    try:
        price = float(price_text.encode("ascii"))
    except ValueError:
        raise AmountError(f"bad price {price_text!r}") from None
    if not math.isfinite(price):
        raise AmountError(f"non-finite price {price_text!r}")
    if not price > 0:
        raise AmountError(f"non-positive price {price_text!r}")
    return (exchange, pair), ts, price, parse_amount(amount_text)


def oracle_parse(text, dedupe):
    """Groups, (line, reason) rejects and duplicate count of a CSV text.

    A record is numbered by the physical line it starts on.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    assert [h.strip() for h in next(reader)] == list(CSV_HEADER)
    rows, rejects, seen, n_dup = {}, [], set(), 0
    start = reader.line_num + 1
    for record in reader:
        line, start = start, reader.line_num + 1
        if not record:
            continue
        try:
            key, ts, price, amount = _oracle_fields(record)
        except AmountError as exc:
            rejects.append((line, str(exc)))
            continue
        if dedupe:
            if (key, ts, price, amount) in seen:
                n_dup += 1
                continue
            seen.add((key, ts, price, amount))
        rows.setdefault(key, []).append((ts, price, amount))
    groups = {}
    for key, trades in rows.items():
        ts = np.array([t for t, _, _ in trades], dtype=np.int64)
        order = np.argsort(ts, kind="stable")
        groups[key] = (
            ts[order],
            np.array([a for _, _, a in trades], dtype=np.int64)[order],
            np.array([p for _, p, _ in trades], dtype=np.float64)[order],
        )
    return groups, rejects, n_dup


TIMESTAMPS = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["+7", "-5", " 12 ", "1_000", "007", "", "x", "1.5", "٥", "9223372036854775807"]),
)
PRICES = st.one_of(
    st.from_regex(r"[0-9]{1,6}(\.[0-9]{1,12})?", fullmatch=True),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e-05", "inf", "-inf", "nan", "0", "0.0", "-1.5", " 2.5", "1.", ".5", "1e400", "", "0" * 40 + "1"]),
)
AMOUNTS = st.one_of(
    st.from_regex(r"[0-9]{1,10}(\.[0-9]{0,8})?", fullmatch=True),
    st.from_regex(r"[0-9]{11,20}(\.[0-9]{0,9})?", fullmatch=True),
    st.sampled_from(
        ["5.", " 7 ", "0", "0.0", "0.000000001", "46116860184.27387903", "46116860184.27387904", "1e-05", "-1", "", "1\n"]
    ),
)
EXCHANGES = st.sampled_from(["R1", "R1", "U1", "", " R1", "R 1", "Rü", "a,b", 'q"q', "X\nY", "X\nR1,BTC/USD,1,1.5,1\nY"])
PAIRS = st.sampled_from(["BTC/USD", "BTC/USD", "ETH/USD", "", "BTC\r\nUSD"])
CANONICAL = st.tuples(
    st.sampled_from(["R1", "U1"]),
    st.just("BTC/USD"),
    st.integers(0, 10**13).map(str),
    st.from_regex(r"[1-9][0-9]{0,4}\.[0-9]{1,4}", fullmatch=True),
    st.from_regex(r"[1-9][0-9]{0,3}(\.[0-9]{1,8})?", fullmatch=True),
).map(list)


@st.composite
def edge_fields(draw):
    """A canonical row with one or two fields swapped for edge forms."""
    fields = draw(CANONICAL)
    for col in draw(st.sets(st.integers(0, 4), min_size=1, max_size=2)):
        fields[col] = draw((EXCHANGES, PAIRS, TIMESTAMPS, PRICES, AMOUNTS)[col])
    return fields


@st.composite
def tapes(draw):
    """CSV text: canonical rows and duplicates among edge rows, in five renderings."""
    buf = io.StringIO()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf.write(",".join(CSV_HEADER) + end)
    previous = None
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["canonical", "canonical", "duplicate", "edge", "blank"]))
        if kind == "blank":
            buf.write(end)
            continue
        fields = previous if kind == "duplicate" and previous else draw(edge_fields() if kind == "edge" else CANONICAL)
        previous = fields
        style = draw(st.sampled_from(["plain", "minimal", "all", "padded", "columns"]))
        if style == "plain":
            buf.write(",".join(fields) + end)
        elif style == "padded":
            buf.write(",".join(fields[:2] + [f" {f}\t" for f in fields[2:]]) + end)
        elif style == "columns":
            buf.write(",".join(fields + ["x"] if draw(st.booleans()) else fields[:4]) + end)
        else:
            quoting = csv.QUOTE_MINIMAL if style == "minimal" else csv.QUOTE_ALL
            csv.writer(buf, quoting=quoting, lineterminator=end).writerow(fields)
    if draw(st.booleans()):  # last line without its end
        text = buf.getvalue()
        return text[: -len(end)] if text.endswith(end) else text
    return buf.getvalue()


class TestColumnarEquivalence:
    @given(tapes(), st.booleans(), st.sampled_from([1, 7, 64, 1 << 16]), st.booleans())
    def test_matches_reference_parse(self, text, dedupe, block_bytes, as_text):
        source = io.StringIO(text) if as_text else text.encode()
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            ds, report = parse_trades(source, dedupe=dedupe)
        groups, rejects, n_dup = oracle_parse(text, dedupe)
        assert report.rejected == rejects
        assert report.n_rejected == len(rejects)
        assert report.n_deduplicated == n_dup
        assert report.n_accepted == sum(ts.size for ts, _, _ in groups.values())
        assert list(ds.groups) == list(groups)
        for key, (ts, amounts, prices) in groups.items():
            g = ds.groups[key]
            assert (g.timestamps.dtype, g.amounts.dtype, g.prices.dtype) == (np.int64, np.int64, np.float64)
            assert g.timestamps.tobytes() == ts.tobytes()
            assert g.amounts.tobytes() == amounts.tobytes()
            assert g.prices.tobytes() == prices.tobytes()

    def test_multi_block_tape_matches_reference_parse(self):
        rng = np.random.default_rng(7)
        lines = [",".join(CSV_HEADER)]
        edge = ['R1,BTC/USD,5,"1.5",2', "R1,BTC/USD,6,1.5, 3 ", 'R1,BTC/USD,7,1.5,"4\n"', "R1,BTC/USD,x,1,1", ""]
        for i in range(6000):
            lines.append(f"R1,BTC/USD,{rng.integers(10**12)},{rng.random() * 9000 + 1!r},{rng.integers(1, 10**9)}.{i % 97}")
            if i % 50 == 0:
                lines.append(edge[i // 50 % len(edge)])
        text = "\r\n".join(lines) + "\r\n"
        assert len(text) > 4 * ingest.BLOCK_BYTES
        for dedupe in (False, True):
            ds, report = parse_trades(text.encode(), dedupe=dedupe)
            groups, rejects, n_dup = oracle_parse(text, dedupe)
            assert report.rejected == rejects and report.n_deduplicated == n_dup
            g = ds.group("R1", "BTC/USD")
            ts, amounts, prices = groups[("R1", "BTC/USD")]
            assert g.timestamps.tobytes() == ts.tobytes()
            assert g.amounts.tobytes() == amounts.tobytes()
            assert g.prices.tobytes() == prices.tobytes()

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=12),
                st.sampled_from([b",", b'"', b"\n", b"\r", b"\xff", b"1", b".", b"\x00", "٥".encode(), b"X,BTC/USD,"]),
            ),
            max_size=40,
        ).map(b"".join),
        st.sampled_from(["csv", "jsonl"]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([3, 1 << 16]),
    )
    def test_any_bytes_give_a_dataset_or_a_washdetect_error(self, body, fmt, strict, dedupe, block_bytes):
        header = (",".join(CSV_HEADER) + "\n").encode() if fmt == "csv" else b""
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            try:
                ds, report = parse_trades(header + body, fmt, strict=strict, dedupe=dedupe)
            except WashdetectError:
                return
        assert isinstance(ds, TradeDataset)
        assert ds.n_trades == report.n_accepted


class TestWeekIndex:
    def test_sunday_monday_boundary_matches_calendar_oracle(self):
        stamps = [
            ms(2019, 7, 14, 23, 59, 59, 999),  # Sunday night
            ms(2019, 7, 15, 0, 0, 0, 0),  # Monday midnight
            ms(2019, 7, 15, 0, 0, 0, 1),  # just after
        ]
        indices = week_index(np.array(stamps, dtype=np.int64)).tolist()
        assert indices == [oracle_week_index(t) for t in stamps]
        assert indices[0] + 1 == indices[1] == indices[2]

    @given(st.lists(st.integers(min_value=0, max_value=4_000_000_000_000), min_size=1, max_size=50))
    def test_matches_calendar_oracle(self, stamps):
        expected = [oracle_week_index(t) for t in stamps]
        assert week_index(np.array(stamps, dtype=np.int64)).tolist() == expected
        # weekly_split reports each occupied week once, in order
        splits = weekly_split(one_group(stamps, [1] * len(stamps)), REG)
        assert [s.week for s in splits] == sorted(set(expected))


class TestWeeklySplit:
    def test_round_unrounded_sums(self):
        amounts = [parse_amount("0.0200"), parse_amount("0.0213")]
        splits = weekly_split(one_group([ms(2019, 7, 9), ms(2019, 7, 10)], amounts), REG)
        assert len(splits) == 1
        s = splits[0]
        assert s.round_subunits == parse_amount("0.0200")
        assert s.unrounded_subunits == parse_amount("0.0213")
        assert s.round_volume == pytest.approx(0.02)

    def test_all_round_gives_zero_unrounded(self):
        amounts = [parse_amount("0.0100"), parse_amount("0.0500")]
        splits = weekly_split(one_group([ms(2019, 7, 9), ms(2019, 7, 10)], amounts), REG)
        assert all(s.unrounded_subunits == 0 for s in splits)

    def test_week_boundary_splits_rows(self):
        stamps = [ms(2019, 7, 14, 23, 59), ms(2019, 7, 15, 0, 0)]
        splits = weekly_split(one_group(stamps, [parse_amount("0.01")] * 2), REG)
        assert len(splits) == 2
        assert splits[0].week + 1 == splits[1].week

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**12),
                st.integers(min_value=1, max_value=10**12),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_partition_is_exact(self, rows):
        ds = one_group([t for t, _ in rows], [a for _, a in rows])
        splits = weekly_split(ds, REG)
        total = sum(s.round_subunits + s.unrounded_subunits for s in splits)
        assert total == sum(a for _, a in rows)

    def test_missing_pair_spec_raises(self):
        with pytest.raises(Exception, match="DOGE/USD"):
            weekly_split(one_group([0], [100], pair="DOGE/USD"), REG)


class TestUnroundedSubset:
    def test_partition_counts(self):
        ds = one_group([1, 2, 3], [parse_amount(a) for a in ("0.0200", "0.0213", "0.05")])
        sub = unrounded_subset(ds, REG)
        assert sub.group("X", "BTC/USD").n == 1
        assert ds.group("X", "BTC/USD").n == 3

    def test_all_round_group_dropped(self):
        sub = unrounded_subset(one_group([1], [parse_amount("0.0200")]), REG)
        assert sub.groups == {}

    @given(st.lists(st.integers(min_value=1, max_value=10**10), min_size=1, max_size=80))
    def test_subset_plus_round_is_total(self, amounts):
        sub = unrounded_subset(one_group(range(len(amounts)), amounts), REG)
        n_unrounded = sub.group("X", "BTC/USD").n if sub.groups else 0
        spec = REG.get("BTC/USD")
        n_round = sum(1 for a in amounts if a % spec.round_modulus == 0)
        assert n_unrounded + n_round == len(amounts)


class TestParseReportCsv:
    def test_writes_rejections(self):
        report = ParseReport()
        report.record_rejection(6, "precision overflow")
        assert report.rejected_rows() == [["line", "reason"], [6, "precision overflow"]]
