"""Parsing, grouping, weekly volume splits, and the unrounded subset."""

import csv
import decimal
import io
import json
import math
import re
import signal
import threading
import time
from datetime import date, datetime, timezone
from decimal import Decimal
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
    parse_each,
    parse_trades,
    unrounded_subset,
    week_index,
    weekly_split,
)
from washdetect.trades import SUBUNITS_PER_UNIT, PairRegistry

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
    """A dataset of one group, parsed from rows with price 1.0."""
    rows = [",".join(CSV_HEADER)]
    for t, a in zip(timestamps, amounts):
        rows.append(f"{exchange},{pair},{t},1.0,{a // SUBUNITS_PER_UNIT}.{a % SUBUNITS_PER_UNIT:08d}")
    ds, report = parse_trades("\n".join(rows).encode())
    assert report.n_rejected == 0
    return ds


class TestParse:
    def test_csv_happy_path(self):
        ds, report = parse_trades(io.StringIO(CSV_SAMPLE), "csv")
        assert report.n_accepted == 4
        assert report.n_rejected == 0
        assert set(ds.groups) == {("R2", "BTC/USD"), ("R2", "ETH/USD"), ("U8", "BTC/USD")}
        g = ds.group("R2", "BTC/USD")
        assert g.amounts.tolist() == [2_000_000, 2_130_000]

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
        assert ds.group("R2", "BTC/USD").amounts[0] == 2_000_000

    def test_dedupe_flag(self):
        text = CSV_SAMPLE + "R2,BTC/USD,1562630400000,8000.5,0.0200\n"
        ds, report = parse_trades(io.StringIO(text), "csv", dedupe=True)
        assert report.n_deduplicated == 1
        assert ds.group("R2", "BTC/USD").n == 2
        # duplicates kept by default
        ds2, _ = parse_trades(io.StringIO(text), "csv")
        assert ds2.group("R2", "BTC/USD").n == 3

    def test_groups_sorted_by_timestamp(self):
        first = "exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,30,1.0,1\nX,BTC/USD,10,2.0,2\n"
        second = "exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,20,3.0,3\nX,BTC/USD,5,4.0,4\n"
        ds, _ = parse_trades([io.StringIO(first), second.encode()])
        g = ds.group("X", "BTC/USD")
        assert g.timestamps.tolist() == [5, 10, 20, 30]
        assert g.amounts.tolist() == [4 * 10**8, 2 * 10**8, 3 * 10**8, 10**8]
        assert g.prices.tolist() == [4.0, 2.0, 3.0, 1.0]


def parse_at_worker_caps(make_sources, *, most=3, **kwargs):
    """Parse ``make_sources()`` on one thread and on at most ``most``; assert
    the same bytes in every group's arrays, group order and report, and
    return the parse on several threads."""
    parses = []
    for workers in (1, most):
        with mock.patch.object(ingest, "_WORKERS", workers):
            parses.append(parse_trades(make_sources(), **kwargs))
    (ds, report), (ds3, report3) = parses
    assert list(ds3.groups) == list(ds.groups)
    for key, g in ds.groups.items():
        for name in ("timestamps", "amounts", "prices"):
            one, three = getattr(g, name), getattr(ds3.groups[key], name)
            assert three.dtype == one.dtype and three.tobytes() == one.tobytes()
    assert report3 == report
    return ds3, report3


def parse_error_at_worker_caps(make_sources, **kwargs) -> str:
    """The message of the ParseError that parsing ``make_sources()`` raises,
    the same on at most 1 and at most 3 threads."""
    messages = []
    for workers in (1, 3):
        with mock.patch.object(ingest, "_WORKERS", workers), pytest.raises(ParseError) as exc:
            parse_trades(make_sources(), **kwargs)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestSources:
    """A list of sources is parsed as one input, on one thread or several."""

    FIRST = "exchange,pair,timestamp_ms,price,amount\nB,BTC/USD,7,1.0,1\nA,BTC/USD,7,2.0,2\nB,BTC/USD,7,3.0,3\n"
    SECOND = "exchange,pair,timestamp_ms,price,amount\nC,ETH/USD,1,4.0,4\nA,BTC/USD,7,5.0,5\nB,BTC/USD,7,6.0,6\n"
    BAD = "exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,1,1.0,0\n"

    @staticmethod
    def both_kinds(tmp_path, *texts):
        """Two makers of the texts as a list of sources: one of bytes, one of
        the paths of files."""
        paths = [tmp_path / f"{k}.csv" for k in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text)
        return [lambda: [text.encode() for text in texts], lambda: paths]

    def test_shared_keys_and_timestamps_keep_source_order(self, tmp_path):
        for make in self.both_kinds(tmp_path, self.FIRST, self.SECOND):
            ds, report = parse_at_worker_caps(make)
            assert report.n_accepted == 6
            # groups in order of first appearance, ties in source and then line order
            assert list(ds.groups) == [("B", "BTC/USD"), ("A", "BTC/USD"), ("C", "ETH/USD")]
            assert ds.group("B", "BTC/USD").prices.tolist() == [1.0, 3.0, 6.0]
            assert ds.group("A", "BTC/USD").prices.tolist() == [2.0, 5.0]

    def test_dedupe_spans_sources(self, tmp_path):
        for make in self.both_kinds(tmp_path, self.FIRST, self.FIRST, self.SECOND):
            ds, report = parse_at_worker_caps(make, dedupe=True)
            assert report.n_deduplicated == 3
            assert ds.n_trades == 6
            assert ds.group("B", "BTC/USD").prices.tolist() == [1.0, 3.0, 6.0]

    def test_rejects_keep_their_own_line_numbers(self, tmp_path):
        for make in self.both_kinds(tmp_path, self.FIRST, self.BAD):
            _, report = parse_at_worker_caps(make)
            assert report.n_accepted == 3
            assert report.rejected == [(2, "non-positive amount '0'")]

    def test_reject_logs_follow_list_order(self, tmp_path):
        bad = self.BAD.replace(",0\n", ",-1\n")
        for make in self.both_kinds(tmp_path, self.BAD, self.FIRST, bad, self.BAD):
            _, report = parse_at_worker_caps(make)
            assert report.n_accepted == 3
            assert report.rejected == [
                (2, "non-positive amount '0'"), (2, "malformed amount '-1'"), (2, "non-positive amount '0'")
            ]

    def test_strict_error_names_the_path_that_failed(self, tmp_path):
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        ok.write_text(self.FIRST)
        bad.write_text("exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,1,1.0,-1\n")
        assert parse_error_at_worker_caps(lambda: [ok, bad], strict=True) == f"{bad}: line 2: malformed amount '-1'"

    def test_strict_error_is_the_first_failing_source_in_the_list(self, tmp_path):
        # the second source fails on its last line and the third on its first,
        # so on three threads the third fails first
        paths = [tmp_path / f"{k}.csv" for k in range(4)]
        paths[0].write_text(self.FIRST)
        paths[1].write_text(self.FIRST + "".join(f"X,BTC/USD,{t},1.0,1\n" for t in range(300)) + "X,BTC/USD,1,1.0,0\n")
        paths[2].write_text(self.BAD)
        paths[3].write_text(self.SECOND)
        with mock.patch.object(ingest, "BLOCK_BYTES", 64):
            message = parse_error_at_worker_caps(lambda: paths, strict=True)
        assert message == f"{paths[1]}: line 305: non-positive amount '0'"

    def test_missing_file_in_the_middle_of_the_list(self, tmp_path):
        ok, missing = tmp_path / "ok.csv", tmp_path / "missing.csv"
        ok.write_text(self.FIRST)
        assert parse_error_at_worker_caps(lambda: [ok, missing, ok]) == f"{missing}: No such file or directory"

    @pytest.mark.parametrize("stream", [io.BytesIO, io.StringIO])
    def test_a_stream_listed_twice_is_read_by_one_thread_in_list_order(self, stream, fast_thread_switches):
        long = self.FIRST + "".join(f"X,BTC/USD,{t},1.0,1\n" for t in range(200))

        def make():
            first = stream(long if stream is io.StringIO else long.encode())
            # the second listing finds the stream at its end, as a parse in turn does
            return [first, self.SECOND.encode(), first, self.FIRST.encode()]

        # small reads, so that two threads reading the stream would interleave
        with mock.patch.object(ingest, "BLOCK_BYTES", 16):
            ds, report = parse_at_worker_caps(make)
            for workers in (1, 3):
                with mock.patch.object(ingest, "_WORKERS", workers):
                    assert [each.n_accepted for _, each in parse_each(make())] == [203, 3, 0, 3]
        alone, alone_report = parse_trades([long.encode(), self.SECOND.encode(), self.FIRST.encode()])
        assert report == alone_report and report.n_rejected == 0
        assert {key: g.prices.tolist() for key, g in ds.groups.items()} == {
            key: g.prices.tolist() for key, g in alone.groups.items()
        }

    def test_no_thread_outlives_a_parse_that_raises(self, tmp_path):
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        ok.write_text(self.FIRST)
        bad.write_text(self.BAD)
        before = threading.active_count()
        with mock.patch.object(ingest, "_WORKERS", 3), pytest.raises(ParseError):
            parse_trades([ok, bad, ok, bad, ok], strict=True)
        assert threading.active_count() == before

    def test_one_thread_per_source_up_to_the_cap(self):
        parse, parsed_on = ingest._parse_source, {}

        def recorded(*args):
            parsed_on[threading.get_ident()] = threading.current_thread()
            return parse(*args)

        for n_sources, workers in ((1, 3), (2, 3), (5, 3), (5, 1)):
            parsed_on.clear()
            with mock.patch.object(ingest, "_WORKERS", workers), mock.patch.object(ingest, "_parse_source", recorded):
                _, report = parse_trades([self.FIRST.encode()] * n_sources)
            assert report.n_accepted == 3 * n_sources
            assert 1 <= len(parsed_on) <= min(n_sources, workers)
            assert not any(thread.is_alive() for thread in parsed_on.values())

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="SIGINT cannot be sent to the main thread")
    def test_an_interrupt_starts_no_queued_source(self):
        parse, parsed = ingest._parse_source, []

        def interrupt_at_the_first(source, *args):
            parsed.append(source)
            if len(parsed) == 1:
                time.sleep(0.2)  # until the main thread has queued every source
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.5)  # while it takes the interrupt and empties the queue
            return parse(source, *args)

        sources = [text.encode() for text in (self.FIRST, self.SECOND, self.BAD, self.FIRST)]
        before = threading.active_count()
        with mock.patch.object(ingest, "_WORKERS", 1), mock.patch.object(ingest, "_parse_source", interrupt_at_the_first):
            with pytest.raises(KeyboardInterrupt):
                parse_trades(sources)
        assert parsed == sources[:1]
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="SIGINT cannot be sent to the main thread")
    def test_an_interrupt_at_once_leaves_no_thread_running(self):
        # the interrupt lands while the main thread still starts pool threads
        parse, parsed = ingest._parse_source, []

        def interrupt_at_the_first(source, *args):
            parsed.append(source)
            if len(parsed) == 1:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            return parse(source, *args)

        sources = [text.encode() for text in (self.FIRST, self.SECOND, self.BAD, self.FIRST)]
        for _ in range(10):
            parsed.clear()
            before = threading.active_count()
            with mock.patch.object(ingest, "_WORKERS", 2), mock.patch.object(ingest, "_parse_source", interrupt_at_the_first):
                with pytest.raises(KeyboardInterrupt):
                    parse_trades(sources)
            assert threading.active_count() == before

    def test_usable_cores_with_and_without_affinity(self, monkeypatch):
        monkeypatch.setattr(ingest.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(ingest.os, "cpu_count", lambda: 8)
        assert ingest._usable_cores() == 3
        # macOS has no sched_getaffinity
        monkeypatch.delattr(ingest.os, "sched_getaffinity")
        assert ingest._usable_cores() == 8
        monkeypatch.setattr(ingest.os, "cpu_count", lambda: None)
        assert ingest._usable_cores() == 1

    def test_many_sources_on_more_threads_than_cores(self, fast_thread_switches):
        texts = [self.FIRST, self.SECOND, self.BAD] * 8
        with mock.patch.object(ingest, "BLOCK_BYTES", 16):
            _, report = parse_at_worker_caps(
                lambda: [text.encode() for text in texts], most=ingest._usable_cores() + 2, dedupe=True
            )
        assert report.n_accepted == 6 and report.n_deduplicated == 42 and report.n_rejected == 8


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
        assert report.rejected == [(2, f"bad price '{price}'")]

    # Forms that int(), float() or the former amount parser took, off the
    # grammar, on a line that holds a row as it stands and on a quoted one.
    @pytest.mark.parametrize(
        "column, text, reason",
        [
            (2, "1_562_544_001_900", "bad timestamp"),
            (2, "+1562544001904", "bad timestamp"),
            (2, "-5", "bad timestamp"),
            (2, "0" * 50 + "1", "bad timestamp"),
            (2, "\x1c7", "bad timestamp"),
            (3, "9_000.5", "bad price"),
            (3, "9e3", "bad price"),
            (3, "+9000", "bad price"),
            (3, "1.", "bad price"),
            (3, ".5", "bad price"),
            (3, "0" * 50 + "1.5", "bad price"),
            (4, "0" * 50 + "1", "malformed amount"),
            pytest.param(4, "1" * 5000, "malformed amount", id="5000 ones"),
            pytest.param(4, "0" * 5000 + "1", "malformed amount", id="5000 zeros and a one"),
            (4, "0" * 12 + ".5", "amount overflow"),
        ],
    )
    def test_off_grammar_forms_are_rejected_on_either_path(self, column, text, reason):
        fields = ["X", "BTC/USD", "1562544001900", "9000.5", "1.5"]
        fields[column] = text
        for row in (",".join(fields), ",".join(f'"{field}"' for field in fields)):
            ds, report = parse_trades(f"{','.join(CSV_HEADER)}\n{row}\n".encode())
            assert ds.groups == {}
            assert report.rejected == [(2, f"{reason} {text!r}")]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"exchange": null, "pair": "BTC/USD"}', "bad JSONL row: exchange is not a string"),
            ('{"exchange": 5, "pair": "BTC/USD"}', "bad JSONL row: exchange is not a string"),
            ('{"exchange": "X", "pair": ["BTC/USD"]}', "bad JSONL row: pair is not a string"),
            ('{"exchange": "", "pair": true}', "missing exchange id"),
            ('{"exchange": "X", "pair": ""}', "missing pair"),
            ("[1, 2]", "bad JSONL row: not an object"),
            ('"X"', "bad JSONL row: not an object"),
        ],
    )
    def test_jsonl_ids_must_be_strings(self, line, reason):
        if line.startswith("{"):
            line = line[:-1] + ', "timestamp_ms": 1, "price": 1.5, "amount": "1"}'
        ds, report = parse_trades(f"{line}\n".encode(), "jsonl")
        assert ds.groups == {}
        assert report.rejected == [(1, reason)]

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

    JSONL_ROW = '{{"exchange": "X", "pair": "BTC/USD", "timestamp_ms": {}, "price": 1.5, "amount": "{}"}}\n'
    BOM_TAPES = {
        "csv": f"{','.join(CSV_HEADER)}\nX,BTC/USD,1,1.5,1\nX,BTC/USD,2,1.5,0\nX,BTC/USD,3,1.5,2\n",
        "jsonl": JSONL_ROW.format(1, 1) + JSONL_ROW.format(2, 0) + JSONL_ROW.format(3, 2),
    }

    @pytest.mark.parametrize("block", [1, 2, 16])
    @pytest.mark.parametrize("kind", ["path", "bytes", "binary stream", "text stream"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_one_leading_byte_order_mark_is_skipped(self, fmt, kind, block, tmp_path):
        text = self.BOM_TAPES[fmt]
        line = 3 if fmt == "csv" else 2  # the CSV header is line 1

        def source(text):
            if kind == "path":
                path = tmp_path / f"t.{fmt}"
                path.write_text(text, encoding="utf-8")
                return path
            data = text.encode()
            return {"bytes": data, "binary stream": io.BytesIO(data), "text stream": io.StringIO(text)}[kind]

        with mock.patch.object(ingest, "BLOCK_BYTES", block):
            ds, report = parse_trades(source("\ufeff" + text), fmt)
            plain, plain_report = parse_trades(source(text), fmt)
            with pytest.raises(ParseError, match=f"line {line}: non-positive amount '0'"):
                parse_trades(source("\ufeff" + text), fmt, strict=True)
        # line numbers are those of the file without the mark
        assert report == plain_report and report.rejected == [(line, "non-positive amount '0'")]
        amounts = ds.group("X", "BTC/USD").amounts.tolist()
        assert amounts == plain.group("X", "BTC/USD").amounts.tolist() == [10**8, 2 * 10**8]

    def test_only_one_byte_order_mark_is_skipped(self):
        with pytest.raises(ParseError, match="bad CSV header"):
            parse_trades(("\ufeff\ufeff" + self.BOM_TAPES["csv"]).encode())
        # a mark further on is part of its line
        text = "\ufeff" + self.BOM_TAPES["jsonl"] + "\ufeff" + self.JSONL_ROW.format(4, 1)
        _, report = parse_trades(text.encode(), "jsonl")
        assert [line for line, _ in report.rejected] == [2, 4]

    def test_only_off_grammar_rows_are_read_again(self):
        read, field_numbers = [], ingest._field_numbers

        def counting(texts):
            read.extend(texts)
            return field_numbers(texts)

        quoted = 'R2,BTC/USD,1562630400000,8000.5,"0.5"\n'
        with mock.patch.object(ingest, "_field_numbers", counting):
            ds, _ = parse_trades(io.StringIO(CSV_SAMPLE))
            assert read == []
            ds, _ = parse_trades(io.StringIO(CSV_SAMPLE + quoted))
        assert read == ["1562630400000", "8000.5", "0.5"]
        assert ds.group("R2", "BTC/USD").amounts.tolist() == [2_000_000, 50_000_000, 2_130_000]


# ---------------------------------------------------------------------------
# Equivalence with a reference parse built from csv.reader and the grammar of
# README's Input format as regular expressions, on tapes that mix canonical
# rows with edge forms.

TIMESTAMP = re.compile(r"[0-9]{1,19}")
PRICE = re.compile(r"(-?)([0-9]+(?:\.[0-9]+)?)")
AMOUNT = re.compile(r"([0-9]+)(?:\.([0-9]*))?")
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def _oracle_fields(row):
    if len(row) != 5:
        raise AmountError(f"expected 5 columns, got {len(row)}")
    exchange, pair, ts_text, price_text, amount_text = row
    if not exchange:
        raise AmountError("missing exchange id")
    if not pair:
        raise AmountError("missing pair")
    ts, price, amount = (text.strip(ASCII_WHITESPACE) for text in row[2:])
    if not TIMESTAMP.fullmatch(ts):
        raise AmountError(f"bad timestamp {ts_text!r}")
    if int(ts) >= 2**63:
        raise AmountError(f"timestamp out of range {ts_text!r}")
    m = PRICE.fullmatch(price)
    if m is None or len(m.group(2)) > 32:
        raise AmountError(f"bad price {price_text!r}")
    value = float(m.group(2))
    if m.group(1) or value == 0:
        raise AmountError(f"non-positive price {price_text!r}")
    m = AMOUNT.fullmatch(amount)
    if m is None or len(amount) > 20:
        raise AmountError(f"malformed amount {amount_text!r}")
    whole, frac = m.group(1), m.group(2) or ""
    if len(frac) > 8:
        raise AmountError(f"precision overflow: {amount_text!r} has more than 8 decimals")
    subunits = int(whole) * SUBUNITS_PER_UNIT + int(frac.ljust(8, "0"))
    if len(whole) > 11 or subunits >= 2**62:
        raise AmountError(f"amount overflow {amount_text!r}")
    if subunits == 0:
        raise AmountError(f"non-positive amount {amount_text!r}")
    return (exchange, pair), int(ts), value, subunits


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


# Prices at the edges of the columnar price decoder (``ingest._columnar_rows``).
PRICE_EDGES = [
    # integers around 2**53, where a double stops holding every integer, with and without a dot
    "9007199254740991",
    "9007199254740992",
    "9007199254740.991",
    "900719925474099.2",
    "0.9007199254740993",
    "9007199254740993.00",
    # 18 digits, the most the decoder divides, at N = 2**53 - 1 and 2**53
    "009007199254740.991",
    "009007199254740.992",
    "00900719925474099.1",
    "00900719925474099.2",
    # repr prices of 17, 18 and 19 characters
    "9000.500000000002",
    "12345.678901234567",
    "0.3333333333333333",
    "0.30000000000000004",
    # exact float64 midpoints (2**53 + 1, 2**53 + 3, 2**54 + 2, 2**59 + 64,
    # 2**52 + 0.5, 2**52 + 1.5, 2**51 + 0.25) and the decimals one last digit either side
    "9007199254740993",
    "9007199254740995",
    "9007199254740994",
    "18014398509481985",
    "18014398509481986",
    "18014398509481987",
    "576460752303423551",
    "576460752303423552",
    "576460752303423553",
    "4503599627370496.4",
    "4503599627370496.5",
    "4503599627370496.6",
    "4503599627370497.5",
    "2251799813685248.24",
    "2251799813685248.25",
    "2251799813685248.26",
    # decimals that are not midpoints but whose quotient rounded to 64 bits
    # is one, so that a decode rounding twice, through an 80-bit long
    # double, would give the wrong float for the first four
    "0.70155649322356467",
    "548583.554976780375",
    "68890740.1515179649",
    "61748787306.8900795",
    "6649061821924.54541",
    # odd forms, the largest divisor the fast path uses (10**17), and prices
    # of 19 to 32 characters
    "0000.5",
    "00000000000000000.5",
    "007",
    "1.0",
    "0.00000000000000001",
    "0.000000000000000001",
    "1000000000000000000",
    "12345678901234567.89",
    "0." + "0" * 29 + "1",
    "9" * 32,
    "123456789012345678901234567890.5",
]


def decode_falls_back(text):
    """Whether a columnar price takes ``float()`` on its bytes: when its
    digits, dot removed, are more than 18 or make an integer of 2**53 or more.
    (Every 10**k of at most 18 digits is exact in a double.)
    """
    digits = text.replace(".", "")
    return len(digits) > 18 or int(digits) >= 2**53


def near_midpoint(x, digits):
    """The midpoint between a float64 and the next one up, rounded to
    ``digits`` significant digits, in fixed notation."""
    exact = decimal.Context(prec=2000).add(Decimal(x), Decimal(float(np.nextafter(x, math.inf))))
    return format(decimal.Context(prec=digits).divide(exact, 2), "f")


TIMESTAMPS = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["+7", "-5", " 12 ", "1_000", "007", "", "x", "1.5", "٥", "9223372036854775807", "\x1c7"]),
    st.sampled_from(["1_562_544_001_900", "+1562544001904", "0" * 50 + "1", "09223372036854775807", "\f12\v"]),
)
PRICES = st.one_of(
    st.from_regex(r"[0-9]{1,6}(\.[0-9]{1,12})?", fullmatch=True),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e-05", "inf", "-inf", "nan", "0", "0.0", "-1.5", " 2.5", "1.", ".5", "1e400", "", "0" * 40 + "1"]),
    st.sampled_from(["9_000.5", "9e3", "+9000", "-0", "-0.0", "-", "--5", "-.5", "- 5", " -9000.5\t", "-" + "9" * 32]),
    st.sampled_from(PRICE_EDGES + ["1.62130217715707e+308", "0" * 33, "1" * 33]),
    st.builds(near_midpoint, st.floats(min_value=1e-3, max_value=1e15), st.integers(15, 19)),
)
AMOUNTS = st.one_of(
    st.from_regex(r"[0-9]{1,10}(\.[0-9]{0,8})?", fullmatch=True),
    st.from_regex(r"[0-9]{11,20}(\.[0-9]{0,9})?", fullmatch=True),
    st.sampled_from(
        ["5.", " 7 ", "0", "0.0", "0.000000001", "46116860184.27387903", "46116860184.27387904", "1e-05", "-1", "", "1\n"]
    ),
    st.sampled_from(["0" * 50 + "1", "1" * 12, "0" * 12 + ".5", "99999999999", "5\u00a0", "\t5\x0b", ".5", "1" * 21]),
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
    """CSV text: canonical rows and duplicates of earlier rows among edge rows, in five renderings."""
    buf = io.StringIO()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf.write(",".join(CSV_HEADER) + end)
    written = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["canonical", "canonical", "duplicate", "edge", "blank"]))
        if kind == "blank":
            buf.write(end)
            continue
        if kind == "duplicate" and written:  # of any earlier row, adjacent or not
            fields = draw(st.sampled_from(written))
        else:
            fields = draw(edge_fields() if kind == "edge" else CANONICAL)
        written.append(fields)
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


LINE_BREAK = re.compile("[\r\n]")
# A JSON number that the decoder reads back as the same text: no exponent, and
# not the integer -0, which reads as 0.
JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?")


def synth_jsonl_line(fields):
    """A row as a JSONL line in the layout ``synth`` writes: sorted keys, the
    amount and ids as strings, the price and timestamp as bare numbers (as
    strings where their text is no JSON number that reads back the same)."""
    exchange, pair, ts, price, amount = fields
    row = {"amount": amount, "exchange": exchange, "pair": pair, "price": price, "timestamp_ms": ts}
    bare = {key for key in ("price", "timestamp_ms") if JSON_NUMBER.fullmatch(row[key]) and row[key] != "-0"}
    return "{" + ", ".join(f'"{key}": {row[key] if key in bare else json.dumps(row[key])}' for key in row) + "}\n"


def assert_same_parse(ds, report, text, dedupe):
    """The dataset and report equal the reference parse of ``text``."""
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


class TestColumnarEquivalence:
    @given(
        tapes(),
        st.booleans(),
        st.sampled_from([1, 7, 64, 1 << 16]),
        st.booleans(),
    )
    def test_matches_reference_parse(self, text, dedupe, block_bytes, as_text):
        source = io.StringIO(text) if as_text else text.encode()
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            ds, report = parse_trades(source, dedupe=dedupe)
        assert_same_parse(ds, report, text, dedupe)

    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 1 << 16])
    def test_price_decoder_edges_match_reference_parse(self, block_bytes):
        lines = [",".join(CSV_HEADER)] + [f"R1,BTC/USD,{t},{price},1.5" for t, price in enumerate(PRICE_EDGES)]
        text = "\n".join(lines) + "\n"
        read = []

        def counting(data):
            read.append(data.decode())
            return float(data)

        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), mock.patch.object(ingest, "float", counting, create=True):
            ds, report = parse_trades(text.encode())
        assert_same_parse(ds, report, text, False)
        assert read == [price for price in PRICE_EDGES if decode_falls_back(price)]

    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 1 << 16])
    def test_dedupe_compares_whole_rows_within_timestamp_runs(self, block_bytes):
        rows = [
            "R1,BTC/USD,5,0.3,1",
            "U1,BTC/USD,5,0.3,1",  # same timestamp, other group
            "R1,BTC/USD,5,0.30000000000000004,1",  # differs in price bits only
            "R1,BTC/USD,5,0.3,1.00000001",  # differs in amount only
            "R1,ETH/USD,4,0.3,1",
            "R1,BTC/USD,3,0.3,1",
            "R1,BTC/USD,5,0.3,1",  # repeats line 2, not adjacent
            "U1,BTC/USD,5,0.3,1",  # repeats line 3
            'R1,BTC/USD,5,"0.30000000000000004",1',  # repeats line 4, read by csv
            "R1,BTC/USD,5,0.300,1.0",  # repeats line 2 in other digits
            "R1,ETH/USD,4,0.3,1",  # repeats line 6, the only row of its group before
            "R1,BTC/USD,2,0.3,1",
        ]
        text = "\n".join([",".join(CSV_HEADER), *rows]) + "\n"
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            ds, report = parse_trades(text.encode(), dedupe=True)
        assert_same_parse(ds, report, text, True)
        assert report.n_deduplicated == 5
        assert list(ds.groups) == [("R1", "BTC/USD"), ("U1", "BTC/USD"), ("R1", "ETH/USD")]
        g = ds.group("R1", "BTC/USD")
        assert g.timestamps.tolist() == [2, 3, 5, 5, 5]
        assert g.prices.tolist() == [0.3, 0.3, 0.3, 0.30000000000000004, 0.3]
        assert g.amounts.tolist() == [10**8] * 4 + [10**8 + 1]

    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 1 << 16])
    def test_digit_decoder_edges_match_reference_parse(self, block_bytes):
        # timestamps around 2**53, where a float sum of digits stops being
        # exact, and the widest; amounts at the widest, narrowest and odd
        # forms, 11 integer digits and the largest below 2**62 sub-units
        timestamps = [2**53 - 1, 2**53, 2**53 + 1, 10**17, 999999999999999999, 10**18, 2**63 - 1]
        amounts = ["9999999999.99999999", "0.00000001", "1.", "0001.50", "10000000000", "46116860184.27387903"]
        lines = [",".join(CSV_HEADER)] + [f"R1,BTC/USD,{t},9000.5,{a}" for t in timestamps for a in amounts]
        text = "\n".join(lines) + "\n"
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), mock.patch.object(ingest, "_field_numbers") as read:
            ds, report = parse_trades(text.encode())
        read.assert_not_called()
        groups, rejects, _ = oracle_parse(text, False)
        assert report.rejected == rejects == []
        ts, amounts_, prices = groups[("R1", "BTC/USD")]
        g = ds.group("R1", "BTC/USD")
        assert g.timestamps.tobytes() == ts.tobytes()
        assert g.amounts.tobytes() == amounts_.tobytes()
        assert g.prices.tobytes() == prices.tobytes()

    # Odd dots in every numeric field, at the edges of the columnar decoder's
    # scan for cells that are not digits: two of them, one first or last, and
    # a letter beside one.
    KERNEL_EDGES = [
        ("5", "1.2.3", "1"),
        ("6", "1", "1.2.3"),
        ("7", "1", "1..5"),
        ("1.", "1", "1"),
        (".1", "1", "1"),
        ("8", ".5", "1"),
        ("9", "5.", "1"),
        ("10", "1", ".5"),
        ("11", "1", "5."),
        ("12", "1.x5", "1"),
        ("13", "1x.5", "1"),
        ("14", "1", "1.x5"),
        ("15", "1", "1x.5"),
        ("16", "1", "x1.5"),
        ("17", ".", "."),
    ]

    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 1 << 16])
    def test_kernel_edges_match_reference_parse(self, block_bytes):
        # line ends cycle through \n, \r\n and a lone \r, so that blocks of
        # every size end on each of them; two quoted records span lines
        ends = ["\n", "\r\n", "\r"]
        rows = [f"R1,BTC/USD,{t},{price},{amount}" for t, price, amount in self.KERNEL_EDGES]
        rows[3:3] = ['R1,BTC/USD,20,1.5,"2\r\n"', '"R1\nX",BTC/USD,21,1.5,1', "R1,BTC/USD,22,1.5,0.5"]
        text = ",".join(CSV_HEADER) + "\r\n" + "".join(row + ends[i % 3] for i, row in enumerate(rows))
        for dedupe in (False, True):
            with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
                ds, report = parse_trades(text.encode(), dedupe=dedupe)
            assert_same_parse(ds, report, text, dedupe)
        assert [line for line, _ in report.rejected] == [2, 3, 4, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21]
        assert ds.group("R1", "BTC/USD").timestamps.tolist() == [11, 20, 22]

    def test_repr_prices_that_fall_back_match_reference_parse(self):
        # repr prices near 9000 have 16 or 17 digits: those above 9007.199...
        # or of 17 digits make N >= 2**53 and take float() on their bytes
        rng = np.random.default_rng(11)
        prices = [repr(float(p)) for p in rng.normal(9000, 60, 30_000)]
        lines = [",".join(CSV_HEADER)] + [f"R1,BTC/USD,{i},{p},1.5" for i, p in enumerate(prices)]
        text = "\n".join(lines) + "\n"
        assert len(text) > 4 * ingest.BLOCK_BYTES
        read = []

        def counting(data):
            read.append(data)
            return float(data)

        with mock.patch.object(ingest, "float", counting, create=True):
            ds, report = parse_trades(text.encode())
        assert_same_parse(ds, report, text, False)
        assert read == [p.encode() for p in prices if decode_falls_back(p)]
        assert 0.25 < len(read) / len(prices) < 0.5

    def test_multi_block_tape_matches_reference_parse(self):
        rng = np.random.default_rng(7)
        lines = [",".join(CSV_HEADER)]
        edge = ['R1,BTC/USD,5,"1.5",2', "R1,BTC/USD,6,1.5, 3 ", 'R1,BTC/USD,7,1.5,"4\n"', "R1,BTC/USD,x,1,1", ""]
        # rows of about 56 bytes, so the tape spans more than five blocks
        for i in range(ingest.BLOCK_BYTES // 10):
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
        st.lists(st.one_of(CANONICAL, edge_fields()).filter(lambda fields: not any(map(LINE_BREAK.search, fields)))),
        st.sampled_from([7, 1 << 16]),
    )
    def test_csv_and_jsonl_share_one_grammar(self, rows, block_bytes):
        csv_text = io.StringIO()
        csv.writer(csv_text, lineterminator="\n").writerows([CSV_HEADER, *rows])
        jsonl_text = "".join(synth_jsonl_line(fields) for fields in rows)
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            ds, report = parse_trades(csv_text.getvalue().encode())
            ds_jsonl, report_jsonl = parse_trades(jsonl_text.encode(), "jsonl")
        assert report.rejected == [(line + 1, reason) for line, reason in report_jsonl.rejected]
        assert report.n_accepted == report_jsonl.n_accepted
        assert list(ds.groups) == list(ds_jsonl.groups)
        for key, g in ds.groups.items():
            for name in ("timestamps", "amounts", "prices"):
                assert getattr(g, name).tobytes() == getattr(ds_jsonl.groups[key], name).tobytes()

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


def lexsort_groups(texts, dedupe):
    """Groups, in order of first appearance, and duplicate count of CSV texts
    read as one input: the reference parse's rows, in text and line order,
    put in order by ``np.lexsort((ts, codes))``, with codes numbered by first
    appearance."""
    keys, rows = {}, []
    for text in texts:
        reader = csv.reader(io.StringIO(text, newline=""))
        next(reader)
        for record in reader:
            try:
                key, ts, price, amount = _oracle_fields(record)
            except AmountError:
                continue
            rows.append((keys.setdefault(key, len(keys)), ts, price, amount))
    if not rows:
        return {}, 0
    codes, ts, prices, amounts = (np.array(col, t) for col, t in zip(zip(*rows), (np.int64, np.int64, float, np.int64)))
    order = np.lexsort((ts, codes))
    if dedupe:  # a row equal to an earlier line's, price bits included
        repeat, seen = np.zeros(len(rows), bool), set()
        for i, row in enumerate(zip(codes.tolist(), ts.tolist(), prices.view(np.int64).tolist(), amounts.tolist())):
            repeat[i] = row in seen
            seen.add(row)
        order = order[~repeat[order]]
    ranked = codes[order]
    cut = np.flatnonzero(np.diff(ranked)) + 1
    names = list(keys)
    groups = {
        names[code]: (ts[group], amounts[group], prices[group])
        for code, group in zip(ranked[np.r_[0, cut]].tolist(), np.split(order, cut))
    }
    return groups, len(rows) - order.size


def assert_same_groups(ds, report, groups, n_dup):
    assert report.n_deduplicated == n_dup
    assert report.n_accepted == sum(ts.size for ts, _, _ in groups.values())
    assert list(ds.groups) == list(groups)
    for key, (ts, amounts, prices) in groups.items():
        g = ds.groups[key]
        assert g.timestamps.tobytes() == ts.tobytes()
        assert g.amounts.tobytes() == amounts.tobytes()
        assert g.prices.tobytes() == prices.tobytes()


class TestGrouping:
    """Groups equal a lexsort of the reference parse, however the rows arrive."""

    KEYS = ["R1,BTC/USD", "U1,BTC/USD", "R1,ETH/USD", '"R2",BTC/USD']  # the last is read by csv

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.integers(0, 6),
                    st.sampled_from(["1.5", "2", "0.3"]),
                    st.sampled_from(["1", "0.5"]),
                ),
                max_size=30,
            ),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
        st.sampled_from([7, 1 << 16]),
    )
    def test_groups_match_a_lexsort_of_the_reference_parse(self, sources, dedupe, block_bytes):
        # keys interleaved row by row, timestamps out of order and tied across
        # sources, and exact duplicates within and across sources
        texts = [
            "".join([",".join(CSV_HEADER) + "\n"] + [f"{self.KEYS[k]},{t},{p},{a}\n" for k, t, p, a in rows])
            for rows in sources
        ]
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            ds, report = parse_trades([text.encode() for text in texts], dedupe=dedupe)
        assert_same_groups(ds, report, *lexsort_groups(texts, dedupe))

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_more_groups_than_16_bit_codes_match_a_lexsort(self, dedupe):
        n = (1 << 16) + 10
        rng = np.random.default_rng(5)
        # one row per group, then one more per group in reverse group order
        # at a random timestamp, then repeats of every 1000th of those rows
        rows = [f"E{k},P,{10 + k % 3},1.5,1" for k in range(n)]
        rows += [f"E{k},P,{t},2.5,1" for k, t in zip(range(n - 1, -1, -1), rng.integers(0, 20, n).tolist())]
        rows += rows[::1000]
        text = "\n".join([",".join(CSV_HEADER), *rows]) + "\n"
        ds, report = parse_trades(text.encode(), dedupe=dedupe)
        assert len(ds.groups) == n
        assert_same_groups(ds, report, *lexsort_groups([text], dedupe))


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
        amounts = [2_000_000, 2_130_000]
        splits = weekly_split(one_group([ms(2019, 7, 9), ms(2019, 7, 10)], amounts), REG)
        assert len(splits) == 1
        s = splits[0]
        assert s.round_subunits == 2_000_000
        assert s.unrounded_subunits == 2_130_000
        assert s.round_volume == pytest.approx(0.02)

    def test_all_round_gives_zero_unrounded(self):
        amounts = [1_000_000, 5_000_000]
        splits = weekly_split(one_group([ms(2019, 7, 9), ms(2019, 7, 10)], amounts), REG)
        assert all(s.unrounded_subunits == 0 for s in splits)

    def test_week_boundary_splits_rows(self):
        stamps = [ms(2019, 7, 14, 23, 59), ms(2019, 7, 15, 0, 0)]
        splits = weekly_split(one_group(stamps, [1_000_000] * 2), REG)
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
        ds = one_group([1, 2, 3], [2_000_000, 2_130_000, 5_000_000])
        sub = unrounded_subset(ds, REG)
        assert sub.group("X", "BTC/USD").n == 1
        assert ds.group("X", "BTC/USD").n == 3

    def test_all_round_group_dropped(self):
        sub = unrounded_subset(one_group([1], [2_000_000]), REG)
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
