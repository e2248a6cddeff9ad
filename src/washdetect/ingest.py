"""Stream trade files into validated in-memory datasets.

Input is CSV (header ``exchange,pair,timestamp_ms,price,amount``) or JSONL
with the same keys, one object per line. Files are read as bytes, in blocks
of whole lines (``BLOCK_BYTES``), so the transient memory of a parse follows
the block size and not the file size. A line ends at ``\\n``, ``\\r\\n`` or a
lone ``\\r``; lines are numbered from 1, the CSV header's line.

Most CSV lines match a strict ASCII grammar: four commas, no quote, no
control or non-ASCII byte, a digits-only timestamp and plain decimal price
and amount. Those lines are split into columns and converted with numpy, a
block at a time, with amounts converted as exact integers. Every other line
goes, in line order, through one scalar path: the ``csv`` module reads the
record starting there, and ``_validate_row`` (with ``trades.parse_amount``)
checks it. That path decides which odd rows are accepted and gives every
reject reason; JSONL rows all take it. Bad rows, undecodable bytes included,
are recorded with the line their record starts on and a reason, and
skipped, or abort the parse in strict mode.

Trades are grouped by (exchange, pair). Each group keeps compact parallel
numpy arrays (timestamps, sub-unit amounts, prices) sorted by timestamp, so
a million-row tape costs tens of megabytes and every downstream statistic can
run vectorized.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import AmountError, ParseError
from .trades import SUBUNITS_PER_UNIT, PairRegistry, exact_sum, is_round_mask, parse_amount

CSV_HEADER = ("exchange", "pair", "timestamp_ms", "price", "amount")

MS_PER_DAY = 86_400_000
# 1970-01-01 was a Thursday; the Monday on or before it is 1969-12-29 (day -3).
_EPOCH_MONDAY_OFFSET_DAYS = 3


def week_index(timestamp_ms):
    """UTC week number, weeks starting Monday 00:00:00, week 0 holding the epoch.

    Takes an int or an int64 array of millisecond timestamps.
    """
    days = timestamp_ms // MS_PER_DAY
    return (days + _EPOCH_MONDAY_OFFSET_DAYS) // 7


@dataclass
class TradeGroup:
    """All trades of one (exchange, pair), sorted by timestamp."""

    exchange_id: str
    pair: str
    timestamps: np.ndarray  # int64 ms, ascending
    amounts: np.ndarray  # int64 sub-units
    prices: np.ndarray  # float64

    @property
    def n(self) -> int:
        return int(self.amounts.size)

    @property
    def total_volume_subunits(self) -> int:
        return exact_sum(self.amounts)


@dataclass
class TradeDataset:
    """The groups of trades, keyed by (exchange, pair)."""

    groups: dict[tuple[str, str], TradeGroup] = field(default_factory=dict)

    @property
    def n_trades(self) -> int:
        return sum(g.n for g in self.groups.values())

    def group(self, exchange_id: str, pair: str) -> TradeGroup:
        return self.groups[(exchange_id, pair)]

    def sorted_keys(self) -> list[tuple[str, str]]:
        return sorted(self.groups)


def make_group(
    exchange_id: str,
    pair: str,
    timestamps: np.ndarray,
    amounts: np.ndarray,
    prices: np.ndarray,
) -> TradeGroup:
    """Build a TradeGroup, sorting the parallel arrays by timestamp (stable)."""
    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    return TradeGroup(
        exchange_id,
        pair,
        ts[order],
        np.asarray(amounts, dtype=np.int64)[order],
        np.asarray(prices, dtype=np.float64)[order],
    )


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class ParseReport:
    """Outcome of one parse: acceptance counts and the rejected-row log."""

    n_accepted: int = 0
    n_rejected: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)
    n_deduplicated: int = 0

    def record_rejection(self, line: int, reason: str) -> None:
        self.n_rejected += 1
        self.rejected.append((line, reason))

    def rejected_rows(self) -> list[list]:
        """The rejected-row log as CSV rows, header first."""
        return [["line", "reason"], *map(list, self.rejected)]


# Bytes read per block. Blocks hold whole lines, so the transient memory of a
# parse follows the block size, not the file size.
BLOCK_BYTES = 1 << 16

# Widest field the columnar grammar takes; wider ones go the scalar path.
# The key is "exchange,pair".
_KEY_MAX, _TS_MAX, _PRICE_MAX, _AMOUNT_MAX = 64, 18, 32, 19
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_INT64 = np.iinfo(np.int64)
# one decoder, since json.loads with options builds a new one per call
_JSON = json.JSONDecoder(parse_float=Decimal)


def _chunks(source) -> Iterator[bytes]:
    """The bytes of a path, a bytes object or a binary or text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _chunks(fh)
        return
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if not hasattr(source, "read"):
        raise TypeError(f"cannot read trades from {type(source)!r}")
    end = source.read(0)
    for chunk in iter(lambda: source.read(BLOCK_BYTES), end):
        # a lone surrogate in text encodes to bytes that then fail to decode,
        # so its line is rejected like any undecodable line
        yield chunk.encode("utf-8", "surrogatepass") if isinstance(chunk, str) else chunk


def _last_line_end(buf: bytearray) -> int:
    """Offset just past the last line end in ``buf`` (0 if none).

    A ``\\r`` in the last byte is not taken: a ``\\n`` may follow in the next
    chunk.
    """
    return max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1


def _feed(chunks: Iterator[bytes], parse_block) -> None:
    """Hand ``parse_block(block, eof)`` the input as blocks of whole lines.

    ``parse_block`` returns how many leading bytes it used. What it leaves (a
    quoted record still open at the block's end) comes back with the next
    block, once the carry has doubled, so a record or line of any length
    costs linear time.
    """
    pending = bytearray()
    wait = 0
    for chunk in chunks:
        pending += chunk
        if len(pending) < wait:
            continue
        cut = _last_line_end(pending)
        used = parse_block(bytes(pending[:cut]), False) if cut else 0
        del pending[:used]
        # with nothing cut or a record left open, wait for twice the data
        wait = 0 if used == cut > 0 else 2 * len(pending)
    if pending:
        parse_block(bytes(pending), True)


def _line_bounds(a: np.ndarray, eof: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, content end and next-line start of each line of a block.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as with Python's
    universal newlines. Only the file's last line may lack an end.
    """
    newline = a == 10
    cr = a == 13
    if cr.any():
        lone_cr = cr.copy()
        lone_cr[:-1] &= ~newline[1:]
        last = np.flatnonzero(newline | lone_cr)
        ends = last - (newline[last] & cr[last - 1] & (last > 0))
    else:
        last = ends = np.flatnonzero(newline)
    nexts = last + 1
    if eof and (nexts[-1] if nexts.size else 0) < a.size:
        ends = np.append(ends, a.size)
        nexts = np.append(nexts, a.size)
    return np.concatenate(([0], nexts[:-1])), ends, nexts


def _field(window: np.ndarray, lo: np.ndarray, hi: np.ndarray, width: int):
    """Bytes [lo, hi) of each row, left-aligned in a zero-padded matrix.

    Returns the uint8 matrix, the field lengths and a mask of the rows whose
    field fits ``width``.
    """
    length = hi - lo
    w = max(1, min(width, int(length.max(initial=0))))
    m = window[lo, :w]
    m[np.arange(w) >= length[:, None]] = 0
    return m, length, length <= width


def _digit_values(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digit mask of a byte matrix and the digits as int64, 0 elsewhere."""
    d = m - np.uint8(48)
    digit = d < 10
    return digit, np.where(digit, d, 0).astype(np.int64)


def _columnar_rows(a: np.ndarray, starts: np.ndarray, ends: np.ndarray, nexts: np.ndarray):
    """Parse every line of a block that fits the columnar grammar.

    The grammar: exactly four commas; no quote, control or non-ASCII byte;
    non-empty exchange and pair; timestamp ``[0-9]{1,18}``; price
    ``[0-9]+(\\.[0-9]+)?``; amount ``[0-9]{1,10}(\\.[0-9]{0,8})?``; price and
    amount above zero. On such a line the scalar path gives the same values,
    so it is parsed here. Returns, per line, the mask of those lines and their
    ``exchange,pair`` key bytes, timestamp, price and sub-unit amount.
    """
    n = starts.size
    fits = np.zeros(n, bool)
    keys = np.zeros(n, "S1")
    ts = np.zeros(n, np.int64)
    prices = np.zeros(n, np.float64)
    amounts = np.zeros(n, np.int64)

    commas = np.flatnonzero(a == 44)
    n_commas = np.bincount(np.searchsorted(nexts, commas, side="right"), minlength=n)
    odd = np.flatnonzero(((a < 32) & (a != 10) & (a != 13)) | (a == 34) | (a > 126))
    plain = np.bincount(np.searchsorted(nexts, odd, side="right"), minlength=n) == 0
    rows = np.flatnonzero((n_commas == 4) & plain)
    if not rows.size:
        return fits, keys, ts, prices, amounts
    first = (np.cumsum(n_commas) - n_commas)[rows]
    c0, c1, c2, c3 = (commas[first + k] for k in range(4))
    s, e = starts[rows], ends[rows]
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate((a, np.zeros(_KEY_MAX, np.uint8))), _KEY_MAX)
    ok = (c0 > s) & (c1 > c0 + 1)

    key, _, key_fits = _field(window, s, c1, _KEY_MAX)
    ok &= key_fits

    m, length, fit = _field(window, c1 + 1, c2, _TS_MAX)
    digit, d = _digit_values(m)
    ok &= fit & (length > 0) & (np.count_nonzero(digit, axis=1) == length)
    place = np.clip(length[:, None] - 1 - np.arange(m.shape[1]), 0, 18)
    row_ts = (d * _POW10[place]).sum(axis=1)

    m, length, fit = _field(window, c3 + 1, e, _AMOUNT_MAX)
    digit, d = _digit_values(m)
    dot = m == 46
    n_dots = np.count_nonzero(dot, axis=1)
    dot_at = np.where(n_dots > 0, dot.argmax(axis=1), length)
    ok &= fit & (n_dots <= 1) & (np.count_nonzero(digit, axis=1) + n_dots == length)
    ok &= (dot_at >= 1) & (dot_at <= 10) & (length - dot_at <= 9)
    col = np.arange(m.shape[1])
    place = np.clip(dot_at[:, None] + 7 - col + (col > dot_at[:, None]), 0, 18)
    row_amounts = (d * _POW10[place]).sum(axis=1)
    ok &= row_amounts > 0

    m, length, fit = _field(window, c2 + 1, c3, _PRICE_MAX)
    digit, _ = _digit_values(m)
    dot = m == 46
    n_dots = np.count_nonzero(dot, axis=1)
    ends_digit = digit[np.arange(m.shape[0]), np.clip(length - 1, 0, m.shape[1] - 1)]
    ok &= fit & (n_dots <= 1) & (np.count_nonzero(digit, axis=1) + n_dots == length)
    ok &= digit[:, 0] & ends_digit
    row_prices = np.zeros(rows.size, np.float64)
    row_prices[ok] = m[ok].view(f"S{m.shape[1]}").ravel().astype(np.float64)
    ok &= row_prices > 0

    rows = rows[ok]
    fits[rows] = True
    keys = np.zeros(n, f"S{key.shape[1]}")
    keys[rows] = key[ok].view(keys.dtype).ravel()
    ts[rows] = row_ts[ok]
    prices[rows] = row_prices[ok]
    amounts[rows] = row_amounts[ok]
    return fits, keys, ts, prices, amounts


def _validate_row(exchange: str, pair: str, ts_text: str, price_text: str, amount_text: str) -> tuple[int, float, int]:
    """Check one row's fields: (timestamp, price, sub-units), or AmountError.

    The scalar oracle every off-grammar row goes through; its messages are
    the reject reasons. Numeric fields must be ASCII, because ``int()`` and
    ``float()`` also read digits such as the Arabic-Indic '٥'.
    """
    if not exchange:
        raise AmountError("missing exchange id")
    if not pair:
        raise AmountError("missing pair")
    try:
        if not ts_text.isascii():
            raise ValueError
        ts = int(ts_text)
    except ValueError:
        raise AmountError(f"bad timestamp {ts_text!r}") from None
    if not _INT64.min <= ts <= _INT64.max:
        raise AmountError(f"timestamp out of range {ts_text!r}")
    try:
        if not price_text.isascii():
            raise ValueError
        price = float(price_text)
    except ValueError:
        raise AmountError(f"bad price {price_text!r}") from None
    if not math.isfinite(price):
        raise AmountError(f"non-finite price {price_text!r}")
    if not price > 0:
        raise AmountError(f"non-positive price {price_text!r}")
    return ts, price, parse_amount(amount_text)


def _csv_record(data: bytes, starts: np.ndarray, nexts: np.ndarray, i: int, eof: bool):
    """Read the CSV record that starts at line ``i`` of a block with ``csv``.

    Returns (fields, lines used, reject reason or None), or None when the
    record runs past the end of a block that is not the file's last.
    """
    used = 0
    ran_out = False

    def lines():
        nonlocal used, ran_out
        for k in range(i, starts.size):
            used += 1
            yield data[starts[k] : nexts[k]].decode("utf-8")
        ran_out = True

    reader = csv.reader(lines())
    try:
        fields, reason = next(reader), None
    except UnicodeDecodeError as exc:
        fields, reason = [], f"undecodable line: {exc}"
    except csv.Error as exc:
        fields, reason = [], f"bad CSV record: {exc}"
    if ran_out and not eof:
        return None
    return fields, used, reason


def _json_text(value) -> str:
    """A JSONL value as field text; numbers keep their decimal digits.

    1e-7 becomes '0.0000001', where a float would give '1e-07'. Past 400
    digits the exponent form is kept: no valid amount or timestamp is that
    long, ``float()`` reads it, and '1e999999999' is not spelt out.
    """
    if isinstance(value, Decimal) and abs(value.adjusted()) < 400:
        return format(value, "f")
    return str(value)


def _first_occurrences(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows whose values across ``columns`` appear in no earlier row."""
    order = np.lexsort(columns[::-1])  # stable: equal rows stay in line order
    repeat = np.ones(order.size - 1, bool)
    for col in columns:
        ranked = col[order]
        repeat &= ranked[1:] == ranked[:-1]
    keep = np.ones(order.size, bool)
    keep[order[1:][repeat]] = False
    return keep


class _Columns:
    """Accepted rows in line order, as numpy column blocks, with group codes."""

    def __init__(self) -> None:
        self.codes: dict[tuple[str, str], int] = {}
        self.blocks: list[tuple[np.ndarray, ...]] = []

    def code(self, exchange: str, pair: str) -> int:
        return self.codes.setdefault((exchange, pair), len(self.codes))

    def add(self, codes: np.ndarray, ts: np.ndarray, prices: np.ndarray, amounts: np.ndarray) -> None:
        if codes.size:
            self.blocks.append((codes, ts, prices, amounts))

    def dataset(self, report: ParseReport, dedupe: bool) -> TradeDataset:
        """Group the rows by (exchange, pair), each group sorted by timestamp."""
        ds = TradeDataset()
        if not self.blocks:
            return ds
        codes, ts, prices, amounts = (np.concatenate(col) for col in zip(*self.blocks))
        self.blocks.clear()
        if dedupe:
            # prices are positive and finite, so equal bits mean equal floats
            keep = _first_occurrences(codes, ts, prices.view(np.int64), amounts)
            report.n_deduplicated = int(keep.size - np.count_nonzero(keep))
            codes, ts, prices, amounts = codes[keep], ts[keep], prices[keep], amounts[keep]
        report.n_accepted = int(codes.size)
        # stable, so rows with equal timestamps stay in line order
        order = np.lexsort((ts, codes))
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        stops = np.append(starts[1:], order.size)
        names = list(self.codes)
        for k in np.argsort(np.minimum.reduceat(order, starts)):  # in order of first appearance
            rows = order[starts[k] : stops[k]]
            exchange, pair = names[codes[rows[0]]]
            ds.groups[(exchange, pair)] = TradeGroup(exchange, pair, ts[rows], amounts[rows], prices[rows])
        return ds


class _Parser:
    """Block-by-block parse of one file into ``_Columns`` and a ``ParseReport``."""

    def __init__(self, report: ParseReport, strict: bool) -> None:
        self.report = report
        self.strict = strict
        self.columns = _Columns()
        self.line = 1  # number of the block's first line
        self.header_seen = False

    def reject(self, line: int, reason: str) -> None:
        if self.strict:
            raise ParseError(f"line {line}: {reason}")
        self.report.record_rejection(line, reason)

    def scalar_row(self, line: int, fields: list[str]) -> tuple | None:
        """(group code, timestamp, price, sub-units) of one row, or None if rejected."""
        if len(fields) != 5:
            self.reject(line, f"expected 5 columns, got {len(fields)}")
            return None
        try:
            ts, price, subunits = _validate_row(*fields)
        except AmountError as exc:
            self.reject(line, str(exc))
            return None
        return self.columns.code(fields[0], fields[1]), ts, price, subunits

    def csv_block(self, data: bytes, eof: bool) -> int:
        """Parse a block of CSV lines; return how many leading bytes it used."""
        a = np.frombuffer(data, np.uint8)
        starts, ends, nexts = _line_bounds(a, eof)
        first = 0
        if not self.header_seen:
            record = _csv_record(data, starts, nexts, 0, eof)
            if record is None:
                return 0
            header, first, reason = record
            if reason is not None:
                raise ParseError(f"bad CSV header: {reason}")
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise ParseError(f"bad CSV header {header!r}, expected {','.join(CSV_HEADER)}")
            self.header_seen = True

        accepted, keys, ts, prices, amounts = _columnar_rows(a, starts, ends, nexts)
        accepted[:first] = False
        scalar = []
        n_lines = starts.size
        resume = first
        for i in np.flatnonzero(~accepted & (ends > starts)).tolist():
            if i < resume:
                continue
            record = _csv_record(data, starts, nexts, i, eof)
            if record is None:  # parse this record again with the next block
                accepted[i:] = False
                n_lines = i
                break
            fields, used, reason = record
            accepted[i + 1 : i + used] = False  # lines inside a quoted field
            resume = i + used
            if reason is not None:
                self.reject(self.line + i, reason)
            elif fields:
                row = self.scalar_row(self.line + i, fields)
                if row is not None:
                    scalar.append((i, *row))

        codes = np.zeros(starts.size, np.int32)
        if accepted.any():
            names, inverse = np.unique(keys[accepted], return_inverse=True)
            table = [self.columns.code(*name.decode("ascii").split(",", 1)) for name in names]
            codes[accepted] = np.array(table, np.int32)[inverse]
        for i, code, t, price, subunits in scalar:
            accepted[i] = True
            codes[i], ts[i], prices[i], amounts[i] = code, t, price, subunits
        self.columns.add(codes[accepted], ts[accepted], prices[accepted], amounts[accepted])
        self.line += n_lines
        return int(starts[n_lines]) if n_lines < starts.size else len(data)

    def jsonl_block(self, data: bytes, eof: bool) -> int:
        """Parse a block of JSONL lines, one by one; all of it is used."""
        starts, ends, _ = _line_bounds(np.frombuffer(data, np.uint8), eof)
        rows = []
        for k, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
            line = self.line + k
            try:
                text = data[lo:hi].decode("utf-8")
            except UnicodeDecodeError as exc:
                self.reject(line, f"undecodable line: {exc}")
                continue
            if not text.strip():
                continue
            try:
                obj = _JSON.decode(text)
                fields = [_json_text(obj[key]) for key in CSV_HEADER]
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                self.reject(line, f"bad JSONL row: {exc}")
                continue
            row = self.scalar_row(line, fields)
            if row is not None:
                rows.append(row)
        if rows:
            codes, ts, prices, amounts = zip(*rows)
            self.columns.add(
                np.array(codes, np.int32), np.array(ts, np.int64), np.array(prices, np.float64), np.array(amounts, np.int64)
            )
        self.line += starts.size
        return len(data)


def parse_trades(
    source,
    fmt: str = "csv",
    *,
    strict: bool = False,
    dedupe: bool = False,
) -> tuple[TradeDataset, ParseReport]:
    """Parse a CSV or JSONL trade file into a dataset plus a parse report.

    ``source`` is a path, a bytes object, or a binary or text stream.
    ``strict`` aborts on the first malformed row with a ParseError, which
    names the file when ``source`` is a path; otherwise bad rows are logged
    with their line number and skipped. ``dedupe`` drops exact
    duplicate rows (duplicates are legitimate in clean feeds, so this is off
    by default).
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    report = ParseReport()
    parser = _Parser(report, strict)
    chunks = _chunks(source)
    try:
        _feed(chunks, parser.csv_block if fmt == "csv" else parser.jsonl_block)
    except (ParseError, OSError) as exc:
        if not isinstance(source, (str, Path)):
            raise
        raise ParseError(f"{source}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
    finally:
        chunks.close()
    return parser.columns.dataset(report, dedupe), report


# ---------------------------------------------------------------------------
# Weekly volume panel and unrounded subset


@dataclass(frozen=True)
class WeeklyVolumeSplit:
    """Round vs unrounded volume of one exchange-pair-week, in sub-units."""

    exchange_id: str
    pair: str
    week: int
    round_subunits: int
    unrounded_subunits: int

    @property
    def round_volume(self) -> float:
        return self.round_subunits / SUBUNITS_PER_UNIT

    @property
    def unrounded_volume(self) -> float:
        return self.unrounded_subunits / SUBUNITS_PER_UNIT


def weekly_split(dataset: TradeDataset, registry: PairRegistry) -> list[WeeklyVolumeSplit]:
    """Exact per-week round/unrounded volume sums for every group.

    Weeks with no trades are omitted. Integer arithmetic throughout, so the
    two parts always sum to the group's total volume exactly.
    """
    out: list[WeeklyVolumeSplit] = []
    for key in dataset.sorted_keys():
        g = dataset.groups[key]
        if g.n == 0:
            continue
        spec = registry.get(g.pair)
        weeks = week_index(g.timestamps)
        round_mask = is_round_mask(g.amounts, spec)
        # timestamps are sorted, so week indices are non-decreasing
        uniq_weeks, starts = np.unique(weeks, return_index=True)
        round_amounts = np.where(round_mask, g.amounts, 0)
        unrounded_amounts = np.where(round_mask, 0, g.amounts)
        round_sums = exact_sum(round_amounts, starts)
        unrounded_sums = exact_sum(unrounded_amounts, starts)
        for w, r, u in zip(uniq_weeks, round_sums, unrounded_sums):
            out.append(WeeklyVolumeSplit(g.exchange_id, g.pair, int(w), r, u))
    return out


def unrounded_subset(dataset: TradeDataset, registry: PairRegistry) -> TradeDataset:
    """Restrict the dataset to unrounded trades; empty groups are dropped."""
    ds = TradeDataset()
    for key, g in dataset.groups.items():
        spec = registry.get(g.pair)
        keep = ~is_round_mask(g.amounts, spec)
        if not keep.any():
            continue
        ds.groups[key] = TradeGroup(
            g.exchange_id, g.pair, g.timestamps[keep], g.amounts[keep], g.prices[keep]
        )
    return ds

