"""Stream trade files into validated in-memory datasets.

Input is CSV (header ``exchange,pair,timestamp_ms,price,amount``) or JSONL
with the same keys, one object per line. Files are read as bytes, in blocks
of whole lines (``BLOCK_BYTES``, 256 KiB), so the transient memory of a
parse follows the block size and not the file size: a 2M-row tape peaks at
56 bytes a row under tracemalloc, 24 of them the parsed trades, and parses
at 2.0–2.6M rows/s on a 2-core x86-64 host. Lines end at ``\\n``, ``\\r\\n``
or a lone ``\\r``, and are numbered from 1, the CSV header's line.

One grammar, stated in README's *Input format*, decides which rows are
trades, and one numpy kernel checks it, a block at a time (``_numbers``). A
CSV line that holds a row as it stands (four commas; no quote, control or
non-ASCII byte) is checked in place, from one scan that marks each comma,
quote, control and non-ASCII byte, line ends among them. Any other line is
read by the ``csv`` module, or the JSON decoder for JSONL, which only unquote
and decode; its numeric fields, stripped of ASCII whitespace, go through the
same kernel in one batch per block. Amounts are decoded as exact integers of
1e-8 sub-units, and prices correctly rounded, as ``float()`` rounds them
(see ``_decimal``). Bad rows, undecodable bytes included, are recorded with
the line their record starts on and the reason of their first failing
field, and skipped, or abort the parse in strict mode.

The sources of a list are parsed side by side, each with its own columns
and reject log, on a pool of up to as many threads as the process has usable
cores (``_side_by_side``, which also runs the battery's groups); each thread
holds one block at a time. The sources' columns are then joined in list
order, their group codes renumbered in place, and their reject logs
concatenated.

Trades are grouped by (exchange, pair). Each group keeps compact parallel
numpy arrays (timestamps, sub-unit amounts, prices) sorted by timestamp, so
a million-row tape costs tens of megabytes and every downstream statistic can
run vectorized. A stable sort of the group codes groups the rows of every
source, and only groups out of timestamp order are sorted again; rows
already in order stay put, each group a slice of the joined columns. That
order finds the exact duplicates of ``dedupe`` too: they share a (group,
timestamp) run, whichever source they come from.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ParseError
from .trades import AMOUNT_DECIMALS, MAX_AMOUNT_SUBUNITS, SUBUNITS_PER_UNIT, PairRegistry, exact_sum, is_round_mask

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
BLOCK_BYTES = 1 << 18

# Widest field the grammar takes; the key "exchange,pair" only on lines parsed
# as they stand. An amount is up to 11 integer digits, a dot and 8 decimals.
_KEY_MAX, _TS_MAX, _PRICE_MAX, _AMOUNT_MAX = 64, 19, 32, 20
_INT_MAX = _AMOUNT_MAX - 1 - AMOUNT_DECIMALS
# Columns whose digits, a dot left out, make an exact uint64 N (see _decimal).
_N_COLS = 19
_BOM = "\ufeff".encode("utf-8")
# one decoder, since json.loads with options builds a new one per call
_JSON = json.JSONDecoder(parse_float=Decimal)
# Bytes on each side of a block, so that every field's window is in it:
# spaces, which are no marks (see _lines).
_PAD = b" " * _KEY_MAX
# Row k keeps the first, or the last, k of _KEY_MAX columns.
_KEEP_FIRST = np.tri(_KEY_MAX + 1, _KEY_MAX, -1, np.uint8)
_KEEP_LAST = np.ascontiguousarray(_KEEP_FIRST[:, ::-1])
_POW10 = 10 ** np.arange(_N_COLS, dtype=np.uint64)
# V - V // _DIV[k] * _NINES[k] takes the 0 digit k places from the right out
# of V < 10**19, moving the digits left of it one place right; k = 19 keeps V.
_DIV = np.array([10 ** min(k + 1, 19) for k in range(20)], np.uint64)
_NINES = np.array([9 * 10**k for k in range(19)] + [0], np.uint64)
# Place weights of a digit matrix right-aligned in _N_COLS columns, for its
# digits above and below 10**9. A float64 matmul by them is exact: every
# product and partial sum is an integer below 10**10 < 2**53.
_HALVES = np.zeros((_N_COLS, 2))
_HALVES[: _N_COLS - 9, 0] = 10.0 ** np.arange(_N_COLS - 10, -1, -1)
_HALVES[_N_COLS - 9 :, 1] = 10.0 ** np.arange(8, -1, -1)
# The reject reasons of the numeric fields, in the order _numbers checks
# them, formatted with a row's timestamp, price and amount text.
_REASONS = (
    "bad timestamp {0!r}", "timestamp out of range {0!r}", "bad price {1!r}", "non-positive price {1!r}",
    "malformed amount {2!r}", "precision overflow: {2!r} has more than 8 decimals", "amount overflow {2!r}",
    "non-positive amount {2!r}",
)


def _chunks(source) -> Iterator[bytes]:
    """The bytes of a path, a bytes object or a binary or text stream, less
    one leading UTF-8 byte-order mark."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _chunks(fh)
        return
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if not hasattr(source, "read"):
        raise TypeError(f"cannot read trades from {type(source)!r}")
    end = source.read(0)
    head = b""  # the first bytes, until they show whether a mark starts the source
    for chunk in iter(lambda: source.read(BLOCK_BYTES), end):
        # a lone surrogate in text encodes to bytes that then fail to decode,
        # so its line is rejected like any undecodable line
        chunk = chunk.encode("utf-8", "surrogatepass") if isinstance(chunk, str) else chunk
        if head is not None:
            head += chunk
            if len(head) < len(_BOM) and _BOM.startswith(head):
                continue
            chunk, head = head.removeprefix(_BOM), None
        yield chunk
    if head:
        yield head


def _last_line_end(buf: bytearray) -> int:
    """Offset just past the last line end in ``buf`` (0 if none).

    A ``\\r`` in the last byte is not taken: a ``\\n`` may follow in the next
    chunk.
    """
    return max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1


def _padded(buf: bytearray, n: int) -> bytes:
    """The first ``n`` bytes of ``buf`` between two ``_PAD``, in one copy."""
    with memoryview(buf) as view:
        return b"".join((_PAD, view[:n], _PAD))


def _feed(chunks: Iterator[bytes], parse_block) -> None:
    """Hand ``parse_block(block, eof)`` the input as blocks of whole lines,
    padded (``_padded``); it returns how many bytes of the input it used.

    What it leaves (a quoted record still open at the block's end) comes back
    with the next block, once the carry has doubled, so a record or line of
    any length costs linear time.
    """
    pending = bytearray()
    wait = 0
    for chunk in chunks:
        pending += chunk
        if len(pending) < wait:
            continue
        cut = _last_line_end(pending)
        used = parse_block(_padded(pending, cut), False) if cut else 0
        del pending[:used]
        # with nothing cut or a record left open, wait for twice the data
        wait = 0 if used == cut > 0 else 2 * len(pending)
    if pending:
        parse_block(_padded(pending, len(pending)), True)


def _lines(a: np.ndarray, eof: bool) -> tuple[np.ndarray, ...]:
    """The marks of a padded block (offsets of commas, quotes, control and
    non-ASCII bytes), and per line the marks up to its end, its start,
    content end and next-line start. A line ends at ``\\n``, ``\\r\\n`` or a
    lone ``\\r``, as with Python's universal newlines, so its end is among the
    marks; only the file's last line may lack one."""
    marks = np.flatnonzero(((a - np.uint8(32)) > 94) | (a == 34) | (a == 44))
    kind = a[marks]
    upto = np.flatnonzero((kind == 10) | (kind == 13))
    ends = marks[upto]
    cr = kind[upto] == 13
    if cr.any():
        # the \r of a \r\n ends its line's content, and the \n the line
        crlf = cr[:-1] & ~cr[1:] & (ends[1:] == ends[:-1] + 1)
        line_end = ~np.append(crlf, False)
        upto, nexts = upto[line_end], ends[line_end] + 1
        ends = (ends - np.insert(crlf, 0, False))[line_end]
    else:
        nexts = ends + 1
    upto += 1
    end = a.size - _KEY_MAX
    if eof and (nexts[-1] if nexts.size else _KEY_MAX) < end:
        ends, nexts, upto = np.append(ends, end), np.append(nexts, end), np.append(upto, marks.size)
    return marks, upto, np.concatenate(([_KEY_MAX], nexts[:-1])), ends, nexts


def _gather(data: bytes, at: np.ndarray, w: int) -> np.ndarray:
    """The ``w`` bytes of ``data`` from each offset in ``at``, as matrix rows."""
    return np.ndarray((len(data) - w + 1,), f"V{w}", data, strides=(1,))[at].view(np.uint8).reshape(-1, w)


def _decimal(data: bytes, lo: np.ndarray, hi: np.ndarray, most: int):
    """Bytes [lo, hi) of each row as a decimal, right-aligned in up to ``most``
    columns. Returns N, the uint64 its digits make without the dot, exact up
    to 19 digits and 20 columns; the digits right of its dot (0 without one);
    whether it has a dot; whether every other byte is a digit; its length."""
    length = hi - lo
    w = max(1, min(most, int(length.max(initial=0))))
    d = _gather(data, hi - w, w) - np.uint8(48)
    if length.min(initial=w) < w:  # zero the cells left of a shorter row's bytes
        d *= _KEEP_LAST[:, _KEY_MAX - w :].take(np.minimum(length, w), axis=0)
    flat = d.ravel()
    odd = np.flatnonzero(flat > 9)  # the few non-digits; '.' - '0' wraps to 254
    row, col = np.divmod(odd, w)
    is_dot = flat[odd] == 254
    flat[odd] = 0
    dots = row[is_dot]
    n_dots = np.bincount(dots, minlength=length.size)
    clean = (np.bincount(row, minlength=length.size) == n_dots) & (n_dots < 2)
    has_dot = n_dots > 0
    frac = np.zeros(length.size, np.intp)
    frac[dots] = w - 1 - col[is_dot]
    high_low = (d[:, -_N_COLS:] @ _HALVES[_N_COLS - min(w, _N_COLS) :]).astype(np.uint64)
    n = high_low[:, 0] * np.uint64(10**9) + high_low[:, 1]
    if dots.size:  # the clamp keeps the index of a row with a dot too far left in range
        k = np.where(has_dot, np.minimum(frac, _N_COLS - 1), _N_COLS)
        n -= n // _DIV[k] * _NINES[k]
    if w > _N_COLS:  # the 20th column, one place right once the dot is out
        n += d[:, -_N_COLS - 1] * np.uint64(10**18)
    return n, frac, has_dot, clean, length


def _numbers(data: bytes, a: np.ndarray, t0, t1, p0, p1, m0, m1):
    """Check and decode each row's timestamp, price and amount, the bytes
    [t0, t1), [p0, p1) and [m0, m1) of a padded block, against README's
    grammar: ``[0-9]{1,19}`` below 2**63; ``[0-9]+(\\.[0-9]+)?`` of up to 32
    bytes, above zero (after a minus sign, non-positive); ``[0-9]+(\\.[0-9]*)?``
    of up to 20 bytes, 8 decimals and 11 integer digits, in (0, 2**62)
    sub-units. Returns the timestamps, prices and sub-unit amounts, and per
    row 0, or 1 plus the index in ``_REASONS`` of the first check it fails.
    """
    n, _, has_dot, clean, length = _decimal(data, t0, t1, _TS_MAX)
    row_ts = n.view(np.int64)
    fails = [~clean | has_dot | (length == 0) | (length > _TS_MAX), row_ts < 0]

    # The price: a digit first and last, and only digits but one dot between.
    minus = a[p0] == 45
    p0 = p0 + minus
    n, frac, has_dot, clean, length = _decimal(data, p0, p1, _PRICE_MAX)
    fails.append(~clean | (length > _PRICE_MAX) | (a[p0] - np.uint8(48) > 9) | (a[p1 - 1] - np.uint8(48) > 9))
    # N / 10**frac, both exact in float64 where N < 2**53, is correctly rounded:
    # Clinger's fast path. A price of at most 18 digits lies within N's
    # columns; the clamp keeps the other rows' indices in range.
    row_prices = n / _POW10[np.minimum(frac, _N_COLS - 1)]
    exact = (length - has_dot < _N_COLS) & (n < 2**53)
    slow = np.flatnonzero(~fails[-1] & ~exact)
    for i, lo, hi in zip(slow.tolist(), p0[slow].tolist(), p1[slow].tolist()):
        row_prices[i] = float(data[lo:hi])
    fails.append(minus | (row_prices == 0))

    # The amount is N scaled to sub-units: below 10**19 with at most 11
    # integer digits. The clamp keeps the other rows' indices in range.
    n, frac, has_dot, clean, length = _decimal(data, m0, m1, _AMOUNT_MAX)
    whole = length - frac - has_dot
    row_amounts = n * _POW10[AMOUNT_DECIMALS - np.minimum(frac, AMOUNT_DECIMALS)]
    fails += [~clean | (length > _AMOUNT_MAX) | (whole == 0), frac > AMOUNT_DECIMALS]
    fails += [(whole > _INT_MAX) | (row_amounts >= np.uint64(MAX_AMOUNT_SUBUNITS)), row_amounts == 0]
    failed = np.zeros(row_ts.size, np.intp)
    for k in range(len(fails), 0, -1):  # the first failing check is set last
        failed[fails[k - 1]] = k
    return row_ts, row_prices, row_amounts.view(np.int64), failed


def _columnar_rows(data: bytes, a: np.ndarray, marks, upto, starts, ends, nexts):
    """Parse every line of a padded block that holds a row as it stands: four
    commas; no quote, control or non-ASCII byte; an ``exchange,pair`` key of
    non-empty ids and at most ``_KEY_MAX`` bytes; fields ``_numbers`` passes.
    Returns those lines' indices, in order, keys, timestamps, prices and
    sub-unit amounts."""
    # a line fits with four marks before its end, all commas
    n_marks = np.diff(upto, prepend=0)
    rows = np.flatnonzero(n_marks == 4 + nexts - ends)
    c0, c1, c2, c3 = commas = marks[(upto - n_marks)[rows] + np.arange(4)[:, None]]
    s = starts[rows]
    ok = (a[commas] == 44).all(axis=0) & (c0 > s) & (c1 > c0 + 1)

    length = c1 - s
    w = max(1, min(_KEY_MAX, int(length.max(initial=0))))
    key = _gather(data, s, w)
    if length.min(initial=w) < w:
        key *= _KEEP_FIRST[:, :w].take(np.minimum(length, w), axis=0)
    ok &= length <= _KEY_MAX

    ts, prices, amounts, failed = _numbers(data, a, c1 + 1, c2, c2 + 1, c3, c3 + 1, ends[rows])
    ok &= failed == 0
    return rows[ok], key[ok].view(f"S{key.shape[1]}").ravel(), ts[ok], prices[ok], amounts[ok]


def _field_numbers(texts: list[str]):
    """``_numbers`` of rows given as text, the timestamp, price and amount of
    each in turn in one list: each stripped of ASCII whitespace, and laid out
    with a comma between them in one padded buffer."""
    raw = [text.encode("utf-8", "surrogatepass").strip() for text in texts]
    lengths = np.array([len(field) for field in raw], np.intp)
    hi = np.cumsum(lengths + 1) + (_KEY_MAX - 1)
    (t0, p0, m0), (t1, p1, m1) = (hi - lengths).reshape(-1, 3).T, hi.reshape(-1, 3).T
    data = b"".join((_PAD, b",".join(raw), _PAD))
    return _numbers(data, np.frombuffer(data, np.uint8), t0, t1, p0, p1, m0, m1)


def _row_reason(fields: list) -> str | None:
    """The reason to reject a row for its number of columns or its ids, if any."""
    if len(fields) != len(CSV_HEADER):
        return f"expected 5 columns, got {len(fields)}"
    for key, value, missing in zip(CSV_HEADER, fields, ("missing exchange id", "missing pair")):
        if not (isinstance(value, str) and value):  # a JSONL id may be any value
            return missing if value == "" else f"bad JSONL row: {key} is not a string"
    return None


def _csv_record(data: bytes, starts: np.ndarray, nexts: np.ndarray, i: int, eof: bool):
    """Read the CSV record that starts at line ``i`` of a block with ``csv``.

    Returns (its fields or reject reason, lines used), or None when the
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
        fields = next(reader)
    except UnicodeDecodeError as exc:
        fields = f"undecodable line: {exc}"
    except csv.Error as exc:
        fields = f"bad CSV record: {exc}"
    if ran_out and not eof:
        return None
    return fields, used


def _json_text(value) -> str:
    """A JSONL value as field text; numbers keep their decimal digits.

    1e-7 becomes '0.0000001', where a float would give '1e-07'. Past 400
    digits the exponent form is kept: no field of the grammar is that long,
    and '1e999999999' is not spelt out.
    """
    if isinstance(value, Decimal) and abs(value.adjusted()) < 400:
        return format(value, "f")
    return str(value)


def _grouping(codes: np.ndarray, ts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The rows sorted by (code, timestamp) and then line, or None where that
    is their order already, and the codes with rows (``counts``) in order of
    their first row. A stable sort groups the rows (by radix for 16-bit
    codes); then only the groups whose timestamps fall are sorted by them."""
    stops = np.cumsum(counts)
    starts = stops - counts
    present = np.flatnonzero(counts)
    order = None
    if (codes[1:] < codes[:-1]).any():
        order = np.argsort(codes.astype(np.uint16) if counts.size < 1 << 16 else codes, kind="stable")
        present = present[np.argsort(order[starts[present]])]
    ranked = ts if order is None else ts[order]
    fall = np.flatnonzero(ranked[1:] < ranked[:-1]) + 1
    group = np.searchsorted(stops, fall, side="right")
    bad = np.unique(group[fall > starts[group]])
    if bad.size:  # their rows by timestamp, then by code, both stable
        order = np.arange(codes.size) if order is None else order
        at = np.repeat(starts[bad] - np.cumsum(counts[bad]) + counts[bad], counts[bad]) + np.arange(counts[bad].sum())
        rows = order[at][np.argsort(ts[order[at]], kind="stable")]
        order[at] = rows[np.argsort(codes[rows], kind="stable")]
    return order, present


def _first_occurrences(order: np.ndarray, codes: np.ndarray, ts: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """``order``, the rows sorted by (code, timestamp) and then line, without
    the rows that repeat an earlier line's code, timestamp and ``columns``.

    Repeats share a (code, timestamp) run, so only the rows of runs longer
    than one are compared.
    """
    tie = np.ones(order.size - 1, bool)  # each row and the next share a run
    for col in (codes, ts):
        ranked = col[order]
        tie &= ranked[1:] == ranked[:-1]
    del ranked  # from here on only masks span the whole tape
    in_run = np.append(tie, False) | np.insert(tie, 0, False)
    run = np.cumsum(np.insert(~tie, 0, True)[in_run])
    rows = order[in_run]
    # stable, so equal rows of a run stay in line order
    by_value = np.lexsort([col[rows] for col in columns[::-1]] + [run])
    rows, run = rows[by_value], run[by_value]
    repeat = run[1:] == run[:-1]
    for col in columns:
        values = col[rows]
        repeat &= values[1:] == values[:-1]
    keep = np.ones(codes.size, bool)
    keep[rows[1:][repeat]] = False
    return order[keep[order]]


class _Columns:
    """Accepted rows in source and line order, as numpy column blocks, with
    group codes."""

    def __init__(self) -> None:
        self.codes: dict[tuple[str, str], int] = {}
        self.blocks: list[tuple[np.ndarray, ...]] = []

    def code(self, exchange: str, pair: str) -> int:
        return self.codes.setdefault((exchange, pair), len(self.codes))

    def add(self, codes: np.ndarray, ts: np.ndarray, prices: np.ndarray, amounts: np.ndarray) -> None:
        if codes.size:
            self.blocks.append((codes, ts, prices, amounts))

    def absorb(self, other: _Columns) -> None:
        """Move ``other``'s blocks after these, its group codes renumbered in
        place to these columns' codes."""
        renumber = np.array([self.code(*key) for key in other.codes], np.int32)
        for codes, *_ in other.blocks:
            renumber.take(codes, out=codes)
        self.blocks += other.blocks
        other.blocks.clear()

    def dataset(self, report: ParseReport, dedupe: bool) -> TradeDataset:
        """Group the rows by (exchange, pair), each group sorted by timestamp."""
        ds = TradeDataset()
        if not self.blocks:
            return ds
        codes, ts, prices, amounts = (np.concatenate(col) for col in zip(*self.blocks))
        self.blocks.clear()
        counts = np.bincount(codes, minlength=len(self.codes))
        order, present = _grouping(codes, ts, counts)
        if dedupe:
            order = np.arange(codes.size) if order is None else order
            # prices are positive and finite, so equal bits mean equal floats
            order = _first_occurrences(order, codes, ts, prices.view(np.int64), amounts)
            report.n_deduplicated = int(codes.size - order.size)
            counts = np.bincount(codes[order], minlength=counts.size)
        report.n_accepted = int(counts.sum())
        stops = np.cumsum(counts).tolist()
        names = list(self.codes)
        for k in present.tolist():
            # rows already grouped and in order are a slice, with no gather
            span = slice(stops[k] - counts[k], stops[k])
            rows = span if order is None else order[span]
            exchange, pair = names[k]
            ds.groups[(exchange, pair)] = TradeGroup(exchange, pair, ts[rows], amounts[rows], prices[rows])
        return ds


class _Parser:
    """Block-by-block parse of one source into its own ``_Columns`` and
    ``ParseReport``."""

    def __init__(self, strict: bool) -> None:
        self.report = ParseReport()
        self.strict = strict
        self.columns = _Columns()
        self.line = 1  # number of the block's first line

    def reject(self, line: int, reason: str) -> None:
        if self.strict:
            raise ParseError(f"line {line}: {reason}")
        self.report.record_rejection(line, reason)

    def read(self, found: list) -> tuple[np.ndarray, ...]:
        """Check the rows of a block that ``csv`` or the JSON decoder read:
        ``found`` holds, in line order, each one's line index and five fields,
        or reject reason. Their numeric fields go through ``_numbers`` in one
        batch. Logs the rejects in line order; returns the accepted rows' line
        indices, group codes, timestamps, prices and sub-unit amounts."""
        reasons = [fields if isinstance(fields, str) else _row_reason(fields) for _, fields in found]
        rows = [(i, fields) for (i, fields), reason in zip(found, reasons) if reason is None]
        ts, prices, amounts, failed = _field_numbers([text for _, fields in rows for text in fields[2:]])
        checks = failed.tolist()
        rejects = [(i, reason) for (i, _), reason in zip(found, reasons) if reason is not None]
        rejects += [(i, _REASONS[check - 1].format(*fields[2:])) for (i, fields), check in zip(rows, checks) if check]
        for i, reason in sorted(rejects):
            self.reject(self.line + i, reason)
        kept = [(i, self.columns.code(*fields[:2])) for (i, fields), check in zip(rows, checks) if not check]
        lines, codes = np.array(kept, np.intp).reshape(-1, 2).T
        return lines, codes.astype(np.int32), *(col[failed == 0] for col in (ts, prices, amounts))

    def csv_block(self, data: bytes, eof: bool) -> int:
        """Parse a block of CSV lines; return how many leading bytes it used."""
        a = np.frombuffer(data, np.uint8)
        marks, upto, starts, ends, nexts = _lines(a, eof)
        first = 0
        if self.line == 1:  # the header
            record = _csv_record(data, starts, nexts, 0, eof)
            if record is None:
                return 0
            header, first = record
            if isinstance(header, str):
                raise ParseError(f"bad CSV header: {header}")
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise ParseError(f"bad CSV header {header!r}, expected {','.join(CSV_HEADER)}")

        lines, keys, ts, prices, amounts = _columnar_rows(data, a, marks, upto, starts, ends, nexts)
        fits = np.zeros(starts.size, bool)
        fits[lines] = True
        gone = np.zeros(starts.size, bool)  # lines whose columnar rows drop out
        found = []
        n_lines = starts.size
        resume = first
        for i in np.flatnonzero(~fits & (ends > starts)).tolist():
            if i < resume:
                continue
            record = _csv_record(data, starts, nexts, i, eof)
            if record is None:  # parse this record again with the next block
                gone[i:] = True
                n_lines = i
                break
            fields, used = record
            gone[i + 1 : i + used] = True  # lines inside a quoted field
            resume = i + used
            if fields:
                found.append((i, fields))
        if gone.any():
            kept = ~gone[lines]
            lines, keys, ts, prices, amounts = (col[kept] for col in (lines, keys, ts, prices, amounts))

        codes = np.zeros(keys.size, np.int32)
        if keys.size:
            # keys come in runs, so only the first key of each run is looked up
            heads = np.flatnonzero(np.insert(keys[1:] != keys[:-1], 0, True))
            names, inverse = np.unique(keys[heads], return_inverse=True)
            table = [self.columns.code(*name.decode("ascii").split(",", 1)) for name in names]
            codes = np.repeat(np.array(table, np.int32)[inverse], np.diff(heads, append=keys.size))
        if found:  # merged into line order
            read_lines, *read = self.read(found)
            at = np.searchsorted(lines, read_lines)
            codes, ts, prices, amounts = (np.insert(col, at, rows) for col, rows in zip((codes, ts, prices, amounts), read))
        self.columns.add(codes, ts, prices, amounts)
        self.line += n_lines
        return int(nexts[n_lines - 1]) - _KEY_MAX if n_lines else 0

    def jsonl_block(self, data: bytes, eof: bool) -> int:
        """Parse a block of JSONL lines, decoded one by one; all of it is used."""
        _, _, starts, ends, _ = _lines(np.frombuffer(data, np.uint8), eof)
        found = []
        for k, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
            try:
                text = data[lo:hi].decode("utf-8")
                if not text.strip():
                    continue
                row = _JSON.decode(text)
                if not isinstance(row, dict):
                    raise TypeError("not an object")
                fields = [row[key] for key in CSV_HEADER[:2]] + [_json_text(row[key]) for key in CSV_HEADER[2:]]
            except UnicodeDecodeError as exc:
                fields = f"undecodable line: {exc}"
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                fields = f"bad JSONL row: {exc}"
            found.append((k, fields))
        if found:
            self.columns.add(*self.read(found)[1:])
        self.line += starts.size
        return len(data) - 2 * _KEY_MAX


def _parse_source(source, fmt: str, strict: bool) -> _Parser:
    """Parse one source into its own parser's columns and report."""
    parser = _Parser(strict)
    chunks = _chunks(source)
    try:
        _feed(chunks, parser.csv_block if fmt == "csv" else parser.jsonl_block)
    except (ParseError, OSError) as exc:
        if not isinstance(source, (str, Path)):
            raise
        raise ParseError(f"{source}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
    finally:
        chunks.close()
    return parser


def _usable_cores() -> int:
    """The cores this process may run on; macOS has no ``sched_getaffinity``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Most threads a parse or a battery runs on; more would only take turns at the interpreter lock.
_WORKERS = _usable_cores()


def _side_by_side(run, n: int) -> Iterator:
    """``run(i)`` for each ``i`` below ``n``, on up to ``_WORKERS`` threads that
    have all ended on return: the results in index order, where the first
    call that raised raises its error. An interrupt starts no queued call."""
    # imported here: concurrent.futures imports logging, which a bare import of the CLI does not need
    from concurrent.futures import ThreadPoolExecutor, wait

    prefix = f"washdetect-{threading.get_ident()}"  # unique among the calls running now
    pool = ThreadPoolExecutor(max(1, min(n, _WORKERS)), prefix)
    try:
        futures = [pool.submit(run, i) for i in range(n)]
        wait(futures)  # not in Thread.join, where an interrupt marks a running thread stopped
    finally:
        pool.shutdown(cancel_futures=True)
        # an interrupt inside submit leaves the thread it started out of the pool's own list
        for thread in threading.enumerate():
            if thread.name.startswith(f"{prefix}_") and thread.is_alive():
                thread.join()
    return (future.result() for future in futures)


def _parse_sources(sources: list, fmt: str, strict: bool) -> Iterator[_Parser]:
    """Each source's parser, parsed side by side, a failed parse raising its
    error in list order. A stream listed more than once is read at its first
    listing; each later one finds it at its end, and gets a parser with no rows.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")

    def parse(i: int) -> _Parser:
        one = sources[i]
        if not isinstance(one, (str, Path, bytes, bytearray)) and any(one is s for s in sources[:i]):
            return _Parser(strict)
        return _parse_source(one, fmt, strict)

    return _side_by_side(parse, len(sources))


def parse_trades(
    source,
    fmt: str = "csv",
    *,
    strict: bool = False,
    dedupe: bool = False,
) -> tuple[TradeDataset, ParseReport]:
    """Parse CSV or JSONL trades into one dataset plus a parse report.

    ``source`` is a path, a bytes object, or a binary or text stream, or a
    list of them, all in ``fmt``: the sources of a list are read side by
    side, on up to one thread per usable core, and make one input. Their
    rows are grouped together, so a group that several sources hold is one
    group, and a tie of timestamps keeps the order of the sources and of
    their lines. ``strict`` aborts on the first malformed row with a
    ParseError, which names the file when its source is a path; with several
    sources, the error is that of the first failing source in the list.
    Otherwise bad rows are logged with their line number in their own source
    and skipped, the sources' logs in list order. ``dedupe`` drops exact
    duplicate rows across every source, keeping the first (duplicates are
    legitimate in clean feeds, so this is off by default).
    """
    report = ParseReport()
    columns = _Columns()
    for parser in _parse_sources(source if isinstance(source, list) else [source], fmt, strict):
        columns.absorb(parser.columns)
        report.n_rejected += parser.report.n_rejected
        report.rejected += parser.report.rejected
    return columns.dataset(report, dedupe), report


def parse_each(
    sources: list, fmt: str = "csv", *, strict: bool = False, dedupe: bool = False
) -> Iterator[tuple[TradeDataset, ParseReport]]:
    """Each source's own dataset and parse report, in list order.

    The sources are parsed side by side, as by ``parse_trades``, before this
    returns; each dataset is built when the iterator reaches it. A source
    whose parse failed raises its error there, after the sources before it.
    """
    parsers = _parse_sources(sources, fmt, strict)
    return ((parser.columns.dataset(parser.report, dedupe), parser.report) for parser in parsers)


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
        # timestamps are sorted, so each week is one run of equal week indices
        starts = np.flatnonzero(np.diff(weeks, prepend=weeks[0] - 1))
        round_amounts = np.where(round_mask, g.amounts, 0)
        unrounded_amounts = np.where(round_mask, 0, g.amounts)
        round_sums = exact_sum(round_amounts, starts)
        unrounded_sums = exact_sum(unrounded_amounts, starts)
        for w, r, u in zip(weeks[starts], round_sums, unrounded_sums):
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

