"""Reference computations, made apart from washdetect.

Everything here reads the generated CSV text with the standard library and
does its arithmetic on strings and Python integers; numpy is used only for
the least-squares refit. Nothing imports washdetect, so a fault in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

# A trade is round when it is a whole multiple of 100 base units; a base
# unit is 10**e native units, stored in 1e-8 sub-units.
BASE_UNIT_EXPONENT = {"BTC/USD": -4, "ETH/USD": -3, "LTC/USD": -2, "XRP/USD": 0}
SUBUNITS = 10**8
MAX_SUBUNITS = 2**62
MS_PER_DAY = 86_400_000
BENFORD_P = [math.log10(1 + 1 / d) for d in range(1, 10)]

_AMOUNT = re.compile(r"\s*([0-9]+)(?:\.([0-9]*))?\s*")


def round_modulus(pair: str) -> int:
    return 100 * 10 ** (8 + BASE_UNIT_EXPONENT[pair])


def week_of(timestamp_ms: int) -> int:
    """Monday-based UTC week number; 1970-01-01 was a Thursday."""
    return (timestamp_ms // MS_PER_DAY + 3) // 7


def amount_subunits(text: str) -> int:
    """Exact sub-unit count of an ASCII decimal string; ValueError if invalid."""
    m = _AMOUNT.fullmatch(text)
    if m is None:
        raise ValueError("malformed")
    whole, frac = m.group(1), m.group(2) or ""
    if len(frac) > 8:
        raise ValueError("precision")
    value = int(whole) * SUBUNITS + int(frac.ljust(8, "0"))
    if not 0 < value < MAX_SUBUNITS:
        raise ValueError("range")
    return value


def first_digit(amount_text: str) -> int:
    """First significant digit, read off the amount string."""
    for ch in amount_text:
        if ch in "123456789":
            return int(ch)
    raise ValueError(f"no significant digit in {amount_text!r}")


def read_rows(path: Path) -> list[list[str]]:
    """Data records of a CSV tape (header dropped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def group_counts(paths) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for path in paths:
        for ex, pair, *_ in read_rows(path):
            counts[(ex, pair)] = counts.get((ex, pair), 0) + 1
    return counts


def digit_counts(paths) -> dict[tuple[str, str], list[int]]:
    counts: dict[tuple[str, str], list[int]] = {}
    for path in paths:
        for ex, pair, _ts, _price, amount in read_rows(path):
            counts.setdefault((ex, pair), [0] * 9)[first_digit(amount) - 1] += 1
    return counts


def benford_chi2(counts: list[int], effective_n: int | None) -> float:
    """Pearson statistic of digit frequencies against Benford, scaled to effective_n."""
    n = sum(counts)
    scale = n if effective_n is None else effective_n
    return scale * sum((c / n - p) ** 2 / p for c, p in zip(counts, BENFORD_P))


def weekly_sums(paths) -> dict[tuple[str, str, int], list[int]]:
    """Exact [round, unrounded] sub-unit sums per (exchange, pair, week)."""
    sums: dict[tuple[str, str, int], list[int]] = {}
    for path in paths:
        for ex, pair, ts, _price, amount in read_rows(path):
            value = amount_subunits(amount)
            cell = sums.setdefault((ex, pair, week_of(int(ts))), [0, 0])
            cell[0 if value % round_modulus(pair) == 0 else 1] += value
    return sums


def refit(sums, regulated: set[str], pair: str) -> tuple[float, float]:
    """Least-squares ln(unrounded) = a + b ln(round) over regulated exchange-weeks."""
    x, y = [], []
    for (ex, p, _week), (rnd, unr) in sorted(sums.items()):
        if p == pair and ex in regulated and rnd > 0 and unr > 0:
            x.append([1.0, math.log(rnd / SUBUNITS)])
            y.append(math.log(unr / SUBUNITS))
    beta, *_ = np.linalg.lstsq(np.array(x), np.array(y), rcond=None)
    return float(beta[0]), float(beta[1])


def wash_volume(sums, exchange: str, pair: str, coef: tuple[float, float]) -> float:
    """Weekly unrounded volume above the benchmark, floored at zero per week.

    A week without round volume has no prediction, so all of its unrounded
    volume counts.
    """
    a, b = coef
    total = 0.0
    for (ex, p, _week), (rnd, unr) in sorted(sums.items()):
        if ex != exchange or p != pair:
            continue
        if rnd == 0:
            total += unr / SUBUNITS
        else:
            total += max(0.0, unr / SUBUNITS - math.exp(a + b * math.log(rnd / SUBUNITS)))
    return total


def labelled_wash_share(path: Path) -> float:
    """Wash share of volume from a tape written with synth's label column."""
    wash = total = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            value = amount_subunits(row[4])
            total += value
            if row[5] == "wash":
                wash += value
    return wash / total


def parse_tape(path: Path) -> dict:
    """Accept, reject and dedupe a CSV tape the way the input format specifies.

    Returns counts, rejected line numbers, and per-group row counts and exact
    volume sums of the accepted rows, duplicates dropped.
    """
    accepted = deduplicated = 0
    rejected: list[int] = []
    seen: set[tuple] = set()
    groups: dict[tuple[str, str], list[int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ex, pair, ts, price, amount = row
                if not ex or not pair:
                    raise ValueError("missing id")
                key = (ex, pair, int(ts), float(price), amount_subunits(amount))
                if not key[3] > 0:
                    raise ValueError("price")
            except ValueError:
                rejected.append(line)
                continue
            if key in seen:
                deduplicated += 1
                continue
            seen.add(key)
            accepted += 1
            cell = groups.setdefault((ex, pair), [0, 0])
            cell[0] += 1
            cell[1] += key[4]
    return {
        "accepted": accepted,
        "deduplicated": deduplicated,
        "rejected": rejected,
        "groups": groups,
    }
