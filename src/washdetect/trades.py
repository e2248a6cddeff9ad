"""Exact trade amounts, base units, digits, roundness and exchange metadata.

A trade amount is a decimal string with at most 8 fractional digits. It is
stored as an integer count of 1e-8 native-currency sub-units so that every
roundness and digit computation is exact integer arithmetic; a float would
misclassify roundness, which is the core signal everything else builds on.

Each currency pair has a base unit: the power of ten of the native currency
whose market value sits near one US dollar. All clustering and roundness
logic measures trade sizes in base units. A trade is "round" when its
size is an exact integer multiple of 100 base units.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AmountError, ConfigError, PairConfigError

AMOUNT_DECIMALS = 8
SUBUNITS_PER_UNIT = 10**AMOUNT_DECIMALS

# Largest representable amount in sub-units (fits comfortably in int64).
MAX_AMOUNT_SUBUNITS = 2**62

# ASCII digits and whitespace only: `\d` and `int()` would also take digits
# such as the Arabic-Indic '٥'.
_AMOUNT_RE = re.compile(r"^\s*([0-9]+)(?:\.([0-9]*))?\s*$", re.ASCII)


def parse_amount(text: str) -> int:
    """Parse a decimal amount string into an exact sub-unit count.

    Rejects (rather than truncates) anything with more than 8 fractional
    digits: silent truncation would manufacture roundness.
    """
    m = _AMOUNT_RE.match(text)
    if m is None:
        raise AmountError(f"malformed amount {text!r}")
    int_part, frac_part = m.group(1).lstrip("0"), m.group(2) or ""
    if len(frac_part) > AMOUNT_DECIMALS:
        raise AmountError(f"precision overflow: {text!r} has more than {AMOUNT_DECIMALS} decimals")
    if len(int_part) > 19:  # past MAX_AMOUNT_SUBUNITS; int() is kept off huge digit strings
        raise AmountError(f"amount overflow {text!r}")
    subunits = int(int_part or "0") * SUBUNITS_PER_UNIT + int(frac_part.ljust(AMOUNT_DECIMALS, "0") or "0")
    if subunits <= 0:
        raise AmountError(f"non-positive amount {text!r}")
    if subunits >= MAX_AMOUNT_SUBUNITS:
        raise AmountError(f"amount overflow {text!r}")
    return subunits


def first_significant_digits(subunits: np.ndarray) -> np.ndarray:
    """Leading non-zero decimal digit (1..9) of each positive int64 amount.

    Invariant under multiplication by powers of ten, so the sub-unit integer
    carries the same leading digit as the native-unit decimal.
    """
    x = np.asarray(subunits, dtype=np.int64)
    if x.size and x.min() <= 0:
        raise AmountError("first significant digit undefined for non-positive amount")
    e = np.floor(np.log10(x.astype(np.float64))).astype(np.int64)
    # float log10 can misround next to powers of ten; fix with exact integer division
    lead = x // 10**e
    too_low = lead == 0
    if too_low.any():
        e[too_low] -= 1
        lead[too_low] = x[too_low] // 10 ** e[too_low]
    too_high = lead >= 10
    if too_high.any():
        e[too_high] += 1
        lead[too_high] = x[too_high] // 10 ** e[too_high]
    return lead.astype(np.int64)


# ---------------------------------------------------------------------------
# Pair configuration


BASE_UNIT_EXPONENT_MIN = -AMOUNT_DECIMALS
BASE_UNIT_EXPONENT_MAX = 4


@dataclass(frozen=True)
class PairSpec:
    """Base-unit convention for one currency pair.

    ``base_unit_exponent`` is the integer e with one base unit = 10**e native
    units. It must stay within [-8, 4] so base units remain representable on
    the 1e-8 fixed-point grid.
    """

    pair: str
    base_unit_exponent: int

    def __post_init__(self) -> None:
        e = self.base_unit_exponent
        if not BASE_UNIT_EXPONENT_MIN <= e <= BASE_UNIT_EXPONENT_MAX:
            raise PairConfigError(
                f"base unit exponent {e} for {self.pair} outside "
                f"[{BASE_UNIT_EXPONENT_MIN}, {BASE_UNIT_EXPONENT_MAX}]"
            )

    @property
    def subunits_per_base_unit(self) -> int:
        return 10 ** (AMOUNT_DECIMALS + self.base_unit_exponent)

    @property
    def round_modulus(self) -> int:
        """Sub-unit divisor that defines a round trade (100 base units)."""
        return 100 * self.subunits_per_base_unit


BUILTIN_PAIR_SPECS: dict[str, PairSpec] = {
    "BTC/USD": PairSpec("BTC/USD", -4),
    "ETH/USD": PairSpec("ETH/USD", -3),
    "LTC/USD": PairSpec("LTC/USD", -2),
    "XRP/USD": PairSpec("XRP/USD", 0),
}


class PairRegistry:
    """Lookup table pair -> PairSpec, seeded with the four built-in pairs."""

    def __init__(self, specs: dict[str, PairSpec] | None = None):
        self._specs: dict[str, PairSpec] = dict(BUILTIN_PAIR_SPECS)
        if specs:
            self._specs.update(specs)

    def get(self, pair: str) -> PairSpec:
        try:
            return self._specs[pair]
        except KeyError:
            raise PairConfigError(f"no base-unit configuration for pair {pair!r}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "PairRegistry":
        """Load overrides from a JSON file mapping pair -> exponent."""
        specs = {}
        for pair, exponent in read_json_object(path).items():
            if not isinstance(exponent, int) or isinstance(exponent, bool):
                raise ConfigError(f"{path}: exponent for {pair!r} must be an integer")
            specs[pair] = PairSpec(pair, exponent)
        return cls(specs)


def read_json_object(path: str | Path) -> dict:
    """The JSON object a side file holds, or ConfigError naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return raw


# ---------------------------------------------------------------------------
# Roundness


def is_round_mask(subunits: np.ndarray, spec: PairSpec) -> np.ndarray:
    """True where an int64 amount is an exact integer multiple of 100 base units."""
    x = np.asarray(subunits, dtype=np.int64)
    return x % spec.round_modulus == 0


def trailing_zero_counts(subunits: np.ndarray) -> np.ndarray:
    """Count of trailing decimal zeros of each positive int64 amount.

    Strips 10**16, 10**8, 10**4, 10**2 and 10**1 where they divide: a
    positive int64 has at most 18 trailing zeros, fewer than their sum.
    """
    x = np.asarray(subunits, dtype=np.int64)
    if x.size and x.min() <= 0:
        raise AmountError("trailing zeros undefined for non-positive amount")
    zeros = np.zeros(x.shape, dtype=np.int64)
    for step in (16, 8, 4, 2, 1):
        divides = x % 10**step == 0
        x = np.where(divides, x // 10**step, x)
        zeros += step * divides
    return zeros


def roundness_level_indices(subunits: np.ndarray, spec: PairSpec) -> np.ndarray:
    """Roundness bucket 0..7 of each positive int64 amount.

    A size's place is the power of ten, in base units, of its last non-zero
    digit. Bucket ``place + 3`` holds it, with the extreme places pooled into
    the two boundary buckets, so the eight buckets run from least to most
    round: 0 thousandths or less, 1 hundredths, 2 tenths, 3 ones, 4 tens,
    5 hundreds, 6 thousands, 7 ten-thousands or more.
    """
    place = trailing_zero_counts(subunits) - (AMOUNT_DECIMALS + spec.base_unit_exponent)
    return np.clip(place, -3, 4) + 3


# ---------------------------------------------------------------------------
# Exchange metadata


class RegulatoryClass(enum.Enum):
    REGULATED = "regulated"
    UNREGULATED_TIER1 = "unregulated_tier1"
    UNREGULATED_TIER2 = "unregulated_tier2"


_REG_CLASS_ALIASES = {
    "regulated": RegulatoryClass.REGULATED,
    "tier1": RegulatoryClass.UNREGULATED_TIER1,
    "unregulated_tier1": RegulatoryClass.UNREGULATED_TIER1,
    "unregulated-tier1": RegulatoryClass.UNREGULATED_TIER1,
    "tier2": RegulatoryClass.UNREGULATED_TIER2,
    "unregulated_tier2": RegulatoryClass.UNREGULATED_TIER2,
    "unregulated-tier2": RegulatoryClass.UNREGULATED_TIER2,
}

CONTROL_FIELDS = ("age_years", "rank", "traffic_pct", "unique_visitors")
_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ExchangeMeta:
    """Regulatory class plus optional benchmark-regression covariates."""

    exchange_id: str
    regulatory_class: RegulatoryClass
    name: str = ""
    age_years: float | None = None
    rank: float | None = None
    traffic_pct: float | None = None
    unique_visitors: float | None = None

    @property
    def is_regulated(self) -> bool:
        return self.regulatory_class is RegulatoryClass.REGULATED

    def has_all_controls(self) -> bool:
        return all(getattr(self, f) is not None for f in CONTROL_FIELDS)


def parse_regulatory_class(text: str) -> RegulatoryClass:
    try:
        return _REG_CLASS_ALIASES[text.strip().lower()]
    except KeyError:
        raise PairConfigError(f"unknown regulatory class {text!r}") from None


def load_exchange_meta(path: str | Path) -> dict[str, ExchangeMeta]:
    """Load exchange metadata from a JSON file keyed by exchange id."""
    meta = {}
    for exchange_id, fields in read_json_object(path).items():
        if not isinstance(fields, dict) or not isinstance(fields.get("regulatory_class"), str):
            raise ConfigError(f"{path}: exchange {exchange_id!r} needs a 'regulatory_class' string")
        controls = {f: fields.get(f) for f in CONTROL_FIELDS}
        for f, v in controls.items():
            # a bool is an int, and a NaN, an infinity or an int past the float range fails the bound
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= _FLOAT_MAX):
                raise ConfigError(f"{path}: exchange {exchange_id!r}: {f} must be a finite number or null, got {v!r}")
        meta[exchange_id] = ExchangeMeta(
            exchange_id=exchange_id,
            regulatory_class=parse_regulatory_class(fields["regulatory_class"]),
            name=fields.get("name", ""),
            **controls,
        )
    return meta


def exact_sum(subunits: np.ndarray, starts: np.ndarray | None = None) -> int | list[int]:
    """Exact Python-int sum of an int64 array (no silent int64 overflow).

    With ``starts`` (increasing segment start offsets) it returns the list
    of per-segment sums instead. Splits each value into high and low 32-bit
    halves so each partial sum stays far from the int64 boundary.
    """
    x = np.asarray(subunits, dtype=np.int64)
    if starts is None:
        # the whole array is one segment starting at 0
        return exact_sum(x, [0])[0] if x.size else 0
    hi = np.add.reduceat(x >> 32, starts)
    lo = np.add.reduceat(x & 0xFFFFFFFF, starts)
    return [(int(h) << 32) + int(l) for h, l in zip(hi, lo)]
