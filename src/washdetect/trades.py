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
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, PairConfigError

AMOUNT_DECIMALS = 8
SUBUNITS_PER_UNIT = 10**AMOUNT_DECIMALS

# Amounts are below this many sub-units (fits comfortably in int64).
MAX_AMOUNT_SUBUNITS = 2**62


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


def fields_json(result, *leave_out: str) -> dict | None:
    """A result dataclass as the JSON object of its fields, tuples as lists,
    less the fields named in ``leave_out``; None for None."""
    if result is None:
        return None
    return {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in asdict(result).items()
        if k not in leave_out
    }


@dataclass(frozen=True)
class SortedAmounts:
    """One group's amounts sorted once, with the sizes the detectors read off
    them. Every per-group detector takes it, and reads the pair's base unit
    off ``spec``.

    ``trade_order`` holds the amounts as given, uncopied, for the sums that
    run in trade order; ``values`` the same amounts ascending. ``floored``
    holds each amount's size in whole base units, ascending as ``values``
    is; ``sizes`` the integer sizes (amounts that are whole base units),
    each once, closed by a sentinel size above every other, and
    ``size_counts`` the trades at each.
    """

    spec: PairSpec
    trade_order: np.ndarray  # int64 sub-units, as given
    values: np.ndarray  # int64 sub-units, ascending
    floored: np.ndarray
    sizes: np.ndarray
    size_counts: np.ndarray

    @classmethod
    def of(cls, amounts_subunits: np.ndarray, spec: PairSpec) -> "SortedAmounts":
        given = np.asarray(amounts_subunits, dtype=np.int64)
        x = np.sort(given)
        unit = spec.subunits_per_base_unit
        q = x // unit
        # the integer sizes are ascending, so each run of one size is a count
        whole = np.append(q[q * unit == x], np.iinfo(np.int64).max)
        heads = np.flatnonzero(np.append(True, whole[1:] != whole[:-1]))
        return cls(spec, given, x, q, whole[heads], np.diff(heads, append=whole.size))

    def percentile(self, q: float) -> int:
        """The nearest-rank ``q``-th percentile amount of a non-empty group, in sub-units."""
        return int(self.values[max(1, math.ceil(q / 100.0 * self.values.size)) - 1])


# ---------------------------------------------------------------------------
# Roundness


def is_round_mask(subunits: np.ndarray, spec: PairSpec) -> np.ndarray:
    """True where an int64 amount is an exact integer multiple of 100 base units."""
    x = np.asarray(subunits, dtype=np.int64)
    return x % spec.round_modulus == 0


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
