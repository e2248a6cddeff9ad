"""Fixed-point amounts, digits, base units, and roundness."""

import io
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from washdetect.errors import AmountError, ConfigError, PairConfigError
from washdetect.ingest import TradeDataset, TradeGroup, parse_trades
from washdetect.synth import GeneratorConfig, LabeledTape, write_tape
from washdetect.trades import (
    AMOUNT_DECIMALS,
    BASE_UNIT_EXPONENT_MAX,
    BASE_UNIT_EXPONENT_MIN,
    BUILTIN_PAIR_SPECS,
    MAX_AMOUNT_SUBUNITS,
    PairRegistry,
    PairSpec,
    exact_sum,
    is_round_mask,
)
from washdetect.washest import roundness_distribution

BTC = BUILTIN_PAIR_SPECS["BTC/USD"]
XRP = BUILTIN_PAIR_SPECS["XRP/USD"]

amount_subunits = st.integers(min_value=1, max_value=2**62 - 1)


def written_tape(subunits):
    """The CSV text ``write_tape`` writes for a tape with these amounts."""
    n = len(subunits)
    ds = TradeDataset()
    ds.groups[("X1", "BTC/USD")] = TradeGroup(
        "X1", "BTC/USD", np.arange(n, dtype=np.int64), np.array(subunits, np.int64), np.ones(n)
    )
    buf = io.StringIO()
    write_tape(LabeledTape(ds, np.zeros(n, bool), 0.0, n, 0, GeneratorConfig(exchange_id="X1")), buf)
    return buf.getvalue()


def subunits_of(text):
    """The sub-units a decimal amount text spells out."""
    return int(Decimal(text).scaleb(AMOUNT_DECIMALS))


def parsed_amount(text):
    """The sub-units ``parse_trades`` reads from a row with this amount
    field, or the reason it rejects the row for."""
    ds, report = parse_trades(f"exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,1,1.0,{text}\n".encode())
    return report.rejected[0][1] if report.rejected else int(ds.group("X", "BTC/USD").amounts[0])


def written_amounts(subunits):
    """The amount column ``write_tape`` writes for these sub-unit counts."""
    return [line.rsplit(",", 1)[1] for line in written_tape(subunits).splitlines()[1:]]


def canonical_amount(subunits):
    """String oracle: integer part, then the fraction without trailing zeros."""
    units, rem = divmod(subunits, 10**8)
    frac = str(rem).rjust(8, "0").rstrip("0")
    return f"{units}.{frac}" if frac else str(units)


def lead_digit(subunits):
    """String oracle for the first significant digit."""
    return int(str(subunits)[0])


def string_place(subunits, spec):
    """String oracle for the roundness place: the trailing zeros of the
    decimal digits as a power of ten of base units, clipped to [-3, 4]."""
    s = str(subunits)
    place = len(s) - len(s.rstrip("0")) - (8 + spec.base_unit_exponent)
    return max(-3, min(4, place))


# The vectorized references the tests check the battery's digit and
# roundness kernels against; nothing in the package needs them.


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


class TestAmountParsing:
    def test_parse_basic(self):
        assert parsed_amount("0.0200") == 2_000_000
        assert parsed_amount("1") == 10**8
        assert parsed_amount("123.45678901") == 12345678901

    def test_parse_rejects_too_many_decimals(self):
        assert parsed_amount("0.123456789") == "precision overflow: '0.123456789' has more than 8 decimals"

    @pytest.mark.parametrize("bad", ["", "abc", "-1", "0", "0.0", "1e5", "1.2.3", ".", "\u0665", "5\u00a0", "\u0665.5"])
    def test_parse_rejects_malformed(self, bad):
        reason = "non-positive amount" if bad in ("0", "0.0") else "malformed amount"
        assert parsed_amount(bad) == f"{reason} {bad!r}"

    def test_huge_integer_part_is_an_overflow(self):
        # 11 integer digits are the most, and below 2**62 sub-units
        for huge in ("1" * 12, "99999999999", "46116860184.27387904"):
            assert parsed_amount(huge) == f"amount overflow {huge!r}"
        assert parsed_amount("46116860184.27387903") == MAX_AMOUNT_SUBUNITS - 1

    def test_format_canonical(self):
        assert written_amounts([2_000_000, 10**8, 12345678901]) == ["0.02", "1", "123.45678901"]

    @given(st.lists(st.integers(min_value=1, max_value=MAX_AMOUNT_SUBUNITS), min_size=1, max_size=50))
    @example([1, 10**8, 10**8 + 1, 10**18, MAX_AMOUNT_SUBUNITS - 1, MAX_AMOUNT_SUBUNITS])
    def test_writer_matches_string_oracle(self, values):
        assert written_amounts(values) == [canonical_amount(v) for v in values]

    @given(st.lists(amount_subunits, min_size=1, max_size=50))
    def test_round_trip_is_exact(self, values):
        ds, report = parse_trades(io.StringIO(written_tape(values)))
        assert report.n_rejected == 0
        assert ds.group("X1", "BTC/USD").amounts.tolist() == values

    @given(amount_subunits, st.integers(min_value=0, max_value=8))
    def test_trailing_zero_input_parses_to_same_value(self, subunits, pad):
        [text] = written_amounts([subunits])
        if "." in text:
            frac = text.split(".", 1)[1]
            padded = text + "0" * min(pad, 8 - len(frac))
        else:
            padded = text + "." + "0" * pad if pad else text
        assert parsed_amount(padded) == subunits


class TestFirstSignificantDigit:
    @pytest.mark.parametrize(
        "text,digit",
        [("0.00234", 2), ("123.4", 1), ("0.1", 1), ("9.99999999", 9), ("0.00000001", 1)],
    )
    def test_examples(self, text, digit):
        assert first_significant_digits(np.array([subunits_of(text)])).tolist() == [digit]

    def test_rejects_nonpositive(self):
        with pytest.raises(AmountError):
            first_significant_digits(np.array([5, 0]))

    @given(amount_subunits, st.integers(min_value=-8, max_value=8))
    def test_scale_invariance(self, subunits, k):
        scaled = subunits * 10**k if k >= 0 else subunits // 10 ** (-k)
        if scaled <= 0 or scaled >= 2**62:
            return
        if k < 0 and scaled * 10 ** (-k) != subunits:
            return  # not an exact power-of-ten rescaling
        digits = first_significant_digits(np.array([scaled, subunits], dtype=np.int64))
        assert digits[0] == digits[1] == lead_digit(subunits)

    @given(st.lists(amount_subunits, min_size=1, max_size=200))
    def test_vectorized_matches_scalar(self, values):
        arr = np.array(values, dtype=np.int64)
        assert first_significant_digits(arr).tolist() == [lead_digit(v) for v in values]

    def test_vectorized_exact_at_power_of_ten_boundaries(self):
        # values where float log10 is most likely to misround
        vals = [10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)]
        arr = np.array(vals, dtype=np.int64)
        assert first_significant_digits(arr).tolist() == [lead_digit(v) for v in vals]


class TestBaseUnits:
    def test_builtin_exponents(self):
        assert BTC.base_unit_exponent == -4
        assert BUILTIN_PAIR_SPECS["ETH/USD"].base_unit_exponent == -3
        assert BUILTIN_PAIR_SPECS["LTC/USD"].base_unit_exponent == -2
        assert XRP.base_unit_exponent == 0

    def test_exponent_range_enforced(self):
        with pytest.raises(PairConfigError):
            PairSpec("X/USD", -9)
        with pytest.raises(PairConfigError):
            PairSpec("X/USD", 5)


class TestIsRound:
    @pytest.mark.parametrize(
        "text,expected",
        [("0.0200", True), ("0.0213", False), ("0.020001", False), ("0.05", True), ("0.01", True)],
    )
    def test_btc_examples(self, text, expected):
        assert is_round_mask(np.array([subunits_of(text)]), BTC).tolist() == [expected]

    def test_xrp_examples(self):
        amounts = np.array([subunits_of(text) for text in ("100", "101", "100.5")])
        assert is_round_mask(amounts, XRP).tolist() == [True, False, False]

    @given(st.lists(amount_subunits, min_size=1, max_size=100))
    def test_mask_matches_scalar(self, values):
        arr = np.array(values, dtype=np.int64)
        # 100 BTC base units are 10**6 sub-units: six trailing decimal zeros
        assert is_round_mask(arr, BTC).tolist() == [str(v).endswith("0" * 6) for v in values]


class TestRoundnessLevel:
    @pytest.mark.parametrize(
        "text,place",
        [
            ("0.02", 2),  # 200 base units: hundreds
            ("0.0213", 0),  # 213 base units: ones
            ("0.02013700", -2),  # 201.37 base units: hundredths
            ("1", 4),  # 10000 base units: ten-thousands or more
            ("0.1", 3),  # thousands
            ("0.00000001", -3),  # 1e-4 base units: thousandths or less
        ],
    )
    def test_btc_examples(self, text, place):
        assert roundness_level_indices(np.array([subunits_of(text)]), BTC).tolist() == [place + 3]

    def test_eight_ordered_buckets(self):
        # one amount per place from 1e-8 to 1e8 XRP base units
        idx = roundness_level_indices(np.array([10**k for k in range(17)], dtype=np.int64), XRP)
        assert idx.tolist() == [0] * 6 + list(range(1, 7)) + [7] * 5

    @given(amount_subunits)
    def test_round_implies_high_roundness(self, subunits):
        arr = np.array([subunits], dtype=np.int64)
        if is_round_mask(arr, BTC)[0]:
            assert roundness_level_indices(arr, BTC)[0] >= 2 + 3  # hundreds or rounder

    @given(st.lists(amount_subunits, min_size=1, max_size=100))
    def test_partition(self, values):
        arr = np.array(values, dtype=np.int64)
        idx = roundness_level_indices(arr, BTC)
        assert np.bincount(idx, minlength=8).sum() == len(values)
        assert idx.tolist() == [string_place(v, BTC) + 3 for v in values]

    def test_trailing_zeros(self):
        assert trailing_zero_counts(np.array([2_000_000, 2_130_000, 7])).tolist() == [6, 4, 0]

    def test_trailing_zeros_at_powers_of_ten_and_int64_max(self):
        values = [10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)] + [2**63 - 1]
        counts = trailing_zero_counts(np.array(values, dtype=np.int64))
        assert counts.tolist() == [len(str(v)) - len(str(v).rstrip("0")) for v in values]

    @given(st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=50))
    def test_trailing_zeros_match_string_count(self, values):
        counts = trailing_zero_counts(np.array(values, dtype=np.int64))
        assert counts.tolist() == [len(str(v)) - len(str(v).rstrip("0")) for v in values]

    @given(
        st.lists(
            st.one_of(amount_subunits, st.builds(lambda m, k: m * 10**k, st.integers(1, 999), st.integers(0, 15))),
            min_size=1,
            max_size=100,
        ),
        st.integers(BASE_UNIT_EXPONENT_MIN, BASE_UNIT_EXPONENT_MAX),
    )
    def test_distribution_matches_the_bucket_counts(self, values, exponent):
        spec = PairSpec("P", exponent)
        arr = np.array(values, dtype=np.int64)
        counts = roundness_distribution(arr, spec)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(roundness_level_indices(arr, spec), minlength=8).tolist()

    @pytest.mark.parametrize("values", [[0, 100], [100, -10], [-(2**63)]])
    def test_non_positive_amount_raises(self, values):
        with pytest.raises(AmountError, match="non-positive"):
            trailing_zero_counts(np.array(values, dtype=np.int64))
        with pytest.raises(AmountError, match="non-positive"):
            roundness_distribution(np.array(values, dtype=np.int64), BTC)


class TestPairRegistry:
    def test_builtin_lookup(self):
        reg = PairRegistry()
        assert reg.get("BTC/USD").base_unit_exponent == -4
        assert reg.get("ETH/USD").base_unit_exponent == -3

    def test_unknown_pair_raises(self):
        with pytest.raises(PairConfigError, match="DOGE/USD"):
            PairRegistry().get("DOGE/USD")

    def test_from_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('{"DOGE/USD": 1, "BTC/USD": -3}')
        reg = PairRegistry.from_file(path)
        assert reg.get("DOGE/USD").base_unit_exponent == 1
        assert reg.get("BTC/USD").base_unit_exponent == -3  # override wins
        assert reg.get("ETH/USD").base_unit_exponent == -3  # builtin kept

    @pytest.mark.parametrize("value", ["true", "false", "1.0", '"2"'])
    def test_from_file_rejects_a_non_integer_exponent(self, tmp_path, value):
        # a JSON boolean is a Python int, but not an exponent
        path = tmp_path / "pairs.json"
        path.write_text(f'{{"DOGE/USD": {value}}}')
        with pytest.raises(ConfigError, match="exponent for 'DOGE/USD' must be an integer"):
            PairRegistry.from_file(path)


class TestExactSum:
    @given(st.lists(st.integers(min_value=0, max_value=2**62 - 1), max_size=50))
    def test_matches_python_sum(self, values):
        arr = np.array(values, dtype=np.int64)
        assert exact_sum(arr) == sum(values)

    def test_beyond_int64_total(self):
        arr = np.full(8, 2**61, dtype=np.int64)
        assert exact_sum(arr) == 8 * 2**61  # would overflow a plain int64 sum
