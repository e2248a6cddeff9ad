"""Fixed-point amounts, digits, base units, and roundness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from washdetect.errors import AmountError, PairConfigError
from washdetect.trades import (
    BUILTIN_PAIR_SPECS,
    PairRegistry,
    PairSpec,
    RoundnessLevel,
    Trade,
    decimal_trailing_zeros,
    exact_sum,
    first_significant_digit,
    first_significant_digits,
    format_amount,
    infer_base_unit_exponent,
    is_round,
    is_round_mask,
    parse_amount,
    roundness_level,
    roundness_level_indices,
    to_base_units,
)

BTC = BUILTIN_PAIR_SPECS["BTC/USD"]
XRP = BUILTIN_PAIR_SPECS["XRP/USD"]

amount_subunits = st.integers(min_value=1, max_value=2**62 - 1)


class TestAmountParsing:
    def test_parse_basic(self):
        assert parse_amount("0.0200") == 2_000_000
        assert parse_amount("1") == 10**8
        assert parse_amount("123.45678901") == 12345678901

    def test_parse_rejects_too_many_decimals(self):
        with pytest.raises(AmountError, match="precision overflow"):
            parse_amount("0.123456789")

    @pytest.mark.parametrize("bad", ["", "abc", "-1", "0", "0.0", "1e5", "1.2.3", ".", "\u0665", "5\u00a0", "\u0665.5"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AmountError):
            parse_amount(bad)

    def test_huge_integer_part_is_an_overflow(self):
        with pytest.raises(AmountError, match="amount overflow"):
            parse_amount("1" * 5000)
        assert parse_amount("0" * 5000 + "1") == 10**8

    def test_format_canonical(self):
        assert format_amount(2_000_000) == "0.02"
        assert format_amount(10**8) == "1"
        assert format_amount(12345678901) == "123.45678901"

    @given(amount_subunits)
    def test_round_trip_is_exact(self, subunits):
        assert parse_amount(format_amount(subunits)) == subunits

    @given(amount_subunits, st.integers(min_value=0, max_value=8))
    def test_trailing_zero_input_parses_to_same_value(self, subunits, pad):
        text = format_amount(subunits)
        if "." in text:
            frac = text.split(".", 1)[1]
            padded = text + "0" * min(pad, 8 - len(frac))
        else:
            padded = text + "." + "0" * pad if pad else text
        assert parse_amount(padded) == subunits


class TestFirstSignificantDigit:
    @pytest.mark.parametrize(
        "text,digit",
        [("0.00234", 2), ("123.4", 1), ("0.1", 1), ("9.99999999", 9), ("0.00000001", 1)],
    )
    def test_examples(self, text, digit):
        assert first_significant_digit(parse_amount(text)) == digit

    def test_rejects_nonpositive(self):
        with pytest.raises(AmountError):
            first_significant_digit(0)

    @given(amount_subunits, st.integers(min_value=-8, max_value=8))
    def test_scale_invariance(self, subunits, k):
        scaled = subunits * 10**k if k >= 0 else subunits // 10 ** (-k)
        if scaled <= 0 or scaled >= 2**62:
            return
        if k < 0 and scaled * 10 ** (-k) != subunits:
            return  # not an exact power-of-ten rescaling
        assert first_significant_digit(scaled) == first_significant_digit(subunits)

    @given(st.lists(amount_subunits, min_size=1, max_size=200))
    def test_vectorized_matches_scalar(self, values):
        arr = np.array(values, dtype=np.int64)
        expected = [first_significant_digit(v) for v in values]
        assert first_significant_digits(arr).tolist() == expected

    def test_vectorized_exact_at_power_of_ten_boundaries(self):
        # values where float log10 is most likely to misround
        vals = [10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)]
        arr = np.array(vals, dtype=np.int64)
        expected = [int(str(v)[0]) for v in vals]
        assert first_significant_digits(arr).tolist() == expected


class TestBaseUnits:
    def test_builtin_exponents(self):
        assert BTC.base_unit_exponent == -4
        assert BUILTIN_PAIR_SPECS["ETH/USD"].base_unit_exponent == -3
        assert BUILTIN_PAIR_SPECS["LTC/USD"].base_unit_exponent == -2
        assert XRP.base_unit_exponent == 0

    def test_to_base_units_examples(self):
        assert to_base_units(parse_amount("0.02"), BTC) == 200
        assert to_base_units(parse_amount("1"), XRP) == 1
        assert to_base_units(parse_amount("0.02013"), BTC) == Fraction(2013, 10)

    @given(amount_subunits)
    def test_to_base_units_exact_inverse(self, subunits):
        ratio = to_base_units(subunits, BTC)
        assert ratio * BTC.subunits_per_base_unit == subunits

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
        assert is_round(parse_amount(text), BTC) is expected

    def test_xrp_examples(self):
        assert is_round(parse_amount("100"), XRP)
        assert not is_round(parse_amount("101"), XRP)
        assert not is_round(parse_amount("100.5"), XRP)

    @given(st.lists(amount_subunits, min_size=1, max_size=100))
    def test_mask_matches_scalar(self, values):
        arr = np.array(values, dtype=np.int64)
        assert is_round_mask(arr, BTC).tolist() == [is_round(v, BTC) for v in values]


class TestRoundnessLevel:
    @pytest.mark.parametrize(
        "text,level",
        [
            ("0.02", RoundnessLevel.HUNDREDS),  # 200 base units
            ("0.0213", RoundnessLevel.ONES),  # 213 base units
            ("0.02013700", RoundnessLevel.HUNDREDTHS),  # 201.37 base units
            ("1", RoundnessLevel.TEN_THOUSANDS_OR_MORE),  # 10000 base units
            ("0.1", RoundnessLevel.THOUSANDS),
            ("0.00000001", RoundnessLevel.THOUSANDTHS_OR_LESS),  # 1e-4 base units
        ],
    )
    def test_btc_examples(self, text, level):
        assert roundness_level(parse_amount(text), BTC) is level

    def test_eight_ordered_buckets(self):
        assert len(RoundnessLevel) == 8
        values = [int(l) for l in sorted(RoundnessLevel, key=int)]
        assert values == list(range(-3, 5))

    @given(amount_subunits)
    def test_round_implies_high_roundness(self, subunits):
        if is_round(subunits, BTC):
            assert roundness_level(subunits, BTC) >= RoundnessLevel.HUNDREDS

    @given(st.lists(amount_subunits, min_size=1, max_size=100))
    def test_partition(self, values):
        arr = np.array(values, dtype=np.int64)
        idx = roundness_level_indices(arr, BTC)
        assert np.bincount(idx, minlength=8).sum() == len(values)
        scalar = [int(roundness_level(v, BTC)) + 3 for v in values]
        assert idx.tolist() == scalar

    def test_trailing_zeros(self):
        assert decimal_trailing_zeros(2_000_000) == 6
        assert decimal_trailing_zeros(2_130_000) == 4
        assert decimal_trailing_zeros(7) == 0


class TestPairRegistry:
    def test_builtin_lookup(self):
        reg = PairRegistry()
        assert reg.get("BTC/USD").base_unit_exponent == -4
        assert "ETH/USD" in reg

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

    def test_infer_exponent_from_reference_price(self):
        assert infer_base_unit_exponent(9000.0) == -4  # BTC-like
        assert infer_base_unit_exponent(60.0) == -2  # LTC-like
        assert infer_base_unit_exponent(0.30) == 0  # XRP-like
        assert infer_base_unit_exponent(1.0) == 0

    def test_infer_exponent_tie_breaks_small(self):
        # at price 20/11, e=0 gives |20/11 - 1| and e=-1 gives |2/11 - 1|: equal
        assert infer_base_unit_exponent(20 / 11) == -1


class TestTrade:
    def test_constructs_and_exposes_amount(self):
        t = Trade("R2", "BTC/USD", 1562630400000, 8000.5, parse_amount("0.0200"))
        assert t.amount == Fraction(1, 50)
        assert t.amount_str == "0.02"

    def test_rejects_bad_fields(self):
        with pytest.raises(AmountError):
            Trade("R2", "BTC/USD", 0, 8000.5, 0)
        with pytest.raises(AmountError):
            Trade("R2", "BTC/USD", 0, -1.0, 100)


class TestExactSum:
    @given(st.lists(st.integers(min_value=0, max_value=2**62 - 1), max_size=50))
    def test_matches_python_sum(self, values):
        arr = np.array(values, dtype=np.int64)
        assert exact_sum(arr) == sum(values)

    def test_beyond_int64_total(self):
        arr = np.full(8, 2**61, dtype=np.int64)
        assert exact_sum(arr) == 8 * 2**61  # would overflow a plain int64 sum
