"""Decimal strings and divide-and-conquer radix conversion against naive loops."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subparticle import radix
from subparticle.radix import (
    DECIMAL_LEAF,
    DIVISION_CUTOFF,
    brief,
    divmod_2n_1n,
    is_decimal,
    join,
    parse_decimal,
    parse_rational,
    rational_to_decimal,
    split,
    to_decimal,
)

from oracles import divmod_decimal, horner_decimal

# Digit counts on both sides of the leaf size, of 640 (the least settable
# int_max_str_digits), of 4300 (CPython's default limit) and far beyond.
DIGIT_COUNTS = (
    1, 2, DECIMAL_LEAF - 1, DECIMAL_LEAF, DECIMAL_LEAF + 1, 2 * DECIMAL_LEAF, 2 * DECIMAL_LEAF + 1,
    639, 640, 641, 4299, 4300, 4301, 10_000,
)


def integers_with_digits(count):
    return st.integers(min_value=10 ** (count - 1) if count > 1 else 0, max_value=10**count - 1)


sized_integers = st.sampled_from(DIGIT_COUNTS).flatmap(integers_with_digits)


@settings(max_examples=60, deadline=None)
@given(sized_integers, st.booleans())
def test_to_decimal_matches_repeated_divmod(n, negative):
    value = -n if negative else n
    assert to_decimal(value) == divmod_decimal(value)


@settings(max_examples=60, deadline=None)
@given(sized_integers, st.booleans())
def test_parse_decimal_matches_horner(n, negative):
    text = divmod_decimal(-n if negative else n)
    assert parse_decimal(text, signed=True) == horner_decimal(text)


@settings(max_examples=30, deadline=None)
@given(sized_integers, st.integers(min_value=1, max_value=10**700))
def test_rational_round_trip(num, den):
    value = Fraction(num, den)
    text = rational_to_decimal(value)
    assert parse_rational(text) == value
    if value.denominator == 1:
        assert text == divmod_decimal(value.numerator)
    else:
        assert text == f"{divmod_decimal(value.numerator)}/{divmod_decimal(value.denominator)}"


# Divisor sizes on both sides of the cutoff and of the first recursion
# levels, odd and even, since odd sizes are scaled by 2 before halving.
DIVISOR_BITS = sorted({1, 2, 64} | {DIVISION_CUTOFF * 2**k + d for k in range(4) for d in (-1, 0, 1, 2)})


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(DIVISOR_BITS),
    st.randoms(use_true_random=False),
    st.sampled_from(["random", "max", "min"]),
)
def test_recursive_division_matches_divmod(bits, rng, shape):
    b = rng.getrandbits(bits) | (1 << (bits - 1))
    if shape == "max":  # all-ones quotient and remainder: the estimates' worst case
        b, a = (1 << (bits - 1)) | 1, (((1 << bits) - 1) << bits) | ((1 << bits) - 1)
        a = min(a, (b << bits) - 1)
    else:
        a = rng.randrange(b << bits) if shape == "random" else b << (bits - 1)
    assert divmod_2n_1n(a, b, bits) == divmod(a, b)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8])
def test_deep_recursive_division_matches_divmod(monkeypatch, cutoff):
    # A tiny cutoff recurses down to a few bits, where the quotient estimate
    # needs its one and two corrections often.
    monkeypatch.setattr(radix, "DIVISION_CUTOFF", cutoff)
    rng = random.Random(cutoff)
    for _ in range(3000):
        bits = rng.randint(1, 40)
        b = rng.getrandbits(bits) | (1 << (bits - 1))
        a = rng.randrange(b << bits)
        assert divmod_2n_1n(a, b, bits) == divmod(a, b)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str limit before 3.10.7")
def test_conversions_hold_at_the_least_int_str_limit():
    # Every leaf is shorter than 640 digits, so the lowest setting CPython
    # allows changes no result.
    value = 3**40_000 + 12345
    text = divmod_decimal(value)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert to_decimal(value) == text
        assert to_decimal(-value) == "-" + text
        assert parse_decimal(text) == value
        assert rational_to_decimal(Fraction(value, 7)) == f"{text}/7"
    finally:
        sys.set_int_max_str_digits(before)


def test_small_values_match_str():
    for n in list(range(-1000, 1001)) + [10**k + d for k in range(1, 40) for d in (-1, 0, 1)]:
        assert to_decimal(n) == str(n)
        assert parse_decimal(str(n), signed=True) == n
    for q in (Fraction(1, 2), Fraction(-7, 3), Fraction(22, 7), Fraction(5)):
        assert rational_to_decimal(q) == str(q)


def test_leading_zeros_keep_their_value_beyond_a_leaf():
    text = "0" * (DECIMAL_LEAF + 3) + "12345"
    assert parse_decimal(text) == 12345
    with pytest.raises(ValueError):
        parse_decimal(text, canonical=True)


def test_split_and_join_are_inverse():
    n = 123_456_789_012_345_678_901_234
    chunks = split(n, 1000, 3)
    assert chunks == [123, 456, 789, 12, 345, 678, 901, 234]
    assert join(chunks, 1000) == n
    assert split(n, 10**21, 1) == [123, 456_789_012_345_678_901_234]
    assert split(7, 10, 0) == [7]
    assert join([5], 1000) == 5
    assert join([1, 2, 3], 1000) == 1_002_003


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=10**40), st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
def test_split_and_join_are_inverse_for_any_radix_and_levels(base, levels, rng):
    n = rng.randrange(base ** 2**levels)
    chunks = split(n, base, levels)
    digits, rest = [], n  # the base-``base`` digits by repeated divmod
    for _ in range(2**levels):
        rest, digit = divmod(rest, base)
        digits.append(digit)
    assert chunks == digits[::-1]
    assert join(chunks, base) == n
    count = rng.randint(1, 2**levels)  # a count that is not a power of two
    assert join(chunks[-count:], base) == n % base**count


def test_power_ladder_is_a_bounded_cache_of_tuples():
    assert radix._ladder(7, 5) == (7, 7**2, 7**4, 7**8, 7**16)
    assert radix._ladder(7, 0) == ()
    assert type(radix._ladder(10**512, 3)) is tuple
    assert radix._ladder.cache_info().maxsize is not None


def test_int_max_str_digits_untouched():
    get = getattr(sys, "get_int_max_str_digits", None)
    before = get() if get else None
    assert parse_decimal(to_decimal(7**20_000)) == 7**20_000
    assert (get() if get else None) == before


# Only plain ASCII digits pass, so strings that ``int`` or ``str.isdigit``
# accept, or that end in a newline as ``re``'s ``$`` allows, are refused.
# Rows: text, signed, canonical, accepted.
EDGE_STRINGS = [
    ("0", False, True, True),
    ("7", False, True, True),
    ("07", False, True, False),
    ("07", False, False, True),
    ("00", False, True, False),
    ("-7", False, False, False),
    ("-7", True, False, True),
    ("-07", True, False, True),
    ("-", True, False, False),
    ("--7", True, False, False),
    ("", False, False, False),
    ("+7", True, False, False),
    ("7\n", False, False, False),
    ("7\n", True, False, False),
    (" 7", False, False, False),
    ("7 ", False, False, False),
    ("\t7", True, False, False),
    ("1_000", False, False, False),
    ("٧", False, False, False),  # ARABIC-INDIC DIGIT SEVEN
    ("７", False, False, False),  # FULLWIDTH DIGIT SEVEN
    ("²", False, False, False),  # SUPERSCRIPT TWO: str.isdigit() is true
    ("٣", False, False, False),  # ARABIC-INDIC DIGIT THREE
    ("①", False, False, False),  # CIRCLED DIGIT ONE: str.isdigit() is true
    ("𝟘", False, False, False),  # MATHEMATICAL DOUBLE-STRUCK DIGIT ZERO: str.isdigit() is true
    ("1²", False, False, False),
    ("-①", True, False, False),
    ("7.0", False, False, False),
    ("0x7", False, False, False),
    ("7/1", True, False, False),
    ("١٢٣", False, False, False),  # ARABIC-INDIC DIGITS ONE TWO THREE
    ("-١٢٣", True, False, False),
    ("-²", True, False, False),
    ("\ud800", False, False, False),  # a lone surrogate, which str.encode refuses
    ("-\ud800", True, False, False),
    ("1\ud800", False, False, False),
    ("-1\ud800", True, False, False),
]


@pytest.mark.parametrize("text,signed,canonical,accepted", EDGE_STRINGS)
def test_decimal_validator_edge_strings(text, signed, canonical, accepted):
    assert is_decimal(text, signed, canonical) is accepted
    if accepted:
        assert parse_decimal(text, signed, canonical) == int(text)
    else:
        with pytest.raises(ValueError):
            parse_decimal(text, signed, canonical)


@pytest.mark.parametrize("value", [7, None, b"7", ["7"]])
def test_decimal_validator_rejects_non_strings(value):
    assert not is_decimal(value, signed=True)
    with pytest.raises(ValueError):
        parse_decimal(value)
    with pytest.raises(ValueError):
        parse_rational(value)


@pytest.mark.parametrize(
    "text,expected",
    [("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("6/8", Fraction(3, 4)), ("03/04", Fraction(3, 4))],
)
def test_parse_rational_accepts(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["3/0", "3/-4", "3/", "/4", "3/4/5", "3/4\n", "1.5", "+3", " 3/4"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def cut(text, shown):
    """The brief rule: ``shown`` whole when ``text`` has at most 40 characters, else the quoted first 40."""
    return shown(text) if len(text) <= 40 else f"{shown(text[:40])}... ({len(text)} characters)"


@example("y" * 39)
@example("y" * 40)
@example("y" * 41)
@example("'" * 41)
@given(st.text(max_size=90))
def test_brief_cuts_a_string_by_its_own_characters(text):
    assert brief(text) == cut(text, repr)


@settings(max_examples=60, deadline=None)
@example(10**39, False)
@example(10**40, True)
@given(sized_integers, st.booleans())
def test_brief_cuts_an_int_by_its_decimal_text(n, negative):
    text = divmod_decimal(-n if negative else n)
    assert brief(-n if negative else n) == cut(text, str)


def test_brief_quotes_huge_ints_inside_containers_briefly():
    huge = 10**5000
    assert brief((huge,)) == f"(1{'0' * 38}... (5004 characters)"
    assert brief([huge]) == f"[1{'0' * 38}... (5003 characters)"
    assert brief(Fraction(huge, 3)) == f"Fraction(1{'0' * 30}... (5014 characters)"


def test_brief_cuts_any_other_value_by_its_repr():
    assert brief(["x"] * 3) == "['x', 'x', 'x']"
    assert brief(["x"] * 10) == f"{repr(['x'] * 10)[:40]}... (50 characters)"
    assert brief(b"y" * 41) == f"{repr(b'y' * 41)[:40]}... (44 characters)"
