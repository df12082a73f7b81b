"""Codec tests: bijective base-A numeration against a shortlex oracle."""

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subparticle import codec
from subparticle.codec import (
    DEFAULT_ALPHABET,
    LEAF,
    Alphabet,
    SymbolNotInAlphabetError,
    decode,
    encode,
    word_length,
)

from oracles import loop_decode, loop_encode, random_word, shortlex_words

SMALL = Alphabet("abcd")


def test_empty_word_is_zero():
    assert encode("") == 0
    assert decode(0) == ""


def test_default_alphabet_pins():
    # frozen from the shortlex enumeration oracle below
    assert encode("a") == 1
    assert encode("aa") == 28
    assert decode(28) == "aa"
    assert encode(" ") == 27
    assert encode("b") == 2


def test_codes_equal_shortlex_rank_on_default_alphabet():
    for rank, word in enumerate(islice(shortlex_words(DEFAULT_ALPHABET, 2), 800)):
        assert encode(word) == rank
        assert decode(rank) == word


def test_symbol_outside_alphabet_reports_first_position():
    with pytest.raises(SymbolNotInAlphabetError) as info:
        encode("aé")
    assert info.value.position == 1
    assert info.value.symbol == "é"
    assert "symbol not in alphabet at position 1" in str(info.value)
    with pytest.raises(SymbolNotInAlphabetError) as info:
        encode("ΩaΩ")
    assert info.value.position == 0


def test_exhaustive_small_alphabet():
    words = list(shortlex_words(SMALL.symbols, 4))
    assert len(words) == 341
    codes = [encode(word, SMALL) for word in words]
    assert codes == list(range(341))  # shortlex order isomorphism
    for word, code in zip(words, codes):
        assert decode(code, SMALL) == word
    assert len(set(codes)) == len(words)  # injectivity, asserted directly


def test_random_words_roundtrip_default_alphabet():
    rng = random.Random(2024)
    for _ in range(1000):
        word = random_word(rng, DEFAULT_ALPHABET, 12)
        assert decode(encode(word)) == word


def test_encode_decode_identity_on_naturals():
    for n in range(10_001):
        assert encode(decode(n)) == n
    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(0, 10**30)
        assert encode(decode(n)) == n


def test_decode_rejects_negative():
    with pytest.raises(ValueError):
        decode(-1)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("abca")


def test_single_symbol_alphabet_is_unary():
    one = Alphabet("x")
    assert encode("xxx", one) == 3
    assert decode(5, one) == "xxxxx"


@given(st.text(alphabet=DEFAULT_ALPHABET, max_size=20))
def test_roundtrip_property(word):
    assert decode(encode(word)) == word


@given(st.integers(min_value=0, max_value=10**24))
def test_inverse_property(n):
    assert encode(decode(n)) == n


# Alphabet sizes: unary, the smallest bases, the default and one past 36.
SIZES = (1, 2, 3, 27, 37)
SYMBOLS = "abcdefghijklmnopqrstuvwxyz0123456789!"
# Word lengths on both sides of the leaf size and of the first few levels
# of the divide-and-conquer split.
LENGTHS = sorted({0, 1, 2} | {LEAF * 2**k + d for k in range(4) for d in (-1, 0, 1)})


def alphabet_of(size):
    return Alphabet(SYMBOLS[:size])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIZES), st.sampled_from(LENGTHS), st.randoms(use_true_random=False))
def test_encode_matches_loop_reference(size, length, rng):
    alphabet = alphabet_of(size)
    word = "".join(rng.choice(alphabet.symbols) for _ in range(length))
    code = encode(word, alphabet)
    assert code == loop_encode(word, alphabet.symbols)
    assert decode(code, alphabet) == word


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([s for s in SIZES if s > 1]),
    st.sampled_from(LENGTHS),
    st.sampled_from([-1, 0, 1, 2]),
    st.randoms(use_true_random=False),
)
def test_decode_matches_loop_reference_near_length_boundaries(size, length, offset, rng):
    # Codes of length-L words fill [R_L, R_{L+1}); probe both ends and inside.
    start = (size**length - 1) // (size - 1)
    end = (size ** (length + 1) - 1) // (size - 1)
    for code in (start + offset, end + offset, rng.randrange(start, end)):
        if code >= 0:
            word = decode(code, alphabet_of(size))
            assert word == loop_decode(code, alphabet_of(size).symbols)
            assert encode(word, alphabet_of(size)) == code


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_unary_decode_matches_loop_reference(code):
    assert decode(code, alphabet_of(1)) == loop_decode(code, "a")


# Alphabets that int() cannot read, whose symbol values radix.join takes as digits.
JOINED_ALPHABETS = {size: Alphabet("".join(chr(0x100 + i) for i in range(size))) for size in (1, 37, 100, 300)}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(JOINED_ALPHABETS)),
    st.one_of(st.integers(min_value=0, max_value=3 * LEAF + 1), st.just(8000)),
    st.randoms(use_true_random=False),
)
def test_encode_of_alphabets_past_36_symbols_or_of_one_matches_loop_reference(size, length, rng):
    alphabet = JOINED_ALPHABETS[size]
    word = "".join(rng.choices(alphabet.symbols, k=length))
    code = encode(word, alphabet)
    assert code == loop_encode(word, alphabet.symbols)
    assert decode(code, alphabet) == word


def test_symbol_index_takes_no_part_in_equality():
    alphabet = Alphabet("xyz")
    assert alphabet._values == {"x": 1, "y": 2, "z": 3}
    assert Alphabet("xyz") == alphabet
    assert hash(Alphabet("xyz")) == hash(alphabet)
    assert "_values" not in repr(alphabet)


def test_long_word_reports_first_bad_symbol():
    word = "a" * (5 * LEAF) + "é" + "Ω"
    with pytest.raises(SymbolNotInAlphabetError) as info:
        encode(word)
    assert info.value.position == 5 * LEAF
    assert info.value.symbol == "é"


@given(st.integers(min_value=0, max_value=10**200), st.sampled_from(["x", "ab", "abc", DEFAULT_ALPHABET]))
def test_word_length_is_the_length_of_the_decoded_word(code, symbols):
    alphabet = Alphabet(symbols)
    if len(symbols) == 1:
        code %= 5000  # a unary word is as long as its code
    assert word_length(code, alphabet) == len(decode(code, alphabet))


def test_word_length_of_a_unary_code_needs_no_word():
    assert word_length(10**30, Alphabet("x")) == 10**30
    with pytest.raises(ValueError):
        word_length(-1)


# Alphabets on both sides of the 36-symbol cap of the int() leaves, led by
# characters that int() reads by themselves or that translate() could keep:
# digits, "_", "+", "-", a space, capitals and a non-ASCII letter.
TRICKY = "9_+- A5Z0Ωzbcdefghijklmnopqrstuvwxy18"
TRICKY_SIZES = (2, 3, 10, 27, 36, 37)


# Leaves on both sides of a power of two, which decoding rounds its fields up to.
@pytest.mark.parametrize("leaf", [LEAF - 1, LEAF, LEAF + 1])
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(TRICKY_SIZES),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-4, max_value=4),
    st.randoms(use_true_random=False),
)
def test_leaf_fast_paths_match_loop_reference(leaf, size, leaves, offset, rng):
    alphabet = Alphabet(TRICKY[:size])
    word = "".join(rng.choice(alphabet.symbols) for _ in range(max(leaves * leaf + offset, 0)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "LEAF", leaf)
        code = encode(word, alphabet)
        assert code == loop_encode(word, alphabet.symbols)
        assert decode(code, alphabet) == loop_decode(code, alphabet.symbols) == word


@pytest.mark.parametrize("bad", ["5", "A", "_", "+", " ", "-"])
@pytest.mark.parametrize("position", [0, 7, LEAF, 3 * LEAF + 1])
def test_symbol_that_int_would_read_is_not_in_the_alphabet(bad, position):
    alphabet = Alphabet("abcdefghijklmnopqrstuvwxyz")
    word = "q" * position + bad + "a" * (2 * LEAF) + bad
    with pytest.raises(SymbolNotInAlphabetError) as info:
        encode(word, alphabet)
    assert (info.value.position, info.value.symbol) == (position, bad)


# Lengths on both sides of 1 to 16 leaves, and alphabets of every size the
# packed decoding kernel takes, in ASCII and in latin-1, BMP and astral
# symbols.  Words of the first or the last symbol only hold 0 or A**h - 1 in
# every field at every halving, the largest products included.
KERNEL_LENGTHS = [LEAF * 2**k + d for k in range(5) for d in (-1, 0, 1)]
NON_ASCII = "é\U0001F600" + "".join(map(chr, range(0x3A9, 0x3A9 + 34)))


@pytest.mark.parametrize("symbols", [SYMBOLS[:36], NON_ASCII])
@pytest.mark.parametrize("size", range(2, 37))
def test_packed_kernel_matches_loop_reference(size, symbols):
    alphabet = Alphabet(symbols[:size])
    rng = random.Random(size)
    for length in KERNEL_LENGTHS:
        for word in (alphabet.symbols[0] * length, alphabet.symbols[-1] * length,
                     "".join(rng.choices(alphabet.symbols, k=length))):
            code = encode(word, alphabet)
            assert decode(code, alphabet) == loop_decode(code, alphabet.symbols) == word


def test_decoding_a_long_word_builds_no_large_table():
    alphabet = Alphabet("".join(map(chr, range(0x400, 0x424))))  # 36 symbols no other test uses
    word = "".join(random.Random(36).choices(alphabet.symbols, k=2000))
    code = encode(word, alphabet)
    codec._halvings.cache_clear()  # the kernel's constants are built inside the measurement
    tracemalloc.start()
    try:
        assert decode(code, alphabet) == word
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert codec._halvings.cache_info().maxsize is not None
