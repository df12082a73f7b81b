"""Subquadratic radix conversion and the one validator for decimal strings.

Integers are converted to and from digit sequences by divide and conquer
(Brent and Zimmermann, *Modern Computer Arithmetic*, section 1.7): a number
is split into chunks of ``leaf`` digits by dividing by the powers
``P, P**2, P**4, ...`` of ``P = base**leaf``, and chunks are joined again
pairwise, bottom up, by multiplying with the same powers.  Most of the work
is then a few multiplications of large operands, which CPython does by
Karatsuba, instead of one small step per digit on the whole number.  The
divisions are recursive too (Burnikel and Ziegler's 2n-by-n division,
ibid. section 1.4.3), since CPython before 3.12 divides large integers in
quadratic time.

The codec uses this for words in base A.  Decimal strings use it with
chunks of ``DECIMAL_LEAF`` digits, converted by ``str`` and ``int``; that is
below 640, the least value CPython lets ``sys.set_int_max_str_digits``
take, so no conversion here depends on that setting and none changes it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

DECIMAL_LEAF = 512
_DECIMAL_POWER = 10**DECIMAL_LEAF
# Divisors of at most this many bits go to the built-in divmod, which is
# faster there than recursion.
DIVISION_CUTOFF = 4000


def split(n: int, radix: int, levels: int) -> list[int]:
    """The ``2**levels`` digits of ``0 <= n < radix**(2**levels)`` in base
    ``radix``, most significant first, leading zeros included."""
    parts = [n]
    for power in reversed(_ladder(radix, levels)):
        bits = power.bit_length()
        parts = [piece for part in parts for piece in divmod_2n_1n(part, power, bits)]
    return parts


def join(chunks: list[int], radix: int) -> int:
    """``sum chunks[i] * radix**(len - 1 - i)``: the inverse of ``split``.

    Chunks may be any integers, not only digits below ``radix``.
    """
    for power in _ladder(radix, (len(chunks) - 1).bit_length()):
        if len(chunks) % 2:
            chunks = [0] + chunks
        chunks = [hi * power + lo for hi, lo in zip(chunks[::2], chunks[1::2])]
    return chunks[0]


# Each ladder shares its lower rungs with the one below it, so the cache holds
# about twice the largest power of each radix in use.
@lru_cache(maxsize=32)
def _ladder(radix: int, levels: int) -> tuple[int, ...]:
    """``(radix, radix**2, radix**4, ...)``, ``levels`` powers in all."""
    if levels <= 1:
        return (radix,)[:levels]
    lower = _ladder(radix, levels - 1)
    return lower + (lower[-1] * lower[-1],)


def leaves(seq, leaf: int, convert) -> list[int]:
    """``convert`` of each ``leaf``-long piece of ``seq``, aligned at its
    least significant end, so that only the first piece may be shorter."""
    head = len(seq) % leaf or leaf
    return [convert(seq[:head])] + [convert(seq[i:i + leaf]) for i in range(head, len(seq), leaf)]


def levels_for(width: int, leaf: int) -> int:
    """Fewest levels ``k`` with ``leaf * 2**k >= width >= 1``."""
    return ((width - 1) // leaf).bit_length()


def divmod_2n_1n(a: int, b: int, n: int) -> tuple[int, int]:
    """``divmod(a, b)`` for ``b`` of exactly ``n`` bits and ``0 <= a < 2**n * b``.

    Burnikel and Ziegler's recursion: two divisions of 3/2 halves, each of
    which divides by the top half of ``b`` recursively and corrects the
    remainder by one multiplication, so the cost is that of a few
    multiplications of n-bit numbers rather than quadratic in n.
    """
    if n <= DIVISION_CUTOFF:
        return divmod(a, b)
    odd = n & 1
    if odd:  # the halves must be equal: scale both by 2, and the remainder back
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b0 = b >> half, b & mask
    q1, r = _divmod_3h_2h(a >> n, (a >> half) & mask, b, b1, b0, half)
    q0, r = _divmod_3h_2h(r, a & mask, b, b1, b0, half)
    return (q1 << half) | q0, r >> odd


def _divmod_3h_2h(a_top: int, a_low: int, b: int, b1: int, b0: int, half: int) -> tuple[int, int]:
    """``divmod(a_top * 2**half + a_low, b)`` with ``b = b1 * 2**half + b0``,
    ``a_low < 2**half`` and a quotient below ``2**half``."""
    if a_top >> half == b1:  # the quotient estimate from b1 would overflow
        q, r = (1 << half) - 1, a_top - (b1 << half) + b1
    else:
        q, r = divmod_2n_1n(a_top, b1, half)
    r = ((r << half) | a_low) - q * b0
    while r < 0:  # the estimate exceeds the quotient by at most 2
        q -= 1
        r += b
    return q, r


# -- decimal strings ---------------------------------------------------------


def to_decimal(n: int) -> str:
    """Exact decimal string of any integer, as ``str(n)`` would give it."""
    if -_DECIMAL_POWER < n < _DECIMAL_POWER:
        return str(n)
    if n < 0:
        return "-" + _large_to_decimal(-n)
    return _large_to_decimal(n)


# A ledger holds its code up to five times (code, sequence_head, lambda, the
# bundled coordinate and its realized value), so the few most recent large
# conversions are kept, in both directions.
@lru_cache(maxsize=8)
def _large_to_decimal(n: int) -> str:
    # 0.30103 > log10(2), so n has at most this many digits.
    width = n.bit_length() * 30103 // 100000 + 1
    chunks = split(n, _DECIMAL_POWER, levels_for(width, DECIMAL_LEAF))
    return "".join([str(chunk).zfill(DECIMAL_LEAF) for chunk in chunks]).lstrip("0")


def rational_to_decimal(value: Fraction) -> str:
    """``n`` or ``n/d`` in lowest terms, as ``str(value)`` would give it."""
    if value.denominator == 1:
        return to_decimal(value.numerator)
    return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"


def is_decimal(text, signed: bool = False, canonical: bool = False) -> bool:
    """True for a string of ASCII digits, with one leading ``-`` when
    ``signed``; with ``canonical`` also no leading zero, except in ``0``
    itself.  Nothing else passes: no ``+``, whitespace, underscore or
    non-ASCII digit, all of which ``int`` would accept."""
    if not isinstance(text, str):
        return False
    body = text[1:] if signed and text[:1] == "-" else text
    if not (body and body.isascii() and body.encode().isdigit()):  # isascii first: a lone surrogate cannot encode
        return False
    return not canonical or body == "0" or body[0] != "0"


def parse_decimal(text, signed: bool = False, canonical: bool = False) -> int:
    """The integer a decimal string names; ``ValueError`` unless
    ``is_decimal(text, signed, canonical)``."""
    if not is_decimal(text, signed, canonical):
        raise ValueError(f"not a decimal string: {brief(text)}")
    return decimal_value(text)


def decimal_value(text: str) -> int:
    """The integer of a string that ``is_decimal`` accepts, which the caller
    has checked, at any length."""
    if len(text) <= DECIMAL_LEAF:
        return int(text)
    if text[0] == "-":
        return -_large_parse(text[1:])
    return _large_parse(text)


@lru_cache(maxsize=8)
def _large_parse(digits: str) -> int:
    return join(leaves(digits, DECIMAL_LEAF, int), _DECIMAL_POWER)


def parse_rational(text) -> Fraction:
    """``-?digits`` or ``-?digits/digits`` with a nonzero denominator."""
    num, slash, den = text.partition("/") if isinstance(text, str) else (text, "", "")
    numerator = parse_decimal(num, signed=True)
    if not slash:
        return Fraction(numerator)
    denominator = parse_decimal(den)
    if not denominator:
        raise ValueError(f"zero denominator: {brief(text)}")
    return Fraction(numerator, denominator)


# Longest quoted input an error message repeats in full.
BRIEF_LIMIT = 40


def brief(value) -> str:
    """``repr(value)`` for an error message, cut to its first ``BRIEF_LIMIT``
    characters plus the total length when it is longer, so that a huge
    input never makes a huge message."""
    if isinstance(value, str) and len(value) > BRIEF_LIMIT:
        return f"{value[:BRIEF_LIMIT]!r}... ({len(value)} characters)"
    try:
        text = to_decimal(value) if type(value) is int else repr(value)
    except RecursionError:  # a container nested too deep for repr
        text = f"<{type(value).__name__} nested too deeply to quote>"
    return text if len(text) <= BRIEF_LIMIT else f"{text[:BRIEF_LIMIT]}... ({len(text)} characters)"


def check_natural(value, name: str) -> None:
    """The one check of a nonnegative integer argument such as a code."""
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {brief(value)}")
