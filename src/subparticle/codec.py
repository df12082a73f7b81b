"""Injective word <-> natural-number codec via bijective base-A numeration.

Symbols take values 1..A in alphabet order and a word s_0..s_{L-1} encodes
to ``sum v(s_t) * A**(L-1-t)``; the empty word encodes to 0.  Because there
is no zero digit this is a bijection between all finite words and all of
the naturals, so decoding is total: every realized natural names exactly
one word.  Encoding is also an order isomorphism from shortlex word order
onto the usual order of the naturals.

Both directions are radix conversions by divide and conquer (see
``radix``), so their cost grows like a big-integer multiplication rather
than with the square of the word length.  A word of length L has a code in
``[R_L, R_{L+1})`` with ``R_L = (A**L - 1) / (A - 1)``, and ``code - R_L``
is a plain L-digit base-A number, so decoding first finds L and then splits
that number into digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import radix

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz "


class SymbolNotInAlphabetError(ValueError):
    """A word contains a character outside the configured alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"symbol not in alphabet at position {position}: {symbol!r}")
        self.symbol = symbol
        self.position = position


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbols; the order defines the code."""

    symbols: str = DEFAULT_ALPHABET
    _values: dict = field(init=False, repr=False, compare=False)  # symbol -> digit value 1..A
    _scaled_log: int = field(init=False, repr=False, compare=False)  # see _length

    def __post_init__(self):
        if not isinstance(self.symbols, str) or not self.symbols:
            raise ValueError(f"alphabet must be a nonempty string, got {radix.brief(self.symbols)}")
        values, scaled_log = _tables(self.symbols)
        if len(values) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_scaled_log", scaled_log)

    @property
    def size(self) -> int:
        return len(self.symbols)


# Digits per leaf of the divide-and-conquer conversions.  Shorter words take
# one plain loop, longer ones split into leaves of this many symbols.
LEAF = 64
# Scale of the fixed-point log2(A) that first bounds a word's length.
_LOG_SCALE = 256


@lru_cache(maxsize=64)
def _tables(symbols: str) -> tuple[dict, int]:
    """Per symbol string, built once: the symbol -> value index, and the bit
    length of ``A**_LOG_SCALE``.  Each Config builds an Alphabet, and each
    ledger read builds a Config, so alphabets of the same symbols share them."""
    values = {symbol: value for value, symbol in enumerate(symbols, start=1)}
    return values, (len(symbols) ** _LOG_SCALE).bit_length()


_DEFAULT = Alphabet()


def encode(word: str, alphabet: Alphabet | None = None) -> int:
    """Map a word to its natural-number code (injective, empty word -> 0)."""
    alpha = alphabet if alphabet is not None else _DEFAULT
    values = alpha._values
    try:
        digits = [values[symbol] for symbol in word]
    except KeyError:
        position = next(i for i, symbol in enumerate(word) if symbol not in values)
        raise SymbolNotInAlphabetError(word[position], position) from None
    size = alpha.size
    if len(digits) <= LEAF:
        return _horner(digits, size)
    return radix.join(radix.leaves(digits, LEAF, lambda leaf: _horner(leaf, size)), size**LEAF)


def word_length(code: int, alphabet: Alphabet | None = None) -> int:
    """Length of the word ``decode`` gives for a code, without spelling it.

    On a one-symbol alphabet that length is the code itself, so a caller
    can refuse a word too long to build before ``decode`` tries.
    """
    radix.check_natural(code, "code")
    alpha = alphabet if alphabet is not None else _DEFAULT
    if alpha.size == 1:
        return code
    return _length(code, alpha.size, alpha._scaled_log)[0]


def decode(code: int, alphabet: Alphabet | None = None) -> str:
    """Exact inverse of encode, defined on every natural number."""
    radix.check_natural(code, "code")
    alpha = alphabet if alphabet is not None else _DEFAULT
    size = alpha.size
    symbols = alpha.symbols
    if size == 1:  # unary: the code is the length, and R_L has no closed form
        return symbols * code
    length, power = _length(code, size, alpha._scaled_log)
    rest = code - (power - 1) // (size - 1)  # code - R_L, an L-digit base-A number
    if length <= LEAF:
        return _spell(rest, length, symbols)
    chunks = radix.split(rest, size**LEAF, radix.levels_for(length, LEAF))
    text = "".join([_spell(chunk, LEAF, symbols) for chunk in chunks])
    return text[len(text) - length:]


def _horner(digits, size: int) -> int:
    n = 0
    for d in digits:
        n = n * size + d
    return n


def _spell(n: int, width: int, symbols: str) -> str:
    """The ``width`` base-A digits of ``0 <= n < A**width``, digit d written
    as ``symbols[d]``."""
    size = len(symbols)
    out = []
    for _ in range(width):
        n, digit = divmod(n, size)
        out.append(symbols[digit])
    out.reverse()
    return "".join(out)


# ``recompute_decoded`` asks for a code's length and then decodes it, and
# for a long word the power below is the costly part of both.
@lru_cache(maxsize=4)
def _length(code: int, size: int, scaled_log: int) -> tuple[int, int]:
    """``(L, size**L)`` for the length L of the word with this code.

    L is the largest integer with ``R_L <= code``, that is with
    ``size**L <= code * (size - 1) + 1 = n``.  ``scaled_log`` is the bit
    length of ``size**_LOG_SCALE``, so ``log2(size) < scaled_log /
    _LOG_SCALE`` and the bound below never exceeds L; exact steps up from it
    then find L, a few at most.
    """
    n = code * (size - 1) + 1
    length = (n.bit_length() - 1) * _LOG_SCALE // scaled_log
    power = size**length
    while power * size <= n:
        power *= size
        length += 1
    return length, power
