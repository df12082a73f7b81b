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

For 2 <= A <= 36 the leaves convert in C: a word translates to the digits
``0-9a-z`` that ``int`` reads, and a code's leaves are packed into one
integer and divided into digits all at once (see ``_unpacked``).  Other
alphabets encode by ``radix.join`` of the symbol values, which takes digits
of any size, and decode by one division per symbol at the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

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
    _members: dict = field(init=False, repr=False, compare=False)  # translate() deletes each symbol
    _digits: dict | None = field(init=False, repr=False, compare=False)  # symbol -> digit d - 1, A <= 36

    def __post_init__(self):
        if not isinstance(self.symbols, str) or not self.symbols:
            raise ValueError(f"alphabet must be a nonempty string, got {radix.brief(self.symbols)}")
        values = {symbol: value for value, symbol in enumerate(self.symbols, start=1)}
        if len(values) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_scaled_log", (len(values) ** _LOG_SCALE).bit_length())
        object.__setattr__(self, "_members", str.maketrans("", "", self.symbols))
        fast = 2 <= len(values) <= len(_DIGITS)
        object.__setattr__(self, "_digits", str.maketrans(self.symbols, _DIGITS[:len(values)]) if fast else None)

    @property
    def size(self) -> int:
        return len(self.symbols)


# Digits per leaf of the divide-and-conquer conversions.  Shorter words convert
# in one piece, longer ones split into leaves of this many symbols.
LEAF = 64
# Scale of the fixed-point log2(A) that first bounds a word's length.
_LOG_SCALE = 256
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"  # what int() reads in bases <= 36


_DEFAULT = Alphabet()


def encode(word: str, alphabet: Alphabet | None = None) -> int:
    """Map a word to its natural-number code (injective, empty word -> 0)."""
    alpha = alphabet if alphabet is not None else _DEFAULT
    values = alpha._values
    if word.translate(alpha._members):  # what is left is outside the alphabet
        position = next(i for i, symbol in enumerate(word) if symbol not in values)
        raise SymbolNotInAlphabetError(word[position], position)
    size = alpha.size
    if alpha._digits is None:  # A = 1 or A > 36: the symbol values are the digits
        return radix.join([values[symbol] for symbol in word], size) if word else 0
    text = word.translate(alpha._digits)  # int() would also take "_", "+", "-", spaces and capitals
    if len(text) <= LEAF:
        return _read(text, size) if text else 0
    return radix.join(radix.leaves(text, LEAF, partial(_read, size=size)), size**LEAF)


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
    if alpha._digits is None:  # A > 36: one division per symbol at the leaves
        chunks = radix.split(rest, size**LEAF, radix.levels_for(length, LEAF))
        text = "".join([_spell(chunk, LEAF, symbols) for chunk in chunks])
    else:
        text = _unpacked(rest, length, size).translate(symbols)  # chr(d) -> symbols[d]
    return text[len(text) - length:]


def _read(piece: str, size: int) -> int:
    """Code of a translated nonempty piece of k symbols: its value as a
    base-A numeral plus ``R_k``, whose numeral is k ones."""
    return int(piece, size) + int("1" * len(piece), size)


def _spell(n: int, width: int, symbols: str) -> str:
    """The ``width`` base-A digits of ``0 <= n < A**width``, with ``A =
    len(symbols)`` and digit d written as ``symbols[d]``."""
    size = len(symbols)
    out = []
    for _ in range(width):
        n, digit = divmod(n, size)
        out.append(symbols[digit])
    out.reverse()
    return "".join(out)


def _unpacked(rest: int, length: int, size: int) -> str:
    """The digits of ``0 <= rest < A**length``, A <= 36, as ``chr(0)`` to
    ``chr(A - 1)``, led by zeros to whole leaves: the leaves, rounded up to a
    power of two, are packed at 16 bits per symbol and halved all at once."""
    leaf = 1 << (LEAF - 1).bit_length()
    chunks = radix.split(rest, size**leaf, radix.levels_for(length, leaf))
    packed = int.from_bytes(b"".join([chunk.to_bytes(2 * leaf, "big") for chunk in chunks]), "big")
    for shift, magic, divisor, mask, half in _halvings(size, leaf, len(chunks)):
        high = ((packed * magic) >> shift) & mask
        packed = (high << half) | (packed - high * divisor)
    return packed.to_bytes(2 * leaf * len(chunks), "big")[1::2].decode("latin-1")


# An entry's masks take 2 bytes per symbol and halving, ~12 per decoded symbol.
@lru_cache(maxsize=4)
def _halvings(size: int, h: int, count: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """``(s, m, d, mask, 8h)`` to halve ``count`` fields of h digits, 16h bits
    wide, for h = leaf, ..., 2: ``(x * m) >> s == x // d`` for ``x < A**h``,
    ``d = A**(h/2)``, ``s = bitlen(A**h - 1) + bitlen(d)`` and ``m = ceil(2**s
    / d)`` (Granlund and Montgomery).  Both ``x * m`` and ``2**(s + bitlen(d))``
    are at most ``2**(2 * bitlen(A**h - 1) + 2)``, which is at most ``2**(16h)``
    for A <= 36, so no field carries into the quotient bits of another."""
    steps = []
    while h > 1:
        divisor = size ** (h // 2)
        low = divisor.bit_length()
        shift = (size**h - 1).bit_length() + low
        mask = int.from_bytes(((1 << low) - 1).to_bytes(2 * h, "big") * count, "big")
        steps.append((shift, -(-(1 << shift) // divisor), divisor, mask, 8 * h))
        h, count = h // 2, count * 2
    return tuple(steps)


# ``pipeline._decoded``, which ``recompute_decoded`` and ``verify_ledger``
# (behind ``spc realize``) both run, asks for a code's length and then
# decodes it, and for a long word the power below is the costly part of both.
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
