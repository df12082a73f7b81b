"""Exact arithmetic for a computable fragment of the hyperreal line.

A value is a finite formal Laurent combination ``sum_k c_k * H**k`` where
``H = B**omega`` for a configured integer base ``B >= 2``, ``omega`` is a
fixed infinite natural, and the coefficients ``c_k`` are exact rationals.
``H`` is infinite, ``eps = 1/H`` is a positive infinitesimal, and the
fragment is closed under everything the bundling pipeline does: sums,
products, scaling, division by a monomial, and the standard part.

``omega`` itself is never a value; only powers of ``H`` are represented,
and nothing implemented here depends on which infinite ``omega`` is meant.
General division is deliberately absent: ``**`` takes a negative exponent
on a monomial alone, and ``monomial_div`` multiplies by one such power.
All values are immutable and all operations are pure, so instances may be
shared freely between threads.  A value's wire form, its
``[exponent, numerator, denominator]`` triples, belongs to ledger format
v1, so ``ledger.py`` alone writes and reads it.

Sums, negations and products build each coefficient once, from ints, and
run no ``Fraction`` operator: ``_coefficient`` puts a numerator over a
positive denominator with one gcd, writing ``Fraction``'s two slots, whose
names are checked once at import (``Fraction(n, d)`` builds it where they
differ).  A sum puts the cross products of the
numerators over the product of the denominators, a monomial factor
multiplies numerators and denominators, and a negation flips the
numerator's sign (``_negated``, which needs no gcd).  Monomial powers are
closed form for every integer k, negative ones too:
``(c*H**e)**k = c**k * H**(e*k)``.  Other products and powers clear each
operand to integer numerators over its common denominator.  Dense ones
(span below ``_DENSE_SPAN`` times the term count) pack the numerators into
one int of a few times their bits, a fixed-width digit per stride step (the
gcd of the exponent gaps), for one int product or power (Kronecker; Harvey,
arXiv:0712.4046), from ``_PACK_MIN_TERMS`` term pairs for a product whose
smaller operand has ``_PACK_MIN_SIDE`` terms: on small rationals the loop is
faster up to 12x12, even at 14x14 and 10x20, slower from 15x15, and
faster at 3x80, 4x50 and 6x40 but not at 8x25 or 8x40.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Union

from .radix import brief, check_natural, rational_to_decimal, to_decimal

RationalLike = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_DENSE_SPAN = 4  # see the module docstring
_PACK_MIN_TERMS = 200  # fewer term pairs than this multiply as fast or faster in the loop
_PACK_MIN_SIDE = 8  # and so does a product whose smaller operand has fewer terms than this


class BaseMismatchError(ValueError):
    """Raised when hyperreals with different bases are combined."""


class InfiniteValueError(ArithmeticError):
    """Raised when the standard part of an infinite value is requested."""


class Classification(Enum):
    """Coarse magnitude classes of a hyperreal value."""

    INFINITESIMAL = "Infinitesimal"
    FINITE_APPRECIABLE = "FiniteAppreciable"
    INFINITE = "Infinite"


def _as_fraction(value) -> Fraction:
    """Coerce an exact rational; floats are rejected to keep everything exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return _coefficient(value, 1)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


def _check_base(base) -> None:
    """The one check of a base B, wherever one is given."""
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {brief(base)}")


def _check_exponent(exp) -> None:
    if not isinstance(exp, int) or isinstance(exp, bool):
        raise TypeError(f"exponent must be an integer, got {brief(exp)}")


class Hyperreal:
    """Finite Laurent combination in H = B**omega with rational coefficients.

    ``terms`` maps the exponent k to the coefficient of H**k, the form the
    constructor takes.  Zero coefficients are never stored, so the zero
    value has an empty term map and equality is plain structural equality.
    Values carry their base and never interoperate across bases.
    """

    __slots__ = ("_base", "_terms")

    def __init__(self, base: int, terms: Mapping[int, RationalLike] | None = None):
        _check_base(base)
        if terms is not None and not isinstance(terms, Mapping):
            raise TypeError(f"terms must map exponents to coefficients, got {type(terms).__name__}")
        clean = {}
        for exp, coeff in (terms or {}).items():
            _check_exponent(exp)
            if value := _as_fraction(coeff):
                clean[exp] = value
        self._base = base
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, base: int) -> "Hyperreal":
        _check_base(base)
        return _trusted(base, {})

    @classmethod
    def one(cls, base: int) -> "Hyperreal":
        return cls.monomial(base, _ONE, 0)

    @classmethod
    def from_rational(cls, base: int, value: RationalLike) -> "Hyperreal":
        return cls.monomial(base, value, 0)

    @classmethod
    def monomial(cls, base: int, coeff: RationalLike, exp: int) -> "Hyperreal":
        _check_base(base)
        _check_exponent(exp)
        coeff = _as_fraction(coeff)
        return _trusted(base, {exp: coeff} if coeff else {})

    @classmethod
    def generator(cls, base: int) -> "Hyperreal":
        """H = B**omega, the canonical infinite unit."""
        return cls.monomial(base, _ONE, 1)

    @classmethod
    def epsilon(cls, base: int) -> "Hyperreal":
        """eps = 1/B**omega, the canonical positive infinitesimal."""
        return cls.monomial(base, _ONE, -1)

    # -- structure ----------------------------------------------------

    @property
    def base(self) -> int:
        return self._base

    @property
    def terms(self) -> Mapping[int, Fraction]:
        """The nonzero coefficients by exponent, read-only.  Their iteration
        order depends on the path that built the value (a sum of literal
        terms keeps source order, the product loop first-seen order, a
        packed product ascending order), so equal values may list their
        terms differently; ``==``, ``hash``, ``str``, ``repr`` and the
        ledger writer do not depend on it."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def is_finite(self) -> bool:
        return max(self._terms, default=0) <= 0

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Hyperreal):
            if other._base != self._base:
                raise BaseMismatchError(
                    f"cannot combine values of base {brief(self._base)} and base {brief(other._base)}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            return _trusted(self._base, {0: other} if other else {})
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self._terms)
        for exp, coeff in rhs._terms.items():
            if (old := merged.get(exp)) is None:
                merged[exp] = coeff
            elif num := old.numerator * coeff.denominator + coeff.numerator * old.denominator:
                merged[exp] = _coefficient(num, old.denominator * coeff.denominator)
            else:  # the sum cancels
                del merged[exp]
        return _trusted(self._base, merged)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self._base, {exp: _negated(coeff) for exp, coeff in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        right = rhs._terms
        if len(right) == 1:  # a monomial factor: exponents stay distinct, nothing cancels
            ((ey, cy),) = right.items()
            ny, dy = cy.numerator, cy.denominator
            unit = ny == dy  # H^k and eps^k only shift the exponents
            return _trusted(self._base, {ex + ey: cx if unit else _coefficient(cx.numerator * ny, cx.denominator * dy)
                                         for ex, cx in self._terms.items()})
        lx, ly = len(self._terms), len(right)
        if lx * ly >= _PACK_MIN_TERMS and min(lx, ly) >= _PACK_MIN_SIDE and _dense(self._terms) and _dense(right):
            return _trusted(self._base, _packed_product(self._terms, right))
        (den_x, xs), (den_y, ys) = _numerators(self._terms), _numerators(right)
        acc, den = {}, den_x * den_y
        for ex, nx in xs.items():
            for ey, ny in ys.items():
                exp = ex + ey
                acc[exp] = acc[exp] + nx * ny if exp in acc else nx * ny
        return _trusted(self._base, {exp: _coefficient(num, den) for exp, num in acc.items() if num})

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if len(self._terms) == 1:  # a monomial: (c*H^e)^k = c^k * H^(e*k), for every integer k
            ((exp, coeff),) = self._terms.items()
            return _trusted(self._base, {exp * exponent: coeff if coeff == 1 else coeff**exponent})
        if exponent < 0:
            raise ValueError("a negative power is defined only on a monomial")
        if exponent >= 2 and _dense(self._terms):
            return _trusted(self._base, _packed_power(self._terms, exponent))
        result, square = Hyperreal.one(self._base), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def scale(self, factor: RationalLike) -> "Hyperreal":
        """Multiply every coefficient by an exact rational factor."""
        return self * _as_fraction(factor)

    def monomial_div(self, divisor: RationalLike, exp: int) -> "Hyperreal":
        """Exact division by the single monomial ``divisor * H**exp``."""
        if not _as_fraction(divisor):
            raise ZeroDivisionError("division by a zero monomial coefficient")
        return self * Hyperreal.monomial(self._base, divisor, exp) ** -1

    # -- standard part and classification ------------------------------

    def st(self) -> Fraction:
        """Standard part: the unique real infinitely close to a finite value."""
        if not self.is_finite():
            raise InfiniteValueError("standard part undefined: infinite value")
        return self._terms.get(0, _ZERO)

    def classify(self) -> Classification:
        if not self.is_finite():
            return Classification.INFINITE
        if 0 not in self._terms:
            return Classification.INFINITESIMAL  # zero included: 0 lies in mu(0)
        return Classification.FINITE_APPRECIABLE

    def in_monad(self, real: RationalLike) -> bool:
        """True when ``self - real`` is infinitesimal, i.e. self lies in mu(real)."""
        return (self - _as_fraction(real)).classify() is Classification.INFINITESIMAL

    # -- object protocol -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Hyperreal):
            return NotImplemented
        return self._base == other._base and self._terms == other._terms

    def __hash__(self):
        return hash((self._base, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Hyperreal({to_decimal(self._base)}, {str(self)!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, reverse=True):
            coeff = self._terms[exp]
            body = _term_body(-coeff if coeff < 0 else coeff, exp)
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)


def _trusted(base: int, terms: dict) -> Hyperreal:
    """A Hyperreal over a term map the caller already holds in normal form:
    a valid base, int exponents and nonzero Fraction coefficients.  The map
    is owned by the new value from here on, and nothing is checked."""
    value = object.__new__(Hyperreal)
    value._base = base
    value._terms = terms
    return value


def _dense(terms: dict) -> bool:
    return len(terms) >= 2 and max(terms) - min(terms) < _DENSE_SPAN * len(terms)


def _stride(*maps: dict) -> int:
    """The gcd of the exponent gaps within each map: each map's exponents step by it from its lowest."""
    return math.gcd(*[exp - low for terms in maps for low in [min(terms)] for exp in terms])


def _coefficient(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ``d > 0`` with one gcd: the slots are set directly, skipping ``Fraction.__new__``'s checks."""
    common, value = math.gcd(n, d), object.__new__(Fraction)
    value._numerator, value._denominator = n // common, d // common
    return value


def _negated(c: Fraction) -> Fraction:
    """``-c``, its slots written as ``_coefficient`` writes them: ``c`` is already in lowest terms."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = -c.numerator, c.denominator
    return value


def _builders(slots) -> tuple:
    """``_coefficient`` and ``_negated`` for a ``Fraction`` with these ``__slots__``: the slot writes above where
    they are the two that CPython 3.6-3.13 names, and ``Fraction``'s own constructor and negation otherwise."""
    return (_coefficient, _negated) if slots == ("_numerator", "_denominator") else (Fraction, Fraction.__neg__)


_coefficient, _negated = _builders(getattr(Fraction, "__slots__", None))


def _numerators(terms: dict) -> tuple[int, dict[int, int]]:
    """The common denominator of the coefficients, and each exponent's numerator over it."""
    den = math.lcm(*[coeff.denominator for coeff in terms.values()])
    return den, {exp: coeff.numerator * (den // coeff.denominator) for exp, coeff in terms.items()}


def _cleared(terms: dict, stride: int) -> tuple[int, list[int], int]:
    """The lowest exponent, one integer digit per ``stride`` step from it up, and their common denominator."""
    (den, numerators), low = _numerators(terms), min(terms)
    return low, [numerators.get(exp, 0) for exp in range(low, max(terms) + 1, stride)], den


def _pack(digits: list[int], width: int) -> int:
    """The int whose ``width``-byte signed digits, lowest first, are ``digits``."""
    half = 1 << (8 * width - 1)
    raw = b"".join([(digit + half).to_bytes(width, "little") for digit in digits])
    return int.from_bytes(raw, "little") - int.from_bytes(half.to_bytes(width, "little") * len(digits), "little")


def _unpack(value: int, count: int, width: int, low: int, stride: int, den: int) -> dict:
    """Terms at exponents ``low + stride*i`` whose numerators over ``den`` are the ``count`` signed digits of
    ``value``.  A bias of half a digit's range makes each digit nonnegative: one ``to_bytes`` splits all."""
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    raw = (value + int.from_bytes(zero * count, "little")).to_bytes(count * width, "little")
    digits = [raw[i : i + width] for i in range(0, count * width, width)]
    return {low + stride * i: _coefficient(int.from_bytes(d, "little") - half, den) for i, d in enumerate(digits) if d != zero}


def _packed_product(left: dict, right: dict) -> dict:
    """One int product at the common stride; an output digit sums at most min(terms) digit products."""
    stride = _stride(left, right)
    (low_x, xs, den_x), (low_y, ys, den_y) = _cleared(left, stride), _cleared(right, stride)
    bits = max(map(abs, xs)).bit_length() + max(map(abs, ys)).bit_length() + min(len(left), len(right)).bit_length()
    width = bits // 8 + 1  # one more bit for the sign, in whole bytes
    return _unpack(_pack(xs, width) * _pack(ys, width), len(xs) + len(ys) - 1, width, low_x + low_y, stride, den_x * den_y)


def _packed_power(terms: dict, exponent: int) -> dict:
    """One int power at the base's stride; no output digit exceeds the digits' absolute sum to that power."""
    stride = _stride(terms)
    low, digits, den = _cleared(terms, stride)
    width = (sum(map(abs, digits)) ** exponent).bit_length() // 8 + 1
    count = exponent * (len(digits) - 1) + 1
    return _unpack(_pack(digits, width) ** exponent, count, width, low * exponent, stride, den**exponent)


def _term_body(magnitude: Fraction, exp: int) -> str:
    if exp == 0:
        return rational_to_decimal(magnitude)
    symbol = "H" if exp > 0 else "eps"
    power = abs(exp)
    symbol_pow = symbol if power == 1 else f"{symbol}^{to_decimal(power)}"
    return symbol_pow if magnitude == 1 else f"{rational_to_decimal(magnitude)}*{symbol_pow}"


class Hypernatural:
    """A hyperreal restricted to natural-number form.

    Coefficients must be nonnegative integers on nonnegative powers of H;
    finite naturals, infinite counts such as ``42*H``, and mixed values such
    as ``H + 3`` all qualify.  ``is_infinite`` reports membership among the
    infinite naturals (some positive power of H present).  Zero is admitted
    only as the degenerate count carried by code 0 and is flagged through
    ``is_degenerate``.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Hyperreal):
        if not isinstance(value, Hyperreal):
            raise TypeError(f"expected a Hyperreal, got {type(value).__name__}")
        for exp, coeff in value._terms.items():
            if exp < 0:
                raise ValueError("a hypernatural cannot carry negative powers of H")
            if coeff.denominator != 1 or coeff.numerator < 0:
                raise ValueError("hypernatural coefficients must be nonnegative integers")
        self._value = value

    @classmethod
    def from_int(cls, n: int, base: int) -> "Hypernatural":
        check_natural(n, "n")
        return cls(Hyperreal.from_rational(base, n))

    @property
    def value(self) -> Hyperreal:
        return self._value

    @property
    def is_infinite(self) -> bool:
        return not self._value.is_finite()

    @property
    def is_degenerate(self) -> bool:
        return self._value.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Hypernatural):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(("Hypernatural", self._value))

    def __repr__(self):
        return f"Hypernatural({self._value!r})"


def lambda_for_code(code: int, base: int) -> Hypernatural:
    """Canonical infinite count for a code: ``code * H``.

    By construction ``st(count / H)`` recovers the code exactly.  The
    witness is canonical rather than unique; any count whose ratio to H
    lies in the monad of the code would serve.  Code 0 yields the
    degenerate zero count, reported through ``is_degenerate`` (and
    ``is_infinite`` False).
    """
    check_natural(code, "code")
    _check_base(base)
    return Hypernatural(_trusted(base, {1: _coefficient(code, 1)} if code else {}))


def hyperfinite_constant_sum(count: Hypernatural, term: Hyperreal) -> Hyperreal:
    """Closed form ``count * term`` of a count-fold sum of a constant term.

    For finite counts this equals literal repeated addition; for infinite
    counts it is the transferred value of the same sum.  A count and a term
    of different bases raise BaseMismatchError, as every product does.
    """
    return count.value * term
