"""Exact arithmetic for a computable fragment of the hyperreal line.

A value is a finite formal Laurent combination ``sum_k c_k * H**k`` where
``H = B**omega`` for a configured integer base ``B >= 2``, ``omega`` is a
fixed infinite natural, and the coefficients ``c_k`` are exact rationals.
``H`` is infinite, ``eps = 1/H`` is a positive infinitesimal, and the
fragment is closed under everything the bundling pipeline does: sums,
products, scaling, division by a monomial, and the standard part.

``omega`` itself is never a value; only powers of ``H`` are represented,
and nothing implemented here depends on which infinite ``omega`` is meant.
General division is deliberately absent: ``monomial_div`` covers the only
divisions that ever occur.  All values are immutable and all operations
are pure, so instances may be shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Union

from .radix import brief, check_natural, is_decimal, parse_decimal, rational_to_decimal, to_decimal

Rational = Fraction
RationalLike = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MAPPING_TYPES = (dict, MappingProxyType)  # checked by type() first: isinstance on an ABC is slow


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
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


def _check_base(base) -> None:
    """The one check of a base B, wherever one is given."""
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {brief(base)}")


def _check_exponent(exp) -> None:
    if not isinstance(exp, int):
        raise TypeError(f"exponent must be an integer, got {exp!r}")


class Hyperreal:
    """Finite Laurent combination in H = B**omega with rational coefficients.

    ``terms`` maps the exponent k to the coefficient of H**k.  Zero
    coefficients are never stored, so the zero value has an empty term map
    and equality is plain structural equality.  Values carry their base and
    never interoperate across bases.
    """

    __slots__ = ("_base", "_terms")

    def __init__(self, base: int, terms=None):
        _check_base(base)
        clean: dict[int, Fraction] = {}
        if terms is not None:
            is_mapping = type(terms) in _MAPPING_TYPES or isinstance(terms, Mapping)
            items = terms.items() if is_mapping else terms
            for exp, coeff in items:
                _check_exponent(exp)
                value = clean.get(exp, _ZERO) + _as_fraction(coeff)
                if value:
                    clean[exp] = value
                else:
                    clean.pop(exp, None)
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
        return MappingProxyType(self._terms)

    def coefficient(self, exp: int) -> Fraction:
        return self._terms.get(exp, _ZERO)

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
                    f"cannot combine values of base {self._base} and base {other._base}"
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
            if exp in merged:
                value = merged[exp] + coeff
                if value:
                    merged[exp] = value
                else:
                    del merged[exp]
            else:
                merged[exp] = coeff
        return _trusted(self._base, merged)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self._base, {exp: -coeff for exp, coeff in self._terms.items()})

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
        right = rhs._terms.items()
        if len(right) == 1:  # a monomial factor: exponents stay distinct, nothing cancels
            ((ey, cy),) = right
            return _trusted(self._base, {ex + ey: cx * cy for ex, cx in self._terms.items()})
        acc: dict[int, Fraction] = {}
        for ex, cx in self._terms.items():
            for ey, cy in right:
                exp = ex + ey
                if exp in acc:
                    value = acc[exp] + cx * cy
                    if value:
                        acc[exp] = value
                    else:
                        del acc[exp]
                else:
                    acc[exp] = cx * cy
        return _trusted(self._base, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not defined here; see monomial_div")
        result = Hyperreal.one(self._base)
        square = self
        e = exponent
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def scale(self, factor: RationalLike) -> "Hyperreal":
        """Multiply every coefficient by an exact rational factor."""
        factor = _as_fraction(factor)
        if factor == 1:
            return self
        if factor == -1:
            return -self
        return self * factor

    def monomial_div(self, divisor: RationalLike, exp: int) -> "Hyperreal":
        """Exact division by the single monomial ``divisor * H**exp``."""
        d = _as_fraction(divisor)
        if not d:
            raise ZeroDivisionError("division by a zero monomial coefficient")
        _check_exponent(exp)
        return _trusted(self._base, {e - exp: c / d for e, c in self._terms.items()})

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

    # -- serialization --------------------------------------------------

    def to_triples(self) -> list[list]:
        """Wire form: ``[exponent, numerator, denominator]`` triples with the
        numerator and denominator as decimal strings, descending exponent."""
        return [
            [exp, to_decimal(self._terms[exp].numerator), to_decimal(self._terms[exp].denominator)]
            for exp in sorted(self._terms, reverse=True)
        ]

    @classmethod
    def from_triples(cls, base: int, triples: Iterable) -> "Hyperreal":
        _check_base(base)
        terms: dict[int, Fraction] = {}
        previous = None
        for item in triples:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ValueError(f"expected an [exponent, numerator, denominator] triple, got {brief(item)}")
            exp, num, den = item
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise ValueError(f"triple exponent must be an integer, got {brief(exp)}")
            if previous is not None and exp >= previous:
                raise ValueError("triples must be in strictly descending exponent order")
            previous = exp
            try:
                numerator = parse_decimal(num, signed=True)
            except ValueError:
                raise ValueError(f"triple numerator must be a decimal string, got {brief(num)}") from None
            denominator = parse_decimal(den) if is_decimal(den) else 0
            if not denominator:
                raise ValueError(f"triple denominator must be a positive decimal string, got {brief(den)}")
            coeff = Fraction(numerator, denominator)
            if not coeff:
                raise ValueError("zero coefficient in serialized value")
            terms[exp] = coeff
        return _trusted(base, terms)

    # -- object protocol -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Hyperreal):
            return NotImplemented
        return self._base == other._base and self._terms == other._terms

    def __hash__(self):
        return hash((self._base, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Hyperreal({self._base}, {str(self)!r})"

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


def _term_body(magnitude: Fraction, exp: int) -> str:
    if exp == 0:
        return rational_to_decimal(magnitude)
    symbol = "H" if exp > 0 else "eps"
    power = abs(exp)
    symbol_pow = symbol if power == 1 else f"{symbol}^{power}"
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
            if coeff.denominator != 1 or coeff < 0:
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
    def base(self) -> int:
        return self._value.base

    @property
    def is_infinite(self) -> bool:
        return any(exp >= 1 for exp in self._value.terms)

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
    return Hypernatural(Hyperreal.monomial(base, code, 1))


def hyperfinite_constant_sum(count: Hypernatural, term: Hyperreal) -> Hyperreal:
    """Closed form ``count * term`` of a count-fold sum of a constant term.

    For finite counts this equals literal repeated addition; for infinite
    counts it is the transferred value of the same sum.  A count and a term
    of different bases raise BaseMismatchError, as every product does.
    """
    return count.value * term
