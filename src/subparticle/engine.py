"""Coordinate vectors and the bundling and realization transformations.

An ultrasubparticle is the primitive coordinate vector

    (k, 1, s3*eps, s4*eps, ..., sn*eps)

with an opaque naming tag k in the first slot, a count of 1 in the second,
and one signed infinitesimal ``eps = 1/B**omega`` per quality coordinate.
Bundling a chosen quality with a hypernatural count scales both the count
slot and that quality up by the count through a single affine translation,
the closed form of count-fold iteration.  Realization then takes the
standard part of every quality coordinate, suppresses the first two slots,
and leaves an exact rational vector whose bundled entry carries the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hyperreal import (
    BaseMismatchError,
    Hypernatural,
    Hyperreal,
    InfiniteValueError,
    _as_fraction,
    _check_base,
)
from .radix import brief, check_natural

# Most coordinates a vector may have, checked before any per-coordinate work.
MAX_DIMS = 4096


class InfiniteCoordinateError(ArithmeticError):
    """A quality coordinate is infinite (unbundled), so it has no standard part."""

    def __init__(self, index: int):
        super().__init__(f"coordinate {index} is infinite and has no standard part")
        self.index = index


def _check_dims(dims) -> None:
    if not isinstance(dims, int) or not 3 <= dims <= MAX_DIMS:
        raise ValueError(f"dims must be an integer >= 3 and at most {MAX_DIMS}, got {brief(dims)}")


def _check_coord(coord, dims: int) -> None:
    if not isinstance(coord, int) or not 3 <= coord <= dims:
        raise IndexError(f"quality coordinate must be in 3..{dims}, got {brief(coord)}")


def _hyperreal_vector(base: int, entries, what: str) -> tuple[Hyperreal, ...]:
    """``entries`` as a tuple, checked to hold at least 3 Hyperreals of ``base``."""
    entries = tuple(entries)
    if len(entries) < 3:
        raise ValueError(f"{what} needs at least 3 coordinates")
    for entry in entries:
        if not isinstance(entry, Hyperreal):
            raise TypeError(f"entries of {what} must be Hyperreal, got {type(entry).__name__}")
        if entry.base != base:
            raise BaseMismatchError(f"an entry of {what} has base {entry.base}, not {base}")
    return entries


def alternating_signs(dims: int) -> tuple[int, ...]:
    """Default quality signs +1, -1, +1, ... for coordinates 3..dims."""
    return tuple(1 if i % 2 == 0 else -1 for i in range(dims - 2))


@dataclass(frozen=True)
class Ultrasubparticle:
    """Primitive vector: naming tag, unit count, signed eps qualities.

    The naming tag is carried opaquely and never interpreted; realization
    suppresses it.  Signs default to the alternating layout and bundling
    preserves them, so a code bundled onto a negative coordinate realizes
    negated.
    """

    base: int
    dims: int
    naming: int = 0
    signs: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_base(self.base)
        _check_dims(self.dims)
        check_natural(self.naming, "naming")
        signs = alternating_signs(self.dims) if self.signs is None else tuple(self.signs)
        if len(signs) != self.dims - 2 or any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be +1 or -1 ('+' or '-'), one per coordinate 3..{self.dims}")
        object.__setattr__(self, "signs", signs)

    @property
    def count(self) -> Hypernatural:
        return Hypernatural.from_int(1, self.base)

    def sign(self, coord: int) -> int:
        _check_coord(coord, self.dims)
        return self.signs[coord - 3]

    def coords(self) -> tuple[Hyperreal, ...]:
        eps = Hyperreal.epsilon(self.base)
        signed = {1: eps, -1: -eps}  # values are immutable, so slots share them
        return (
            Hyperreal.from_rational(self.base, self.naming),
            Hyperreal.one(self.base),
        ) + tuple([signed[s] for s in self.signs])


@dataclass(frozen=True)
class IntermediateSubparticle:
    """Coordinate vector after bundling; slot 2 carries the hypernatural count."""

    base: int
    coords: tuple[Hyperreal, ...]

    def __post_init__(self):
        coords = _hyperreal_vector(self.base, self.coords, "an intermediate subparticle")
        object.__setattr__(self, "coords", coords)
        Hypernatural(coords[1])  # count slot must be natural-formed

    @property
    def dims(self) -> int:
        return len(self.coords)

    @property
    def count(self) -> Hypernatural:
        return Hypernatural(self.coords[1])


@dataclass(frozen=True)
class AffineMap:
    """Translation by a fixed vector; the linear part is the identity.

    The naming slot of the translation is always zero, and at most one
    quality slot carries a nonzero entry (none at all for a count of 1,
    where the translation degenerates to the identity).
    """

    base: int
    translation: tuple[Hyperreal, ...]

    def __post_init__(self):
        translation = _hyperreal_vector(self.base, self.translation, "a translation")
        object.__setattr__(self, "translation", translation)
        if not translation[0].is_zero():
            raise ValueError("the naming slot of a translation must be zero")
        busy = [i for i in range(2, len(translation)) if not translation[i].is_zero()]
        if len(busy) > 1:
            raise ValueError("at most one quality slot of a translation may be nonzero")

    @property
    def dims(self) -> int:
        return len(self.translation)


@dataclass(frozen=True)
class RealizationMap:
    """Diagonal operator matrix: standard part on every quality slot, zero on
    the naming and count slots (which are never even inspected)."""

    dims: int

    def __post_init__(self):
        _check_dims(self.dims)

    def apply(self, coords) -> tuple[Fraction, ...]:
        coords = tuple(coords)
        if len(coords) != self.dims:
            raise ValueError(f"dimension mismatch: map has {self.dims}, vector has {len(coords)}")
        realized = [Fraction(0), Fraction(0)]
        for index, entry in enumerate(coords[2:], start=3):
            try:
                realized.append(entry.st())
            except InfiniteValueError:
                raise InfiniteCoordinateError(index) from None
        return tuple(realized)


@dataclass(frozen=True)
class RealizedVector:
    """Exact rational output vector; the first two entries are always zero.
    This is the one check of the realized layout, ledgers included."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(_as_fraction(entry) for entry in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 3:
            raise ValueError("a realized vector needs at least 3 coordinates")
        if coords[0] != 0 or coords[1] != 0:
            raise ValueError("naming and count entries of a realized vector must be zero")

    @property
    def dims(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class QualitySpec:
    """Which quality coordinates to bundle, each with its own count.

    ``tail_scale``, when given, multiplies the remaining quality coordinates
    by a small natural instead of dropping them to zero; either way they
    stay infinitesimal and realize to 0.
    """

    entries: tuple[tuple[int, Hypernatural], ...]
    tail_scale: int | None = None

    def __post_init__(self):
        entries = tuple((coord, count) for coord, count in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for coord, count in entries:
            _check_coord(coord, MAX_DIMS)
            if coord in seen:
                raise ValueError(f"duplicate quality coordinate {coord}")
            seen.add(coord)
            if not isinstance(count, Hypernatural):
                raise TypeError(f"counts must be Hypernatural, got {type(count).__name__}")
        if self.tail_scale is not None:
            check_natural(self.tail_scale, "tail_scale")


def _translation(particle: Ultrasubparticle, coord: int, delta: Hyperreal) -> AffineMap:
    """``delta`` on the count slot and ``delta`` signed eps on ``coord``:
    the translation that takes a count of 1 to a count of ``delta + 1``.
    A ``delta`` of another base fails in the product below."""
    step = Hyperreal.epsilon(particle.base).scale(particle.sign(coord))  # checks coord
    translation = [Hyperreal.zero(particle.base)] * particle.dims
    translation[1] = delta
    translation[coord - 1] = delta * step
    return AffineMap(particle.base, tuple(translation))


def make_translation(particle: Ultrasubparticle, coord: int) -> AffineMap:
    """Single bundling step: +1 on the count slot, one signed eps on ``coord``."""
    return _translation(particle, coord, Hyperreal.one(particle.base))


def make_lambda_translation(particle: Ultrasubparticle, coord: int, count: Hypernatural) -> AffineMap:
    """One-shot bundling translation for a count: applied once, it equals
    count-1 applications of the single step."""
    if count.is_degenerate:
        raise ValueError("count must be at least 1")
    return _translation(particle, coord, count.value - 1)


def apply_translation_times(step: AffineMap, coords, times) -> tuple[Hyperreal, ...]:
    """Closed form ``coords + times * b`` of applying a translation repeatedly.

    ``times`` may be an int, a Hypernatural, or any Hyperreal count (one-shot
    translations subtract 1 from possibly infinite counts, which leaves
    natural-number form); for finite times the closed form equals the literal
    iteration exactly, and times 0 is the identity.  Slots whose shift is
    zero are passed through unchanged.
    """
    coords = _hyperreal_vector(step.base, coords, "a coordinate vector")
    if len(coords) != step.dims:
        raise ValueError(f"dimension mismatch: map has {step.dims}, vector has {len(coords)}")
    if isinstance(times, Hypernatural):
        times = times.value
    elif isinstance(times, int):
        times = Hyperreal.from_rational(step.base, times)
    if not isinstance(times, Hyperreal):
        raise TypeError(f"times must be an int, Hypernatural, or Hyperreal, got {type(times).__name__}")
    if times.base != step.base:
        raise BaseMismatchError("times base differs from the map base")
    pairs = zip(coords, step.translation)
    return tuple([entry + times * shift if shift._terms else entry for entry, shift in pairs])


def bundle(
    particle: Ultrasubparticle, coord: int, count: Hypernatural, coords: tuple[Hyperreal, ...] | None = None
) -> IntermediateSubparticle:
    """Bundle ``count`` copies of the particle along one quality coordinate.

    A single application of the count-dependent translation leaves the count
    slot holding ``count`` and coordinate ``coord`` holding
    ``count * (sign * eps)``, exactly the closed form of the count-fold sum
    of the signed infinitesimal; every other coordinate is untouched.  The
    degenerate count 0 (the empty word's code) zeroes both slots, since its
    translation subtracts the particle's own count and eps there.
    ``coords``, when given, must be ``particle.coords()``; a caller that
    records those anyway need not have them computed twice.
    """
    step = _translation(particle, coord, count.value - 1)
    if coords is None:
        coords = particle.coords()
    return IntermediateSubparticle(particle.base, apply_translation_times(step, coords, 1))


def realize(subparticle: IntermediateSubparticle) -> RealizedVector:
    """Standard-part realization of a bundled coordinate vector."""
    return RealizedVector(RealizationMap(subparticle.dims).apply(subparticle.coords))


def quality_bundle(particle: Ultrasubparticle, spec: QualitySpec) -> RealizedVector:
    """Bundle several qualities at once through a diagonal map, then realize.

    Each listed quality coordinate is scaled by its count; the remaining
    quality coordinates are scaled by ``tail_scale`` when given and dropped
    to zero otherwise.  Both choices yield the same realized vector, since a
    finitely scaled eps is still infinitesimal.  The first two diagonal
    entries are zero, so naming and count never reach the output.
    """
    for coord, _ in spec.entries:
        _check_coord(coord, particle.dims)
    counts = dict(spec.entries)  # a count of another base fails in its product below
    source = particle.coords()
    zero = Hyperreal.zero(particle.base)
    scaled = [zero, zero]
    for coord in range(3, particle.dims + 1):
        entry = source[coord - 1]
        if coord in counts:
            scaled.append(counts[coord].value * entry)
        elif spec.tail_scale is not None:
            scaled.append(entry.scale(spec.tail_scale))
        else:
            scaled.append(zero)
    return RealizedVector(RealizationMap(particle.dims).apply(scaled))
