"""Coordinate vectors and the bundling and realization transformations.

An ultrasubparticle is the primitive coordinate vector

    (k, 1, s3*eps, s4*eps, ..., sn*eps)

with an opaque naming tag k in the first slot, a count of 1 in the second,
and one signed infinitesimal ``eps = 1/B**omega`` per quality coordinate.
Bundling a chosen quality with a hypernatural count leaves the count on
the count slot and the count times that quality's signed eps on the
quality, the closed form of count-fold iteration.  The affine translations
below are the paper's construction of that form; ``bundle`` alone writes the
one-shot translation, and ``make_lambda_translation`` reads it off ``bundle``.
Realization suppresses the first two slots and takes the standard part of
each quality: the code on the bundled entry, and 0 on every other slot,
the particle's own signed eps, so ``realize`` reads only the moved slots.
A bare coordinate vector is realized as ``IntermediateSubparticle(base, coords)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .hyperreal import (
    BaseMismatchError,
    Hypernatural,
    Hyperreal,
    InfiniteValueError,
    _ZERO,
    _as_fraction,
    _check_base,
)
from .radix import brief, check_natural, literal

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


def _sized(entries, what: str, least: int = 3) -> tuple:
    """``entries`` as a tuple, checked to hold ``least`` to ``MAX_DIMS`` of them: the one length rule of a vector."""
    entries = tuple(entries)
    if len(entries) < least:
        raise ValueError(f"{what} needs at least {least} coordinates")
    if len(entries) > MAX_DIMS:
        raise ValueError(f"{what} may have at most {MAX_DIMS} coordinates, got {len(entries)}")
    return entries


def _hyperreal_vector(base: int, entries, what: str, least: int = 3) -> tuple[Hyperreal, ...]:
    """``entries`` as a tuple, checked to hold ``least`` to ``MAX_DIMS`` Hyperreals of ``base``."""
    entries = _sized(entries, what, least)
    for entry in entries:
        if not isinstance(entry, Hyperreal):
            raise TypeError(f"entries of {what} must be Hyperreal, got {type(entry).__name__}")
        if entry.base != base:
            raise BaseMismatchError(f"an entry of {what} has base {brief(entry.base)}, not {brief(base)}")
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
    negated.  The coordinate vector is built once, with the particle.
    """

    base: int
    dims: int
    naming: int = 0
    signs: tuple[int, ...] | None = None
    _coords: tuple[Hyperreal, ...] = field(init=False, repr=False, compare=False)
    __repr__ = literal

    def __post_init__(self):
        _check_base(self.base)
        _check_dims(self.dims)
        check_natural(self.naming, "naming")
        signs = alternating_signs(self.dims) if self.signs is None else tuple(self.signs)
        if len(signs) != self.dims - 2 or any(type(s) is not int or s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be +1 or -1 ('+' or '-'), one per coordinate 3..{self.dims}")
        object.__setattr__(self, "signs", signs)
        eps = Hyperreal.epsilon(self.base)
        signed = {1: eps, -1: -eps}  # values are immutable, so slots share them
        head = (Hyperreal.from_rational(self.base, self.naming), Hyperreal.one(self.base))
        object.__setattr__(self, "_coords", head + tuple([signed[s] for s in signs]))

    @property
    def count(self) -> Hypernatural:
        return Hypernatural.from_int(1, self.base)

    def sign(self, coord: int) -> int:
        _check_coord(coord, self.dims)
        return self.signs[coord - 3]

    def coords(self) -> tuple[Hyperreal, ...]:
        return self._coords


@dataclass(frozen=True)
class IntermediateSubparticle:
    """Coordinate vector after bundling; slot 2 carries the hypernatural count."""

    base: int
    coords: tuple[Hyperreal, ...]
    __repr__ = literal

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
    __repr__ = literal

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
class RealizedVector:
    """Exact rational output vector; the first two entries are always zero.
    This is the one check of the realized layout, ledgers included."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple([_as_fraction(entry) for entry in _sized(self.coords, "a realized vector")])
        object.__setattr__(self, "coords", coords)
        if coords[0] != 0 or coords[1] != 0:
            raise ValueError("naming and count entries of a realized vector must be zero")

    __repr__ = literal


def _realized(coords: tuple[Hyperreal, ...], slots) -> RealizedVector:
    """The one builder of realized vectors: the standard part of each entry of ``coords`` at ``slots``
    (never the naming or count slot), and 0 at every other slot, so its layout is not checked again."""
    realized = [_ZERO] * len(coords)
    for index in slots:
        try:
            realized[index] = coords[index].st()
        except InfiniteValueError:
            raise InfiniteCoordinateError(index + 1) from None
    vector = object.__new__(RealizedVector)
    vars(vector).update(coords=tuple(realized))
    return vector


@dataclass(frozen=True)
class QualitySpec:
    """Which quality coordinates to bundle, each with its own count.

    ``tail_scale``, when given, multiplies the remaining quality coordinates
    by a small natural instead of dropping them to zero; either way they
    stay infinitesimal and realize to 0, so the result is the same.
    """

    entries: tuple[tuple[int, Hypernatural], ...]
    tail_scale: int | None = None
    __repr__ = literal

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


def make_translation(particle: Ultrasubparticle, coord: int) -> AffineMap:
    """Single bundling step: +1 on the count slot, one signed eps on ``coord``."""
    return make_lambda_translation(particle, coord, Hypernatural.from_int(2, particle.base))


def make_lambda_translation(particle: Ultrasubparticle, coord: int, count: Hypernatural) -> AffineMap:
    """One-shot bundling translation for a count: what ``bundle`` moves, slot
    by slot, which is ``count - 1`` on the count slot and ``count - 1``
    signed eps on ``coord``.  Applied once, it equals count-1 applications of
    the single step.  ``bundle`` checks ``coord`` and the count's base."""
    if count.is_degenerate:
        raise ValueError("count must be at least 1")
    bundled = bundle(particle, coord, count).coords
    return AffineMap(particle.base, tuple([moved - own for moved, own in zip(bundled, particle.coords())]))


def apply_translation_times(step: AffineMap, coords, times) -> tuple[Hyperreal, ...]:
    """Closed form ``coords + times * b`` of applying a translation repeatedly.

    ``times`` may be an int, a Hypernatural, or any Hyperreal count (one-shot
    translations subtract 1 from possibly infinite counts, which leaves
    natural-number form); for finite times the closed form equals the literal
    iteration exactly, and times 0 is the identity.  A count of another base
    fails in the first product, as every product of two bases does.
    """
    coords = _hyperreal_vector(step.base, coords, "a coordinate vector")
    if len(coords) != step.dims:
        raise ValueError(f"dimension mismatch: map has {step.dims}, vector has {len(coords)}")
    if isinstance(times, Hypernatural):
        times = times.value
    elif isinstance(times, bool) or not isinstance(times, (int, Hyperreal)):
        raise TypeError(f"times must be an int, Hypernatural, or Hyperreal, got {type(times).__name__}")
    return tuple([entry + times * shift for entry, shift in zip(coords, step.translation)])


def bundle(particle: Ultrasubparticle, coord: int, count: Hypernatural) -> IntermediateSubparticle:
    """Bundle ``count`` copies of the particle along one quality coordinate.

    One application of the one-shot translation, written on the two slots it
    moves: ``count - 1`` is added to the count slot and ``count - 1`` signed
    eps to coordinate ``coord``, which leaves ``count`` and
    ``count * (sign * eps)`` there, the closed form of the count-fold sum.
    Every other coordinate is the particle's own.  This is the one place the
    translation is written: ``make_lambda_translation`` reads it back from
    here.  The degenerate count 0 (the empty word's code) zeroes both slots.
    A count of another base fails in the first sum.
    """
    particle.sign(coord)  # checks coord
    delta = count.value - 1
    coords = list(particle.coords())
    coords[1] = coords[1] + delta
    coords[coord - 1] = coords[coord - 1] + delta * coords[coord - 1]
    bundled = object.__new__(IntermediateSubparticle)  # well formed by construction: not checked again
    vars(bundled).update(base=particle.base, coords=tuple(coords))
    return bundled


def realize(subparticle, particle: Ultrasubparticle | None = None) -> RealizedVector:
    """Standard-part realization of an ``IntermediateSubparticle``, which its constructor checked.  Given the
    ``particle`` it was bundled from, ``subparticle`` is its bare coordinates: a slot that is the particle's own
    object realizes to 0, only the others get the subparticle's checks, and another length is realized as one."""
    if particle is None:
        if not isinstance(subparticle, IntermediateSubparticle):
            raise TypeError(f"realize needs an IntermediateSubparticle, got {type(subparticle).__name__}")
    elif len(coords := tuple(subparticle)) != particle.dims:
        subparticle = IntermediateSubparticle(particle.base, coords)
    else:
        moved = [i for i, (entry, own) in enumerate(zip(coords, particle.coords())) if entry is not own]
        _hyperreal_vector(particle.base, [coords[i] for i in moved], "an intermediate subparticle", least=0)
        Hypernatural(coords[1])  # count slot must be natural-formed
        return _realized(coords, [i for i in moved if i > 1])
    return _realized(subparticle.coords, range(2, subparticle.dims))


def quality_bundle(particle: Ultrasubparticle, spec: QualitySpec) -> RealizedVector:
    """Bundle several qualities at once through a diagonal map, then realize.

    Each listed quality coordinate is scaled by its count.  The remaining
    quality coordinates realize to 0 whether ``tail_scale`` scales them or
    they are dropped, since a finitely scaled eps is still infinitesimal, so
    they are not built and the result is the same either way.  The first two
    diagonal entries are zero, so naming and count never reach the output.
    """
    for coord, _ in spec.entries:
        _check_coord(coord, particle.dims)
    counts = dict(spec.entries)  # a count of another base fails in its product below
    scaled = list(particle.coords())
    for coord in sorted(counts):
        scaled[coord - 1] = counts[coord].value * scaled[coord - 1]
    return _realized(scaled, [coord - 1 for coord in counts])
