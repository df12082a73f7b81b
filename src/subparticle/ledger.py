"""Run configuration and the serialized record of one pipeline run.

Ledgers are versioned JSON documents holding every stage of an encode run:
the word, its code, the bundling count, the coordinate vectors before and
after bundling, the realized rational vector, and the decoded word.  All
arbitrary-precision numbers travel as decimal strings so no consumer can
lose precision; hyperreals travel as ``[exponent, numerator, denominator]``
triples in descending exponent order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii

from .codec import DEFAULT_ALPHABET, Alphabet
from .engine import RealizedVector, Ultrasubparticle, _check_coord
from .hyperreal import Hypernatural, Hyperreal
from .radix import brief, parse_decimal, parse_rational, rational_to_decimal, to_decimal

LEDGER_VERSION = "1"

_CONFIG_KEYS = ("base", "dims", "alphabet", "bundle_coordinate", "quality_signs")
_LEDGER_KEYS = (
    "version",
    "config",
    "word",
    "code",
    "sequence_head",
    "lambda",
    "bundle_sign",
    "ultrasubparticle",
    "intermediate",
    "realized",
    "decoded",
)


class LedgerError(ValueError):
    """The ledger document is not well formed."""


_SIGN_VALUES = {"+": 1, "-": -1}


@dataclass(frozen=True)
class Config:
    """Pipeline settings.  The alphabet order and the sign layout define the
    code, so both are recorded verbatim in every ledger.  ``quality_signs``
    is one ``+`` or ``-`` per coordinate 3..dims; empty means alternating.

    ``codec_alphabet`` and ``particle`` are the Alphabet and the
    Ultrasubparticle the settings describe, built once; their constructors
    are the checks of the settings.  ``signs`` is the particle's layout."""

    base: int = 10
    dims: int = 8
    alphabet: str = DEFAULT_ALPHABET
    bundle_coordinate: int = 3
    quality_signs: str = ""
    codec_alphabet: Alphabet = field(init=False, repr=False, compare=False)
    particle: Ultrasubparticle = field(init=False, repr=False, compare=False)
    signs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        text = self.quality_signs
        if not isinstance(text, str):
            raise ValueError(f"quality_signs must be a string of '+' and '-', got {brief(text)}")
        signs = tuple(_SIGN_VALUES.get(ch, 0) for ch in text) if text else None  # the particle refuses 0
        particle = Ultrasubparticle(self.base, self.dims, signs=signs)
        object.__setattr__(self, "particle", particle)
        object.__setattr__(self, "signs", particle.signs)
        object.__setattr__(self, "codec_alphabet", Alphabet(self.alphabet))
        try:
            _check_coord(self.bundle_coordinate, self.dims)
        except IndexError as exc:
            raise ValueError(f"bundle_coordinate: {exc}") from None
        if not text:
            object.__setattr__(self, "quality_signs", "".join("+" if s == 1 else "-" for s in particle.signs))

    @property
    def bundle_sign(self) -> int:
        return self.signs[self.bundle_coordinate - 3]

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, data) -> "Config":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class Ledger:
    """Complete record of one encode run, replayable and checkable: the
    config and one field per pipeline stage.  The document's ``version``,
    ``sequence_head`` (the head of the run's partial-sequence class, always
    the code) and ``bundle_sign`` (the config's sign of the bundled
    coordinate) follow from these, so they are written and checked but not
    stored.
    """

    config: Config
    word: str
    code: int
    count: Hypernatural
    ultrasubparticle: tuple[Hyperreal, ...]
    intermediate: tuple[Hyperreal, ...]
    realized: tuple[Fraction, ...]
    decoded: str

    @property
    def bundle_sign(self) -> int:
        return self.config.bundle_sign

    def to_dict(self) -> dict:
        return {
            "version": LEDGER_VERSION,
            "config": self.config.to_dict(),
            "word": self.word,
            "code": to_decimal(self.code),
            "sequence_head": to_decimal(self.code),
            "lambda": {
                "value": self.count.value.to_triples(),
                "infinite": self.count.is_infinite,
                "degenerate": self.count.is_degenerate,
            },
            "bundle_sign": "+" if self.bundle_sign == 1 else "-",
            "ultrasubparticle": [entry.to_triples() for entry in self.ultrasubparticle],
            "intermediate": [entry.to_triples() for entry in self.intermediate],
            "realized": [rational_to_decimal(entry) for entry in self.realized],
            "decoded": self.decoded,
        }

    def to_json(self) -> str:
        """The ledger document, laid out byte for byte as
        ``json.dumps(self.to_dict(), indent=2)`` lays it out."""
        out: list[str] = []
        _emit(self.to_dict(), "\n", out)
        return "".join(out)

    @classmethod
    def from_dict(cls, data) -> "Ledger":
        if not isinstance(data, dict):
            raise LedgerError("ledger must be a JSON object")
        missing = set(_LEDGER_KEYS) - set(data)
        if missing:
            raise LedgerError(f"missing ledger field(s): {sorted(missing)}")
        unknown = set(data) - set(_LEDGER_KEYS)
        if unknown:
            raise LedgerError(f"unknown ledger field(s): {sorted(unknown)}")
        if data["version"] != LEDGER_VERSION:
            raise LedgerError(f"unsupported ledger version {brief(data['version'])}")
        try:
            config = Config.from_dict(data["config"])
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"invalid config: {exc}") from exc
        word = data["word"]
        decoded = data["decoded"]
        if not isinstance(word, str) or not isinstance(decoded, str):
            raise LedgerError("word and decoded must be strings")
        code = _parse_natural(data["code"], "code")
        if _parse_natural(data["sequence_head"], "sequence_head") != code:
            raise LedgerError("sequence_head must equal code")
        count = _parse_count(data["lambda"], config.base)
        sign_text = data["bundle_sign"]
        if sign_text != ("+" if config.bundle_sign == 1 else "-"):
            raise LedgerError(f"bundle_sign {brief(sign_text)} disagrees with the config quality_signs")
        triples = partial(Hyperreal.from_triples, config.base)
        ultra = _parse_coords(data["ultrasubparticle"], config, "ultrasubparticle", triples)
        intermediate = _parse_coords(data["intermediate"], config, "intermediate", triples)
        realized = _parse_coords(data["realized"], config, "realized", parse_rational)
        try:
            realized = RealizedVector(realized).coords
        except ValueError as exc:
            raise LedgerError(f"invalid realized vector: {exc}") from None
        return cls(config, word, code, count, ultra, intermediate, realized, decoded)

    @classmethod
    def from_json(cls, text: str) -> "Ledger":
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or a number past the int-str limit
            raise LedgerError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _emit(value, newline: str, out: list) -> None:
    """Append the JSON text of a tree of str, int, bool, list and dict to
    ``out``, as ``json.dumps(value, indent=2)`` writes it.  ``newline`` is
    a line break followed by the indentation of the current depth."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opening = "[" + inner
        for item in value:
            out.append(opening)
            opening = "," + inner
            # Most items of a ledger list are the strings and ints of a
            # triple: write those here rather than one call deeper.
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _emit(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            out.append(f"{opening}{encode_basestring_ascii(key)}: ")
            opening = "," + inner
            _emit(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} to a ledger")


def _parse_natural(value, field: str) -> int:
    try:
        return parse_decimal(value, canonical=True)
    except ValueError:
        raise LedgerError(f"{field} must be a decimal string of a natural number, got {brief(value)}") from None


def _parse_count(value, base: int) -> Hypernatural:
    if not isinstance(value, dict) or set(value) != {"value", "infinite", "degenerate"}:
        raise LedgerError("lambda must be an object with value, infinite, and degenerate fields")
    try:
        count = Hypernatural(Hyperreal.from_triples(base, value["value"]))
    except (TypeError, ValueError) as exc:
        raise LedgerError(f"invalid lambda: {exc}") from exc
    if value["infinite"] is not count.is_infinite or value["degenerate"] is not count.is_degenerate:
        raise LedgerError("lambda flags disagree with the serialized value")
    return count


def _parse_coords(value, config: Config, field: str, parse) -> tuple:
    """The ``config.dims`` entries of a coordinate list, each read by ``parse``."""
    if not isinstance(value, list) or len(value) != config.dims:
        raise LedgerError(f"{field} must be a list of {config.dims} coordinates")
    coords = []
    for index, item in enumerate(value, start=1):
        try:
            coords.append(parse(item))
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"invalid {field} coordinate {index}: {exc}") from exc
    return tuple(coords)
