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
from json.encoder import encode_basestring_ascii

from .codec import DEFAULT_ALPHABET
from .engine import alternating_signs
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


@dataclass(frozen=True)
class Config:
    """Pipeline settings.  The alphabet order and the sign layout define the
    code, so both are recorded verbatim in every ledger.  ``signs`` is
    ``quality_signs`` parsed once into +1/-1 entries."""

    base: int = 10
    dims: int = 8
    alphabet: str = DEFAULT_ALPHABET
    bundle_coordinate: int = 3
    quality_signs: str = ""
    signs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"base must be an integer >= 2, got {brief(self.base)}")
        if not isinstance(self.dims, int) or self.dims < 3:
            raise ValueError(f"dims must be an integer >= 3, got {brief(self.dims)}")
        if not isinstance(self.alphabet, str) or not self.alphabet:
            raise ValueError("alphabet must be a nonempty string")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if not isinstance(self.bundle_coordinate, int) or not 3 <= self.bundle_coordinate <= self.dims:
            raise ValueError(
                f"bundle_coordinate must be in 3..{brief(self.dims)}, got {brief(self.bundle_coordinate)}"
            )
        text = self.quality_signs
        if not text:
            signs = alternating_signs(self.dims)
            text = "".join("+" if s == 1 else "-" for s in signs)
            object.__setattr__(self, "quality_signs", text)
        elif isinstance(text, str) and len(text) == self.dims - 2 and not set(text) - set("+-"):
            signs = tuple(1 if ch == "+" else -1 for ch in text)
        else:
            raise ValueError(
                f"quality_signs must be a +/- string of length dims-2 ({brief(self.dims - 2)}), got {brief(text)}"
            )
        object.__setattr__(self, "signs", signs)

    @property
    def bundle_sign(self) -> int:
        return self.signs[self.bundle_coordinate - 3]

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "dims": self.dims,
            "alphabet": self.alphabet,
            "bundle_coordinate": self.bundle_coordinate,
            "quality_signs": self.quality_signs,
        }

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
    """Complete record of one encode run, replayable and checkable.

    ``sequence_head`` is the head entry of the run's partial-sequence class
    and always equals the code.  ``bundle_sign`` records which sign the
    bundled coordinate carried, so consumers can undo it when recovering
    the code from the realized vector.
    """

    version: str
    config: Config
    word: str
    code: int
    sequence_head: int
    count: Hypernatural
    bundle_sign: int
    ultrasubparticle: tuple[Hyperreal, ...]
    intermediate: tuple[Hyperreal, ...]
    realized: tuple[Fraction, ...]
    decoded: str

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_dict(),
            "word": self.word,
            "code": to_decimal(self.code),
            "sequence_head": to_decimal(self.sequence_head),
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
        sequence_head = _parse_natural(data["sequence_head"], "sequence_head")
        if sequence_head != code:
            raise LedgerError("sequence_head must equal code")
        count = _parse_count(data["lambda"], config.base)
        sign_text = data["bundle_sign"]
        if sign_text not in ("+", "-"):
            raise LedgerError(f"bundle_sign must be '+' or '-', got {brief(sign_text)}")
        bundle_sign = 1 if sign_text == "+" else -1
        if bundle_sign != config.bundle_sign:
            raise LedgerError("bundle_sign disagrees with the config quality_signs")
        ultra = _parse_coords(data["ultrasubparticle"], config, "ultrasubparticle")
        intermediate = _parse_coords(data["intermediate"], config, "intermediate")
        realized = _parse_realized(data["realized"], config)
        return cls(
            version=data["version"],
            config=config,
            word=word,
            code=code,
            sequence_head=sequence_head,
            count=count,
            bundle_sign=bundle_sign,
            ultrasubparticle=ultra,
            intermediate=intermediate,
            realized=realized,
            decoded=decoded,
        )

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


def _parse_coords(value, config: Config, field: str) -> tuple[Hyperreal, ...]:
    if not isinstance(value, list) or len(value) != config.dims:
        raise LedgerError(f"{field} must be a list of {config.dims} coordinates")
    coords = []
    for index, triples in enumerate(value, start=1):
        try:
            coords.append(Hyperreal.from_triples(config.base, triples))
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"invalid {field} coordinate {index}: {exc}") from exc
    return tuple(coords)


def _parse_realized(value, config: Config) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or len(value) != config.dims:
        raise LedgerError(f"realized must be a list of {config.dims} rational strings")
    realized = []
    for index, text in enumerate(value, start=1):
        try:
            realized.append(parse_rational(text))
        except ValueError as exc:
            raise LedgerError(f"invalid realized coordinate {index}: {exc}") from None
    if realized[0] != 0 or realized[1] != 0:
        raise LedgerError("realized naming and count entries must be zero")
    return tuple(realized)
