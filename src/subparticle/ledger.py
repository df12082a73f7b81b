"""Run configuration and the serialized record of one pipeline run.

Ledgers are versioned JSON documents holding every stage of an encode run:
the word, its code, the bundling count, the coordinate vectors before and
after bundling, the realized rational vector, and the decoded word.  All
arbitrary-precision numbers travel as decimal strings so no consumer can
lose precision; hyperreals travel as ``[exponent, numerator, denominator]``
triples in descending exponent order, and the zero hyperreal is exactly
``[]``.

Format v1 fixes the shape of every field, and a run's ledger states its
code six times: as ``code``, as ``sequence_head``, as the ``lambda``
numerator, on the intermediate count slot and on the intermediate and
realized bundled slots.  So a config's ``layout`` is the text of its runs,
cut at the word, at ``decoded`` and at those six places, with a second cut
for the empty word's shape, code 0.  ``Ledger.to_json`` joins the pieces
with the word's text, one decimal text of the code and ``decoded``'s text
when the ledger holds a run's fields for its code (``_is_run``), and
``_written``, the every-entry writer, writes any other ledger and the
layout itself.  ``Ledger.from_json`` compares a text with the pieces in
place, decodes the word and ``decoded``, checks the first copy of the code
as a canonical natural and the other five against it, and builds the run's
fields from the code (``_run``); any other text goes to
``Ledger.from_dict(read_json(text))``, and both give the same ledgers and
messages.  ``read_json`` is the one reader of JSON text, ``--config`` files
included.  This module alone knows the triple form: ``_hyperreal_json``
writes a hyperreal and ``_hyperreal`` reads one back over the config's
checked base, refusing any JSON value but a list; a one-term value, such as
the entries a run moves, is written with one f-string.  The ``config``
object is its config's constant text (``Config.block``), and a run's three
vector fields are its config's constants (``Config.table``) but for the
slots the run moves, so ``_parse_vector`` reads only those slots when every
other one holds its own JSON value exactly, and every entry otherwise.
``json.dumps(ledger.to_dict(), indent=2)`` equals ``ledger.to_json()`` byte
for byte.  ``Config.from_dict`` keeps its last 64 configs, keyed by five
settings of exact type, so ledgers share them; each holds its ``table``,
``block`` and ``layout`` once it has written or read a ledger, about 1.4 MB
at 4096 dims.  The bundled sign is ``config.bundle_sign``: a ledger writes
it as text only.
"""

from __future__ import annotations

import json
import marshal
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from json.encoder import encode_basestring_ascii
from operator import is_

from .codec import DEFAULT_ALPHABET, Alphabet
from .engine import RealizedVector, Ultrasubparticle
from .hyperreal import _ZERO, Hypernatural, Hyperreal, _check_exponent, _coefficient, _trusted
from .radix import brief, check_natural, decimal_value, is_decimal, literal
from .radix import parse_rational, rational_to_decimal, to_decimal

LEDGER_VERSION = "1"

_CONFIG_KEYS = ("base", "dims", "alphabet", "bundle_coordinate", "quality_signs")
_LEDGER_KEYS = frozenset(("version", "config", "word", "code", "sequence_head", "lambda", "bundle_sign",
                          "ultrasubparticle", "intermediate", "realized", "decoded"))
_COUNT_KEYS = frozenset(("value", "infinite", "degenerate"))


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
    are the checks of the settings.  ``bundle_sign`` is the particle's sign
    of the bundled coordinate, looked up once by ``Ultrasubparticle.sign``.
    ``table`` holds its ledgers' three vector fields as a run leaves them
    (see ``_Vector``), built on the first ledger the config writes or reads;
    slots share one JSON value per distinct entry (<= 4).  ``block`` is the
    settings' text in each of its ledgers, and ``layout`` the text of its
    runs' ledgers, built likewise."""

    base: int = 10
    dims: int = 8
    alphabet: str = DEFAULT_ALPHABET
    bundle_coordinate: int = 3
    quality_signs: str = ""
    codec_alphabet: Alphabet = field(init=False, repr=False, compare=False)
    particle: Ultrasubparticle = field(init=False, repr=False, compare=False)
    bundle_sign: int = field(init=False, repr=False, compare=False)
    __repr__ = literal

    def __post_init__(self):
        text = self.quality_signs
        if not isinstance(text, str):
            raise ValueError(f"quality_signs must be a string of '+' and '-', got {brief(text)}")
        signs = tuple(_SIGN_VALUES.get(ch, 0) for ch in text) if text else None  # the particle refuses 0
        particle = Ultrasubparticle(self.base, self.dims, signs=signs)
        object.__setattr__(self, "particle", particle)
        object.__setattr__(self, "codec_alphabet", Alphabet(self.alphabet))
        try:
            object.__setattr__(self, "bundle_sign", particle.sign(self.bundle_coordinate))
        except IndexError as exc:
            raise ValueError(f"bundle_coordinate: {exc}") from None
        if not text:
            object.__setattr__(self, "quality_signs", "".join("+" if s == 1 else "-" for s in particle.signs))

    @cached_property
    def table(self) -> tuple[_Vector, _Vector, _Vector]:
        slot, hyperreal = self.bundle_coordinate - 1, partial(_hyperreal, base=self.base)
        ultra = _vector("ultrasubparticle", (), self.particle.coords(), _hyperreal_json, hyperreal, tuple)
        realized = _vector("realized", (slot,), (_ZERO,) * self.dims, lambda value: f'"{rational_to_decimal(value)}"',
                           parse_rational, lambda coords: RealizedVector(coords).coords)
        return ultra, ultra._replace(key="intermediate", moved=(1, slot)), realized

    @cached_property
    def block(self) -> str:
        """The ledger text of the settings, the ``config`` object at depth 1: the same in each of its ledgers."""
        return (f'{{\n    "base": {self.base},\n    "dims": {self.dims},\n'
                f'    "alphabet": {encode_basestring_ascii(self.alphabet)},\n'
                f'    "bundle_coordinate": {self.bundle_coordinate},\n'
                f'    "quality_signs": "{self.quality_signs}"\n  }}')

    @cached_property
    def layout(self) -> tuple[str, tuple[str, ...], str, str]:
        """The text of a run's ledger, cut where the run's own texts go: ``(head, pieces, empty, tail)``.  The
        ledger of a run of code ``c > 0`` is ``head + word + to_decimal(c).join(pieces) + decoded + tail``, with
        the word's and ``decoded``'s JSON texts, and that of the empty word's run, code 0, is
        ``head + word + empty + decoded + tail``.  Both are ``_written``'s texts of ``_run``'s fields with ``_CUT``
        for the word and ``decoded``.  The seven pieces are cut at marker code 2, whose digit no other text
        between those two holds (they hold only 0s and 1s), at its six places: ``code``, ``sequence_head``, the
        ``lambda`` numerator, the intermediate count slot, and the intermediate and realized bundled slots, after
        their sign."""
        head, body, tail = _written(Ledger(self, "", 2, *_run(self, 2), ""), lambda _: _CUT).split(_CUT)
        empty = _written(Ledger(self, "", 0, *_run(self, 0), ""), lambda _: _CUT).split(_CUT)[1]
        return head, tuple(body.split("2")), empty, tail

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, data) -> "Config":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        if unknown := set(data) - set(_CONFIG_KEYS):
            raise ValueError(f"unknown config key(s): {_listed(unknown)}")
        settings = (_CONFIG_DEFAULTS | data).values()  # in _CONFIG_KEYS order, a missing key at its default
        if cls is Config and list(map(type, settings)) == [int, int, str, int, str]:
            return _config_memo(*settings)  # exact types: True and 1.0 miss 1
        return cls(**data)


_CONFIG_DEFAULTS = {key: getattr(Config, key) for key in _CONFIG_KEYS}
_config_memo = lru_cache(maxsize=64)(Config)


@dataclass(frozen=True)
class Ledger:
    """Complete record of one encode run, replayable and checkable: the
    config and one field per pipeline stage.  The document's ``version``,
    ``sequence_head`` (the head of the run's partial-sequence class, always
    the code) and ``bundle_sign`` (``config.bundle_sign`` as ``+`` or
    ``-``) follow from these, so they are written and checked but are not
    attributes of the ledger.
    """

    config: Config
    word: str
    code: int
    count: Hypernatural
    ultrasubparticle: tuple[Hyperreal, ...]
    intermediate: tuple[Hyperreal, ...]
    realized: tuple[Fraction, ...]
    decoded: str

    def to_dict(self) -> dict:
        return read_json(self.to_json())

    def to_json(self) -> str:
        """The document in format v1's layout: a run's ledger through its config's ``layout``, with one decimal
        text of its code, and any other ledger with every entry written."""
        check_natural(self.code, "code")
        if not _is_run(self):
            return _written(self, encode_basestring_ascii)
        head, pieces, empty, tail = self.config.layout
        middle = to_decimal(self.code).join(pieces) if self.code else empty
        return "".join((head, encode_basestring_ascii(self.word), middle, encode_basestring_ascii(self.decoded), tail))

    @classmethod
    def from_dict(cls, data) -> "Ledger":
        if not isinstance(data, dict):
            raise LedgerError("ledger must be a JSON object")
        if data.keys() != _LEDGER_KEYS:
            if missing := _LEDGER_KEYS - data.keys():
                raise LedgerError(f"missing ledger field(s): {sorted(missing)}")
            raise LedgerError(f"unknown ledger field(s): {_listed(data.keys() - _LEDGER_KEYS)}")
        if data["version"] != LEDGER_VERSION:
            raise LedgerError(f"unsupported ledger version {brief(data['version'])}")
        try:
            config = Config.from_dict(data["config"])
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"invalid config: {exc}") from exc
        word, decoded = data["word"], data["decoded"]
        if not isinstance(word, str) or not isinstance(decoded, str):
            raise LedgerError("word and decoded must be strings")
        text, head = data["code"], data["sequence_head"]
        code = _parse_natural(text, "code")
        same = type(head) is type(text) is str and head == text  # a plain copy of a checked text: nothing to parse
        if not same and _parse_natural(head, "sequence_head") != code:
            raise LedgerError("sequence_head must equal code")
        count = _parse_count(data["lambda"], config.base)
        sign_text = data["bundle_sign"]
        if sign_text != config.quality_signs[config.bundle_coordinate - 3]:
            raise LedgerError(f"bundle_sign {brief(sign_text)} disagrees with the config quality_signs")
        ultra, intermediate, realized = config.table
        return cls(config, word, code, count, _parse_vector(data["ultrasubparticle"], ultra),
                   _parse_vector(data["intermediate"], intermediate), _parse_vector(data["realized"], realized), decoded)

    @classmethod
    def from_json(cls, text: str) -> "Ledger":
        """The ledger of ``text``: read through its config's ``layout`` if it is a run's text, else parsed by
        ``from_dict``."""
        ledger = _read_layout(cls, text)
        return cls.from_dict(read_json(text)) if ledger is None else ledger

    __repr__ = literal


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members, refusing a repeated key: ``json.loads`` would keep the last value, and a
    ledger that also holds another is not evidence of either."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise LedgerError(f"repeated key {brief(key)}")
            seen.add(key)
    return data


# Built once: json.loads(text, object_pairs_hook=...) builds a decoder per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_json(text: str):
    """The JSON value of ``text``, for ledgers and ``--config`` files alike; ``LedgerError`` if it is not
    JSON or an object in it repeats a key."""
    try:
        return _DECODER.decode(text)
    except LedgerError:  # a repeated key
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, a number past the int-str limit, deep nesting
        raise LedgerError(f"not valid JSON: {exc}") from exc


def _listed(keys) -> str:
    """Keys as the text of a list, each quoted by ``brief``, in ``repr`` order, so that keys of any type sort."""
    return f"[{', '.join(map(brief, sorted(keys, key=repr)))}]"


# Format v1's text up to the config object.  ``_written`` writes every ledger text that is not a run's, and
# ``Config.layout`` cuts its text of a run at ``_CUT``, which no ledger text holds, since JSON escapes every
# control character in a string.
_HEAD = f'{{\n  "version": "{LEDGER_VERSION}",\n  "config": '
_CUT = "\x00"


def _written(ledger: Ledger, quote) -> str:
    """A ledger's text with every entry written, the word and ``decoded`` as ``quote`` writes them."""
    config, count, code = ledger.config, ledger.count, to_decimal(ledger.code)
    infinite, degenerate = ("true" if flag else "false" for flag in (count.is_infinite, count.is_degenerate))
    ultra, intermediate, realized = config.table
    return (f'{_HEAD}{config.block},\n  "word": {quote(ledger.word)},\n  "code": "{code}",\n'
            f'  "sequence_head": "{code}",\n  "lambda": {{\n    "value": {_hyperreal_json(count.value)},\n'
            f'    "infinite": {infinite},\n    "degenerate": {degenerate}\n  }},\n'
            f'  "bundle_sign": "{config.quality_signs[config.bundle_coordinate - 3]}",\n'
            f'  "ultrasubparticle": {_vector_text(map(ultra.write, ledger.ultrasubparticle))},\n'
            f'  "intermediate": {_vector_text(map(intermediate.write, ledger.intermediate))},\n'
            f'  "realized": {_vector_text(map(realized.write, ledger.realized))},\n'
            f'  "decoded": {quote(ledger.decoded)}\n}}')


def _run(config: Config, code: int) -> tuple:
    """A run's count and three vector fields for ``code``: the count ``code*H``, also on the intermediate count
    slot, ``sign*code`` on both bundled slots, and the config's own objects on every other slot."""
    ultra, intermediate, realized = config.table
    slot, base = config.bundle_coordinate - 1, config.base
    moved, bundled = list(intermediate.own), list(realized.own)
    bundled[slot] = signed = _coefficient(config.bundle_sign * code, 1)
    if code:
        moved[1], moved[slot] = _trusted(base, {1: _coefficient(code, 1)}), _trusted(base, {0: signed})
    else:
        moved[1], moved[slot] = _trusted(base, {}), _trusted(base, {})
    return Hypernatural(moved[1]), ultra.own, tuple(moved), tuple(bundled)


def _is_term(value, exp: int, coeff: int) -> bool:
    """True if ``value`` is the Hyperreal ``coeff * H**exp``, which is zero for ``coeff`` 0."""
    if type(value) is not Hyperreal:
        return False
    terms = value._terms
    return len(terms) == 1 and terms.get(exp) == coeff if coeff else not terms


def _is_run(ledger: Ledger) -> bool:
    """True if ``ledger`` holds ``_run``'s fields for its code, which its config's ``layout`` writes: each moved
    entry of the value that ``_run`` puts there, and every other slot the config's own object."""
    config, code, count = ledger.config, ledger.code, ledger.count
    if type(config) is not Config or type(code) is not int or type(count) is not Hypernatural:
        return False
    ultra, intermediate, realized = config.table
    own, entries, bundled = ultra.own, ledger.intermediate, ledger.realized
    slot, signed = config.bundle_coordinate - 1, config.bundle_sign * code
    if not (_is_term(count.value, 1, code) and type(entries) is tuple and len(entries) == len(own)
            and _is_term(entries[1], 1, code) and _is_term(entries[slot], 0, signed)
            and type(bundled) is tuple and len(bundled) == len(own) and type(bundled[slot]) is Fraction
            and bundled[slot] == signed):
        return False
    entries, bundled = list(entries), list(bundled)
    entries[1], entries[slot], bundled[slot] = own[1], own[slot], realized.own[slot]
    unmoved = ledger.ultrasubparticle
    return ((unmoved is own or type(unmoved) is tuple and len(unmoved) == len(own) and all(map(is_, unmoved, own)))
            and all(map(is_, entries, own)) and all(map(is_, bundled, realized.own)))


def _hyperreal_json(value: Hyperreal) -> str:
    """A hyperreal's triples in descending exponent order, at depth 2, where format v1 puts every one."""
    terms = value.terms
    if len(terms) == 1:  # each entry a run moves, but the empty word's: nothing to sort or join
        (term,) = terms.items()
        return f"[\n{_triple_json(term)}\n    ]"
    return "[\n" + ",\n".join(map(_triple_json, sorted(terms.items(), reverse=True))) + "\n    ]" if terms else "[]"


def _triple_json(term) -> str:
    exp, c = term
    return f'      [\n        {exp},\n        "{to_decimal(c.numerator)}",\n        "{to_decimal(c.denominator)}"\n      ]'


def _hyperreal(value, base: int) -> Hyperreal:
    """The hyperreal that a list of triples names, over a base the config already checked."""
    if not isinstance(value, list):
        raise ValueError(f"a hyperreal must be a list of triples, got {brief(value)}")
    terms = {}
    previous = None
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ValueError(f"expected an [exponent, numerator, denominator] triple, got {brief(item)}")
        exp, num, den = item
        _check_exponent(exp)
        if previous is not None and exp >= previous:
            raise ValueError("triples must be in strictly descending exponent order")
        previous = exp
        if not is_decimal(num, signed=True):
            raise ValueError(f"triple numerator must be a decimal string, got {brief(num)}")
        numerator = decimal_value(num)
        denominator = decimal_value(den) if is_decimal(den) else 0
        if not denominator:
            raise ValueError(f"triple denominator must be a positive decimal string, got {brief(den)}")
        if not numerator:
            raise ValueError("zero coefficient in serialized value")
        terms[exp] = _coefficient(numerator, denominator)
    return _trusted(base, terms)


# A vector field as every run leaves it (``Config.table``): its key, the slots a run moves, and the run's own
# entry at every slot as an object and as a JSON value, shared by the slots of one object, and the values'
# ``marshal`` bytes.  ``write`` and ``read`` give any entry's text and object, and ``whole`` checks a field read
# entry by entry.
_Vector = namedtuple("_Vector", "key moved own values marshalled write read whole")


def _vector(key, moved, own, write, read, whole) -> _Vector:
    rows = {id(entry): read_json(write(entry)) for entry in {id(e): e for e in own}.values()}
    values = [rows[id(entry)] for entry in own]
    return _Vector(key, moved, own, values, marshal.dumps(values, 2), write, read, whole)


def _parse_natural(value, field: str) -> int:
    if not is_decimal(value, canonical=True):
        raise LedgerError(f"{field} must be a decimal string of a natural number, got {brief(value)}")
    return decimal_value(value)


def _parse_count(value, base: int) -> Hypernatural:
    if not isinstance(value, dict) or value.keys() != _COUNT_KEYS:
        raise LedgerError("lambda must be an object with value, infinite, and degenerate fields")
    try:
        count = Hypernatural(_hyperreal(value["value"], base))
    except (TypeError, ValueError) as exc:
        raise LedgerError(f"invalid lambda: {exc}") from exc
    if value["infinite"] is not count.is_infinite or value["degenerate"] is not count.is_degenerate:
        raise LedgerError("lambda flags disagree with the serialized value")
    return count


def _vector_text(texts) -> str:
    return "[\n    " + ",\n    ".join(texts) + "\n  ]"


def _parse_vector(value, vector: _Vector) -> tuple:
    """A vector field: the own objects with the moved entries read in, if every other slot holds its own JSON
    value item for item and type for type, and otherwise every entry read and the whole checked.  Their
    ``marshal`` bytes are compared: version 2 writes no back-references and only exact built-in types, so
    ``-1.0 == -1``, ``False == 0`` and a ``UserList`` equals a list, but none of them has the list's bytes."""
    field, moved, own, values, marshalled, _, read, whole = vector
    if not isinstance(value, list) or len(value) != len(own):
        raise LedgerError(f"{field} must be a list of {len(own)} coordinates")
    probe, coords = value.copy(), list(own)
    for slot in moved:
        probe[slot] = values[slot]
    try:
        exact = marshal.dumps(probe, 2) == marshalled
    except ValueError:  # a type json.loads never gives
        exact = False
    for slot in moved if exact else range(len(own)):
        try:
            coords[slot] = read(value[slot])
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"invalid {field} coordinate {slot + 1}: {exc}") from exc
    try:
        return tuple(coords) if exact else whole(coords)
    except ValueError as exc:
        raise LedgerError(f"invalid {field} vector: {exc}") from None


@lru_cache(maxsize=64)
def _block_config(block: str) -> Config:
    """The config a config object's text names.  Its ``layout`` starts with its own ``block``, which the text
    then has to match."""
    return Config.from_dict(read_json(block))


def _read_layout(cls, text) -> Ledger | None:
    """The ledger of a run's text in its config's ``layout``, or None for any other text, never an error: the
    text holds a config's ``block``, then the layout's pieces in place, a JSON string for the word and for
    ``decoded``, one canonical natural's digits at each of the code's six places, and then only JSON whitespace.
    Those are texts that ``from_dict``'s checks accept; the run's fields are built from the code, unmoved slots as
    the config's own objects, as ``_parse_vector`` reads them when each holds its own JSON value."""
    try:
        if not text.startswith(_HEAD):
            return None
        config = _block_config(text[len(_HEAD):text.find("\n  }", len(_HEAD)) + 4])
        head, (first, *pieces, last), empty, tail = config.layout
        if not text.startswith(head):
            return None
        word, pos = _DECODER.raw_decode(text, len(head))
        if text.startswith(empty, pos):
            code, pos = 0, pos + len(empty)
        else:
            if not text.startswith(first, pos):
                return None
            start = pos + len(first)
            digits = text[start:text.find('"', start)]
            if digits == "0" or not is_decimal(digits, canonical=True):
                return None
            pos = start + len(digits)
            for piece in pieces:  # each of the other five copies, compared in place
                if not (text.startswith(piece, pos) and text.startswith(digits, pos + len(piece))):
                    return None
                pos += len(piece) + len(digits)
            if not text.startswith(last, pos):
                return None
            code, pos = decimal_value(digits), pos + len(last)
        decoded, pos = _DECODER.raw_decode(text, pos)
        if not (isinstance(word, str) and isinstance(decoded, str) and text.startswith(tail, pos)) \
                or text[pos + len(tail):].strip(" \t\n\r"):
            return None
        return cls(config, word, code, *_run(config, code), decoded)
    except (TypeError, ValueError, RecursionError):  # from_dict or read_json then gives its error, if any
        return None
