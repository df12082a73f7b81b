"""End-to-end runs: encode a word, bundle it, realize it, decode it back.

``STAGES`` describes the pipeline once.  ``run_pipeline`` runs it on a
word, ``recompute_decoded`` runs its last two stages on a ledger's stored
``intermediate``, and ``verify_ledger`` checks every stored field.
"""

from __future__ import annotations

from .codec import decode, encode, word_length
# Ultrasubparticle is not called here (each Config holds its particle), but
# the benchmark's tracer (bench/spans.py) wraps this module's name for it.
from .engine import InfiniteCoordinateError, IntermediateSubparticle, Ultrasubparticle, bundle, realize
from .hyperreal import lambda_for_code
from .ledger import Config, Ledger
from .radix import brief, rational_to_decimal


class IntegrityError(ValueError):
    """Recomputation from a ledger's stored fields failed or disagreed."""


_DEFAULT_CONFIG = Config()


def _realized(config: Config, fields: dict):
    try:
        return realize(IntermediateSubparticle(config.base, fields["intermediate"])).coords
    except (ValueError, InfiniteCoordinateError) as exc:
        raise IntegrityError(f"stored intermediate cannot be realized: {exc}") from exc


def _decoded(config: Config, fields: dict):
    """The word the bundled coordinate names.  A ``decoded`` word already in
    ``fields`` (a stored one) bounds it: a code whose word would differ from
    it in length is refused before that word is built."""
    value = fields["realized"][config.bundle_coordinate - 1]
    code, stored = value.numerator * config.bundle_sign, fields.get("decoded")
    if value.denominator != 1 or code < 0:
        raise IntegrityError(
            f"realized coordinate {config.bundle_coordinate} does not carry a natural number: "
            f"{brief(rational_to_decimal(value * config.bundle_sign))}"
        )
    if stored is not None and (length := word_length(code, config.codec_alphabet)) != len(stored):
        raise IntegrityError(
            f"recomputed code names a word of {brief(length)} symbols, "
            f"but the stored decoded word has {len(stored)}"
        )
    return decode(code, config.codec_alphabet)


# The pipeline after the word, in order: (Ledger field, JSON key, stage).  A
# stage computes its field from the config and the fields before it, by name,
# and looks this module's functions up when it runs, so a wrapper bound to
# one of their names sees every call.
STAGES = (
    ("code", "code", lambda config, f: encode(f["word"], config.codec_alphabet)),
    ("count", "lambda", lambda config, f: lambda_for_code(f["code"], config.base)),
    ("ultrasubparticle", "ultrasubparticle", lambda config, f: config.particle.coords()),
    ("intermediate", "intermediate", lambda config, f: bundle(
        config.particle, config.bundle_coordinate, f["count"], f["ultrasubparticle"]).coords),
    ("realized", "realized", _realized),
    ("decoded", "decoded", _decoded),
)


def run_pipeline(word: str, config: Config | None = None) -> Ledger:
    """Run every stage on ``word``, recording each stage's field."""
    config = config if config is not None else _DEFAULT_CONFIG
    fields = {"word": word}
    for field, _, stage in STAGES:
        fields[field] = stage(config, fields)
    return Ledger(config, **fields)


def recompute_decoded(ledger: Ledger) -> str:
    """Re-derive the word from the stored intermediate coordinates only, by
    running realization and decoding again; the stored ``decoded`` only
    bounds the word's length."""
    fields = dict(vars(ledger))
    for field, _, stage in STAGES[-2:]:
        fields[field] = stage(ledger.config, fields)
    return fields["decoded"]


def verify_ledger(ledger: Ledger) -> str:
    """Check every stored field and return the ledger's word.

    Each stage is run on the stored fields before it, and the first field
    that differs from its stage's result raises ``IntegrityError`` naming
    its JSON key.  No word is encoded: the code is checked last, through
    decoding, its inverse.  By then the stored ``decoded`` is the word the
    stored code names, so the stored word must equal it.
    """
    config, stored = ledger.config, vars(ledger)
    for field, key, stage in STAGES[1:]:
        if stage(config, stored) != stored[field]:
            raise IntegrityError(f"stage {key!r}: the stored {key} is not the one its stage computes from the fields before it")
    if ledger.word != ledger.decoded:
        raise IntegrityError(f"stage 'code': the stored code names {brief(ledger.decoded)}, not {brief(ledger.word)}")
    return ledger.word
