"""End-to-end runs: encode a word, bundle it, realize it, decode it back."""

from __future__ import annotations

from .codec import Alphabet, decode, encode, word_length
from .engine import (
    InfiniteCoordinateError,
    IntermediateSubparticle,
    Ultrasubparticle,
    bundle,
    realize,
)
from .hyperreal import lambda_for_code
from .ledger import LEDGER_VERSION, Config, Ledger
from .radix import brief, rational_to_decimal


class IntegrityError(ValueError):
    """Recomputation from a ledger's stored coordinates failed or disagreed."""


def run_pipeline(word: str, config: Config | None = None) -> Ledger:
    """Run encode -> count -> bundle -> realize -> decode, recording every stage."""
    config = config if config is not None else Config()
    alphabet = Alphabet(config.alphabet)
    code = encode(word, alphabet)
    count = lambda_for_code(code, config.base)
    particle = Ultrasubparticle(config.base, config.dims, naming=0, signs=config.signs)
    coords = particle.coords()
    intermediate = bundle(particle, config.bundle_coordinate, count, coords)
    realized = realize(intermediate)
    decoded = decode(_recover_code(realized.coords, config), alphabet)
    return Ledger(
        version=LEDGER_VERSION,
        config=config,
        word=word,
        code=code,
        sequence_head=code,
        count=count,
        bundle_sign=config.bundle_sign,
        ultrasubparticle=coords,
        intermediate=intermediate.coords,
        realized=realized.coords,
        decoded=decoded,
    )


def recompute_decoded(ledger: Ledger) -> str:
    """Re-derive the word from the stored intermediate coordinates only.

    Nothing downstream of ``intermediate`` is trusted: realization and
    decoding are recomputed, so the ledger serves as checkable evidence
    rather than a claim.  A recomputed code whose word would differ in
    length from the stored ``decoded`` is refused before that word is
    built, so a tampered code never makes a word longer than the ledger's.
    """
    config = ledger.config
    try:
        intermediate = IntermediateSubparticle(config.base, ledger.intermediate)
        realized = realize(intermediate)
    except (ValueError, InfiniteCoordinateError) as exc:
        raise IntegrityError(f"stored intermediate cannot be realized: {exc}") from exc
    code = _recover_code(realized.coords, config)
    alphabet = Alphabet(config.alphabet)
    length = word_length(code, alphabet)
    if length != len(ledger.decoded):
        raise IntegrityError(
            f"recomputed code names a word of {brief(length)} symbols, "
            f"but the stored decoded word has {len(ledger.decoded)}"
        )
    return decode(code, alphabet)


def _recover_code(realized_coords, config: Config) -> int:
    value = realized_coords[config.bundle_coordinate - 1] * config.bundle_sign
    if value.denominator != 1 or value < 0:
        raise IntegrityError(
            f"realized coordinate {config.bundle_coordinate} does not carry a natural number: "
            f"{brief(rational_to_decimal(value))}"
        )
    return int(value)
