"""Exact pipeline from descriptive words to realized coordinate vectors.

The package has five parts: exact hyperreal arithmetic (finite Laurent
combinations in H = B**omega over the rationals), an injective word codec,
the bundling and realization transformations, a small expression language,
and a command line front end that emits verifiable JSON ledgers.
"""

from .codec import DEFAULT_ALPHABET, Alphabet, SymbolNotInAlphabetError, decode, encode
from .engine import (
    AffineMap,
    InfiniteCoordinateError,
    IntermediateSubparticle,
    QualitySpec,
    RealizedVector,
    Ultrasubparticle,
    alternating_signs,
    apply_translation_times,
    bundle,
    make_lambda_translation,
    make_translation,
    quality_bundle,
    realize,
)
from .expr import EvalError, ExprAst, NodeKind, ParseError, eval_ast, parse, pretty
from .hyperreal import (
    BaseMismatchError,
    Classification,
    Hypernatural,
    Hyperreal,
    InfiniteValueError,
    hyperfinite_constant_sum,
    lambda_for_code,
)
from .ledger import LEDGER_VERSION, Config, Ledger, LedgerError
from .pipeline import IntegrityError, run_pipeline, verify_ledger

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Alphabet",
    "BaseMismatchError",
    "Classification",
    "Config",
    "DEFAULT_ALPHABET",
    "EvalError",
    "ExprAst",
    "Hypernatural",
    "Hyperreal",
    "InfiniteCoordinateError",
    "InfiniteValueError",
    "IntegrityError",
    "IntermediateSubparticle",
    "LEDGER_VERSION",
    "Ledger",
    "LedgerError",
    "NodeKind",
    "ParseError",
    "QualitySpec",
    "RealizedVector",
    "SymbolNotInAlphabetError",
    "Ultrasubparticle",
    "alternating_signs",
    "apply_translation_times",
    "bundle",
    "decode",
    "encode",
    "eval_ast",
    "hyperfinite_constant_sum",
    "lambda_for_code",
    "make_lambda_translation",
    "make_translation",
    "parse",
    "pretty",
    "quality_bundle",
    "realize",
    "run_pipeline",
    "verify_ledger",
]
