"""Command line front end.

Subcommands: ``encode`` (word to ledger), ``realize`` (ledger to word,
once every stored field is recomputed), ``eval`` (expression inspector),
``roundtrip`` (bulk corpus check).  Exit codes, fixed for scripting:
0 ok, 1 corpus failure, 2 input error, 3 config error, 4 malformed ledger,
5 integrity failure, 6 infinite value, 7 internal error (any other
exception, reported on one line with no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .codec import SymbolNotInAlphabetError
from .expr import EvalError, ParseError, eval_ast, parse
from .hyperreal import Classification, InfiniteValueError, _check_base
from .ledger import Config, Ledger, LedgerError
# recompute_decoded is not called here, but the benchmark's tracer
# (bench/spans.py) wraps this module's name for it.
from .pipeline import IntegrityError, recompute_decoded, run_pipeline, verify_ledger
from .radix import brief, rational_to_decimal

EXIT_OK = 0
EXIT_CORPUS_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFIG_ERROR = 3
EXIT_MALFORMED_LEDGER = 4
EXIT_INTEGRITY_FAILURE = 5
EXIT_INFINITE_VALUE = 6
EXIT_INTERNAL_ERROR = 7


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


# Most characters of the source an error message shows around its caret.
CARET_WINDOW = 80


def _column_error(source: str, message: str, offset: int) -> str:
    start = max(0, min(offset - CARET_WINDOW // 2, len(source) - CARET_WINDOW))
    shown = source[start:start + CARET_WINDOW]
    caret = " " * (offset - start) + "^"
    return f"error at column {offset + 1}: {message}\n  {shown}\n  {caret}"


def _config_from_args(args) -> Config:
    data = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or a number past the int-str limit
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        data.update(loaded)
    overrides = {
        "base": args.base,
        "dims": args.dims,
        "alphabet": args.alphabet,
        "bundle_coordinate": args.coord,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return Config.from_dict(data)


def _cmd_encode(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        return _fail(EXIT_CONFIG_ERROR, f"config error: {exc}")
    try:
        ledger = run_pipeline(args.word, config)
    except SymbolNotInAlphabetError as exc:
        return _fail(EXIT_INPUT_ERROR, str(exc))
    text = ledger.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def _cmd_realize(args) -> int:
    try:
        text = Path(args.ledger).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_MALFORMED_LEDGER, f"cannot read ledger: {exc}")
    try:
        ledger = Ledger.from_json(text)
    except LedgerError as exc:
        return _fail(EXIT_MALFORMED_LEDGER, f"malformed ledger: {exc}")
    try:
        word = verify_ledger(ledger)
    except IntegrityError as exc:
        return _fail(EXIT_INTEGRITY_FAILURE, f"integrity failure: {exc}")
    print(word)
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        _check_base(args.base)
    except ValueError as exc:
        return _fail(EXIT_CONFIG_ERROR, f"config error: {exc}")
    try:
        value = eval_ast(parse(args.expr), args.base)
    except (ParseError, EvalError) as exc:
        return _fail(EXIT_INPUT_ERROR, _column_error(args.expr, exc.message, exc.offset))
    except InfiniteValueError:
        return _fail(EXIT_INFINITE_VALUE, "standard part undefined: infinite value")
    if isinstance(value, Fraction):
        print(rational_to_decimal(value))
    elif value.classify() is Classification.INFINITE:
        print(f"{value} (Infinite)")
    else:
        print(f"{value} ({value.classify().value}, st={rational_to_decimal(value.st())})")
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        return _fail(EXIT_CONFIG_ERROR, f"config error: {exc}")
    try:
        words = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot read corpus: {exc}")
    failures = []
    for word in words:
        try:
            ledger = run_pipeline(word, config)
        except SymbolNotInAlphabetError as exc:
            failures.append((word, str(exc)))
            continue
        if ledger.decoded != word:
            failures.append((word, f"decoded to {ledger.decoded!r}"))
    for word, reason in failures:
        print(f"FAIL {word!r}: {reason}")
    print(f"{len(words) - len(failures)}/{len(words)} ok")
    return EXIT_OK if not failures else EXIT_CORPUS_FAILURE


def _add_config_flags(parser) -> None:
    parser.add_argument("--base", type=int, default=None, help="arithmetic base B >= 2 (default 10)")
    parser.add_argument("--dims", type=int, default=None, help="coordinate count n >= 3 (default 8)")
    parser.add_argument("--alphabet", default=None, help="ordered string of distinct symbols")
    parser.add_argument("--coord", type=int, default=None, help="quality coordinate to bundle (default 3)")
    parser.add_argument("--config", default=None, help="JSON config file; flags override its values")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spc",
        description="Encode words into realized subparticle coordinate vectors and recover them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode_parser = sub.add_parser("encode", help="run the full pipeline on one word and emit a ledger")
    encode_parser.add_argument("--word", required=True)
    _add_config_flags(encode_parser)
    encode_parser.add_argument("--out", default=None, help="write the ledger here instead of stdout")
    encode_parser.set_defaults(func=_cmd_encode)

    realize_parser = sub.add_parser("realize", help="recompute and print the word stored in a ledger")
    realize_parser.add_argument("--ledger", required=True)
    realize_parser.set_defaults(func=_cmd_realize)

    eval_parser = sub.add_parser("eval", help="evaluate a hyperreal expression")
    eval_parser.add_argument("expr", help="the expression; put -- before one that starts with '-', as in: spc eval -- -H")
    eval_parser.add_argument("--base", type=int, default=10)
    eval_parser.set_defaults(func=_cmd_eval)

    roundtrip_parser = sub.add_parser("roundtrip", help="pipeline every word of a corpus file (one per line)")
    roundtrip_parser.add_argument("--corpus", required=True)
    _add_config_flags(roundtrip_parser)
    roundtrip_parser.set_defaults(func=_cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # the last resort: one documented line, no traceback
        return _fail(EXIT_INTERNAL_ERROR, f"internal error: {type(exc).__name__}: {brief(str(exc))}")


if __name__ == "__main__":
    raise SystemExit(main())
