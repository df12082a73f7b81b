"""Command line front end.

Subcommands: ``encode`` (word to ledger), ``realize`` (ledger to word,
once every stored field is recomputed), ``eval`` (expression inspector),
``roundtrip`` (bulk corpus check).  ``--config`` files are JSON text, read
by ``ledger.read_json`` as ledgers are.  Exit codes, fixed for scripting:
0 ok, 1 corpus failure, 2 input error, 3 config error, 4 malformed ledger,
5 integrity failure, 6 infinite value, 7 internal error (any other
exception, reported on one line with no traceback).  Commands return only
0 or 1 and raise every failure; ``main`` holds the one mapping from a
failure to its exit code and stderr message.  Output that cannot be
written (a closed pipe, a full disk) is an internal error, and a standard
stream that cannot be written never changes the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .codec import SymbolNotInAlphabetError
from .expr import EvalError, ParseError, eval_ast, parse
from .hyperreal import Classification, InfiniteValueError, _check_base
from .ledger import Config, Ledger, LedgerError, read_json
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
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:  # stderr is gone (a closed pipe): the exit code still tells
        pass
    return code


def _settle() -> None:
    """Flush stdout and stderr.  One that cannot be written is pointed at the null device, so that the
    interpreter's own flush of it at exit cannot fail and turn the exit code into 120."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None: not open when Python started
                stream.flush()
        except OSError:
            with contextlib.suppress(OSError):  # a stream with no file descriptor is left as it is
                fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)


class _Refusal(Exception):
    """``_Refusal(code, message)``: a failure the command line finds itself."""


def _file(path: str, code: int, failure: str, text: str | None = None) -> str | None:
    """Read the file a user named, or write ``text`` to it.  If that fails,
    raise the refusal ``<failure>: <error>`` with exit ``code``."""
    try:
        if text is None:
            return Path(path).read_text(encoding="utf-8")
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Refusal(code, f"{failure}: {exc}") from exc


# Most characters of the source an error message shows around its caret, one
# column each: a character that does not print, such as a tab or LF, shows as a space.
CARET_WINDOW = 80


def _column_error(source: str, message: str, offset: int) -> str:
    start = max(0, min(offset - CARET_WINDOW // 2, len(source) - CARET_WINDOW))
    shown = "".join(char if char.isprintable() else " " for char in source[start:start + CARET_WINDOW])
    caret = " " * (offset - start) + "^"
    return f"error at column {offset + 1}: {message}\n  {shown}\n  {caret}"


def _config_from_args(args) -> Config:
    """``--config`` with the flags over it; any fault in either is a config error."""
    data = {}
    try:
        if args.config:
            data = read_json(_file(args.config, EXIT_CONFIG_ERROR, "config error: cannot read config file"))
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
        overrides = {"base": args.base, "dims": args.dims, "alphabet": args.alphabet, "bundle_coordinate": args.coord}
        data.update((key, value) for key, value in overrides.items() if value is not None)
        return Config.from_dict(data)
    except ValueError as exc:
        raise _Refusal(EXIT_CONFIG_ERROR, f"config error: {exc}") from exc


def _cmd_encode(args) -> int:
    text = run_pipeline(args.word, _config_from_args(args)).to_json()
    if args.out:
        _file(args.out, EXIT_INPUT_ERROR, "cannot write ledger", text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_realize(args) -> int:
    text = _file(args.ledger, EXIT_MALFORMED_LEDGER, "cannot read ledger")
    print(verify_ledger(Ledger.from_json(text)))
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        _check_base(args.base)
    except ValueError as exc:
        raise _Refusal(EXIT_CONFIG_ERROR, f"config error: {exc}") from exc
    try:
        value = eval_ast(parse(args.expr), args.base)
    except (ParseError, EvalError) as exc:
        raise _Refusal(EXIT_INPUT_ERROR, _column_error(args.expr, exc.message, exc.offset)) from exc
    if isinstance(value, Fraction):
        print(rational_to_decimal(value))
    elif value.classify() is Classification.INFINITE:
        print(f"{value} (Infinite)")
    else:
        print(f"{value} ({value.classify().value}, st={rational_to_decimal(value.st())})")
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    config = _config_from_args(args)
    words = _file(args.corpus, EXIT_INPUT_ERROR, "cannot read corpus").split("\n")
    if not words[-1]:  # the empty piece after the last line end, or the whole of an empty file
        words.pop()
    failures = []
    for word in words:
        try:
            ledger = run_pipeline(word, config)
        except SymbolNotInAlphabetError as exc:
            failures.append(f"FAIL {brief(word)}: {exc}")
            continue
        if ledger.decoded != word:
            failures.append(f"FAIL {brief(word)}: decoded to {brief(ledger.decoded)}")
    print(*failures, f"{len(words) - len(failures)}/{len(words)} ok", sep="\n")
    return EXIT_OK if not failures else EXIT_CORPUS_FAILURE


def _add_config_flags(parser) -> None:
    parser.add_argument("--base", type=int, default=None, help="arithmetic base B >= 2 (default 10)")
    parser.add_argument("--dims", type=int, default=None, help="coordinate count n >= 3 (default 8)")
    parser.add_argument("--alphabet", default=None, help="ordered string of distinct symbols")
    parser.add_argument("--coord", type=int, default=None, help="quality coordinate to bundle (default 3)")
    parser.add_argument("--config", default=None, help="JSON config file; flags override its values")


@functools.cache  # one parser per process; parse_args leaves it as it was
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spc",
        description="Encode words into realized subparticle coordinate vectors and recover them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode_parser = sub.add_parser("encode", help="run the full pipeline on one word and emit a ledger")
    encode_parser.add_argument("--word", required=True)
    _add_config_flags(encode_parser)
    encode_parser.add_argument("--out", default=None, help="write the ledger here instead of stdout")

    realize_parser = sub.add_parser("realize", help="recompute and print the word stored in a ledger")
    realize_parser.add_argument("--ledger", required=True)

    eval_parser = sub.add_parser("eval", help="evaluate a hyperreal expression")
    eval_parser.add_argument("expr", help="the expression; put -- before one that starts with '-', as in: spc eval -- -H")
    eval_parser.add_argument("--base", type=int, default=10)

    roundtrip_parser = sub.add_parser("roundtrip", help="pipeline every word of a corpus file (one per line)")
    roundtrip_parser.add_argument("--corpus", required=True)
    _add_config_flags(roundtrip_parser)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = globals()[f"_cmd_{args.command}"](args)  # looked up per call, so a rebound command is the one run
        print(end="", flush=True)  # output that cannot be written fails here, as an internal error
        return code
    except _Refusal as exc:
        return _fail(*exc.args)
    except SymbolNotInAlphabetError as exc:
        return _fail(EXIT_INPUT_ERROR, str(exc))
    except LedgerError as exc:
        return _fail(EXIT_MALFORMED_LEDGER, f"malformed ledger: {exc}")
    except IntegrityError as exc:
        return _fail(EXIT_INTEGRITY_FAILURE, f"integrity failure: {exc}")
    except InfiniteValueError as exc:
        return _fail(EXIT_INFINITE_VALUE, str(exc))
    except Exception as exc:  # the last resort: one documented line, no traceback
        return _fail(EXIT_INTERNAL_ERROR, f"internal error: {type(exc).__name__}: {brief(str(exc))}")
    finally:  # after argparse's own exit too
        _settle()


if __name__ == "__main__":
    raise SystemExit(main())
