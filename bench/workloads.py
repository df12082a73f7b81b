"""The benchmark's workloads: inputs made from a seed, one operation each.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``op(i)`` runs operation ``i`` (inputs
are used in a cycle), returns ``None`` when every check on its output
passed, returns a message when an output is wrong, and raises when the
program raised or a command exited non-zero.  All calls into the program go
through module and class attributes of ``lib``, so that the traced run can
wrap them (see ``spans.install``).
"""

from __future__ import annotations

import contextlib
import io
import math
import pathlib
import random
from fractions import Fraction

import reference

SHORT_ALT_EVERY = 8  # one word in eight uses the negative-sign config below
SHORT_ALT_CONFIG = {"base": 2, "dims": 32, "bundle_coordinate": 4}
LONG_LENGTHS = (1000, 2000, 4000, 8000)


class NonZeroExit(Exception):
    """A command returned an exit code other than 0."""

    def __init__(self, command: str, code: int):
        super().__init__(f"{command} exited {code}")
        self.kind = f"exit{code}"


class ShortWords:
    """Random words of 0-12 symbols through the library pipeline."""

    name = "short_words"
    layer = "pipeline"  # charged with wrong outputs
    group = 1  # ops per latency sample
    tail = 99  # percentile reported as op_ms_tail

    def __init__(self, lib, seed: int, size: int = 4096):
        rng = random.Random(f"short_words:{seed}")
        symbols = lib.codec.DEFAULT_ALPHABET
        default = lib.ledger.Config()
        alt = lib.ledger.Config(**SHORT_ALT_CONFIG)
        self.lib = lib
        self.inputs = []
        for i in range(size):
            word = "".join(rng.choices(symbols, k=rng.randint(0, 12)))
            config = alt if i % SHORT_ALT_EVERY == SHORT_ALT_EVERY - 1 else default
            coord = config.bundle_coordinate
            expected = reference.quality_sign(coord) * reference.bijective_code(word, symbols)
            self.inputs.append((word, config, expected))

    def symbols(self, i: int) -> int:
        return len(self.inputs[i % len(self.inputs)][0])

    def key(self, i: int) -> str:
        config = self.inputs[i % len(self.inputs)][1]
        return f"dims{config.dims}"

    def op(self, i: int):
        word, config, expected = self.inputs[i % len(self.inputs)]
        pipeline, Ledger = self.lib.pipeline, self.lib.ledger.Ledger
        ledger = pipeline.run_pipeline(word, config)
        text = ledger.to_json()
        loaded = Ledger.from_json(text)
        recomputed = pipeline.recompute_decoded(loaded)
        if ledger.decoded != word or recomputed != word:
            return f"decoded {ledger.decoded!r}, recomputed {recomputed!r}, want {word!r}"
        if ledger.realized[config.bundle_coordinate - 1] != expected:
            return f"realized coordinate {ledger.realized[config.bundle_coordinate - 1]}, want {expected}"
        if loaded.to_json() != text:
            return "ledger does not serialize again to the same bytes"
        return None


class LongWords:
    """Words of 1000-8000 symbols through ``spc encode`` and ``spc realize``."""

    name = "long_words"
    layer = "cli"
    tail = 90

    def __init__(self, lib, seed: int, workdir: pathlib.Path,
                 lengths=LONG_LENGTHS, per_length: int = 2):
        rng = random.Random(f"long_words:{seed}")
        symbols = lib.codec.DEFAULT_ALPHABET
        self.lib = lib
        self.group = len(lengths)  # a latency sample is one cycle of the lengths
        words = {n: ["".join(rng.choices(symbols, k=n)) for _ in range(per_length)] for n in lengths}
        # Cycle through the lengths, so every latency sample holds each once.
        self.inputs = [words[n][k] for k in range(per_length) for n in lengths]
        self.ledger_path = workdir / "ledger.json"

    def symbols(self, i: int) -> int:
        return len(self.inputs[i % len(self.inputs)])

    def key(self, i: int) -> str:
        return f"L{self.symbols(i)}"

    def op(self, i: int):
        word = self.inputs[i % len(self.inputs)]
        cli = self.lib.cli
        path = str(self.ledger_path)
        self.ledger_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["encode", "--word", word, "--out", path])
            if code != 0:
                raise NonZeroExit("encode", code)
            code = cli.main(["realize", "--ledger", path])
            if code != 0:
                raise NonZeroExit("realize", code)
        if out.getvalue() != word + "\n":
            return f"realize printed {len(out.getvalue())} characters, not the word"
        return None


class ExprDense:
    """Dense Laurent-polynomial expressions through ``parse`` and ``eval_ast``."""

    name = "expr_dense"
    layer = "expr"
    group = 1
    tail = 99

    def __init__(self, lib, seed: int, size: int = 512):
        rng = random.Random(f"expr_dense:{seed}")
        self.lib = lib
        self.inputs = []
        for i in range(size):
            tree = _expression(rng, i)
            base = (10, 2)[(i // len(_SHAPES)) % 2]
            self.inputs.append((_render(tree), base, reference.evaluate(tree)))

    def symbols(self, i: int) -> int:
        return len(self.inputs[i % len(self.inputs)][0])

    def key(self, i: int) -> str:
        return _SHAPES[i % len(self.inputs) % len(_SHAPES)].__name__

    def op(self, i: int):
        text, base, expected = self.inputs[i % len(self.inputs)]
        expr = self.lib.expr
        value = expr.eval_ast(expr.parse(text), base)
        if isinstance(expected, Fraction):
            if not isinstance(value, Fraction) or value != expected:
                return f"{text} gave {value}, want {expected}"
            return None
        if value.base != base or dict(value.terms) != expected:
            return f"{text} gave {value}"
        return None


# -- expression generator ---------------------------------------------------
#
# Shapes are taken in a fixed cycle and only their contents are random, so
# the cost mix is the same for every seed.  Coefficients are non-integer
# rationals; ``st`` only ever wraps a finite value, so no operation fails.


def _coeff(rng) -> Fraction:
    while True:
        den = rng.randint(2, 9)
        num = rng.randint(1, 19)
        if math.gcd(num, den) == 1:
            return Fraction(num if rng.random() < 0.7 else -num, den)


def _poly(rng, terms: int, finite: bool = False):
    exps = rng.sample(range(-3, 1) if finite else range(-3, 4), terms)
    return ("lit", {exp: _coeff(rng) for exp in exps})


def _power_of_trinomial(rng):
    return ("pow", _poly(rng, 3), rng.randint(3, 8))


def _high_power_of_binomial(rng):
    return ("pow", _poly(rng, 2), rng.randint(16, 32))


def _product_minus_st(rng):
    inner = ("pow", _poly(rng, 2, finite=True), rng.randint(2, 5))
    return ("sub", ("mul", _poly(rng, 3), _poly(rng, 3)), ("st", inner))


def _st_of_product(rng):
    return ("st", ("mul", ("pow", _poly(rng, 3, finite=True), rng.randint(2, 8)), _poly(rng, 2, finite=True)))


_SHAPES = (_power_of_trinomial, _high_power_of_binomial, _product_minus_st, _st_of_product)


def _expression(rng, i: int):
    return _SHAPES[i % len(_SHAPES)](rng)


def _render(tree) -> str:
    kind = tree[0]
    if kind == "lit":
        return _render_poly(tree[1])
    if kind in ("sub", "mul"):
        op = " - " if kind == "sub" else "*"
        return f"({_render(tree[1])}){op}({_render(tree[2])})"
    if kind == "pow":
        return f"({_render(tree[1])})^{tree[2]}"
    if kind == "st":
        return f"st({_render(tree[1])})"
    raise ValueError(f"unknown node {kind!r}")


def _render_poly(poly: dict) -> str:
    text = ""
    for exp in sorted(poly, reverse=True):
        coeff = poly[exp]
        magnitude = f"{abs(coeff.numerator)}/{coeff.denominator}"
        if exp == 0:
            body = magnitude
        elif exp > 0:
            body = f"{magnitude}*H" + (f"^{exp}" if exp > 1 else "")
        else:
            body = f"{magnitude}*eps" + (f"^{-exp}" if exp < -1 else "")
        if not text:
            text = f"-{body}" if coeff < 0 else body
        else:
            text += f" - {body}" if coeff < 0 else f" + {body}"
    return text
