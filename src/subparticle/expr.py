"""A small expression language for inspecting hyperreal values.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | primary ('^' '-'? INT)?
    primary := INT ('/' INT)? | 'eps' | 'H' | 'st' '(' expr ')' | '(' expr ')'

``eps`` denotes 1/B**omega and ``H`` denotes B**omega for the base B chosen
at evaluation time.  ``^`` takes a literal integer exponent and binds
tighter than ``*``; a negative exponent parses everywhere but evaluates
only on a monomial body (eps, H, or a parenthesized monomial), and a
negated base must be parenthesized: ``-2^2`` is ``-(2^2)`` while ``(-2)^2``
squares.  There is no general division; ``/`` only forms rational literals
such as ``3/4``.  An exponent above ``MAX_EXPONENT`` in magnitude is a
parse error, found from the token's length before it is converted.  That
bounds the exponent, not the work: a many-term base raised to an allowed
power can still take long.  Nesting of ``(``, ``st(`` and unary ``-``
deeper than ``MAX_DEPTH`` is a parse error too, so no input exhausts the
stack; chains of ``+ - *`` are walked in a loop and are bounded only by
the input's length.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .hyperreal import Hyperreal
from .radix import parse_decimal, to_decimal


MAX_EXPONENT = 100_000
_MAX_EXPONENT_DIGITS = len(str(MAX_EXPONENT))
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error; ``offset`` is the 0-based index of the first offending
    character (equal to the input length for errors at end of input)."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


class EvalError(ValueError):
    """A well-formed expression with no defined value, e.g. a negative power
    of a non-monomial."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


class NodeKind(Enum):
    INT_LIT = "IntLit"
    RAT_LIT = "RatLit"
    EPS = "Eps"
    GEN = "Gen"
    NEG = "Neg"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    POW = "Pow"
    ST = "St"
    PAREN = "Paren"


@dataclass(frozen=True)
class ExprAst:
    """Parse tree node; ``value`` holds the int payload for IntLit and the
    exponent for Pow, a Fraction for RatLit.  Source spans are carried for
    error reporting but ignored by structural equality."""

    kind: NodeKind
    children: tuple["ExprAst", ...] = ()
    value: object = None
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "eof", or the punctuation character itself
    text: str
    offset: int

    @property
    def end(self) -> int:
        return self.offset + len(self.text)


_DIGITS = set(string.digits)
_LETTERS = set(string.ascii_letters)
_PUNCTUATION = set("+-*^/()")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch in _LETTERS:
            j = i + 1
            while j < n and text[j] in _LETTERS:
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif ch in _PUNCTUATION:
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, message: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(message, token.offset)
        return self.advance()

    def nested(self, parse_inner, token: _Token) -> ExprAst:
        """``parse_inner()`` one nesting level below ``token``."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting exceeds the limit of {MAX_DEPTH}", token.offset)
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def parse(self) -> ExprAst:
        node = self.expr()
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected token {token.text!r}", token.offset)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            kind = NodeKind.ADD if op.kind == "+" else NodeKind.SUB
            node = ExprAst(kind, (node, right), span=_join(node.span, right.span))
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            right = self.factor()
            node = ExprAst(NodeKind.MUL, (node, right), span=_join(node.span, right.span))
        return node

    def factor(self) -> ExprAst:
        token = self.peek()
        if token.kind == "-":
            self.advance()
            child = self.nested(self.factor, token)
            return ExprAst(NodeKind.NEG, (child,), span=_join((token.offset, 1), child.span))
        node = self.primary()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            exp_token = self.expect("int", "expected integer exponent after '^'")
            digits = exp_token.text.lstrip("0") or "0"
            if len(digits) > _MAX_EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", exp_token.offset)
            node = ExprAst(
                NodeKind.POW,
                (node,),
                value=sign * int(digits),
                span=_join(node.span, (exp_token.offset, len(exp_token.text))),
            )
        return node

    def primary(self) -> ExprAst:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("int", "expected integer denominator after '/'")
                denominator = parse_decimal(den.text)
                if denominator == 0:
                    raise ParseError("malformed rational: denominator must be positive", den.offset)
                return ExprAst(
                    NodeKind.RAT_LIT,
                    value=Fraction(parse_decimal(token.text), denominator),
                    span=(token.offset, den.end - token.offset),
                )
            return ExprAst(
                NodeKind.INT_LIT, value=parse_decimal(token.text), span=(token.offset, len(token.text))
            )
        if token.kind == "name":
            if token.text == "eps":
                self.advance()
                return ExprAst(NodeKind.EPS, span=(token.offset, 3))
            if token.text == "H":
                self.advance()
                return ExprAst(NodeKind.GEN, span=(token.offset, 1))
            if token.text == "st":
                self.advance()
                self.expect("(", "expected '(' after 'st'")
                inner = self.nested(self.expr, token)
                close = self.expect(")", "expected ')'")
                return ExprAst(NodeKind.ST, (inner,), span=(token.offset, close.end - token.offset))
            raise ParseError(f"unknown name {token.text!r}", token.offset)
        if token.kind == "(":
            self.advance()
            inner = self.nested(self.expr, token)
            close = self.expect(")", "expected ')'")
            return ExprAst(NodeKind.PAREN, (inner,), span=(token.offset, close.end - token.offset))
        if token.kind == "eof":
            raise ParseError("unexpected end of input", token.offset)
        raise ParseError(f"unexpected token {token.text!r}", token.offset)


# The left-associative binary operators: their source text and value.
_CHAIN_OPS = {
    NodeKind.ADD: (" + ", operator.add),
    NodeKind.SUB: (" - ", operator.sub),
    NodeKind.MUL: ("*", operator.mul),
}


def _chain(node: ExprAst) -> tuple[ExprAst, list[tuple[NodeKind, ExprAst]]]:
    """The leftmost operand below a chain of ``+ - *`` nodes, and each
    node's kind and right operand in source order, found in a loop."""
    links = []
    while node.kind in _CHAIN_OPS:
        links.append((node.kind, node.children[1]))
        node = node.children[0]
    links.reverse()
    return node, links


def _join(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
    return (left[0], right[0] + right[1] - left[0])


def parse(text: str) -> ExprAst:
    """Parse an expression, raising ParseError with a character offset."""
    return _Parser(text).parse()


def eval_ast(ast: ExprAst, base: int):
    """Evaluate exactly; a root St node yields a Fraction, anything else a
    Hyperreal of the given base."""
    if ast.kind is NodeKind.ST:
        return _eval(ast.children[0], base).st()
    return _eval(ast, base)


def _eval(node: ExprAst, base: int) -> Hyperreal:
    kind = node.kind
    if kind is NodeKind.INT_LIT or kind is NodeKind.RAT_LIT:
        return Hyperreal.from_rational(base, node.value)
    if kind is NodeKind.EPS:
        return Hyperreal.epsilon(base)
    if kind is NodeKind.GEN:
        return Hyperreal.generator(base)
    if kind is NodeKind.NEG:
        return -_eval(node.children[0], base)
    if kind in _CHAIN_OPS:
        first, links = _chain(node)
        value = _eval(first, base)
        for op, right in links:
            value = _CHAIN_OPS[op][1](value, _eval(right, base))
        return value
    if kind is NodeKind.POW:
        body = _eval(node.children[0], base)
        exponent = node.value
        if exponent >= 0:
            return body ** exponent
        child = node.children[0]
        allowed = child.kind in (NodeKind.EPS, NodeKind.GEN, NodeKind.PAREN)
        if not allowed or not body.is_monomial():
            raise EvalError(
                "negative exponent requires a monomial body (eps, H, or a parenthesized monomial)",
                node.span[0],
            )
        ((exp, coeff),) = body.terms.items()
        return Hyperreal.monomial(base, coeff ** exponent, exp * exponent)
    if kind is NodeKind.ST:
        return Hyperreal.from_rational(base, _eval(node.children[0], base).st())
    if kind is NodeKind.PAREN:
        return _eval(node.children[0], base)
    raise AssertionError(f"unhandled node kind {kind!r}")


def pretty(ast: ExprAst) -> str:
    """Render a tree back to source form; reparsing rebuilds an identical tree."""
    kind = ast.kind
    if kind is NodeKind.INT_LIT:
        return to_decimal(ast.value)
    if kind is NodeKind.RAT_LIT:
        return f"{to_decimal(ast.value.numerator)}/{to_decimal(ast.value.denominator)}"
    if kind is NodeKind.EPS:
        return "eps"
    if kind is NodeKind.GEN:
        return "H"
    if kind is NodeKind.NEG:
        return "-" + pretty(ast.children[0])
    if kind in _CHAIN_OPS:
        first, links = _chain(ast)
        return pretty(first) + "".join(_CHAIN_OPS[op][0] + pretty(right) for op, right in links)
    if kind is NodeKind.POW:
        return f"{pretty(ast.children[0])}^{ast.value}"
    if kind is NodeKind.ST:
        return f"st({pretty(ast.children[0])})"
    if kind is NodeKind.PAREN:
        return f"({pretty(ast.children[0])})"
    raise AssertionError(f"unhandled node kind {kind!r}")
