"""A small expression language for inspecting hyperreal values.

Grammar::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | primary ('^' '-'? INT)?
    primary := INT ('/' INT)? | 'eps' | 'H' | 'st' '(' expr ')' | '(' expr ')'

An INT is a run of ASCII digits and a name a run of ASCII letters; space,
tab, CR and LF separate tokens.  Any other character is a parse error at
its offset, and the first such one wins over any syntax error.

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

Parsing is per token and per node, so both are kept cheap: tokens are
plain ``(kind, text, offset)`` tuples, read by position, and tree nodes
are slotted dataclasses, not frozen ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .hyperreal import Hyperreal
from .radix import decimal_value, to_decimal


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


# The kinds as module names: reading a member off an Enum class goes through
# the metaclass's attribute hook (Python 3.11), a cost paid per node.
_INT_LIT, _RAT_LIT, _EPS, _GEN, _NEG, _ADD, _SUB, _MUL, _POW, _ST, _PAREN = NodeKind


@dataclass(eq=False, repr=False, slots=True)
class ExprAst:
    """Parse tree node; ``value`` holds the int payload for IntLit and the
    exponent for Pow, a Fraction for RatLit.  Source spans are carried for
    error reporting but ignored by structural equality.  ``==``, ``hash``
    and ``repr`` walk the tree in a loop, so a tree of any depth has them.
    A tree is built once by the parser and never changed: nodes are slotted
    rather than frozen, since a frozen node costs about three times as much
    to build."""

    kind: NodeKind
    children: tuple["ExprAst", ...] = ()
    value: object = None
    span: tuple[int, int] = (0, 0)

    def _preorder(self) -> list[tuple]:
        """Kind, value and child count of each node in pre-order: the
        structure of the tree, without its spans."""
        nodes, stack = [], [self]
        while stack:
            node = stack.pop()
            nodes.append((node.kind, node.value, len(node.children)))
            stack.extend(reversed(node.children))
        return nodes

    def __eq__(self, other):
        return self._preorder() == other._preorder() if isinstance(other, ExprAst) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        parts, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            parts.append(f"ExprAst(kind={node.kind!r}, children=(")
            stack.append(f"{',' if len(node.children) == 1 else ''}), value={node.value!r}, span={node.span!r})")
            stack.extend(reversed([item for child in node.children for item in (", ", child)][1:]))
        return "".join(parts)


# Each match is a token, a run of whitespace (no group: skipped) or one other
# character, which no token may hold; the last is the empty match at \Z.
_SCANNER = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[-+*^/()])|[ \t\r\n]+|(?P<eof>\Z)|(?P<bad>.)")

# The left-associative binary operators by token: precedence level (higher
# binds tighter) and node kind.
_BINARY = {"+": (0, _ADD), "-": (0, _SUB), "*": (1, _MUL)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as ``(kind, text, offset)``; kind is "int", "name", "eof" or the
    punctuation character."""
    tokens = []
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match[0]!r}", match.start())
        if kind:
            token = match[0]
            tokens.append((token if kind == "punct" else kind, token, match.start()))
    return tokens


class _Parser:
    """Recursive descent over the token list: each method reads
    ``self.tokens[self.pos]`` and steps ``self.pos`` itself.  A node's span
    is ``(offset, length)``, from its first token to the end of its last."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def expect(self, kind: str, message: str) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise ParseError(message, token[2])
        self.pos += 1
        return token

    def nested(self, parse_inner, offset: int) -> ExprAst:
        """``parse_inner()`` one nesting level below the token at ``offset``."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting exceeds the limit of {MAX_DEPTH}", offset)
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", offset)
        return node

    def expr(self, level: int = 0) -> ExprAst:
        """Factors joined by the operators of ``level`` or tighter, grouped to the
        left; each right operand is an expr of the next tighter level."""
        node = self.factor()
        tokens = self.tokens
        while (op := _BINARY.get(tokens[self.pos][0])) and op[0] >= level:
            self.pos += 1
            right = self.expr(op[0] + 1)
            start, (offset, length) = node.span[0], right.span
            node = ExprAst(op[1], (node, right), None, (start, offset + length - start))
        return node

    def factor(self) -> ExprAst:
        tokens = self.tokens
        kind, _, start = tokens[self.pos]
        if kind == "-":
            self.pos += 1
            child = self.nested(self.factor, start)
            offset, length = child.span
            return ExprAst(_NEG, (child,), None, (start, offset + length - start))
        node = self.primary()
        if tokens[self.pos][0] == "^":
            self.pos += 1
            sign = 1
            if tokens[self.pos][0] == "-":
                self.pos += 1
                sign = -1
            _, text, offset = self.expect("int", "expected integer exponent after '^'")
            digits = text.lstrip("0") or "0"
            if len(digits) > _MAX_EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", offset)
            start = node.span[0]
            node = ExprAst(_POW, (node,), sign * int(digits), (start, offset + len(text) - start))
        return node

    def primary(self) -> ExprAst:
        kind, text, start = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                _, den, offset = self.expect("int", "expected integer denominator after '/'")
                denominator = decimal_value(den)
                if denominator == 0:
                    raise ParseError("malformed rational: denominator must be positive", offset)
                value = Fraction(decimal_value(text), denominator)
                return ExprAst(_RAT_LIT, (), value, (start, offset + len(den) - start))
            return ExprAst(_INT_LIT, (), decimal_value(text), (start, len(text)))
        if kind == "name":
            if text == "eps":
                return ExprAst(_EPS, (), None, (start, 3))
            if text == "H":
                return ExprAst(_GEN, (), None, (start, 1))
            if text == "st":
                self.expect("(", "expected '(' after 'st'")
                inner = self.nested(self.expr, start)
                close = self.expect(")", "expected ')'")[2]
                return ExprAst(_ST, (inner,), None, (start, close + 1 - start))
            raise ParseError(f"unknown name {text!r}", start)
        if kind == "(":
            inner = self.nested(self.expr, start)
            close = self.expect(")", "expected ')'")[2]
            return ExprAst(_PAREN, (inner,), None, (start, close + 1 - start))
        if kind == "eof":
            raise ParseError("unexpected end of input", start)
        raise ParseError(f"unexpected token {text!r}", start)


# The left-associative binary operators: their source text.
_CHAIN_TEXT = {_ADD: " + ", _SUB: " - ", _MUL: "*"}


def _chain(node: ExprAst) -> tuple[ExprAst, list[tuple[NodeKind, ExprAst]]]:
    """The leftmost operand below a chain of ``+ - *`` nodes, and each
    node's kind and right operand in source order, found in a loop."""
    links = []
    while (kind := node.kind) is _ADD or kind is _SUB or kind is _MUL:
        links.append((kind, node.children[1]))
        node = node.children[0]
    links.reverse()
    return node, links


def parse(text: str) -> ExprAst:
    """Parse an expression, raising ParseError with a character offset."""
    return _Parser(text).parse()


def eval_ast(ast: ExprAst, base: int):
    """Evaluate exactly; a root St node yields a Fraction, anything else a
    Hyperreal of the given base."""
    if ast.kind is _ST:
        return _eval(ast.children[0], base).st()
    return _eval(ast, base)


def _eval(node: ExprAst, base: int) -> Hyperreal:
    kind = node.kind
    if kind is _INT_LIT or kind is _RAT_LIT:
        return Hyperreal.from_rational(base, node.value)
    if kind is _EPS:
        return Hyperreal.epsilon(base)
    if kind is _GEN:
        return Hyperreal.generator(base)
    if kind is _NEG:
        return -_eval(node.children[0], base)
    if kind is _ADD or kind is _SUB or kind is _MUL:
        first, links = _chain(node)
        value = _eval(first, base)
        for op, right in links:
            right = _eval(right, base)
            value = value + right if op is _ADD else value - right if op is _SUB else value * right
        return value
    if kind is _POW:
        body = _eval(node.children[0], base)
        exponent = node.value
        if exponent >= 0:
            return body ** exponent
        child = node.children[0]
        allowed = child.kind in (_EPS, _GEN, _PAREN)
        if not allowed or not body.is_monomial():
            raise EvalError(
                "negative exponent requires a monomial body (eps, H, or a parenthesized monomial)",
                node.span[0],
            )
        ((exp, coeff),) = body.terms.items()
        return Hyperreal.monomial(base, coeff ** exponent, exp * exponent)
    if kind is _ST:
        return Hyperreal.from_rational(base, _eval(node.children[0], base).st())
    if kind is _PAREN:
        return _eval(node.children[0], base)
    raise AssertionError(f"unhandled node kind {kind!r}")


def pretty(ast: ExprAst) -> str:
    """Render a tree back to source form; reparsing rebuilds an identical tree."""
    kind = ast.kind
    if kind is _INT_LIT:
        return to_decimal(ast.value)
    if kind is _RAT_LIT:
        return f"{to_decimal(ast.value.numerator)}/{to_decimal(ast.value.denominator)}"
    if kind is _EPS:
        return "eps"
    if kind is _GEN:
        return "H"
    if kind is _NEG:
        return "-" + pretty(ast.children[0])
    if kind in _CHAIN_TEXT:
        first, links = _chain(ast)
        return pretty(first) + "".join(_CHAIN_TEXT[op] + pretty(right) for op, right in links)
    if kind is _POW:
        return f"{pretty(ast.children[0])}^{ast.value}"
    if kind is _ST:
        return f"st({pretty(ast.children[0])})"
    if kind is _PAREN:
        return f"({pretty(ast.children[0])})"
    raise AssertionError(f"unhandled node kind {kind!r}")
