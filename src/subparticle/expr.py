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
power can still take long, except under ``st`` as below.  Nesting of
``(``, ``st(`` and unary ``-`` deeper than ``MAX_DEPTH`` is a parse error
too, so no input exhausts the stack; chains of ``+ - *`` are walked in a
loop and are bounded only by the input's length.

On finite values ``st`` is a ring homomorphism.  So an ``st`` argument that
is finite on its face, with no ``H`` and no negative exponent outside its
nested ``st``, is evaluated on standard parts alone: Fractions, with
``eps`` as 0, and no Hyperreal built.  Any other is evaluated in full.  The
shape decides before any arithmetic, so every node is evaluated once.

Parsing is per token and per node, so both are kept cheap.  One C-level
``re.split`` finds the tokens, and they become plain ``(kind, text,
offset)`` tuples, read by position.  The parser is one loop over products
and sums, and it reads a factor's unary ``-`` signs, primary and exponent
in place: it recurses only into ``(`` and ``st(``.  Tree nodes are slotted
dataclasses, not frozen ones.  ``eval_ast`` checks the base once and then
builds each leaf unchecked, and multiplies a run of ``*`` as a balanced
tree of pairwise products, so a long run costs about what a power does.
A run of ``+`` and ``-`` folds each literal term (``c``, ``c*H^k``,
``c*eps^k``, ``H^k`` or ``eps^k``, c an int or rational literal, under
any run of unary ``-``) straight into one exponent-to-coefficient map, in
source order, and builds one value from it; any other operand is evaluated
and added as a value.  Standard parts run the same loop and keep only the
exponent-0 literal terms.  Literal terms cannot fail, so the first error
in a sum is still that of its first failing operand.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice

from .hyperreal import _ONE, _ZERO, Hyperreal, _check_base, _coefficient, _trusted
from .radix import brief, decimal_value, literal, to_decimal


MAX_EXPONENT = 100_000
_MAX_EXPONENT_DIGITS = len(str(MAX_EXPONENT))
MAX_DEPTH = 100


class _OffsetError(ValueError):
    """An error at the 0-based character ``offset`` of the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


class ParseError(_OffsetError):
    """Syntax error; ``offset`` is the 0-based index of the first offending
    character (equal to the input length for errors at end of input)."""


class EvalError(_OffsetError):
    """A well-formed expression with no defined value, e.g. a negative power
    of a non-monomial."""


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
            stack.append(f"{',' if len(node.children) == 1 else ''}), value={literal(node.value)}, span={node.span!r})")
            stack.extend(reversed([item for child in node.children for item in (", ", child)][1:]))
        return "".join(parts)


# Splitting on the tokens, runs of digits or letters and any other character
# but whitespace, leaves the whitespace runs between them.
_TOKEN = re.compile(r"([0-9]+|[A-Za-z]+|[^ \t\r\n])")
# A token's kind by its first character; any character not here is no token.
_KINDS = {**dict.fromkeys(string.digits, "int"), **dict.fromkeys(string.ascii_letters, "name"),
          **{ch: ch for ch in "+-*^/()"}}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as ``(kind, text, offset)``; kind is "int", "name", "eof" or the
    punctuation character."""
    parts = _TOKEN.split(text)
    tokens = parts[1::2]
    kinds = [_KINDS.get(token[0]) for token in tokens]
    if None in kinds:
        bad = kinds.index(None)
        raise ParseError(f"unexpected character {tokens[bad]!r}", len("".join(parts[: 2 * bad + 1])))
    return [*zip(kinds, tokens, islice(accumulate(map(len, parts)), 0, None, 2)), ("eof", "", len(text))]


class _Parser:
    """Recursive descent over the token list, recursing only into ``(`` and
    ``st(``: ``self.pos`` is the next token's index and ``self.depth`` the
    nesting level.  A node's span is ``(offset, length)``, from its first
    token to the end of its last."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != "eof":
            raise ParseError(f"unexpected token {brief(text)}", offset)
        return node

    def expr(self) -> ExprAst:
        """Products joined by ``+`` and ``-``, each a run of factors joined by
        ``*``, all grouped to the left: ``*`` binds tighter.  ``node`` is the
        running product, ``total`` the sum before it and ``link`` their sign."""
        tokens = self.tokens
        total, link, node = None, None, self.factor()
        while True:
            kind = tokens[self.pos][0]
            if kind == "*":
                self.pos += 1
                right = self.factor()
                start, (offset, length) = node.span[0], right.span
                node = ExprAst(_MUL, (node, right), None, (start, offset + length - start))
                continue
            if link is not None:
                start, (offset, length) = total.span[0], node.span
                node = ExprAst(link, (total, node), None, (start, offset + length - start))
            if kind != "+" and kind != "-":
                return node
            self.pos += 1
            total, link, node = node, _ADD if kind == "+" else _SUB, self.factor()

    def factor(self) -> ExprAst:
        """A run of unary ``-``, each one nesting level, a primary and an
        optional ``^`` exponent, read in place."""
        tokens, first, depth = self.tokens, self.pos, self.depth
        kind, text, start = tokens[first]
        pos = first
        while kind == "-":
            if depth == MAX_DEPTH:
                raise ParseError(f"nesting exceeds the limit of {MAX_DEPTH}", start)
            depth += 1
            pos += 1
            kind, text, start = tokens[pos]
        minus = pos - first
        pos += 1
        if kind == "int":
            if tokens[pos][0] == "/":
                kind, den, offset = tokens[pos + 1]
                if kind != "int":
                    raise ParseError("expected integer denominator after '/'", offset)
                pos += 2
                denominator = decimal_value(den)
                if denominator == 0:
                    raise ParseError("malformed rational: denominator must be positive", offset)
                node = ExprAst(_RAT_LIT, (), _coefficient(decimal_value(text), denominator), (start, offset + len(den) - start))
            else:
                node = ExprAst(_INT_LIT, (), decimal_value(text), (start, len(text)))
        elif kind == "name" and text == "eps":
            node = ExprAst(_EPS, (), None, (start, 3))
        elif kind == "name" and text == "H":
            node = ExprAst(_GEN, (), None, (start, 1))
        elif kind == "(" or kind == "name" and text == "st":
            if kind == "name":
                if tokens[pos][0] != "(":
                    raise ParseError("expected '(' after 'st'", tokens[pos][2])
                pos += 1
            if depth == MAX_DEPTH:
                raise ParseError(f"nesting exceeds the limit of {MAX_DEPTH}", start)
            outer, self.pos, self.depth = self.depth, pos, depth + 1
            inner, self.depth = self.expr(), outer
            if tokens[self.pos][0] != ")":
                raise ParseError("expected ')'", tokens[self.pos][2])
            close, pos = tokens[self.pos][2], self.pos + 1
            node = ExprAst(_PAREN if kind == "(" else _ST, (inner,), None, (start, close + 1 - start))
        else:
            raise ParseError("unexpected end of input" if kind == "eof" else
                             f"{'unknown name' if kind == 'name' else 'unexpected token'} {brief(text)}", start)
        if tokens[pos][0] == "^":
            negative = tokens[pos + 1][0] == "-"
            kind, text, offset = tokens[pos + 1 + negative]
            pos += 2 + negative
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", offset)
            digits = text.lstrip("0") or "0"
            if len(digits) > _MAX_EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", offset)
            start = node.span[0]
            node = ExprAst(_POW, (node,), -int(digits) if negative else int(digits), (start, offset + len(text) - start))
        self.pos = pos
        if minus:
            end = sum(node.span)
            for _, _, start in reversed(tokens[first : first + minus]):
                node = ExprAst(_NEG, (node,), None, (start, end - start))
        return node


# The left-associative binary operators: their source text.
_CHAIN_TEXT = {_ADD: " + ", _SUB: " - ", _MUL: "*"}


def _chain(node: ExprAst, kinds=tuple(_CHAIN_TEXT)) -> tuple[ExprAst, list[tuple[NodeKind, ExprAst]]]:
    """The leftmost operand below a chain of nodes of ``kinds``, and each
    node's kind and right operand in source order, found in a loop."""
    links = []
    while node.kind in kinds:
        links.append((node.kind, node.children[1]))
        node = node.children[0]
    links.reverse()
    return node, links


def parse(text: str) -> ExprAst:
    """Parse an expression, raising ParseError with a character offset."""
    return _Parser(text).parse()


def eval_ast(ast: ExprAst, base: int):
    """Evaluate exactly; a root St node yields a Fraction, anything else a
    Hyperreal of the given base."""
    _check_base(base)
    return _eval(ast, base, ast.kind is _ST)


def _finite_on_its_face(node: ExprAst) -> bool:
    """Whether the tree, outside its St nodes, holds no ``H`` and no negative
    exponent, so that its value is finite: found from its shape alone."""
    stack = [node]
    while stack:
        node = stack.pop()
        kind = node.kind
        if kind is _GEN or kind is _POW and node.value < 0:
            return False
        if kind is not _ST:
            stack.extend(node.children)
    return True


def _eval(node: ExprAst, base: int, standard: bool = False) -> Hyperreal | Fraction:
    """The tree's Hyperreal value or, when ``standard``, the Fraction of its
    standard part; the latter is asked only of trees finite on their face.
    Leaves are built unchecked: ``eval_ast`` has checked the base."""
    kind = node.kind
    if kind is _INT_LIT or kind is _RAT_LIT:
        value = node.value if kind is _RAT_LIT else _coefficient(node.value, 1)
        return value if standard else _trusted(base, {0: value} if value else {})
    if kind is _EPS:
        return _ZERO if standard else _trusted(base, {-1: _ONE})
    if kind is _GEN:
        return _trusted(base, {1: _ONE})
    if kind is _NEG:
        return -_eval(node.children[0], base, standard)
    if kind is _MUL:  # every factor in order, then their product as a balanced tree
        left, right = node.children
        if left.kind is not _MUL:
            return _eval(left, base, standard) * _eval(right, base, standard)
        first, links = _chain(node, (_MUL,))
        return _product([_eval(first, base, standard)] + [_eval(right, base, standard) for _, right in links])
    if kind is _ADD or kind is _SUB:  # literal terms fold into one term map, any other operand adds as a value
        first, links = _chain(node, (_ADD, _SUB))
        terms, value = {}, None
        for op, operand in [(_ADD, first), *links]:
            term = _literal_term(operand, op is _SUB)
            if term is None:
                right = _eval(operand, base, standard)
                right = -right if op is _SUB else right
                value = right if value is None else value + right
                continue
            exp, coeff = term
            if standard and exp:  # eps^k is 0 there, and H cannot occur
                continue
            if exp in terms:
                coeff = terms[exp] + coeff
                if coeff:
                    terms[exp] = coeff
                else:
                    del terms[exp]
            elif coeff:
                terms[exp] = coeff
        literal = terms.get(0, _ZERO) if standard else _trusted(base, terms)
        if value is None:
            return literal
        return value + literal if terms else value
    if kind is _POW:
        child = node.children[0]
        body = _eval(child, base, standard)
        if node.value < 0 and (child.kind not in (_EPS, _GEN, _PAREN) or not body.is_monomial()):
            raise EvalError(
                "negative exponent requires a monomial body (eps, H, or a parenthesized monomial)",
                node.span[0],
            )
        return body ** node.value
    if kind is _ST:  # on standard parts alone if the argument is finite on its face
        child = node.children[0]
        value = _eval(child, base, True) if _finite_on_its_face(child) else _eval(child, base).st()
        return value if standard else _trusted(base, {0: value} if value else {})
    if kind is _PAREN:
        return _eval(node.children[0], base, standard)
    raise AssertionError(f"unhandled node kind {kind!r}")


def _literal_term(node: ExprAst, negative: bool) -> tuple[int, Fraction] | None:
    """The exponent and coefficient of a literal term, negated if
    ``negative``, or None for any other node.  A literal term is ``c``,
    ``c*H^k``, ``c*eps^k``, ``H^k`` or ``eps^k``, c an int or rational
    literal, with any run of unary ``-`` on the term or on c."""
    while node.kind is _NEG:
        negative = not negative
        node = node.children[0]
    kind = node.kind
    if kind is _MUL:
        number, symbol = node.children
    elif kind is _INT_LIT or kind is _RAT_LIT:
        number, symbol = node, None
    else:
        number, symbol = None, node
    exp = 0
    if symbol is not None:
        power = 1
        if symbol.kind is _POW:
            power, symbol = symbol.value, symbol.children[0]
        if symbol.kind is _GEN:
            exp = power
        elif symbol.kind is _EPS:
            exp = -power
        else:
            return None
    if number is None:
        return exp, -_ONE if negative else _ONE
    while number.kind is _NEG:
        negative = not negative
        number = number.children[0]
    if number.kind is _INT_LIT:
        return exp, _coefficient(-number.value if negative else number.value, 1)
    if number.kind is _RAT_LIT:
        return exp, -number.value if negative else number.value
    return None


def _product(values: list):
    """The product of two or more ``values`` in order, as a balanced tree of
    pairwise products: for n factors of a few terms each, the larger
    operands' term counts sum to about n*log2(n)/2, not n*n/2 as in a left
    fold."""
    while len(values) > 2:
        values = [x * y for x, y in zip(values[::2], values[1::2])] + values[len(values) & ~1 :]
    x, y = values
    return x * y


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
