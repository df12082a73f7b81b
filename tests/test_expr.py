"""Parser and evaluator tests: golden pins, error offsets, round trips."""

from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from subparticle import expr
from subparticle.expr import (
    MAX_DEPTH,
    MAX_EXPONENT,
    EvalError,
    NodeKind,
    ParseError,
    eval_ast,
    parse,
    pretty,
)
from subparticle.hyperreal import Hyperreal, InfiniteValueError

from golden_expr import EVAL_ERRORS, GOLDEN, GOLDEN_EVAL, MALFORMED
from oracles import convolve_terms, scan_expression


@pytest.mark.parametrize("source, canonical", GOLDEN)
def test_golden_pretty(source, canonical):
    assert pretty(parse(source)) == canonical


@pytest.mark.parametrize("source, canonical", GOLDEN)
def test_pretty_reparses_to_identical_tree(source, canonical):
    tree = parse(source)
    assert parse(pretty(tree)) == tree


@pytest.mark.parametrize("source, expected", GOLDEN_EVAL)
def test_golden_eval(source, expected):
    assert str(eval_ast(parse(source), 10)) == expected


@pytest.mark.parametrize("source, offset, fragment", MALFORMED)
def test_malformed_inputs_pin_offsets(source, offset, fragment):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.offset == offset
    assert fragment in info.value.message
    assert 0 <= info.value.offset <= len(source)


def test_mutation_corpus_points_at_first_offending_character():
    for source, _ in GOLDEN:
        for position in range(len(source) + 1):
            mutated = source[:position] + "#" + source[position:]
            with pytest.raises(ParseError) as info:
                parse(mutated)
            assert info.value.offset == position


class TestSpecExamples:
    def test_st_of_sum(self):
        value = eval_ast(parse("st(3*eps + 5)"), 10)
        assert isinstance(value, Fraction)
        assert value == 5

    def test_product_matches_convolution_oracle(self):
        value = eval_ast(parse("(2+eps)*(3-eps)"), 10)
        assert dict(value.terms) == convolve_terms([(0, 2), (-1, 1)], [(0, 3), (-1, -1)])

    def test_unbalanced_parenthesis_offset(self):
        with pytest.raises(ParseError) as info:
            parse("st(H")
        assert info.value.offset == 4  # first offending position: end of input
        assert info.value.message == "expected ')'"

    def test_cancellation(self):
        assert eval_ast(parse("H^2 - H*H"), 10).is_zero()

    def test_st_of_infinite_value(self):
        with pytest.raises(InfiniteValueError):
            eval_ast(parse("st(H)"), 10)
        with pytest.raises(InfiniteValueError):
            eval_ast(parse("st(H + 5)"), 10)

    def test_generator_times_epsilon(self):
        assert eval_ast(parse("42*H*eps"), 10) == Hyperreal.from_rational(10, 42)


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert eval_ast(parse("2+3*eps"), 10) == Hyperreal(10, {0: 2, -1: 3})

    def test_pow_binds_tighter_than_mul(self):
        assert eval_ast(parse("2*H^2"), 10) == Hyperreal(10, {2: 2})

    def test_neg_applies_to_whole_power(self):
        assert eval_ast(parse("-3^2"), 10) == Hyperreal.from_rational(10, -9)
        assert eval_ast(parse("(-3)^2"), 10) == Hyperreal.from_rational(10, 9)

    def test_left_associative_subtraction(self):
        assert eval_ast(parse("1-2-3"), 10) == Hyperreal.from_rational(10, -4)


class TestEval:
    def test_root_st_returns_fraction(self):
        assert isinstance(eval_ast(parse("st(eps)"), 10), Fraction)

    def test_non_st_root_returns_hyperreal(self):
        assert isinstance(eval_ast(parse("(st(5))"), 10), Hyperreal)
        assert isinstance(eval_ast(parse("st(5) + 1"), 10), Hyperreal)

    def test_base_parameter_is_respected(self):
        assert eval_ast(parse("H"), 2).base == 2

    @pytest.mark.parametrize("source, offset", EVAL_ERRORS)
    def test_negative_power_of_non_monomial(self, source, offset):
        with pytest.raises(EvalError) as info:
            eval_ast(parse(source), 10)
        assert info.value.offset == offset

    def test_nested_st_feeds_back_into_arithmetic(self):
        assert eval_ast(parse("st(5)*2"), 10) == Hyperreal.from_rational(10, 10)
        assert eval_ast(parse("st(st(eps))"), 10) == Fraction(0)


class TestAst:
    def test_kinds_and_payloads(self):
        tree = parse("1/2*eps^2")
        assert tree.kind is NodeKind.MUL
        rat, power = tree.children
        assert rat.kind is NodeKind.RAT_LIT and rat.value == Fraction(1, 2)
        assert power.kind is NodeKind.POW and power.value == 2
        assert power.children[0].kind is NodeKind.EPS

    def test_spans_cover_source(self):
        source = "st(3*eps + 5)"
        tree = parse(source)
        offset, length = tree.span
        assert source[offset : offset + length] == source

    def test_span_ignored_by_equality(self):
        assert parse("1+2") == parse("1 + 2")


@pytest.mark.parametrize(
    "source, offset",
    [("2^100001", 2), ("H^-100001", 3), ("(1+eps)^" + "9" * 40, 8), ("2^" + "1" * 5000, 2)],
)
def test_exponent_above_the_limit_is_a_parse_error_at_its_token(source, offset):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.offset == offset
    assert info.value.message == f"exponent exceeds the limit of {MAX_EXPONENT}"


def test_literals_past_the_int_str_limit_evaluate_exactly():
    nines = "9" * 5000  # int() of a str stops at 4300 digits by default
    assert eval_ast(parse(nines), 10) == Hyperreal.from_rational(10, 10**5000 - 1)
    assert eval_ast(parse(f"st({nines}/{'7' * 5000})"), 10) == Fraction(9, 7)
    assert eval_ast(parse(f"1{'0' * 4999}/{'3' * 5000} + eps"), 2).st() == Fraction(3 * 10**4999, 10**5000 - 1)


def test_exponent_at_the_limit_parses():
    assert parse(f"H^{MAX_EXPONENT}").value == MAX_EXPONENT
    assert parse(f"eps^-{MAX_EXPONENT}").value == -MAX_EXPONENT
    assert parse("2^" + "0" * 5000 + "7").value == 7  # leading zeros do not count
    assert eval_ast(parse(f"eps^-{MAX_EXPONENT}"), 10) == Hyperreal.monomial(10, 1, MAX_EXPONENT)


# Spans: every node's span is the source of that node, from its first token
# to the end of its last.  Sources grow outwards from an atom: each round
# joins the source so far ({0}) to up to two more atoms ({1}), then nests it
# one level deeper, at most MAX_DEPTH times, so every source parses.
SPAN_ATOMS = st.sampled_from(["0", "7", "007", "3/4", "12 / 5", "eps", "H", "H^2", "eps ^ -3", "2^0"])
SPAN_JOINS = st.sampled_from(["{0} + {1}", "{1}-{0}", "{0} * {1}", "{1}*{0}", "{0}\t-\n{1}"])
SPAN_NESTING = st.sampled_from(["({0})", "st( {0} )", "-{0}", "( {0} )^2"])


@st.composite
def spanned_sources(draw):
    text = draw(SPAN_ATOMS)
    for _ in range(draw(st.integers(0, MAX_DEPTH))):
        for join in draw(st.lists(SPAN_JOINS, max_size=2)):
            text = join.format(text, draw(SPAN_ATOMS))
        text = draw(SPAN_NESTING).format(text)
    return text


def assert_each_span_reparses_to_its_node(text):
    stack = [parse(text)]
    while stack:
        node = stack.pop()
        offset, length = node.span
        reparsed = parse(text[offset : offset + length])
        assert reparsed == node and reparsed.span == (0, length)
        stack.extend(node.children)


@pytest.mark.parametrize("source", [source for source, _ in GOLDEN])
def test_golden_spans_reparse_to_their_nodes(source):
    assert_each_span_reparses_to_its_node(source)


@settings(max_examples=50, deadline=None)  # a deep source reparses hundreds of spans
@given(spanned_sources())
@example("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH)
@example("st( " * 50 + "-" * 49 + "(H^2 - 3/4)^2" + " )" * 50)
def test_spans_reparse_to_their_nodes(text):
    assert_each_span_reparses_to_its_node(text)


# Token soups: every token the grammar knows, some it refuses, and exponent
# literals of 2 or below, so that no tree that parses takes long to evaluate.
# Half are loose soups, half are nested in the grammar's shape, so that many
# parse.
ATOMS = ["0", "1", "2", "3/4", "1/0", "H", "eps", "st", "x", "$", "1.5"]
SOUPS = st.lists(st.sampled_from(ATOMS + ["(", ")", "+", "-", "*", "/", "^", "^-1", "^2"]), max_size=20).map(" ".join)
POWERS = st.tuples(st.sampled_from(ATOMS), st.sampled_from(["", "", "^-1", "^2", "^ 0"])).map(" ".join)
NESTED = st.recursive(POWERS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(" ".join),
    inner.map("( {} )".format),
    inner.map("st ( {} )".format),
    inner.map("- {}".format),
), max_leaves=8)


@settings(max_examples=500, deadline=None)
@given(SOUPS | NESTED, st.sampled_from([2, 10]))
def test_token_soups_give_a_value_or_a_documented_error(text, base):
    try:
        tree = parse(text)
    except ParseError as exc:
        event("ParseError")
        assert 0 <= exc.offset <= len(text)
        return
    assert parse(pretty(tree)) == tree
    try:
        value = eval_ast(tree, base)
    except (EvalError, InfiniteValueError) as exc:
        event(type(exc).__name__)
        return
    event("value")
    assert isinstance(value, (Fraction, Hyperreal))


# The scanner against the token rules, on token characters, the whitespace
# that separates tokens and characters that look like one or the other:
# other Unicode space, digits and letters, a lone surrogate.
LOOK_ALIKES = ["\f", "\v", "\x00", "\x85", "\xa0", "\u2028", "\u3000", "\u0662", "\xb2", "\xe9", "\u212a",
               "\ud800", "_", ".", "#", "$"]
SCANNER_TEXTS = st.lists(st.sampled_from([*"019azAZ+-*^/() \t\r\n", *LOOK_ALIKES, "st", "eps"])).map("".join) | st.text()


def _library_tokens(text):
    try:
        return [(kind, token, offset) for kind, token, offset in expr._tokenize(text)]
    except ParseError as exc:
        return exc.message, exc.offset


@settings(max_examples=1000, deadline=None)
@given(SCANNER_TEXTS)
@example("")
@example("1 + 2\n")
@example("\f")
@example("\v")
@example(" ")
@example("\u0661\u0662")
@example("\xb2")
@example("\ud800")
@example("1" + "0" * 99_999)
def test_scanner_follows_the_token_rules(text):
    assert _library_tokens(text) == scan_expression(text)
