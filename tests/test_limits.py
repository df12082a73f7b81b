"""Stated resource limits of the expression language and its error output:
nesting depth, operator chains of any length, and the caret window; and
reprs of values past CPython's int-str limit."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subparticle.cli import CARET_WINDOW, main
from subparticle.engine import (
    AffineMap,
    IntermediateSubparticle,
    QualitySpec,
    RealizedVector,
    Ultrasubparticle,
    bundle,
    realize,
)
from subparticle.expr import MAX_DEPTH, NodeKind, ParseError, eval_ast, parse, pretty
from subparticle.hyperreal import Hyperreal, lambda_for_code
from subparticle.ledger import Config
from subparticle.pipeline import run_pipeline
from subparticle.radix import brief, literal

from oracles import divmod_decimal

OPENERS = {"(": ("(", ")"), "-": ("-", ""), "st(": ("st(", ")")}


def nested(opener: str, depth: int, inner: str = "1") -> str:
    left, right = OPENERS[opener]
    return left * depth + inner + right * depth


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_depth_limit_value():
    assert MAX_DEPTH == 100


@pytest.mark.parametrize(
    "opener, expected",
    [("(", Hyperreal.one(10)), ("-", Hyperreal.one(10)), ("st(", Fraction(1))],  # MAX_DEPTH is even
)
def test_nesting_at_the_limit_evaluates(opener, expected):
    assert eval_ast(parse(nested(opener, MAX_DEPTH)), 10) == expected


@pytest.mark.parametrize("opener", list(OPENERS))
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_nesting_past_the_limit_is_a_parse_error_at_the_opener(opener, depth):
    with pytest.raises(ParseError) as info:
        parse(nested(opener, depth))
    assert info.value.message == f"nesting exceeds the limit of {MAX_DEPTH}"
    assert info.value.offset == MAX_DEPTH * len(opener)


def test_mixed_openers_share_one_depth():
    text = "(-st(" * 34  # 102 levels
    with pytest.raises(ParseError) as info:
        parse(text + "1" + "))" * 34)
    assert info.value.offset == 5 * 33 + 1  # the "-" of the 34th group is level 101


@pytest.mark.parametrize("last", ["-", "(", "st("])
def test_unary_minus_runs_count_each_minus_with_the_groups(last):
    openers = [("-", "(", "-", "st(", "-")[i % 5] for i in range(MAX_DEPTH)]  # an even number of "-"

    def nest(openers):
        return "".join(openers) + "1" + "".join(OPENERS[opener][1] for opener in reversed(openers))

    assert eval_ast(parse(nest(openers)), 10) == Hyperreal.one(10)
    with pytest.raises(ParseError) as info:
        parse(nest(openers + [last]))
    assert (info.value.message, info.value.offset) == (f"nesting exceeds the limit of {MAX_DEPTH}", len("".join(openers)))


def test_sibling_groups_do_not_add_up():
    text = "+".join(["(1)"] * 1000) + "+" + nested("(", MAX_DEPTH)
    assert eval_ast(parse(text), 10) == Hyperreal.from_rational(10, 1001)


def test_five_thousand_term_sum_is_exact():
    text = "+".join(["1"] * 5000)
    assert eval_ast(parse(text), 10) == Hyperreal.from_rational(10, 5000)
    assert pretty(parse(text)) == " + ".join(["1"] * 5000)


def dataclass_repr(node) -> str:
    """A tree's repr as a generated dataclass repr writes it, by recursion."""
    children = ", ".join(map(dataclass_repr, node.children)) + ("," if len(node.children) == 1 else "")
    return f"ExprAst(kind={node.kind!r}, children=({children}), value={node.value!r}, span={node.span!r})"


@pytest.mark.parametrize("op", ["+", "*"])
def test_three_thousand_term_tree_compares_hashes_and_prints(op):
    tree, spaced = parse(op.join(["1"] * 3000)), parse(f" {op} ".join(["1"] * 3000))
    assert tree == spaced and hash(tree) == hash(spaced)  # the spans differ, the structure does not
    assert tree != parse(op.join(["1"] * 2999 + ["2"]))
    assert tree != parse(op.join(["1"] * 2999))
    assert repr(tree).count("ExprAst(") == 5999
    assert parse(pretty(tree)) == tree


def test_tree_repr_is_the_dataclass_form():
    for text in ("1", "-eps^2", "st(1/2 + H) * (3 - eps)", "1+2-3*4"):
        assert repr(parse(text)) == dataclass_repr(parse(text))


def test_long_mixed_chain_matches_a_left_fold():
    rng = random.Random(41)
    for _ in range(20):
        operands = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3000))]
        symbols = [rng.choice("+-*") for _ in operands[1:]]
        text = f"({operands[0]})" + "".join(f"{s}({n})" for s, n in zip(symbols, operands[1:]))
        # ``*`` binds tighter, so fold the products first, then the sums
        terms, signs = [Fraction(operands[0])], [1]
        for symbol, operand in zip(symbols, operands[1:]):
            if symbol == "*":
                terms[-1] *= operand
            else:
                terms.append(Fraction(operand))
                signs.append(1 if symbol == "+" else -1)
        expected = sum(sign * term for sign, term in zip(signs, terms))
        tree = parse(text)
        assert eval_ast(tree, 10) == Hyperreal.from_rational(10, expected)
        assert parse(pretty(tree)) == tree


# A run of ``*`` is multiplied as a balanced tree; the ring is exact, so its
# value is the left fold's, and so is every error, as each factor is evaluated
# in order first.
FACTORS = ["(1+eps)", "(H-2)", "3/4", "eps", "(2*H)^-1", "-H", "(st(1+eps))", "(1/2 - eps^2 + H)", "0", "-2"]


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), st.lists(st.sampled_from(FACTORS), min_size=1, max_size=12)),
                min_size=1, max_size=4))
def test_star_runs_equal_a_left_fold(terms):
    text = "*".join(terms[0][1]) + "".join(sign + "*".join(run) for sign, run in terms[1:])
    folded = [reduce(operator.mul, [eval_ast(parse(factor), 10) for factor in run]) for _, run in terms]
    expected = folded[0]
    for (sign, _), value in zip(terms[1:], folded[1:]):
        expected = expected + value if sign == "+" else expected - value
    assert eval_ast(parse(text), 10) == expected
    if expected.is_finite():
        assert eval_ast(parse(f"st({text})"), 10) == expected.st()


def test_a_long_star_run_multiplies_operands_of_balanced_size(monkeypatch):
    n, sizes, mul = 1500, [], Hyperreal.__mul__
    expected = eval_ast(parse(f"(1+eps)^{n}"), 10)

    def record(x, y):
        sizes.append(max(len(x.terms), len(y.terms)))
        return mul(x, y)

    monkeypatch.setattr(Hyperreal, "__mul__", record)
    assert eval_ast(parse("*".join(["(1+eps)"] * n)), 10) == expected
    assert len(sizes) == n - 1 and sum(sizes) <= n * math.log2(n)  # a left fold's is about n*n/2


def test_chain_keeps_left_associativity():
    tree = parse("1 - 2 - 3*4*5 + eps")
    assert tree.kind is NodeKind.ADD
    assert tree.children[0].kind is NodeKind.SUB
    assert pretty(tree) == "1 - 2 - 3*4*5 + eps"
    assert eval_ast(tree, 10) == Hyperreal(10, {0: -61, -1: 1})


@pytest.mark.parametrize(
    "expr",
    [nested("(", 3000), nested("-", 3000), nested("st(", 1000)],
    ids=["parens", "minus", "st"],
)
def test_deep_nesting_probes_are_input_errors(capsys, expr):
    code, out, err = run(capsys, "eval", "--", expr)
    assert (code, out) == (2, "")
    assert err.startswith(f"error at column {MAX_DEPTH * (3 if expr.startswith('st') else 1) + 1}: nesting")
    assert "Traceback" not in err and len(err.encode()) < 512


def test_five_thousand_term_sum_probe_prints_exactly(capsys):
    code, out, err = run(capsys, "eval", "+".join(["1"] * 5000))
    assert (code, out, err) == (0, "5000 (FiniteAppreciable, st=5000)\n", "")


@pytest.mark.parametrize("before, after", [(5000, 0), (1500, 1500), (5, 2500)])
def test_caret_window_is_bounded_and_points_at_the_error(capsys, before, after):
    expr = "1+" * before + "x" + "+1" * after
    code, out, err = run(capsys, "eval", expr)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 512
    first, shown, caret = err.splitlines()
    assert first == f"error at column {2 * before + 1}: unknown name 'x'"
    assert shown.startswith("  ") and caret.startswith("  ")
    assert len(shown) - 2 <= CARET_WINDOW
    assert shown[len(caret) - 1] == "x" and caret.strip() == "^"


# Reprs write their ints and Fractions through radix, so that one past CPython's
# 4300-digit int-str limit still prints; under it, each is the dataclass form.


def test_reprs_past_the_int_str_limit_return():
    ledger = run_pipeline("a" * 5000)
    code = divmod_decimal(ledger.code)
    assert len(code) > 4300
    assert f", code={code}, " in repr(ledger)
    assert f"Fraction({code}, 1)" in repr(ledger)
    count = lambda_for_code(ledger.code, 10)
    assert repr(realize(bundle(ledger.config.particle, 3, count))) == (
        f"RealizedVector(coords=(Fraction(0, 1), Fraction(0, 1), Fraction({code}, 1)"
        + ", Fraction(0, 1)" * 5 + "))"
    )
    assert f"value={'1' * 5000}, span=" in repr(parse("1" * 5000))
    assert f"value=Fraction({'1' * 5000}, 7), span=" in repr(parse("1" * 5000 + "/7"))
    assert repr(Hyperreal.one(10**5000)) == f"Hyperreal(1{'0' * 5000}, '1')"
    assert str(Hyperreal.generator(10) ** 10**5000) == f"H^1{'0' * 5000}"


def test_particle_config_and_map_reprs_past_the_int_str_limit():
    base, digits = 10**5000, "1" + "0" * 5000
    particle = Ultrasubparticle(base, 3)
    assert repr(particle) == f"Ultrasubparticle(base={digits}, dims=3, naming=0, signs=(1,))"
    assert repr(Config(base=base, dims=3)) == (
        f"Config(base={digits}, dims=3, alphabet='abcdefghijklmnopqrstuvwxyz ', bundle_coordinate=3, quality_signs='+')"
    )
    zero, one, eps = (f"Hyperreal({digits}, '{text}')" for text in ("0", "1", "eps"))
    assert repr(IntermediateSubparticle(base, particle.coords())) == (
        f"IntermediateSubparticle(base={digits}, coords=({zero}, {one}, {eps}))"
    )
    assert repr(AffineMap(base, (Hyperreal.zero(base),) * 3)) == f"AffineMap(base={digits}, translation=({zero}, {zero}, {zero}))"
    assert repr(QualitySpec(entries=(), tail_scale=base)) == f"QualitySpec(entries=(), tail_scale={digits})"


# A dict, set or frozenset is quoted item by item too, so a huge int inside
# one gives the check's own short message.
HUGE_IN_CONTAINERS = [
    (lambda: Config(base={"x": 10**5000}), "base must be an integer >= 2, got {'x': 1000"),
    (lambda: Hyperreal(10, {frozenset([10**5000]): 1}), "exponent must be an integer, got frozenset({1000"),
    (lambda: brief({1: 10**5000}), "{1: 1000"),
    (lambda: brief({10**5000}), "{1000"),
]


@pytest.mark.parametrize("call, start", HUGE_IN_CONTAINERS)
def test_huge_ints_inside_dicts_and_sets_are_quoted_briefly(call, start):
    try:
        message = call()
    except (TypeError, ValueError) as error:
        message = str(error)
    assert message.startswith(start) and message.endswith(" characters)")
    assert len(message) < 200


@pytest.mark.parametrize("value", [set(), frozenset(), frozenset({1, 2}), {1, 2}, {}, {1: 2}, {"a": (1, [2, {3}])}])
def test_dicts_and_sets_are_quoted_as_repr_quotes_them(value):
    assert literal(value) == repr(value)


def test_reprs_of_small_values_are_unchanged():
    assert repr(run_pipeline("ab", Config(dims=3))) == (
        "Ledger(config=Config(base=10, dims=3, alphabet='abcdefghijklmnopqrstuvwxyz ', bundle_coordinate=3, "
        "quality_signs='+'), word='ab', code=29, count=Hypernatural(Hyperreal(10, '29*H')), "
        "ultrasubparticle=(Hyperreal(10, '0'), Hyperreal(10, '1'), Hyperreal(10, 'eps')), "
        "intermediate=(Hyperreal(10, '0'), Hyperreal(10, '29*H'), Hyperreal(10, '29')), "
        "realized=(Fraction(0, 1), Fraction(0, 1), Fraction(29, 1)), decoded='ab')"
    )
    assert repr(RealizedVector((0, 0, Fraction(-3, 7)))) == (
        "RealizedVector(coords=(Fraction(0, 1), Fraction(0, 1), Fraction(-3, 7)))"
    )
    assert repr(parse("2/4 + 3*H^2")) == (
        "ExprAst(kind=<NodeKind.ADD: 'Add'>, children=(ExprAst(kind=<NodeKind.RAT_LIT: 'RatLit'>, children=(), "
        "value=Fraction(1, 2), span=(0, 3)), ExprAst(kind=<NodeKind.MUL: 'Mul'>, children=(ExprAst("
        "kind=<NodeKind.INT_LIT: 'IntLit'>, children=(), value=3, span=(6, 1)), ExprAst(kind=<NodeKind.POW: 'Pow'>, "
        "children=(ExprAst(kind=<NodeKind.GEN: 'Gen'>, children=(), value=None, span=(8, 1)),), value=2, "
        "span=(8, 3))), value=None, span=(6, 5))), value=None, span=(0, 11))"
    )
    assert repr(Hyperreal(2, {3: Fraction(1, 2), -2: -5})) == "Hyperreal(2, '1/2*H^3 - 5*eps^2')"
    assert repr(Ultrasubparticle(10, 4, naming=7)) == "Ultrasubparticle(base=10, dims=4, naming=7, signs=(1, -1))"
    assert repr(Config(base=2, dims=4, quality_signs="-+")) == (
        "Config(base=2, dims=4, alphabet='abcdefghijklmnopqrstuvwxyz ', bundle_coordinate=3, quality_signs='-+')"
    )
    zero, count, eps = Hyperreal.zero(10), Hyperreal.generator(10) * 3, Hyperreal.epsilon(10)
    assert repr(IntermediateSubparticle(10, (zero, count, eps))) == (
        "IntermediateSubparticle(base=10, coords=(Hyperreal(10, '0'), Hyperreal(10, '3*H'), Hyperreal(10, 'eps')))"
    )
    assert repr(AffineMap(10, (zero, count, -eps))) == (
        "AffineMap(base=10, translation=(Hyperreal(10, '0'), Hyperreal(10, '3*H'), Hyperreal(10, '-eps')))"
    )
    assert repr(QualitySpec(entries=())) == "QualitySpec(entries=(), tail_scale=None)"
    assert str(Hyperreal.generator(10) ** 12) == "H^12"
