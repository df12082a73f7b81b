"""Stated resource limits of the expression language and its error output:
nesting depth, operator chains of any length, and the caret window."""

import random
from fractions import Fraction

import pytest

from subparticle.cli import CARET_WINDOW, main
from subparticle.expr import MAX_DEPTH, NodeKind, ParseError, eval_ast, parse, pretty
from subparticle.hyperreal import Hyperreal

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


def test_sibling_groups_do_not_add_up():
    text = "+".join(["(1)"] * 1000) + "+" + nested("(", MAX_DEPTH)
    assert eval_ast(parse(text), 10) == Hyperreal.from_rational(10, 1001)


def test_five_thousand_term_sum_is_exact():
    text = "+".join(["1"] * 5000)
    assert eval_ast(parse(text), 10) == Hyperreal.from_rational(10, 5000)
    assert pretty(parse(text)) == " + ".join(["1"] * 5000)


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
        # compared as text: the dataclass equality of two such trees recurses per link
        assert pretty(parse(pretty(tree))) == pretty(tree)


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
