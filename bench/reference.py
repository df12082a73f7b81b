"""Naive exact references that the benchmark checks the program against.

Nothing here imports ``subparticle``.  A value of the hyperreal fragment is
a dict ``{exponent of H: Fraction}`` holding no zero coefficients, and each
operation is the schoolbook one: powers are repeated multiplication, not
squaring, so a shared shortcut cannot hide a shared bug.
"""

from __future__ import annotations

from fractions import Fraction


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, coeff in b.items():
        value = out.get(exp, 0) + coeff
        if value:
            out[exp] = value
        else:
            out.pop(exp, None)
    return out


def poly_neg(a: dict) -> dict:
    return {exp: -coeff for exp, coeff in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {exp: coeff for exp, coeff in out.items() if coeff}


def poly_pow(a: dict, n: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_st(a: dict) -> Fraction:
    if any(exp > 0 for exp in a):
        raise ArithmeticError("standard part of an infinite value")
    return Fraction(a.get(0, 0))


def evaluate(tree) -> dict | Fraction:
    """Value of a generated expression tree.

    Nodes are ``("lit", poly)``, ``("sub"|"mul", left, right)``,
    ``("pow", body, n)`` and ``("st", inner)``.  A root ``st`` gives a
    Fraction, as the program's evaluator does; anything else a poly.
    """
    if tree[0] == "st":
        return poly_st(_value(tree[1]))
    return _value(tree)


def _value(tree) -> dict:
    kind = tree[0]
    if kind == "lit":
        return {exp: Fraction(coeff) for exp, coeff in tree[1].items() if coeff}
    if kind == "sub":
        return poly_add(_value(tree[1]), poly_neg(_value(tree[2])))
    if kind == "mul":
        return poly_mul(_value(tree[1]), _value(tree[2]))
    if kind == "pow":
        return poly_pow(_value(tree[1]), tree[2])
    if kind == "st":
        value = poly_st(_value(tree[1]))
        return {0: value} if value else {}
    raise ValueError(f"unknown node {kind!r}")


def bijective_code(word: str, symbols: str) -> int:
    """Bijective base-A numeral of a word: digits 1..A, most significant first."""
    size = len(symbols)
    code = 0
    for symbol in word:
        code = code * size + symbols.index(symbol) + 1
    return code


def quality_sign(coord: int) -> int:
    """Default sign of quality coordinate ``coord`` (3-based): +, -, +, ..."""
    return 1 if (coord - 3) % 2 == 0 else -1
