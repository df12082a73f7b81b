"""Unit and property tests for the exact hyperreal fragment and its wire form."""

import dataclasses
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subparticle import hyperreal, ledger
from subparticle.hyperreal import (
    BaseMismatchError,
    Classification,
    Hypernatural,
    Hyperreal,
    InfiniteValueError,
    hyperfinite_constant_sum,
    lambda_for_code,
)
from subparticle.cli import main
from subparticle.expr import eval_ast, parse
from subparticle.ledger import Ledger, LedgerError
from subparticle.pipeline import run_pipeline

import oracles
from oracles import convolve_terms, random_hyperreal, repeated_addition, sum_terms

F = Fraction


def hr(terms, base=10):
    return Hyperreal(base, terms)


def assert_canonical(x):
    assert all(coeff != 0 for coeff in x.terms.values())
    assert all(isinstance(coeff, Fraction) for coeff in x.terms.values())
    assert all(isinstance(exp, int) for exp in x.terms)


class TestConstruction:
    def test_normalizes_zero_coefficients(self):
        x = hr({2: 0, 0: 3, -1: F(2, 4)})
        assert dict(x.terms) == {0: F(3), -1: F(1, 2)}

    def test_terms_must_be_a_mapping(self):
        with pytest.raises(TypeError, match="^terms must map exponents to coefficients, got list$"):
            Hyperreal(10, [(0, 1), (0, 2)])

    def test_base_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            Hyperreal(1, {})
        with pytest.raises(ValueError):
            Hyperreal(0, {0: 1})

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            hr({0: 0.5})
        with pytest.raises(TypeError):
            hr({0: 1}).scale(0.5)

    def test_named_constants(self):
        assert dict(Hyperreal.generator(10).terms) == {1: F(1)}
        assert dict(Hyperreal.epsilon(10).terms) == {-1: F(1)}
        assert Hyperreal.zero(10).is_zero()
        assert dict(Hyperreal.one(10).terms) == {0: F(1)}


class TestArithmetic:
    def test_mul_frozen_example(self):
        # (2 + eps) * (3 - eps), expected terms frozen from the convolution oracle
        x = hr({0: 2, -1: 1})
        y = hr({0: 3, -1: -1})
        expected = {0: F(6), -1: F(1), -2: F(-1)}
        assert dict((x * y).terms) == expected
        assert convolve_terms([(0, 2), (-1, 1)], [(0, 3), (-1, -1)]) == expected

    def test_mul_matches_oracle_on_random_values(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_hyperreal(rng)
            y = random_hyperreal(rng)
            got = x * y
            assert_canonical(got)
            assert dict(got.terms) == convolve_terms(list(x.terms.items()), list(y.terms.items()))

    def test_additive_inverse(self):
        rng = random.Random(8)
        for _ in range(100):
            x = random_hyperreal(rng)
            assert (x + (-x)).is_zero()

    def test_cancellation_removes_terms(self):
        g = Hyperreal.generator(10)
        assert (g * g - g * g).is_zero()

    def test_scalar_coercion(self):
        x = hr({0: 2, -1: 1})
        assert x + 1 == hr({0: 3, -1: 1})
        assert 1 + x == hr({0: 3, -1: 1})
        assert x - 2 == hr({-1: 1})
        assert 2 - x == hr({-1: -1})
        assert 3 * x == hr({0: 6, -1: 3})
        assert x * F(1, 2) == hr({0: 1, -1: F(1, 2)})

    def test_pow(self):
        x = hr({0: 1, -1: 1})
        assert x ** 0 == Hyperreal.one(10)
        assert x ** 3 == x * x * x
        assert Hyperreal.zero(10) ** 0 == Hyperreal.one(10)
        with pytest.raises(ValueError):
            x ** -1

    def test_base_mismatch_is_an_error(self):
        with pytest.raises(BaseMismatchError):
            hr({0: 1}, base=2) + hr({0: 1}, base=10)
        with pytest.raises(BaseMismatchError):
            hr({0: 1}, base=2) * hr({0: 1}, base=10)

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(1234)
        for _ in range(500):
            x = random_hyperreal(rng)
            y = random_hyperreal(rng)
            z = random_hyperreal(rng)
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            for result in (x + y, x * y, x * (y + z)):
                assert_canonical(result)


class TestMonomialDiv:
    def test_generator_inverse(self):
        x = hr({1: 42})
        assert x.monomial_div(1, 1) == hr({0: 42})

    def test_scalar_division(self):
        assert hr({0: 6, -1: 2}).monomial_div(2, 0) == hr({0: 3, -1: 1})

    def test_epsilon_ratio(self):
        assert Hyperreal.epsilon(10).monomial_div(1, -1) == Hyperreal.one(10)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            hr({0: 1}).monomial_div(0, 0)


class TestStandardPart:
    def test_discards_infinitesimal_part(self):
        assert hr({0: 5, -1: 3}).st() == 5

    def test_undefined_on_infinite(self):
        with pytest.raises(InfiniteValueError):
            Hyperreal.generator(10).st()

    def test_product_example(self):
        product = hr({0: 2, -1: 1}) * hr({0: 3, -1: -1})
        oracle = convolve_terms([(0, 2), (-1, 1)], [(0, 3), (-1, -1)])
        assert product.st() == oracle.get(0, F(0)) == 6

    def test_missing_constant_term_gives_zero(self):
        assert hr({-1: 3}).st() == 0
        assert Hyperreal.zero(10).st() == 0

    def test_homomorphism_on_finite_values(self):
        rng = random.Random(99)
        for _ in range(500):
            x = random_hyperreal(rng, exp_hi=0)
            y = random_hyperreal(rng, exp_hi=0)
            assert (x + y).st() == x.st() + y.st()
            assert (x * y).st() == x.st() * y.st()


class TestClassify:
    def test_examples(self):
        assert (-Hyperreal.epsilon(10)).classify() is Classification.INFINITESIMAL
        assert Hyperreal.zero(10).classify() is Classification.INFINITESIMAL
        assert hr({0: 7, -1: 1}).classify() is Classification.FINITE_APPRECIABLE
        assert Hyperreal.generator(10).classify() is Classification.INFINITE
        assert hr({2: 1, 0: -3}).classify() is Classification.INFINITE

    def test_infinitesimal_iff_finite_with_zero_st(self):
        rng = random.Random(21)
        for _ in range(300):
            x = random_hyperreal(rng)
            if x.classify() is Classification.INFINITE:
                continue
            assert (x.classify() is Classification.INFINITESIMAL) == (x.st() == 0)


class TestInMonad:
    def test_examples(self):
        assert hr({0: 3, -1: 1}).in_monad(3)
        assert not Hyperreal.generator(10).in_monad(0)
        lam = lambda_for_code(42, 10)
        assert (lam.value * Hyperreal.epsilon(10)).in_monad(42)

    def test_exact_value_is_in_its_own_monad(self):
        assert hr({0: F(5, 3)}).in_monad(F(5, 3))


class TestLambdaForCode:
    def test_canonical_witness(self):
        lam = lambda_for_code(42, 10)
        assert dict(lam.value.terms) == {1: F(42)}
        assert lam.is_infinite
        assert lam.value.monomial_div(1, 1).st() == 42

    def test_code_zero_is_flagged_degenerate(self):
        lam = lambda_for_code(0, 10)
        assert lam.is_degenerate
        assert not lam.is_infinite
        assert lam.value.is_zero()

    def test_large_code_base_two(self):
        lam = lambda_for_code(1_000_003, 2)
        product = lam.value * Hyperreal.epsilon(2)
        oracle = convolve_terms([(1, 1_000_003)], [(-1, 1)])
        assert dict(product.terms) == oracle
        assert product.st() == 1_000_003

    def test_negative_code_rejected(self):
        with pytest.raises(ValueError):
            lambda_for_code(-1, 10)


class TestHyperfiniteConstantSum:
    def test_infinite_count_times_epsilon(self):
        lam = lambda_for_code(42, 10)
        total = hyperfinite_constant_sum(lam, Hyperreal.epsilon(10))
        assert total == hr({0: 42})
        assert total.st() == 42

    def test_count_one(self):
        x = hr({0: 2, -1: 5})
        assert hyperfinite_constant_sum(Hypernatural.from_int(1, 10), x) == x

    def test_finite_count_equals_literal_addition(self):
        eps = Hyperreal.epsilon(10)
        total = hyperfinite_constant_sum(Hypernatural.from_int(5, 10), eps)
        assert total == hr({-1: 5})
        assert total == repeated_addition(eps, 5)

    def test_random_finite_counts_match_loop_oracle(self):
        rng = random.Random(55)
        for _ in range(50):
            times = rng.randint(0, 1000)
            term = random_hyperreal(rng)
            closed = hyperfinite_constant_sum(Hypernatural.from_int(times, 10), term)
            assert closed == repeated_addition(term, times)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatchError):
            hyperfinite_constant_sum(Hypernatural.from_int(2, 2), Hyperreal.epsilon(10))


class TestHypernatural:
    def test_accepts_natural_forms(self):
        Hypernatural(hr({0: 5}))
        Hypernatural(hr({1: 42}))
        Hypernatural(hr({2: 1, 0: 3}))
        Hypernatural(Hyperreal.zero(10))  # degenerate

    def test_rejects_non_natural_forms(self):
        with pytest.raises(ValueError):
            Hypernatural(hr({-1: 1}))
        with pytest.raises(ValueError):
            Hypernatural(hr({0: F(1, 2)}))
        with pytest.raises(ValueError):
            Hypernatural(hr({1: -1}))

    def test_is_infinite(self):
        assert lambda_for_code(7, 10).is_infinite
        assert not Hypernatural.from_int(7, 10).is_infinite

    def test_from_int_validation(self):
        with pytest.raises(ValueError):
            Hypernatural.from_int(-1, 10)


# -- the wire form: triples, which ledger format v1 alone writes and reads -----
#
# ``ledger.py`` is the one writer and reader of a value's triples, so these
# tests put the value in a ledger's first ultrasubparticle entry.

AB_LEDGER = run_pipeline("ab")

# Each row of triples, and the inner message of the LedgerError it gives.
MALFORMED_TRIPLES = [
    ([[0, "1", "0"]], "triple denominator must be a positive decimal string, got '0'"),  # zero denominator
    ([[0, "0", "1"]], "zero coefficient in serialized value"),  # stored zero coefficient
    ([[0, "1", "1"], [0, "2", "1"]], "triples must be in strictly descending exponent order"),  # duplicate exponent
    ([[0, "1", "1"], [1, "2", "1"]], "triples must be in strictly descending exponent order"),  # ascending order
    ([["0", "1", "1"]], "exponent must be an integer, got '0'"),  # non-integer exponent
    ([[0, "1.5", "1"]], "triple numerator must be a decimal string, got '1.5'"),  # non-decimal numerator
    ([[0, "1", "-1"]], "triple denominator must be a positive decimal string, got '-1'"),  # negative denominator
    ([[0, 1, "1"]], "triple numerator must be a decimal string, got 1"),  # numerator not a string
    ([[0, "1"]], "expected an [exponent, numerator, denominator] triple, got [0, '1']"),  # not a triple
    ([[True, "1", "1"]], "exponent must be an integer, got True"),  # bool exponent
]


def through_ledger(x):
    """The rows a ledger writes for ``x``, and the value it reads back from them."""
    ledger = dataclasses.replace(AB_LEDGER, ultrasubparticle=(x,) + AB_LEDGER.ultrasubparticle[1:])
    text = ledger.to_json()
    return json.loads(text)["ultrasubparticle"][0], Ledger.from_json(text).ultrasubparticle[0]


def document_with(triples):
    """The ledger document of "ab" with ``triples`` as its first ultrasubparticle entry."""
    data = AB_LEDGER.to_dict()
    data["ultrasubparticle"][0] = triples
    return data


def read_triples(triples):
    return Ledger.from_dict(document_with(triples)).ultrasubparticle[0]


class TestSerialization:
    def test_triples_descend_and_roundtrip(self):
        x = hr({-2: F(-1, 3), 1: 7, 0: F(5, 2)})
        triples, back = through_ledger(x)
        assert triples == [[1, "7", "1"], [0, "5", "2"], [-2, "-1", "3"]]
        assert back == x

    def test_zero_is_empty(self):
        assert through_ledger(Hyperreal.zero(10)) == ([], Hyperreal.zero(10))
        assert read_triples([]).is_zero()

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(100):
            x = random_hyperreal(rng)
            assert through_ledger(x)[1] == x

    @pytest.mark.parametrize("triples, terms", [
        ([[1, "6", "4"]], {1: F(3, 2)}),
        ([[0, "-10", "4"], [-1, "7", "7"]], {0: F(-5, 2), -1: F(1)}),
    ])
    def test_triples_build_coefficients_in_lowest_terms(self, triples, terms):
        value = ledger._hyperreal(triples, 10)
        assert value.terms.keys() == terms.keys()
        for exp, coeff in value.terms.items():
            assert type(coeff) is Fraction and coeff == terms[exp] and hash(coeff) == hash(terms[exp])
            assert (coeff.numerator, coeff.denominator) == (terms[exp].numerator, terms[exp].denominator)

    @pytest.mark.parametrize(
        "triples, message", MALFORMED_TRIPLES, ids=[f"triples{i}" for i in range(len(MALFORMED_TRIPLES))]
    )
    def test_malformed_triples_rejected(self, triples, message, tmp_path, capsys):
        with pytest.raises(LedgerError) as info:
            read_triples(triples)
        assert str(info.value) == f"invalid ultrasubparticle coordinate 1: {message}"
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(document_with(triples)), encoding="utf-8")
        assert main(["realize", "--ledger", str(path)]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"malformed ledger: {info.value}\n")


class TestDisplay:
    @pytest.mark.parametrize(
        "terms, text",
        [
            ({}, "0"),
            ({0: 6, -1: 1, -2: -1}, "6 + eps - eps^2"),
            ({1: 42}, "42*H"),
            ({-1: -1}, "-eps"),
            ({1: 1}, "H"),
            ({-3: F(3, 2)}, "3/2*eps^3"),
            ({2: -1}, "-H^2"),
            ({0: F(-5, 3)}, "-5/3"),
            ({1: 1, 0: -2, -1: 1}, "H - 2 + eps"),
        ],
    )
    def test_canonical_text(self, terms, text):
        assert str(hr(terms)) == text

    def test_nothing_but_iteration_depends_on_term_order(self):
        # a sum of literal terms, the integer product loop and a packed power
        values = [eval_ast(parse(text), 10) for text in ("H^2 + 2*H + 1", "(1+H)*(1+H)", "(1+H)^2")]
        assert len({tuple(value.terms) for value in values}) > 1
        for value in values:
            assert value == values[0] and hash(value) == hash(values[0])
            assert (str(value), repr(value)) == ("H^2 + 2*H + 1", "Hyperreal(10, 'H^2 + 2*H + 1')")
            assert ledger._hyperreal_json(value) == ledger._hyperreal_json(values[0])

    def test_equality_is_per_base(self):
        assert hr({0: 5}, base=2) != hr({0: 5}, base=10)
        assert hr({0: 5}) == hr({0: 5})
        assert hash(hr({0: 5})) == hash(hr({0: 5}))


small_fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)
term_maps = st.dictionaries(st.integers(min_value=-4, max_value=4), small_fractions, max_size=5)


@given(term_maps, term_maps)
def test_canonical_after_operations(xs, ys):
    x = Hyperreal(10, xs)
    y = Hyperreal(10, ys)
    for result in (x + y, x - y, x * y, -x, x.scale(F(3, 7))):
        assert_canonical(result)


@given(term_maps)
def test_sub_self_is_zero(xs):
    x = Hyperreal(10, xs)
    assert (x - x).is_zero()


# -- operation results skip validation: check their normal form ---------------
#
# Arithmetic results are built without the public constructor's checks, so
# structural __eq__ and __hash__ are only sound if every result is already
# in the form that constructor would give: Fraction coefficients, none zero.


def assert_normal_form(result):
    assert result == Hyperreal(result.base, dict(result.terms))
    assert hash(result) == hash(Hyperreal(result.base, dict(result.terms)))
    assert_canonical(result)
    assert all(type(coeff) is Fraction for coeff in result.terms.values())


operand_pairs = st.randoms(use_true_random=False).map(
    lambda rng: (random_hyperreal(rng, limit=50), random_hyperreal(rng, limit=50))
)


@given(operand_pairs, st.integers(min_value=-3, max_value=3), st.integers(min_value=-4, max_value=4))
def test_operation_results_are_in_normal_form(pair, factor, exp):
    x, y = pair
    results = [x + y, x - y, -x, x * y, x ** 3, x.scale(factor), x.scale(F(factor, 7))]
    results += [x + factor, factor - x, factor * x, x.monomial_div(F(3, 2), exp), x.monomial_div(-1, exp)]
    results.append(through_ledger(x)[1])
    for result in results:
        assert_normal_form(result)
    assert dict((x * y).terms) == convolve_terms(list(x.terms.items()), list(y.terms.items()))
    assert x - x == Hyperreal.zero(10) and not (x - x).terms


@given(operand_pairs)
def test_cancelling_sums_and_products_drop_their_terms(pair):
    x, y = pair
    assert_normal_form(x + (-x))
    assert (x + (-x)).is_zero()
    # (x + y)(x - y) = x^2 - y^2 cancels the cross terms.
    product = (x + y) * (x - y)
    assert_normal_form(product)
    assert product == x * x - y * y


def test_scale_by_one_and_minus_one():
    x = hr({0: 2, -1: F(1, 3)})
    assert x.scale(1) == x
    assert x.scale(-1) == -x
    assert x.scale(F(-2, 2)) == -x


def test_named_constructors_keep_their_checks():
    for make in (Hyperreal.zero, Hyperreal.one, Hyperreal.generator, Hyperreal.epsilon):
        with pytest.raises(ValueError):
            make(1)
    with pytest.raises(ValueError):
        Hyperreal.from_rational(1, 3)
    with pytest.raises(TypeError):
        Hyperreal.from_rational(10, 0.5)
    with pytest.raises(TypeError):
        Hyperreal.monomial(10, 1, 1.0)
    with pytest.raises(TypeError):
        Hyperreal.monomial(10, 0.5, 1)
    with pytest.raises(TypeError):
        hr({0: 1}).monomial_div(1, 0.5)
    assert Hyperreal.monomial(10, 0, 3).is_zero()
    assert Hyperreal.from_rational(10, 0).is_zero()


def test_public_constructor_keeps_its_checks():
    with pytest.raises(TypeError):
        Hyperreal(10, {0.5: 1})
    with pytest.raises(TypeError):
        Hyperreal(10, {0: 1.5})
    with pytest.raises(ValueError):
        Hyperreal(True, {0: 1})
    with pytest.raises(ValueError):
        Hyperreal("10", {0: 1})


def test_error_messages_quote_huge_values_briefly():
    with pytest.raises(LedgerError) as info:
        read_triples([[0, "1" * 20000 + "x", "1"]])
    assert len(str(info.value)) < 200
    assert "20001 characters" in str(info.value)
    with pytest.raises(TypeError) as info:
        Hyperreal(10, {"x" * 100000: 1})
    assert str(info.value) == f"exponent must be an integer, got {'x' * 40!r}... (100000 characters)"


# -- dense products and powers: packed ints against the naive oracle -----------
#
# Dense operands are multiplied as packed ints (Kronecker substitution), so
# every sign, cancellation, denominator and digit width must come back out
# exactly as the term-by-term convolution gives it.


def _coefficients(integral):
    numerators = st.integers(min_value=-9, max_value=9) | st.integers(min_value=-10**30, max_value=10**30)
    if integral:
        return numerators
    denominators = st.integers(min_value=1, max_value=12) | st.integers(min_value=1, max_value=10**30)
    return st.builds(Fraction, numerators, denominators)


dense_maps = st.booleans().flatmap(
    lambda integral: st.dictionaries(st.integers(min_value=-6, max_value=6), _coefficients(integral), max_size=8)
)
bases = st.sampled_from([2, 10])


def assert_products_convolve(base, xs, ys):
    x, y = Hyperreal(base, xs), Hyperreal(base, ys)
    for left, right in ((x, y), (x + y, x - y), (x, -x)):
        product = left * right
        assert_normal_form(product)
        assert product.base == base
        assert dict(product.terms) == convolve_terms(list(left.terms.items()), list(right.terms.items()))


def repeated_convolution(x, exponent):
    expected = {0: F(1)}
    for _ in range(exponent):
        expected = convolve_terms(list(expected.items()), list(x.terms.items()))
    return expected


def assert_power_convolves(base, xs, exponent):
    x = Hyperreal(base, xs)
    power = x ** exponent
    assert_normal_form(power)
    assert power.base == base
    assert dict(power.terms) == repeated_convolution(x, exponent)


@settings(deadline=None)
@given(bases, dense_maps, dense_maps)
def test_dense_products_match_the_naive_convolution(base, xs, ys):
    assert_products_convolve(base, xs, ys)


@settings(deadline=None)
@given(bases, dense_maps, st.integers(min_value=0, max_value=12))
def test_dense_powers_match_repeated_convolution(base, xs, exponent):
    assert_power_convolves(base, xs, exponent)


def test_dense_examples_pack_and_cancel():
    h = Hyperreal.generator(10)
    assert (h + 1) ** 3 * (h - 1) ** 3 == hr({6: 1, 4: -3, 2: 3, 0: -1})
    assert ((F(1, 2) - F(1, 3) * Hyperreal.epsilon(2)) ** 32).st() == F(1, 2**32)
    assert (h * h + h + 1) * (h * h - h + 1) == hr({4: 1, 2: 1, 0: 1})


def test_sparse_operands_never_pack(monkeypatch):
    def refuse(digits, width):
        raise AssertionError("a sparse operand was packed")

    monkeypatch.setattr(hyperreal, "_pack", refuse)
    far = Hyperreal.monomial(10, 1, 100000)
    h, eps = Hyperreal.generator(10), Hyperreal.epsilon(10)
    assert (far + 1) * (far - 1) == hr({200000: 1, 0: -1})
    assert (far + 1) ** 3 == hr({300000: 1, 200000: 3, 100000: 3, 0: 1})
    assert (far + eps) * (h + 1) == hr({100001: 1, 100000: 1, 0: 1, -1: 1})
    near = hr({k: k + 1 for k in range(15)})
    wide, narrow = far + near, far - near  # enough terms to pack, but too wide a span
    assert dict((wide * narrow).terms) == convolve_terms(list(wide.terms.items()), list(narrow.terms.items()))


# Dense operands whose exponents share a stride pack one digit per stride
# step, and a product packs at the gcd of its operands' strides.
strided_maps = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=7),
    st.booleans().flatmap(lambda integral: st.lists(_coefficients(integral), max_size=8)),
).map(lambda spec: {spec[0] + spec[1] * k: coeff for k, coeff in enumerate(spec[2])})


@settings(deadline=None)
@given(bases, strided_maps, strided_maps)
def test_strided_products_match_the_naive_convolution(base, xs, ys):
    assert_products_convolve(base, xs, ys)


@settings(deadline=None)
@given(bases, strided_maps, st.integers(min_value=0, max_value=12))
def test_strided_powers_match_repeated_convolution(base, xs, exponent):
    assert_power_convolves(base, xs, exponent)


def test_strided_operands_pack_one_digit_per_step(monkeypatch):
    packed, pack = [], hyperreal._pack

    def record(digits, width):
        packed.append(len(digits))
        return pack(digits, width)

    monkeypatch.setattr(hyperreal, "_pack", record)
    h, eps = Hyperreal.generator(10), Hyperreal.epsilon(10)
    binomial = F(3, 7) * h**3 - F(5, 4) * eps**3  # stride 6
    expected = repeated_convolution(binomial, 32)
    assert packed == []
    assert dict((binomial**32).terms) == expected
    assert packed == [2]
    packed.clear()
    x, y = hr({1 + 4 * k: k + 1 for k in range(100)}), hr({0: 1, 6: -1})  # strides 4 and 6 pack at 2
    assert hyperreal._packed_product(x._terms, y._terms) == convolve_terms(list(x.terms.items()), list(y.terms.items()))
    assert packed == [199, 4]  # packed directly: x * y multiplies in the loop, y has 2 terms


def test_dense_products_pack_from_two_hundred_term_pairs(monkeypatch):
    packed, pack = [], hyperreal._pack
    monkeypatch.setattr(hyperreal, "_pack", lambda digits, width: packed.append(len(digits)) or pack(digits, width))
    x, y = hr({k: F(k, 7) + 1 for k in range(-5, 6)}), hr({k: F(k + 1, 3) + 5 for k in range(-9, 9)})
    assert dict((x * y).terms) == convolve_terms(list(x.terms.items()), list(y.terms.items()))
    assert packed == []  # 11x18 multiplies in the loop; no two operands make 199 pairs
    x, y = x - hr({5: x.terms[5]}), y + hr({9: F(1, 7), 10: -2})
    assert dict((x * y).terms) == convolve_terms(list(x.terms.items()), list(y.terms.items()))
    assert packed == [10, 20]


# A skinny product multiplies in the loop however many term pairs it has:
# the loop is faster at 3x80, 4x50 and 6x40.
def test_dense_products_pack_from_eight_terms_a_side(monkeypatch):
    packed, pack = [], hyperreal._pack
    monkeypatch.setattr(hyperreal, "_pack", lambda digits, width: packed.append(len(digits)) or pack(digits, width))
    assert (hyperreal._PACK_MIN_SIDE, hyperreal._PACK_MIN_TERMS) == (8, 200)

    def dense(count):
        return hr({k: F((-1) ** k * (k + 1), k % 5 + 2) for k in range(count)})

    for side, other in ((7, 200), (7, 40), (3, 80), (8, 25), (8, 40), (25, 8)):
        x, y = dense(side), dense(other)
        assert hyperreal._dense(x._terms) and hyperreal._dense(y._terms)
        assert dict((x * y).terms) == convolve_terms(list(x.terms.items()), list(y.terms.items()))
    assert packed == [8, 25, 8, 40, 25, 8]  # 7 terms or fewer a side never pack


@settings(deadline=None)
@given(dense_maps | strided_maps, dense_maps | strided_maps)
def test_packed_products_match_the_naive_convolution(xs, ys):
    x, y = Hyperreal(10, xs), Hyperreal(10, ys)
    if hyperreal._dense(x._terms) and hyperreal._dense(y._terms):
        assert hyperreal._packed_product(x._terms, y._terms) == convolve_terms(list(xs.items()), list(ys.items()))


# -- coefficients built from ints ---------------------------------------------
#
# Products, powers and literals build each coefficient with ``_coefficient``,
# which writes a Fraction's two slots directly.  It must give what
# ``Fraction(n, d)`` gives on every supported Python: the same type, value,
# hash and lowest terms.

huge = 10**5000


@settings(deadline=None)
@example(0, 5, 1)
@example(-6, 4, 1)
@example(7, 1, 1)
@example(-huge - 1, 1, 3)
@example(huge + 1, 3 * 10**4999, 7 * huge)
@given(
    st.integers(min_value=-10**6, max_value=10**6) | st.integers(min_value=-huge, max_value=huge),
    st.integers(min_value=1, max_value=10**6) | st.integers(min_value=1, max_value=huge),
    st.integers(min_value=1, max_value=10**6) | st.integers(min_value=1, max_value=huge),
)
def test_coefficient_is_the_fraction_in_lowest_terms(numerator, denominator, common):
    for n, d in ((numerator, denominator), (numerator * common, denominator * common)):
        built, expected = hyperreal._coefficient(n, d), Fraction(n, d)
        for built, expected in ((built, expected), (hyperreal._negated(built), -expected)):
            assert type(built) is Fraction
            assert built == expected and hash(built) == hash(expected)
            assert (built.numerator, built.denominator) == (expected.numerator, expected.denominator)


@settings(deadline=None)
@example(0)
@example(-1)
@example(-huge - 1)
@example(huge)
@given(st.integers(min_value=-10**6, max_value=10**6) | st.integers(min_value=-huge, max_value=huge))
def test_an_int_operand_is_the_fraction_of_the_int(n):
    x = Hyperreal.generator(10) + Fraction(1, 3)
    built = hyperreal._as_fraction(n)
    assert type(built) is Fraction and type(built.numerator) is int
    assert (built.numerator, built.denominator) == (n, 1) and hash(built) == hash(Fraction(n))
    for value, expected in ((x + n, {1: 1, 0: Fraction(1, 3) + n}), (n - x, {1: -1, 0: n - Fraction(1, 3)}),
                            (x * n, {1: n, 0: Fraction(n, 3)})):
        assert value.terms == {exp: c for exp, c in expected.items() if c}
        assert_lowest_terms(value)


def test_a_bool_operand_is_the_int_it_equals():
    x = Hyperreal.generator(10)
    for flag, n in ((True, 1), (False, 0)):
        built = hyperreal._as_fraction(flag)
        assert type(built) is Fraction and type(built.numerator) is int and built == Fraction(n)
        assert x + flag == x + n and x * flag == x * n and flag - x == n - x
        assert Hyperreal.from_rational(10, flag) == Hyperreal.from_rational(10, n)


def assert_lowest_terms(value):
    for coeff in value.terms.values():
        assert type(coeff) is Fraction and coeff
        assert coeff.denominator > 0 and math.gcd(coeff.numerator, coeff.denominator) == 1


# Sums, differences, negations and monomial products against plain Fraction
# arithmetic: shared and coprime denominators, negative values, ints past
# the int-str limit, and sums that cancel a term.
exact_coefficients = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12) | st.integers(min_value=-huge, max_value=huge),
    st.sampled_from([1, 2, 3, 4, 6, 35]) | st.integers(min_value=1, max_value=huge),
)
small_maps = st.dictionaries(st.integers(min_value=-3, max_value=3), exact_coefficients, max_size=5)


@st.composite
def cancelling_pairs(draw):
    """Two term maps, the second minus some of the first's terms."""
    xs, ys = draw(small_maps), draw(small_maps)
    cancelled = draw(st.sets(st.sampled_from(sorted(xs)))) if xs else set()
    return xs, ys | {exp: -xs[exp] for exp in cancelled}, {exp for exp in cancelled if xs[exp]}


# The examples hold ints past the limit, not Fractions: hypothesis takes an
# explicit example's repr, which such a Fraction cannot give.
@settings(deadline=None)
@example(({0: F(1, 2), 1: huge + 1}, {0: F(-1, 2), 1: 1}, {0}), F(-3, 35), 2)
@example(({0: F(1, 6), -1: -huge}, {0: F(1, 10), -1: huge}, {-1}), huge + 1, -1)
@given(cancelling_pairs(), exact_coefficients, st.integers(min_value=-3, max_value=3))
def test_sums_negations_and_monomial_products_match_fraction_arithmetic(pair, coeff, exp):
    xs, ys, cancelled = pair
    x, y, m = hr(xs), hr(ys), Hyperreal.monomial(10, coeff, exp)
    for value, expected in (
        (x + y, sum_terms(xs, ys)),
        (y + x, sum_terms(xs, ys)),
        (x - y, sum_terms(xs, ys, -1)),
        (-x, sum_terms({}, xs, -1)),
        (x * m, convolve_terms(list(xs.items()), [(exp, coeff)])),
        (m * x, convolve_terms(list(xs.items()), [(exp, coeff)])),
    ):
        assert_lowest_terms(value)
        assert dict(value.terms) == expected
    assert not cancelled & set((x + y).terms)  # a sum that cancels deletes its exponent


def test_computed_coefficients_are_in_lowest_terms(monkeypatch):
    packed, pack = [], hyperreal._pack
    monkeypatch.setattr(hyperreal, "_pack", lambda digits, width: packed.append(len(digits)) or pack(digits, width))
    rng = random.Random(27)

    def operand(count, exps=range(-3, 4)):
        return hr({exp: F(rng.choice([-1, 1]) * rng.randint(1, 19), rng.randint(1, 9)) for exp in rng.sample(exps, count)})

    side = math.isqrt(hyperreal._PACK_MIN_TERMS) + 1  # side*side term pairs pack
    pairs = [(operand(a), operand(b)) for a in range(1, 5) for b in range(1, 5)]
    pairs.append((operand(side, range(-side, side)), operand(side, range(-side, side))))
    for x, y in pairs:
        for left, right in ((x, y), (x + y, x - y), (x, -x)):
            product = left * right
            assert_lowest_terms(product)
            assert dict(product.terms) == convolve_terms(list(left.terms.items()), list(right.terms.items()))
    assert len(packed) == 6  # the last three products packed
    for k in range(2, 10):
        x = operand(3)
        assert_lowest_terms(x**k)
        assert dict((x**k).terms) == repeated_convolution(x, k)
    h, eps = Hyperreal.generator(10), Hyperreal.epsilon(10)
    x = operand(4)
    for monomial in (h, h**3, eps, eps**2, -eps, F(6, 4) * eps):
        product = x * monomial
        assert_lowest_terms(product)
        assert dict(product.terms) == convolve_terms(list(x.terms.items()), list(monomial.terms.items()))
    (shift,) = (h**3).terms
    assert all((x * h**3).terms[exp + shift] is coeff for exp, coeff in x.terms.items())  # a unit factor keeps them
    for text, value in (("6/4", F(3, 2)), ("0/5", 0), ("007", 7), ("-6/4*eps^2", F(-3, 2)), ("12/18*eps", F(2, 3))):
        result = eval_ast(parse(text), 10)
        assert_lowest_terms(result)
        assert list(result.terms.values()) == ([value] if value else [])
        standard = eval_ast(parse(f"st({text})"), 10)
        assert type(standard) is Fraction and math.gcd(standard.numerator, standard.denominator) == 1
    assert "_coefficient" not in pathlib.Path(oracles.__file__).read_text()  # the oracle stays naive


# A power of a monomial is built in closed form, not by products.
@pytest.mark.parametrize("exp", [-3, -1, 0, 1, 4])
@pytest.mark.parametrize("coeff", [1, -1, 7, F(-3, 2), F(5, 9)])
def test_monomial_powers_equal_repeated_products(coeff, exp):
    x = Hyperreal.monomial(10, coeff, exp)
    product = Hyperreal.one(10)
    for k in range(13):
        power = x**k
        assert_normal_form(power)
        assert power == product and dict(power.terms) == {exp * k: F(coeff) ** k}
        product = product * x
    assert x**-1 == Hyperreal.monomial(10, 1 / F(coeff), -exp) and x * x**-1 == Hyperreal.one(10)


nonzero_fractions = small_fractions.filter(bool)


@given(nonzero_fractions, st.integers(min_value=-5, max_value=5), st.integers(min_value=-12, max_value=12))
def test_monomial_powers_are_closed_form_for_every_integer(coeff, exp, k):
    x = Hyperreal.monomial(10, coeff, exp)
    assert_normal_form(x**k)
    assert x**k == Hyperreal.monomial(10, coeff**k, exp * k)
    assert x**k * x**-k == Hyperreal.one(10)


@given(operand_pairs, st.integers(min_value=-9, max_value=9).filter(bool) | nonzero_fractions,
       st.integers(min_value=-4, max_value=4))
def test_monomial_div_is_the_term_by_term_quotient(pair, divisor, exp):
    x, _ = pair
    quotient = x.monomial_div(divisor, exp)
    assert_normal_form(quotient)
    assert dict(quotient.terms) == {e - exp: c / divisor for e, c in x.terms.items()}


@pytest.mark.parametrize(
    "divisor, exp, error, message",
    [
        (0, 1, ZeroDivisionError, "division by a zero monomial coefficient"),
        (F(0), 0.5, ZeroDivisionError, "division by a zero monomial coefficient"),
        (1, True, TypeError, "exponent must be an integer, got True"),
        (1, 0.5, TypeError, "exponent must be an integer, got 0.5"),
        (0.5, 1, TypeError, "expected an exact rational (int or Fraction), got float"),
    ],
)
def test_monomial_div_keeps_its_errors(divisor, exp, error, message):
    with pytest.raises(error) as info:
        hr({0: 1, -1: 2}).monomial_div(divisor, exp)
    assert str(info.value) == message


def test_zero_powers_are_unchanged():
    zero = Hyperreal.zero(10)
    assert zero**0 == Hyperreal.one(10)
    for k in range(1, 13):
        assert zero**k == zero and not (zero**k).terms
    with pytest.raises(ValueError):
        zero**-1
