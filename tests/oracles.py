"""Independent reference implementations used to derive expected values.

These deliberately avoid the library's shortcut paths: products are naive
double loops over explicit term lists, counted translations are literally
iterated, counted sums are literally accumulated, and word codes come from
plain shortlex enumeration.
"""

from fractions import Fraction
from itertools import product

from subparticle.hyperreal import Hyperreal


def convolve_terms(xs, ys):
    """Product of two [(exponent, coefficient)] term lists by double loop."""
    acc = {}
    for ex, cx in xs:
        for ey, cy in ys:
            key = ex + ey
            acc[key] = acc.get(key, Fraction(0)) + Fraction(cx) * Fraction(cy)
    return {exp: coeff for exp, coeff in acc.items() if coeff != 0}


def sum_terms(xs, ys, sign=1):
    """``xs + sign * ys`` of two {exponent: coefficient} maps by plain
    Fraction arithmetic, term by term, dropping the zero sums."""
    acc = {}
    for exp, coeff in xs.items():
        acc[exp] = acc.get(exp, Fraction(0)) + Fraction(coeff)
    for exp, coeff in ys.items():
        acc[exp] = acc.get(exp, Fraction(0)) + sign * Fraction(coeff)
    return {exp: coeff for exp, coeff in acc.items() if coeff != 0}


def iterate_translation(coords, translation, times):
    """Apply x -> x + b literally `times` times (finite counts only)."""
    out = tuple(coords)
    for _ in range(times):
        out = tuple(x + b for x, b in zip(out, translation))
    return out


def repeated_addition(term, times):
    """Literal times-fold sum of a constant term."""
    total = Hyperreal.zero(term.base)
    for _ in range(times):
        total = total + term
    return total


def shortlex_words(symbols, max_len):
    """All words over `symbols` in shortlex order, empty word first."""
    yield ""
    for length in range(1, max_len + 1):
        for combo in product(symbols, repeat=length):
            yield "".join(combo)


def random_hyperreal(rng, base=10, max_terms=4, exp_lo=-4, exp_hi=4, limit=10**6):
    """Random value with up to max_terms terms, exponents in [exp_lo, exp_hi],
    numerators and denominators bounded by `limit`."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = rng.randint(exp_lo, exp_hi)
        coeff = Fraction(rng.randint(-limit, limit), rng.randint(1, limit))
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return Hyperreal(base, terms)


def random_word(rng, symbols, max_len):
    length = rng.randint(0, max_len)
    return "".join(rng.choice(symbols) for _ in range(length))


def loop_encode(word, symbols):
    """Word code by one multiply-add per symbol (the direct definition)."""
    size = len(symbols)
    code = 0
    for symbol in word:
        code = code * size + symbols.index(symbol) + 1
    return code


def loop_decode(code, symbols):
    """Word of a code by peeling one bijective digit at a time."""
    size = len(symbols)
    out = []
    n = code
    while n > 0:
        digit = (n - 1) % size + 1
        out.append(symbols[digit - 1])
        n = (n - digit) // size
    return "".join(reversed(out))


def divmod_decimal(n):
    """Decimal string of an integer by repeated divmod by 10."""
    if n == 0:
        return "0"
    sign, n = ("-", -n) if n < 0 else ("", n)
    digits = []
    while n:
        n, digit = divmod(n, 10)
        digits.append("0123456789"[digit])
    return sign + "".join(reversed(digits))


def horner_decimal(text):
    """Integer of a decimal string by one multiply-add per digit."""
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for ch in body:
        n = n * 10 + "0123456789".index(ch)
    return sign * n


def scan_expression(text):
    """The tokens of an expression by one character at a time, from the
    token rules: a run of the ASCII digits 0-9 is an ``int``, a run of the
    ASCII letters a-z and A-Z a ``name``, each of ``+ - * ^ / ( )`` a token
    whose kind is the character, and space, tab, CR and LF only separate
    tokens.  A list of ``(kind, text, offset)`` ending in ``("eof", "",
    len(text))``, or ``(message, offset)`` of the parse error at the first
    other character."""
    runs = {"int": "0123456789", "name": "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"}
    tokens, i = [], 0
    while i < len(text):
        ch = text[i]
        kind = next((kind for kind, chars in runs.items() if ch in chars), None)
        if kind:
            start = i
            while i < len(text) and text[i] in runs[kind]:
                i += 1
            tokens.append((kind, text[start:i], start))
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
        elif ch not in " \t\r\n":
            return f"unexpected character {ch!r}", i
        i += 1
    return tokens + [("eof", "", len(text))]


def evaluate_text(text):
    """The value of an expression as ``{exponent: Fraction}``, by recursive
    descent over ``scan_expression``'s tokens, from the grammar alone: an
    int or ``n/d`` is a constant, ``H`` is {1: 1} and ``eps`` {-1: 1}; sums
    add coefficients per exponent and drop zeros, products are
    ``convolve_terms``, ``x^k`` multiplies k copies of x (of its inverse,
    for k < 0, which only a monomial has: ValueError otherwise), unary
    ``-`` binds looser than ``^``, and ``st(x)`` is x's exponent-0 term,
    ArithmeticError if x holds a positive exponent."""
    tokens, pos = scan_expression(text), 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def add(xs, ys, sign):
        out = dict(xs)
        for exp, coeff in ys.items():
            out[exp] = out.get(exp, Fraction(0)) + sign * coeff
        return {exp: coeff for exp, coeff in out.items() if coeff != 0}

    def expr():
        value = term()
        while tokens[pos][0] in ("+", "-"):
            sign = 1 if take()[0] == "+" else -1
            value = add(value, term(), sign)
        return value

    def term():
        value = factor()
        while tokens[pos][0] == "*":
            take()
            value = convolve_terms(list(value.items()), list(factor().items()))
        return value

    def factor():
        if tokens[pos][0] == "-":
            take()
            return add({}, factor(), -1)
        value = primary()
        if tokens[pos][0] != "^":
            return value
        take()
        if tokens[pos][0] == "-":
            take()
            if len(value) != 1:
                raise ValueError("a negative power of a non-monomial")
            ((exp, coeff),) = value.items()
            value = {-exp: 1 / coeff}
        result = {0: Fraction(1)}
        for _ in range(int(take()[1])):
            result = convolve_terms(list(result.items()), list(value.items()))
        return result

    def primary():
        kind, token, _ = take()
        if kind == "int":
            value = Fraction(int(token))
            if tokens[pos][0] == "/":
                take()
                value /= int(take()[1])
            return {0: value} if value else {}
        if token == "H":
            return {1: Fraction(1)}
        if token == "eps":
            return {-1: Fraction(1)}
        if token == "st":
            take()
        value = expr()
        take()
        if token == "st":
            if any(exp > 0 for exp in value):
                raise ArithmeticError("st of an infinite value")
            return {0: value[0]} if 0 in value else {}
        return value

    return expr()


def ledger_document(ledger):
    """Ledger format v1 as a dict, built from the ledger's fields with str(),
    Fraction and sorted term lists rather than the library's serializers."""
    config = ledger.config

    def triples(value):
        return [[exp, str(Fraction(coeff).numerator), str(Fraction(coeff).denominator)]
                for exp, coeff in sorted(value.terms.items(), reverse=True)]

    terms = ledger.count.value.terms
    return {
        "version": "1",
        "config": {
            "base": config.base,
            "dims": config.dims,
            "alphabet": config.alphabet,
            "bundle_coordinate": config.bundle_coordinate,
            "quality_signs": config.quality_signs,
        },
        "word": ledger.word,
        "code": str(ledger.code),
        "sequence_head": str(ledger.code),
        "lambda": {
            "value": triples(ledger.count.value),
            "infinite": any(exp > 0 for exp in terms),
            "degenerate": not terms,
        },
        "bundle_sign": config.quality_signs[config.bundle_coordinate - 3],
        "ultrasubparticle": [triples(entry) for entry in ledger.ultrasubparticle],
        "intermediate": [triples(entry) for entry in ledger.intermediate],
        "realized": [str(Fraction(entry)) for entry in ledger.realized],
        "decoded": ledger.decoded,
    }


def expected_document(word, config):
    """Ledger format v1 of ``word`` as a dict, from the paper's formulas alone:
    the loop code c, lambda = c*H, the primitive rows (0, 1, +-eps, ...),
    the count c*H on slot 2 and c*H * (+-eps) = +-c on the bundled slot (both
    zero, ``[]``, for the empty word), and that +-c alone in the realized
    vector.  Only the config's five settings are read."""
    code = loop_encode(word, config.alphabet)
    signs = config.quality_signs
    sign = {"+": 1, "-": -1}[signs[config.bundle_coordinate - 3]]
    count = [[1, str(code), "1"]] if code else []
    rows = [[], [[0, "1", "1"]]] + [[[-1, {"+": "1", "-": "-1"}[s], "1"]] for s in signs]
    intermediate = list(rows)
    intermediate[1] = count
    intermediate[config.bundle_coordinate - 1] = [[0, str(sign * code), "1"]] if code else []
    realized = ["0"] * config.dims
    realized[config.bundle_coordinate - 1] = str(sign * code)
    return {
        "version": "1",
        "config": {
            "base": config.base,
            "dims": config.dims,
            "alphabet": config.alphabet,
            "bundle_coordinate": config.bundle_coordinate,
            "quality_signs": signs,
        },
        "word": word,
        "code": str(code),
        "sequence_head": str(code),
        "lambda": {"value": count, "infinite": code > 0, "degenerate": code == 0},
        "bundle_sign": signs[config.bundle_coordinate - 3],
        "ultrasubparticle": rows,
        "intermediate": intermediate,
        "realized": realized,
        "decoded": word,
    }
