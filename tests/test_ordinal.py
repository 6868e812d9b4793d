"""Ordinal notation arithmetic and parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from hforest.errors import ForestError
from hforest.ordinal import (
    MAX_ORDINAL_DEPTH,
    OMEGA,
    ONE,
    ZERO,
    Ord,
    OrdinalSyntaxError,
    add,
    cmp_ord,
    format_ordinal,
    omega_pow,
    ord_of,
    parity,
    parse_ordinal,
    pred,
    succ,
)


def ordinals(max_depth=2):
    """Strategy over hereditary-CNF notations of bounded exponent depth."""
    def build(depth):
        if depth == 0:
            return st.integers(0, 5).map(ord_of)
        exponent = build(depth - 1)
        term = st.tuples(exponent, st.integers(1, 3))
        return st.lists(term, max_size=3).map(_from_terms)
    return build(max_depth)


def _from_terms(terms):
    out = ZERO
    for exp, coeff in terms:
        out = add(out, Ord(((exp, coeff),)))
    return out


def test_comparison_examples():
    assert cmp_ord(ZERO, ZERO) == 0
    assert cmp_ord(OMEGA, omega_pow(OMEGA)) < 0
    lhs = parse_ordinal("w*2+3")
    rhs = parse_ordinal("w*3")
    assert cmp_ord(lhs, rhs) < 0


def test_parity_examples():
    assert parity(ZERO) == "even"
    assert parity(ord_of(3)) == "odd"
    assert parity(parse_ordinal("w+4")) == "even"


def test_arithmetic_examples():
    assert add(ord_of(3), OMEGA) == OMEGA
    assert omega_pow(ZERO) == ONE
    assert add(parse_ordinal("w*2"), parse_ordinal("w+1")) == parse_ordinal("w*3+1")


def test_succ_pred():
    assert succ(ZERO) == ONE
    assert pred(succ(parse_ordinal("w"))) == parse_ordinal("w")
    with pytest.raises(ValueError):
        pred(ZERO)
    with pytest.raises(ValueError):
        pred(OMEGA)


def test_parse_format_examples():
    for text in ("0", "1", "w", "w^2*3+w+1", "w^w", "w^(w+1)*2+5"):
        a = parse_ordinal(text)
        assert parse_ordinal(format_ordinal(a)) == a


def test_parse_errors():
    for bad in ("", "w^", "w+", "x", "w**2", "1+"):
        with pytest.raises(OrdinalSyntaxError):
            parse_ordinal(bad)


def test_deep_notation_is_refused():
    depth = MAX_ORDINAL_DEPTH
    for text in ("w^(" * depth + "1" + ")" * depth, "w^" * depth + "1"):
        a = parse_ordinal(text)
        for _ in range(depth):
            (a, _), = a.terms
        assert a == ONE
    for text in ("w^(" * 2000 + "1" + ")" * 2000, "w^" * (depth + 1) + "1"):
        with pytest.raises(ForestError, match="input nested too deeply"):
            parse_ordinal(text)


def _corpus():
    """A deterministic corpus of more than 500 distinct notations."""
    import random

    rng = random.Random(41)
    small = [ord_of(n) for n in range(6)] + [OMEGA, omega_pow(OMEGA),
                                             omega_pow(ord_of(2))]
    seen = {ZERO}
    out = [ZERO]
    while len(out) < 520:
        a = ZERO
        for _ in range(rng.randint(1, 4)):
            exp = rng.choice(small)
            a = add(a, Ord(((exp, rng.randint(1, 4)),)))
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


CORPUS = _corpus()


def test_corpus_total_order():
    import random

    assert len(CORPUS) > 500
    rng = random.Random(42)
    pairs = [(rng.choice(CORPUS), rng.choice(CORPUS)) for _ in range(3000)]
    for a, b in pairs:
        ab, ba = cmp_ord(a, b), cmp_ord(b, a)
        assert ab == -ba
        assert (ab == 0) == (a == b)
    triples = [tuple(rng.choice(CORPUS) for _ in range(3)) for _ in range(3000)]
    for a, b, c in triples:
        if cmp_ord(a, b) <= 0 and cmp_ord(b, c) <= 0:
            assert cmp_ord(a, c) <= 0
        assert add(add(a, b), c) == add(a, add(b, c))


def test_corpus_pointwise_laws():
    for a in CORPUS:
        assert parse_ordinal(format_ordinal(a)) == a
        assert succ(a) == add(a, ONE)
        assert cmp_ord(a, succ(a)) < 0
        assert pred(succ(a)) == a


@settings(max_examples=100)
@given(ordinals(), ordinals())
def test_total_and_antisymmetric(a, b):
    ab, ba = cmp_ord(a, b), cmp_ord(b, a)
    assert ab == -ba
    assert (ab == 0) == (a == b)


@settings(max_examples=100)
@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@settings(max_examples=100)
@given(ordinals(), ordinals())
def test_add_monotone_and_inflationary(a, b):
    assert cmp_ord(a, add(a, b)) <= 0
    assert cmp_ord(b, add(a, b)) <= 0


@settings(max_examples=100)
@given(ordinals())
def test_format_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a
