"""Canonical 2-labeled trees over ordinal notations."""

import pytest

from hforest.canonical import (
    BAR,
    PLAIN,
    CanonicalName,
    canonical_size,
    classify_2forest,
    classify_2tree_nested,
    representative,
    swap_colors,
    t_flat,
    t_nested,
)
from hforest.forest import (
    EMPTY,
    ForestError,
    Tree,
    h_equiv,
    h_leq,
    join,
    meet,
    singleton,
    wrap,
)
from hforest.nested import parse_term, s_embed
from hforest.oracles import ordinal_candidates
from hforest.ordinal import OMEGA, add, cmp_ord, ord_of, parse_ordinal, succ


def test_t_flat_examples():
    assert t_flat(0, PLAIN) == Tree(0)
    assert t_flat(2, PLAIN) == Tree(0, (Tree(1, (Tree(0),)),))
    one_p, one_b = (t_flat(1, PLAIN),), (t_flat(1, BAR),)
    assert not h_leq(one_p, one_b)
    assert not h_leq(one_b, one_p)


def test_swap_colors():
    assert swap_colors((t_flat(2, PLAIN),)) == (t_flat(2, BAR),)
    with pytest.raises(ForestError):
        swap_colors(singleton(2))


def test_t_nested_examples():
    assert t_nested(OMEGA, PLAIN) == s_embed(parse_term("0*1"))
    omega = t_nested(OMEGA, PLAIN)
    omega_bar = t_nested(OMEGA, BAR)
    assert t_nested(succ(OMEGA), PLAIN) == (wrap(0, join(omega, omega_bar)),)
    two_omega = t_nested(parse_ordinal("w*2"), PLAIN)
    assert two_omega == (wrap(parse_term("0*1")[0].label, omega_bar),) or \
        two_omega == (wrap(parse_term("0*1"), omega_bar),)
    assert h_equiv(two_omega, (wrap(parse_term("0*1"), omega_bar),))


def test_t_nested_finite_agrees_with_flat():
    for n in range(5):
        assert h_equiv(t_nested(ord_of(n), PLAIN), (t_flat(n, PLAIN),))
        assert h_equiv(t_nested(ord_of(n), BAR), (t_flat(n, BAR),))


def test_classify_flat_examples():
    name = classify_2forest(join(singleton(0), singleton(0)))
    assert (name.kind, name.index) == ("T", ord_of(0))
    name = classify_2forest((t_flat(2, BAR),))
    assert (name.kind, name.index) == ("Tbar", ord_of(2))
    f = join(parse_term("0*1"), parse_term("1*0"), singleton(0))
    name = classify_2forest(f)
    assert (name.kind, name.index) == ("TjoinTbar", ord_of(1))
    with pytest.raises(ForestError):
        classify_2forest(EMPTY)


def test_classify_flat_total_on_corpus():
    from hforest import oracles

    for f in oracles.flat_forests(5, 2, include_empty=False):
        name = classify_2forest(f)
        rep = representative(name, flat=True)
        assert h_equiv(f, rep)
        for kind in ("T", "Tbar", "TjoinTbar"):
            if kind != name.kind:
                other = representative(CanonicalName(kind, name.index), flat=True)
                assert not h_equiv(f, other)


def test_classify_nested_examples():
    for text in ("s(0*1)", "0*s(0*1)", "(0*1)*0"):
        name = classify_2tree_nested(parse_term(text), 8)
        assert (name.kind, name.index) == ("T", OMEGA)
    name = classify_2tree_nested(singleton(0), 4)
    assert (name.kind, name.index) == ("T", ord_of(0))
    name = classify_2tree_nested(t_nested(succ(OMEGA), BAR), 16)
    assert (name.kind, name.index) == ("Tbar", succ(OMEGA))
    assert classify_2tree_nested(t_nested(parse_ordinal("w^2"), PLAIN), 2) is None


def test_incomparability_and_strictness():
    bound = parse_ordinal("w*2+1")
    candidates = [a for a in ordinal_candidates(12) if cmp_ord(a, bound) <= 0]
    assert len(candidates) >= 5
    for a in candidates:
        ta, tb = t_nested(a, PLAIN), t_nested(a, BAR)
        assert not h_leq(ta, tb) and not h_leq(tb, ta)
        for b in candidates:
            if cmp_ord(a, b) < 0:
                u = join(ta, tb)
                assert h_leq(u, t_nested(b, PLAIN))
                assert not h_leq(t_nested(b, PLAIN), u)


def test_meet_identity_at_successors():
    for n in range(3):
        a, s = ord_of(n), ord_of(n + 1)
        lower = join(t_nested(a, PLAIN), t_nested(a, BAR))
        assert h_equiv(meet(t_nested(s, PLAIN), t_nested(s, BAR)), lower)


def test_canonical_size_and_candidates():
    assert canonical_size(singleton(0)) == 1
    assert canonical_size(s_embed(parse_term("0*1"))) == 3
    cands = ordinal_candidates(6)
    assert all(cmp_ord(a, b) < 0 for a, b in zip(cands, cands[1:]))
    assert ord_of(0) in cands and OMEGA in cands
    for a in cands:
        assert canonical_size(t_nested(a, PLAIN)) <= 6


def test_representative_join_kind():
    name = CanonicalName("TjoinTbar", ord_of(1))
    rep = representative(name)
    assert h_equiv(rep, join((t_flat(1, PLAIN),), (t_flat(1, BAR),)))
