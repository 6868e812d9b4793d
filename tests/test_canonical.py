"""Canonical 2-labeled trees over ordinal notations."""

import random
from functools import lru_cache

import pytest

from hforest import oracles
from hforest.canonical import (
    BAR,
    PLAIN,
    CanonicalName,
    _decode,
    _t_size,
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
    normalize,
    normalize_label,
    postorder,
    singleton,
    wrap,
)
from hforest.nested import parse_term, s_embed
from hforest.oracles import ordinal_candidates
from hforest.ordinal import (
    OMEGA,
    ZERO,
    Ord,
    add,
    cmp_ord,
    omega_pow,
    ord_of,
    parse_ordinal,
    succ,
)


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
    # no recursion, at any depth of children or labels
    assert swap_colors((t_flat(5000, PLAIN),)) == (t_flat(5000, BAR),)
    deep = "s(" * 299 + "0*1" + ")" * 299
    assert swap_colors(parse_term(deep)) == parse_term(deep.replace("0*1", "1*0"))


def test_t_nested_examples():
    assert t_nested(OMEGA, PLAIN) == s_embed(parse_term("0*1"))
    omega = t_nested(OMEGA, PLAIN)
    omega_bar = t_nested(OMEGA, BAR)
    assert t_nested(succ(OMEGA), PLAIN) == (wrap(0, join(omega, omega_bar)),)
    two_omega = t_nested(parse_ordinal("w*2"), PLAIN)
    assert two_omega == (wrap(parse_term("0*1")[0].label, omega_bar),) or \
        two_omega == (wrap(parse_term("0*1"), omega_bar),)
    assert h_equiv(two_omega, (wrap(parse_term("0*1"), omega_bar),))


@lru_cache(maxsize=None)
def _reference_plain(a):
    """T_a by the recursive case split, one step per coefficient, with every
    bar copy made by swapping the colors of the whole copy below it."""
    if a.is_finite():
        return (t_flat(a.to_int()),)
    gamma, delta = a.terms[-1]
    beta = Ord(a.terms[:-1])
    head = normalize_label(_reference_plain(gamma))
    if delta == 1 and beta.is_zero():
        return singleton(head)
    if delta == 1:
        body = join(_reference_plain(beta), swap_colors(_reference_plain(beta)))
    else:
        body = swap_colors(_reference_plain(add(beta, Ord(((gamma, delta - 1),)))))
    return (wrap(head, body),)


def _reference(a, polarity):
    f = _reference_plain(a)
    return swap_colors(f) if polarity == BAR else f


@pytest.mark.parametrize("notations", [
    pytest.param(ordinal_candidates(16), id="candidates-16"),
    pytest.param([parse_ordinal(text) for text in
                  ("w*5", "w*200", "w^2*100+w*3+5", "w^w*3+w^3*2+1")], id="coefficients"),
])
def test_t_nested_is_the_reference_tree(notations):
    # the same interned trees, so the same object, in both polarities
    for a in notations:
        for polarity in (PLAIN, BAR):
            (t,), (expected,) = t_nested(a, polarity), _reference(a, polarity)
            assert t is expected, (str(a), polarity)
        plain, bar = _reference(a, PLAIN), _reference(a, BAR)
        assert representative(CanonicalName("T", a)) == plain
        assert representative(CanonicalName("Tbar", a)) == bar
        assert representative(CanonicalName("TjoinTbar", a)) == plain + bar


def test_the_closed_form_size_is_the_node_count():
    # A5's "named at its size, not below" check, the bounds of
    # ordinal_candidates and _name all take _t_size for the size of T_a
    notations = [*ordinal_candidates(16),
                 *map(parse_ordinal, ("w*200", "w^w*3+w^3*2+1"))]
    for a in notations:
        for polarity in (PLAIN, BAR):
            assert _t_size(a) == canonical_size(t_nested(a, polarity)), (str(a), polarity)


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
    # a nested class has a name, but not one of the flat verb
    with pytest.raises(ForestError):
        classify_2forest(parse_term("s(0*1)"))


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
    both = join(t_nested(OMEGA, PLAIN), t_nested(OMEGA, BAR))
    assert classify_2tree_nested(both, 16) is None


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


def test_representative_flat_is_the_chain():
    assert representative(CanonicalName("Tbar", ord_of(3)), flat=True) == (t_flat(3, BAR),)
    with pytest.raises(ForestError):
        representative(CanonicalName("T", OMEGA), flat=True)


def reference_decode(t):
    """The guess by one value fold over a walk of t, with no slots: it
    stops at the first node that has no guess."""
    guess: dict = {}
    for u in postorder((t,), True):
        if isinstance(u.label, int) and u.label <= 1:
            gamma, polarity = ZERO, (PLAIN, BAR)[u.label]
        elif not isinstance(u.label, int) and len(u.label) == 1:
            gamma, polarity = guess[u.label[0]]
        else:
            return None
        if len(u.children) > 2:
            return None
        if u.children:
            guess[u] = add(guess[u.children[0]][0], omega_pow(gamma)), polarity
        else:
            guess[u] = ZERO if isinstance(u.label, int) else omega_pow(gamma), polarity
    return guess[t]


def _no_guess_cases():
    """Trees with a node that has no guess under a first child that has one:
    a second child or a label tree with a color above 1, three children or
    a two-tree label, at the root and one level down."""
    good = t_flat(2)
    bad = [Tree(2), Tree(1, (Tree(0), Tree(0, (Tree(1),)), t_flat(2, BAR))),
           Tree((Tree(0), Tree(1))), Tree(0, (good, Tree(2)))]
    out = []
    for b in bad:
        out += [Tree(0, (good, b)), Tree(1, (good, b)), Tree((b,)), Tree((b,), (good,)),
                Tree((Tree(0, (good, b)),), (good,)), Tree(0, (Tree(1, (good, b)),))]
    return out


def _decoded(nodes):
    return [(str(g[0]), g[1], g[2]) if (g := _decode(u)) else None for u in nodes]


def test_decode_is_the_reference_fold():
    corpus = (oracles.nested_forests(5, 2, 2) + oracles.nested_forests(4, 2, 3)
              + oracles.flat_forests(6, 2))
    # every tree of the corpora, not only their 39 distinct normal trees
    roots = {t for f in corpus for t in f + normalize(f)}
    roots.update(t for a in ordinal_candidates(16)
                 for p in (PLAIN, BAR) for t in t_nested(a, p))
    roots.update(_no_guess_cases())
    roots = sorted(roots, key=repr)
    nodes = postorder(tuple(roots), True)
    # a guess keeps its tree's size, which _name compares with T_a's
    expected = [(str(g[0]), g[1], canonical_size((u,))) if (g := reference_decode(u)) else None
                for u in nodes]
    assert sum(g is None for g in expected) > 2000
    assert sum(g is not None for g in expected) > 3000
    shuffled = nodes[:]
    random.Random(5).shuffle(shuffled)
    # cold roots first; subtrees and labels first; every node in a random order
    for order in (roots + nodes, nodes, shuffled):
        for u in nodes:
            object.__setattr__(u, "_guess", None)
        _decoded(order)
        assert _decoded(nodes) == expected
