"""Flat forests: h-preorder, normalization, lattice structure, JSON."""

import copy
import gc
import pickle
import random
import weakref
from itertools import combinations

import pytest

from hforest import forest, oracles
from hforest.canonical import CanonicalName, representative, swap_colors
from hforest.forest import (
    EMPTY,
    ForestError,
    Tree,
    forest_from_json,
    forest_to_json,
    h_equiv,
    h_leq,
    is_join_irreducible,
    join,
    loads,
    dumps,
    max_color,
    meet,
    meet_trees,
    node_count,
    normalize,
    rank,
    singleton,
    sort_key,
    validate_forest,
    wrap,
)
from hforest.nested import flatten, parse_term, unflatten
from hforest.ordinal import OMEGA, ord_of


def chain(*colors):
    """A single path with the given colors from root to leaf."""
    t = Tree(colors[-1])
    for c in reversed(colors[:-1]):
        t = Tree(c, (t,))
    return (t,)


def test_h_leq_examples():
    g = chain(0, 1, 0)
    assert h_leq(EMPTY, g)
    assert not h_leq(singleton(0), singleton(1))
    assert not h_leq(chain(0, 1), join(singleton(0), singleton(1)))
    assert h_leq(join(singleton(0), singleton(1)), chain(0, 1))


def test_h_equiv_examples():
    f = chain(0, 1)
    assert h_equiv(f, f)
    assert h_equiv(join(singleton(0), singleton(0)), singleton(0))
    assert h_equiv(chain(0, 0, 1), chain(0, 1))


def test_join_examples():
    f = chain(0, 1)
    assert join(f, EMPTY) == f
    assert h_leq(f, join(f, singleton(2)))


def test_wrap_and_rank():
    assert wrap(0, EMPTY) == Tree(0)
    f = chain(1, 0)
    assert h_leq(f, (wrap(0, f),))
    assert rank(singleton(0)) == 0
    assert rank(chain(0, 1)) == 1
    assert rank(chain(0, 1, 0)) == 2
    with pytest.raises(ForestError):
        rank(EMPTY)


def test_validate_and_max_color():
    assert max_color(EMPTY) == -1
    assert max_color(chain(0, 2)) == 2
    validate_forest(chain(0, 2), 3)
    with pytest.raises(ForestError):
        validate_forest(chain(0, 2), 2)


def test_normalize_examples():
    assert normalize(join(singleton(0), singleton(0))) == singleton(0)
    assert normalize(chain(0, 0, 1)) == chain(0, 1)
    two = join(chain(0, 1), chain(1, 0))
    assert set(normalize(two)) == set(two)


def test_normalize_idempotent_and_canonical():
    corpus = oracles.flat_forests(5, 2)
    by_class = []
    for f in corpus:
        n = normalize(f)
        assert h_equiv(n, f)
        assert normalize(n) == n
        for rep_f, rep_n in by_class:
            assert h_equiv(f, rep_f) == (n == rep_n)
        if all(n != rep_n for _, rep_n in by_class):
            by_class.append((f, n))


def test_meet_examples():
    t = chain(0, 1)
    assert h_equiv(meet(t, t), t)
    assert meet(singleton(0), singleton(1)) == EMPTY
    assert h_equiv(meet(chain(0, 1), chain(1, 0)),
                   join(singleton(0), singleton(1)))


def test_nested_equivalent_forms_share_one_normal_form():
    forms = {normalize(parse_term(t)) for t in ("0*s(0*1)", "(0*1)*0", "s(0*1)")}
    assert len(forms) == 1
    corpus = oracles.nested_forests(4, 2, 2)
    normal = [normalize(f) for f in corpus]
    for f, n in zip(corpus[::7], normal[::7]):
        for g, m in zip(corpus, normal):
            assert (n == m) == h_equiv(f, g)


def test_nested_meet_keeps_bounds_mapped_onto_a_root():
    m = meet(parse_term("s(0*1)"), parse_term("0*(0*1|2*0)"))
    assert m == normalize(parse_term("0*1"))


def test_meet_against_bound_oracle():
    universe = oracles.normalized_corpus(oracles.flat_forests(6, 2))
    bounds = oracles.BoundOracle(universe, h_leq)
    corpus = [f for f in universe if node_count(f) <= 4]
    for f in corpus:
        for g in corpus:
            m = normalize(meet(f, g))
            i, j = bounds.index[f], bounds.index[g]
            common = bounds.below[i] & bounds.below[j]
            im = bounds.index.get(m)
            if im is not None:
                assert bounds.is_glb(m, f, g)
            else:
                assert h_leq(m, f) and h_leq(m, g)
                for b in range(len(universe)):
                    if common >> b & 1:
                        assert h_leq(universe[b], m)


def test_join_is_lub_on_corpus():
    universe = oracles.normalized_corpus(oracles.flat_forests(6, 2))
    bounds = oracles.BoundOracle(universe, h_leq)
    corpus = [f for f in universe if node_count(f) <= 3]
    for f in corpus:
        for g in corpus:
            u = normalize(join(f, g))
            assert u in bounds.index
            assert bounds.is_lub(u, f, g)


def test_meet_of_trees_decomposes():
    corpus = oracles.normalized_corpus(oracles.flat_forests(4, 2))
    trees = [f for f in corpus if len(f) == 1]
    for (s,), (t,) in combinations(trees, 2):
        m = meet_trees(s, t)
        assert h_equiv(m, meet((s,), (t,)))


def test_no_three_antichain_for_two_colors():
    """Any three ≤6-node 2-forests contain a comparable pair."""
    corpus = oracles.normalized_corpus(oracles.flat_forests(6, 2))
    trees = [f for f in corpus if len(normalize(f)) == 1]
    incomp = [
        (f, g)
        for f, g in combinations(trees, 2)
        if not h_leq(f, g) and not h_leq(g, f)
    ]
    for f, g in incomp:
        for h in trees:
            if h == f or h == g:
                continue
            assert (
                h_leq(h, f) or h_leq(f, h) or h_leq(h, g) or h_leq(g, h)
            ), "three pairwise incomparable single trees for k=2"


def test_h_leq_reflexive_transitive_sampled():
    corpus = oracles.normalized_corpus(oracles.flat_forests(5, 3))
    rng = random.Random(7)
    for f in corpus:
        assert h_leq(f, f)
    for _ in range(2000):
        f, g, h = (rng.choice(corpus) for _ in range(3))
        if h_leq(f, g) and h_leq(g, h):
            assert h_leq(f, h)


def test_components_and_irreducibility():
    two = join(singleton(0), singleton(1))
    assert is_join_irreducible(chain(0, 1))
    assert not is_join_irreducible(two)


def test_json_round_trip():
    nested_label = (Tree(0, (Tree(1),)),)
    f = join(chain(0, 1, 2), (Tree(nested_label, (Tree(2),)),))
    assert loads(dumps(f)) == f
    assert forest_from_json(forest_to_json(f)) == f


def test_json_errors():
    with pytest.raises(ForestError):
        forest_from_json({"label": 0})
    with pytest.raises(ForestError):
        forest_from_json([{"children": []}])
    with pytest.raises(ForestError):
        forest_from_json([{"label": "x"}])


def test_equal_trees_are_one_object():
    flat = Tree(0, (Tree(1, (Tree(0),)),))
    nested = Tree((flat,), (Tree(2),))
    node = {"label": 0, "children": [
        {"label": 1, "children": [{"label": 0, "children": []}]}]}
    for built in (
        Tree(0, [Tree(1, (Tree(0),))]),
        parse_term("0*1*0")[0],
        parse_term("0*0*1*0")[0].children[0],
        forest_from_json([node])[0],
        normalize(parse_term("0*0*1*1*0"))[0],
        swap_colors(parse_term("1*0*1"))[0],
        unflatten(flatten((flat,), 1))[0],
        representative(CanonicalName("T", ord_of(2)))[0],
        copy.deepcopy(flat),
        pickle.loads(pickle.dumps(flat)),
    ):
        assert built is flat
    assert parse_term("(0*1*0)*2")[0] is nested
    assert normalize(parse_term("(0*1*0|0*1*0)*2"))[0] is nested
    assert representative(CanonicalName("T", OMEGA))[0] is Tree(
        (Tree(0, (Tree(1),)),))
    assert "__eq__" not in Tree.__dict__
    with pytest.raises(ForestError):
        Tree(True)


def test_normalize_returns_normal_trees_themselves():
    for f in oracles.nested_forests(4, 2, 2):
        n = normalize(f)
        again = normalize(n)
        assert len(again) == len(n)
        assert all(a is b for a, b in zip(again, n))


def test_unreferenced_tree_leaves_the_intern_table():
    def key():
        return (1234567, (Tree(7654321),))

    t = Tree(*key())
    sort_key(t)  # a memoized slot keeps nothing else alive
    ref = weakref.ref(t)
    size = len(forest._INTERNED)
    assert forest._INTERNED.get(key()) is t
    del t
    gc.collect()
    assert ref() is None
    assert forest._INTERNED.get(key()) is None
    assert len(forest._INTERNED) < size
