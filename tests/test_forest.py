"""Flat forests: h-preorder, normalization, lattice structure, JSON."""

import copy
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import weakref
from functools import lru_cache
from itertools import combinations, product

import pytest

from hforest import canonical, forest, oracles
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
    lift,
    max_color,
    meet,
    meet_trees,
    node_count,
    normalize,
    paths,
    postorder,
    rank,
    singleton,
    sort_key,
    tree_leq,
    validate_forest,
    wrap,
)
from hforest.nested import flatten, parse_term, print_term, unflatten
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


def test_paths_and_postorder():
    f = parse_term("0*(1|2*1)|1")
    shared, two = f[1], f[0].children[1]
    assert [(p, t.label) for p, t in paths(f)] == [
        ((0,), 0), ((0, 0), 1), ((0, 1), 2), ((0, 1, 0), 1), ((1,), 1)]
    # each distinct node once, after its children
    assert postorder(f) == [shared, two, f[0]]
    assert postorder(EMPTY) == [] and list(paths(EMPTY)) == []
    # with labels, a node also comes after its label's nodes, at any depth
    g = parse_term("((0*2)*1)*2")
    inner = g[0].label[0]
    assert postorder(g) == [Tree(2), g[0]]
    assert postorder(g, True) == [Tree(2), Tree(1), inner.label[0], inner, g[0]]
    # neither walk recurses: a chain far deeper than the recursion limit
    deep = (Tree(0),)
    for _ in range(5000):
        deep = (Tree(1, deep),)
    assert len(list(paths(deep))) == len(postorder(deep)) == 5001
    assert postorder(deep)[-1] is deep[0]
    assert rank(deep) == 5000


def test_validate_and_max_color():
    assert max_color(EMPTY) == -1
    assert max_color(chain(0, 2)) == 2
    validate_forest(chain(0, 2), 3)
    with pytest.raises(ForestError):
        validate_forest(chain(0, 2), 2)
    assert max_color(parse_term("s(0*3)|1")) == 3
    # as deep as the term parser reads: the walk keeps its own stack
    for text in ("0*" * 999 + "1", "(0*" * 500 + "1" + ")" * 500):
        deep = parse_term(text)
        assert max_color(deep) == 1
        validate_forest(deep, 2)
        with pytest.raises(ForestError, match="color 1 out of range for k=1"):
            validate_forest(deep, 1)


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
            iu, i, j = bounds.index[u], bounds.index[f], bounds.index[g]
            common = bounds.above[i] & bounds.above[j]
            assert common >> iu & 1 and common & ~bounds.above[iu] == 0


@lru_cache(maxsize=None)
def reference_tree_leq(s, t):
    """The h-preorder on trees by recursion with a cache of its own, as
    forest.tree_leq decided it before its walk kept answers on the nodes."""
    if s is t or _reference_label_leq(s.label, t.label) and all(
            reference_tree_leq(c, t) for c in s.children):
        return True
    return any(reference_tree_leq(s, c) for c in t.children)


def _reference_label_leq(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return all(any(reference_tree_leq(x, y) for y in lift(b)) for x in lift(a))


def test_tree_leq_is_the_reference_walk():
    # every pair of the nested corpus's trees, and of the flat corpus's
    # normal trees, whose raw trees are too many to pair; the slots are
    # emptied and filled in three orders
    nested = {t for f in oracles.nested_forests(4, 2, 2) for t in f}
    flat = {t for f in oracles.normalized_corpus(oracles.flat_forests(6, 3)) for t in f}
    rng = random.Random(22)
    try:
        for trees in (nested, flat):
            trees = sorted(trees, key=sort_key)
            pairs = [(s, t) for s in trees for t in trees]
            expected = [reference_tree_leq(s, t) for s, t in pairs]
            assert 0 < sum(expected) < len(pairs)
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            for order in (pairs, pairs[::-1], shuffled):
                for u in postorder(tuple(trees), True):
                    u._leq.clear()
                for s, t in order:
                    tree_leq(s, t)
                assert [s._leq[t._id] for s, t in pairs] == expected
                assert [h_leq((s,), (t,)) for s, t in pairs] == expected
    finally:
        reference_tree_leq.cache_clear()


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
    assert forest_from_json(json.loads(json.dumps(forest_to_json(f)))) == f
    assert forest_from_json(forest_to_json(f)) == f


def test_json_errors():
    with pytest.raises(ForestError):
        forest_from_json({"label": 0})
    with pytest.raises(ForestError):
        forest_from_json([{"children": []}])
    with pytest.raises(ForestError):
        forest_from_json([{"label": "x"}])
    # a value built in process can hold itself, which no JSON text can
    loop: list = []
    loop.append({"label": 0, "children": [{"label": loop}]})
    with pytest.raises(ForestError, match="must not contain itself"):
        forest_from_json(loop)


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


def test_a_color_is_not_negative():
    with pytest.raises(ForestError, match="bad label -1"):
        Tree(-1)


def test_labels_and_children_hold_only_trees():
    for label in ((1,), [Tree(0), None]):
        with pytest.raises(ForestError, match="bad label"):
            Tree(label)
    for children in ((None,), (1,), [[1]], [Tree(0), "x"], 5):
        with pytest.raises(ForestError, match="bad children"):
            Tree(0, children)
    # a refused child leaves nothing behind to reach normalize
    with pytest.raises(ForestError, match="bad children"):
        normalize((Tree(0, (1,)),))
    assert Tree(0, [Tree(1)]) is Tree(0, (Tree(1),))


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
    zeros = Tree(0)
    for _ in range(300):  # a chain that no normal form holds
        zeros = Tree(0, (zeros,))
    sort_key(t)  # memoized slots keep nothing else alive
    assert h_leq((t, zeros), (t, zeros)) and not h_leq((t,), (zeros,))
    assert meet((t,), (zeros,)) == () and meet((zeros,), (zeros,)) == (Tree(0),)
    assert meet((t,), (t,)) == (t,)
    assert canonical._decode(t) is None and t._guess is not None
    assert canonical._decode(zeros) == (ord_of(300), canonical.PLAIN, 301)
    assert print_term((t, zeros)) == "0|1234567*7654321"  # the chain normalizes to 0
    assert print_term((t,)) == "1234567*7654321" and t._text is not None
    refs = weakref.ref(t), weakref.ref(zeros)
    size = len(forest._INTERNED)
    assert forest._INTERNED.get(key()) is t
    gc.disable()
    try:  # no slot holds its own node, so no cycle waits for the collector
        del t, zeros
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    gc.collect()
    assert forest._INTERNED.get(key()) is None
    assert len(forest._INTERNED) < size - 250  # other tests may hold a short tail


_DEAD_NODES = """
from hforest.forest import _INTERNED, forest_from_json, h_leq, meet
from hforest.nested import parse_term

a = parse_term("0*(1|2)|s(0*1)")
for r in range(20_000):  # each round's b dies at the next
    b = forest_from_json([{"label": 3 + r, "children": [{"label": 0}]}])
    h_leq(a, b)
    h_leq(b, a)
    meet(a, b)
live = list(_INTERNED.values())
print(len(live), max(max(len(t._leq), len(t._meet or ())) for t in live))
"""


def test_answers_about_dead_nodes_are_swept():
    # in a fresh process: the live trees of this one raise the sweep's
    # threshold; unswept, one of a's tables holds 40,005 answers here
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(forest.__file__))}
    out = subprocess.run([sys.executable, "-c", _DEAD_NODES], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    live, most = map(int, out.split())
    assert most <= 2 * live + 8


_SWEPT_TABLES = """
from hforest import forest
from hforest.forest import _REFS, Tree, meet_trees, tree_leq

swept = []
sweep = forest._sweep


def counted(memo):
    swept.append(id(memo))
    sweep(memo)


forest._sweep = counted
s = Tree(20, (Tree(21),))
partners = [Tree(21), Tree(20, (Tree(21), Tree(22))), Tree(22, (s,)), Tree(23)]
kept = {p: (tree_leq(s, p), meet_trees(s, p)) for p in partners}
rounds = 0
while not (id(s._leq) in swept and id(s._meet) in swept):  # both in one round
    assert rounds < 100, "no round swept both tables"
    swept.clear()
    short = Tree(100 + rounds, (Tree(21),))  # each round's partner dies at the next
    tree_leq(s, short)
    meet_trees(s, short)
    rounds += 1
live = {t._id for ref in list(_REFS.values()) if (t := ref()) is not None}
assert set(s._leq) <= live and set(s._meet) <= live
for p, (below, m) in kept.items():
    assert p._id in s._leq and p._id in s._meet
    assert s._leq[p._id] is below and meet_trees(s, p) == m
    del s._leq[p._id], s._meet[p._id]
    assert tree_leq(s, p) is below and meet_trees(s, p) == m
print(sorted(below for below, _ in kept.values()), rounds > len(live))
"""


def test_a_swept_table_keeps_its_live_answers():
    # in a fresh process, so that few trees are live: short-lived partners
    # push one node's tree_leq and meet_trees tables past twice the live
    # count, and each sweep keeps exactly the answers about live partners
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(forest.__file__))}
    out = subprocess.run([sys.executable, "-c", _SWEPT_TABLES], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[False, False, True, True] True\n", out.stdout


_NORMAL_STEP = """
import inspect
import sys

from hforest import forest
from hforest.nested import parse_term, print_term

code = forest._normalize_tree.__code__
lines, first = inspect.getsourcelines(forest._normalize_tree)
skip = first + next(i for i, line in enumerate(lines) if line.strip() == "continue")
hits = []


def trace(frame, event, arg):
    if frame.f_code is not code:
        return None

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno == skip:
            hits.append(skip)
        return line

    return line


sys.settrace(trace)
normal = forest.normalize(parse_term("13*(10*(11|12)|10*(10*11|12))"))
sys.settrace(None)
print(print_term(normal), len(hits))
"""


def test_a_node_made_normal_by_an_earlier_step_is_skipped():
    # rule (a) turns 10*(10*11|12) into 10*(11|12), a node the walk of the
    # same call reaches later, already marked normal; the colors are ones
    # no other test uses, and a fresh process keeps no parse memo
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(forest.__file__))}
    out = subprocess.run([sys.executable, "-c", _NORMAL_STEP], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["13*10*(11|12)", "1"]


def _alternating_chains(width):
    """T_1 .. T_width: T_i is a chain of i nodes of alternating colors, so
    each is the child of the next and below it.  The colors are ones no
    other test uses, so no answer about these nodes is memoized yet."""
    t = Tree(5)
    out = [t]
    for i in range(1, width):
        t = Tree(9 if i % 2 else 5, (t,))
        out.append(t)
    return out


@pytest.mark.parametrize("rising, per_root", [(True, 2), (False, 1)])
def test_dedupe_work_follows_its_output(monkeypatch, rising, per_root):
    # the normal form of T_1 | ... | T_W is T_W alone: each root is compared
    # with the one root kept so far, below it and above it, so the calls
    # grow with W, not W squared
    width = 60
    chains = _alternating_chains(width)
    calls = []
    real = forest.tree_leq

    def counted(s, t):
        calls.append((s, t))
        return real(s, t)

    monkeypatch.setattr(forest, "tree_leq", counted)
    assert normalize(tuple(chains if rising else reversed(chains))) == (chains[-1],)
    assert len(calls) <= per_root * (width - 1)


def test_a_normal_form_is_marked_and_passes_through(monkeypatch):
    terms = ("bot", "0", "0*1|1*0|0|0*1", "s(0*1|1)*(0|1*0)|s(0*1)", "(0|1)*(0*1)|2")
    forests = [parse_term(text) for text in terms]
    normal = [normalize(f) for f in forests]
    calls = []
    real = forest._dedupe
    monkeypatch.setattr(forest, "_dedupe", lambda trees: calls.append(trees) or real(trees))
    for n in normal:
        assert normalize(n) is n
        print_term(n)
    assert calls == []
    for f, n in zip(forests, normal):
        plain = tuple(n)
        assert n == plain and hash(n) == hash(plain) and plain == normalize(plain)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(n, protocol))
            assert back == n and all(a is b for a, b in zip(back, n))
        for t in forest.every_node(n + f):
            assert t.children.__class__ is tuple
            assert t.label.__class__ in (int, tuple)


def _word_forests(length):
    """F, every word of the length over colors 0-2 as a chain; G, each
    word reversed with 0 below it."""
    words = ["*".join(w) for w in product("012", repeat=length)]
    return "|".join(words), "|".join(w[::-1] + "*0" for w in words)


def test_wide_forests_keep_their_answers():
    # printed meets and normal forms and compare's verdicts, as the
    # all-pairs _dedupe and compare on raw forests gave them
    from argparse import Namespace

    from hforest.cli import cmd_compare

    digest = hashlib.sha256()
    for length in (4, 5):
        lhs, rhs = _word_forests(length)
        f, g = parse_term(lhs), parse_term(rhs)
        verdicts = cmd_compare(Namespace(lhs=lhs, rhs=rhs))
        for part in (print_term(meet(f, g)), print_term(normalize(f)),
                     repr(sorted(verdicts.items()))):
            digest.update(part.encode() + b"\n")
    assert digest.hexdigest() == (
        "a2e73493d8f75f811393da8241bbfacec907ff52a1adcc330dd50891f8f565c8")
