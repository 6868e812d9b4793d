"""Reducibility of k-partitions and the degree poset on small spaces."""

import random

import pytest

from hforest import oracles
from hforest.degrees import (
    degree_poset,
    degrees_to_dot,
    degrees_to_json,
    monotone_maps,
    wadge_leq,
)
from hforest.space import (
    FiniteSpace,
    KPartition,
    SpaceError,
    all_partitions,
    antichain_space,
    chain_space,
    diamond_space,
)


def test_monotone_maps_examples():
    chain = chain_space(2)
    assert sorted(monotone_maps(chain, chain)) == [(0, 0), (0, 1), (1, 1)]
    point = chain_space(1)
    assert monotone_maps(chain, point) == [(0, 0)]
    anti = antichain_space(2)
    assert len(monotone_maps(anti, anti)) == 4
    with pytest.raises(SpaceError):
        monotone_maps(antichain_space(6), chain)


def test_monotone_maps_match_the_product_filter():
    posets = oracles.all_posets_up_to(3)
    for x in posets:
        for y in posets:
            assert monotone_maps(x, y) == oracles.oracle_monotone_maps(x, y)


def test_wadge_leq_examples():
    chain = chain_space(2)
    top_is_1 = KPartition((0, 1), 2)
    bottom_is_1 = KPartition((1, 0), 2)
    const0 = KPartition((0, 0), 2)
    assert wadge_leq(top_is_1, top_is_1, chain)
    assert wadge_leq(const0, top_is_1, chain)
    assert not wadge_leq(top_is_1, const0, chain)
    # the two non-constant partitions are incomparable on the chain
    assert not wadge_leq(top_is_1, bottom_is_1, chain)
    assert not wadge_leq(bottom_is_1, top_is_1, chain)


def test_wadge_leq_between_spaces():
    chain = chain_space(2)
    point = chain_space(1)
    const1 = KPartition((1,), 2)
    assert wadge_leq(const1, KPartition((0, 1), 2), point, target_space=chain)
    with pytest.raises(SpaceError):
        wadge_leq(KPartition((0, 1), 2), const1, point, target_space=chain)


def test_degree_poset_examples():
    point = degree_poset(chain_space(1), 2)
    assert len(point) == 2
    assert sorted(len(c) for c in point.classes) == [1, 1]

    chain = degree_poset(chain_space(2), 2)
    assert len(chain) == 4

    anti = degree_poset(antichain_space(2), 2)
    assert len(anti) == 3


def test_degree_poset_needs_a_color():
    assert len(degree_poset(chain_space(2), 1)) == 1
    for k in (0, -1):
        with pytest.raises(SpaceError, match="at least 1"):
            degree_poset(chain_space(2), k)


def test_degree_poset_order_structure():
    poset = degree_poset(chain_space(2), 2)
    consts = [
        i for i, members in enumerate(poset.classes)
        if len(set(members[0].labels)) == 1
    ]
    assert sorted(poset.minimal()) == sorted(consts)
    tops = poset.maximal()
    assert len(tops) == 2
    for i in tops:
        for j in tops:
            if i != j:
                assert not poset.strictly_below(i, j)


def test_wadge_preorder_laws_sampled():
    rng = random.Random(11)
    for sp in oracles.all_posets_up_to(3):
        parts = list(all_partitions(sp.n, 2))
        for a in parts:
            assert wadge_leq(a, a, sp)
        for _ in range(300):
            a, b, c = (rng.choice(parts) for _ in range(3))
            if wadge_leq(a, b, sp) and wadge_leq(b, c, sp):
                assert wadge_leq(a, c, sp)


def test_degree_poset_consistent_with_wadge_leq():
    cases = [(sp, k) for sp in oracles.all_posets_up_to(3) for k in (2, 3)]
    cases.append((diamond_space(), 2))
    for sp, k in cases:
        poset = degree_poset(sp, k)
        assert sum(len(c) for c in poset.classes) == k ** sp.n
        for i, ci in enumerate(poset.classes):
            for a in ci:
                assert wadge_leq(a, ci[0], sp) and wadge_leq(ci[0], a, sp)
            for j, cj in enumerate(poset.classes):
                assert (j in poset.leq[i]) == wadge_leq(ci[0], cj[0], sp)


def test_degree_poset_matches_the_all_pairs_table():
    cases = [(sp, k) for sp in oracles.all_posets_up_to(4) for k in (1, 2, 3)]
    cases.append((diamond_space(), 2))
    for sp, k in cases:
        poset = degree_poset(sp, k)
        assert (poset.classes, poset.leq) == oracles.oracle_degree_poset(sp, k)


def test_relabeling_invariance():
    """Swapping colors everywhere is an order isomorphism of degrees."""
    for sp in oracles.all_posets_up_to(3):
        parts = list(all_partitions(sp.n, 2))
        for a in parts:
            for b in parts:
                sa = KPartition(tuple(1 - x for x in a.labels), 2)
                sb = KPartition(tuple(1 - x for x in b.labels), 2)
                assert wadge_leq(a, b, sp) == wadge_leq(sa, sb, sp)


def test_emitters():
    poset = degree_poset(chain_space(2), 2)
    data = degrees_to_json(poset)
    assert data["points"] == 2 and data["k"] == 2
    assert len(data["degrees"]) == len(poset)
    assert sum(d["size"] for d in data["degrees"]) == 4
    dot = degrees_to_dot(poset)
    assert dot.startswith("digraph") and dot.count("->") >= 2
    # the two constants lie below the two non-constant classes
    consts = [i for i, c in enumerate(poset.classes) if len(set(c[0].labels)) == 1]
    edges = [line.strip() for line in dot.splitlines() if "->" in line]
    assert edges == sorted(f"d{i} -> d{j};" for i in consts
                           for j in range(4) if j not in consts)
