"""Finite spaces, bases, partitions, families and hierarchy membership."""

import random
import time
from itertools import combinations, product

import pytest

from hforest import oracles
from hforest.canonical import BAR, PLAIN, t_flat
from hforest.forest import Tree, join, singleton
from hforest.nested import nesting_level, parse_term, s_embed
from hforest.space import (
    MAX_BASE_SETS,
    FiniteSpace,
    KPartition,
    PFamily,
    SpaceError,
    all_partitions,
    antichain_space,
    base_from_json,
    base_to_json,
    chain_space,
    check_omega_nesting,
    close_base,
    complements,
    diamond_space,
    dh_membership,
    dh_witness_family,
    diff_sequence_to_family,
    difference_kernel,
    family_defines,
    family_prefixes,
    family_to_diff_sequence,
    fh_membership,
    has_reduction_property,
    hierarchy_report,
    is_reduced,
    powerset_base,
    reduce_family,
    reduce_pair,
    report_to_dot,
    up_sets,
    validate_base,
    validate_omega_base,
)


def test_space_construction():
    chain = chain_space(2)
    assert chain.leq(0, 1) and not chain.leq(1, 0)
    with pytest.raises(SpaceError):
        FiniteSpace(2, (0b10, 0b10))  # first row misses its own point
    round_trip = FiniteSpace.from_json(chain.to_json())
    assert round_trip == chain


def test_from_pairs_closure_and_antisymmetry():
    sp = FiniteSpace.from_pairs(3, [(0, 1), (1, 2)])
    assert sp.leq(0, 2)
    with pytest.raises(SpaceError):
        FiniteSpace.from_pairs(2, [(0, 1), (1, 0)])


def _closure_by_rounds(seed, n_points):
    """Reference: add every union and intersection of pairs until none is new."""
    family = {0} | set(seed)
    while True:
        new = {op for a in family for b in family for op in (a | b, a & b)}
        if new <= family:
            return frozenset(family)
        family |= new


def test_close_base_examples():
    assert close_base((), 2) == frozenset({0})
    chain = chain_space(2)
    assert close_base(up_sets(chain), 2) == up_sets(chain)
    assert close_base({0b01, 0b10}, 2) == frozenset({0, 0b01, 0b10, 0b11})
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(6)
        seed = [rng.randrange(1 << n) for _ in range(rng.randrange(5))]
        assert close_base(seed, n) == _closure_by_rounds(seed, n)


def test_close_base_size_guard():
    singletons = [1 << i for i in range(13)]
    assert len(close_base(singletons[:12], 12)) == MAX_BASE_SETS
    full = (1 << 13) - 1
    for seed in (singletons, [full & ~s for s in singletons]):
        start = time.perf_counter()
        with pytest.raises(SpaceError, match="exceeds"):
            close_base(seed, 13)
        assert time.perf_counter() - start < 1


def test_up_sets_examples():
    assert up_sets(chain_space(2)) == frozenset({0, 0b10, 0b11})
    assert up_sets(antichain_space(2)) == frozenset(range(4))
    assert len(up_sets(diamond_space())) == 7
    assert len(up_sets(chain_space(40))) == 41


def test_up_sets_match_brute_force_filter():
    for sp in oracles.all_posets_up_to(4):
        expected = {m for m in range(sp.full + 1) if sp.is_upset(m)}
        assert up_sets(sp) == expected


def test_validate_base_and_json():
    chain = chain_space(2)
    base = up_sets(chain)
    assert validate_base(base, 2) == base
    with pytest.raises(SpaceError, match="not closed"):
        validate_base({0b01, 0b10}, 2)
    with pytest.raises(SpaceError, match="outside the space"):
        validate_base({0, 0b100}, 2)
    assert base_from_json(base_to_json(base), 2) == base


def test_omega_base_validation():
    chain = chain_space(2)
    levels = (up_sets(chain), powerset_base(chain))
    assert validate_omega_base(levels, 2) == levels
    with pytest.raises(SpaceError, match="previous level"):
        validate_omega_base((powerset_base(chain), up_sets(chain)), 2)
    with pytest.raises(SpaceError, match="previous level"):
        check_omega_nesting((powerset_base(chain), up_sets(chain)), 2)
    assert check_omega_nesting(levels, 2) == levels
    # unclosed levels get validate_base's diagnoses, not the nesting one
    with pytest.raises(SpaceError, match="not closed"):
        validate_omega_base(({0b01, 0b10}, powerset_base(chain)), 2)
    with pytest.raises(SpaceError, match="outside the space"):
        validate_omega_base((up_sets(chain), {0, 0b100}), 2)


def test_complements():
    assert complements(frozenset({0, 0b10}), 2) == frozenset({0b11, 0b01})


def test_difference_kernel_examples():
    assert difference_kernel(1, [0b101]) == 0b101
    assert difference_kernel(2, [0b001, 0b011]) == 0b010
    a0, a1, a2 = 0b0001, 0b0011, 0b0111
    assert difference_kernel(3, [a0, a1, a2]) == a0 | (a2 & ~(a0 | a1))


def test_partitions():
    a = KPartition((0, 1, 0), 2)
    assert a.mask(0) == 0b101 and a.mask(1) == 0b010
    assert len(list(all_partitions(2, 2))) == 4
    with pytest.raises(SpaceError):
        KPartition((0, 2), 2)
    assert KPartition.from_json(a.to_json(), 2) == a


def test_family_defines_examples():
    chain = chain_space(2)
    forest = (t_flat(1, PLAIN),)
    fam = PFamily(forest, 1, {((0,),): 0b11, ((0, 0),): 0b10})
    part, diag = family_defines(fam, chain)
    assert diag is None
    assert part.labels == (0, 1)

    overlapping = PFamily(
        join(singleton(0), singleton(1)), 1,
        {((0,),): 0b11, ((1,),): 0b11})
    part, diag = family_defines(overlapping, chain)
    assert part is None and "overlap" in diag

    uncovered = PFamily(singleton(0), 1, {((0,),): 0b01})
    part, diag = family_defines(uncovered, chain)
    assert part is None and "not covered" in diag


def test_dh_membership_examples():
    chain = chain_space(2)
    base = up_sets(chain)
    top_is_1 = KPartition((0, 1), 2)
    bottom_is_1 = KPartition((1, 0), 2)
    t1 = (t_flat(1, PLAIN),)
    t1_bar = (t_flat(1, BAR),)
    assert dh_membership(top_is_1, t1, base, chain)
    assert not dh_membership(bottom_is_1, t1, base, chain)
    assert dh_membership(bottom_is_1, t1_bar, base, chain)
    constant = KPartition((1, 1), 2)
    assert dh_membership(constant, singleton(1), base, chain)
    nested = s_embed(parse_term("0*1"))
    with pytest.raises(SpaceError):
        dh_membership(constant, nested, base, chain)
    with pytest.raises(SpaceError):
        dh_witness_family(constant, nested, base, chain)


def test_dh_witness_matches_membership():
    for sp in oracles.all_posets_up_to(3):
        base = up_sets(sp)
        for f in oracles.flat_forests(3, 2, include_empty=False):
            for a in all_partitions(sp.n, 2):
                member = dh_membership(a, f, base, sp)
                fam = dh_witness_family(a, f, base, sp)
                assert member == (fam is not None)
                if fam is not None:
                    part, diag = family_defines(fam, sp)
                    assert diag is None and part.labels == a.labels


def _definable(forest, levels, sp):
    """Labels of every partition that some assignment of base sets defines."""
    prefixes = list(family_prefixes(forest, len(levels)))
    out = set()
    for sets in product(*(sorted(levels[lvl]) for _, lvl, _ in prefixes)):
        fam = PFamily(forest, len(levels),
                      {pfx: m for (pfx, _, _), m in zip(prefixes, sets)})
        part, _ = family_defines(fam, sp)
        if part is not None:
            out.add(part.labels)
    return out


def test_membership_matches_family_enumeration():
    for sp in oracles.all_posets_up_to(2):
        for base in (up_sets(sp), powerset_base(sp)):
            for f in oracles.flat_forests(3, 2, include_empty=False):
                expected = _definable(f, (base,), sp)
                for a in all_partitions(sp.n, 2):
                    assert dh_membership(a, f, base, sp) == (a.labels in expected)
                    fam = dh_witness_family(a, f, base, sp)
                    assert (fam is not None) == (a.labels in expected)
    chain = chain_space(2)
    levels = (up_sets(chain), powerset_base(chain))
    for f in oracles.nested_forests(3, 2, 2, include_empty=False):
        depth = max(1, nesting_level(f))
        expected = _definable(f, levels[:depth], chain)
        for a in all_partitions(2, 2):
            assert fh_membership(a, f, levels, chain) == (a.labels in expected)


def test_monotone_family_sufficiency():
    """Each node's set may be replaced by the union over its subtree."""
    for sp in oracles.all_posets_up_to(3):
        base = up_sets(sp)
        for f in oracles.flat_forests(3, 2, include_empty=False):
            for a in all_partitions(sp.n, 2):
                fam = dh_witness_family(a, f, base, sp)
                if fam is None:
                    continue
                monotone = {}
                for (p,) in fam.sets:
                    monotone[(p,)] = 0
                    for (q,), mask in fam.sets.items():
                        if q[: len(p)] == p:
                            monotone[(p,)] |= mask
                assert set(monotone.values()) <= base
                part, diag = family_defines(PFamily(f, 1, monotone), sp)
                assert diag is None and part.labels == a.labels


def test_wide_nodes():
    """Many children of one node: same answers as one child, found quickly."""
    start = time.perf_counter()
    chain = chain_space(10)
    base = up_sets(chain)
    wide, narrow = parse_term("1*(" + "|".join("0" * 10) + ")"), parse_term("1*0")
    for a in all_partitions(10, 2):
        member = dh_membership(a, wide, base, chain)
        assert member == dh_membership(a, narrow, base, chain)
        fam = dh_witness_family(a, wide, base, chain)
        assert (fam is not None) == member
        if fam is not None:
            part, diag = family_defines(fam, chain)
            assert diag is None and part.labels == a.labels

    chain = chain_space(6)
    levels = validate_omega_base((frozenset({0, chain.full}), up_sets(chain)), 6)
    wide, narrow = parse_term("s(1*(" + "|".join("0" * 8) + "))"), parse_term("s(1*0)")
    assert len(wide[0].label[0].children) == 8
    members = [a.labels for a in all_partitions(6, 2)
               if fh_membership(a, wide, levels, chain)]
    assert members == [a.labels for a in all_partitions(6, 2)
                       if fh_membership(a, narrow, levels, chain)]
    assert len(members) == 7  # class 1 a down-set
    assert time.perf_counter() - start < 5


def test_fh_level_one_equals_dh():
    chain = chain_space(2)
    levels = (up_sets(chain), powerset_base(chain))
    for f in oracles.flat_forests(3, 2, include_empty=False):
        for a in all_partitions(2, 2):
            assert fh_membership(a, f, levels, chain) == \
                dh_membership(a, f, levels[0], chain)


def test_fh_examples():
    chain = chain_space(2)
    levels = (up_sets(chain), powerset_base(chain))
    wide = s_embed(join(singleton(0), singleton(1)))
    for a in all_partitions(2, 2):
        assert fh_membership(a, wide, levels, chain)
    bottom_is_1 = KPartition((1, 0), 2)
    assert not fh_membership(bottom_is_1, (t_flat(1, PLAIN),), levels, chain)
    with pytest.raises(SpaceError):
        fh_membership(bottom_is_1, s_embed(parse_term("0*1")), (levels[0],), chain)


def test_diff_sequence_round_trip():
    chain = chain_space(2)
    base = up_sets(chain)
    fam = PFamily((t_flat(1, PLAIN),), 1, {((0,),): 0b11, ((0, 0),): 0b10})
    seq = family_to_diff_sequence(fam)
    assert seq == (0b10,)
    part, _ = family_defines(fam, chain)
    assert difference_kernel(1, seq) == part.mask(1)
    back = diff_sequence_to_family(seq, base, chain)
    part2, diag = family_defines(back, chain)
    assert diag is None and part2.labels == part.labels


def test_diff_sequence_exhaustive_round_trip():
    for sp in oracles.all_posets_up_to(3):
        base = up_sets(sp)
        for n in (1, 2):
            seqs = [()]
            for _ in range(n):
                seqs = [s + (b,) for s in seqs for b in sorted(base)]
            for seq in seqs:
                fam = diff_sequence_to_family(seq, base, sp)
                part, diag = family_defines(fam, sp)
                assert diag is None
                assert part.mask(1) == difference_kernel(n, seq)


def test_reduce_pair_and_property():
    chain = chain_space(3)
    base = up_sets(chain)
    for a in base:
        for b in base:
            a2, b2 = reduce_pair(a, b, base)
            assert a2 | b2 == a | b and not a2 & b2
            assert not a2 & ~a and not b2 & ~b
    assert has_reduction_property(base)
    assert has_reduction_property(powerset_base(antichain_space(3)))
    assert not has_reduction_property(up_sets(diamond_space()))
    start = time.perf_counter()
    assert has_reduction_property(up_sets(chain_space(400)))  # 401 sets
    assert time.perf_counter() - start < 5


def test_three_set_reduction_by_iteration():
    """Pairwise reduction iterates to disjointify length-3 sequences."""
    for base in (up_sets(chain_space(3)), powerset_base(antichain_space(3))):
        sets = sorted(base)
        for a in sets:
            for b in sets:
                for c in sets:
                    x, y = reduce_pair(a, b, base)
                    x, z = reduce_pair(x, c, base)
                    y, z = reduce_pair(y, z, base)
                    assert not x & y and not x & z and not y & z
                    assert x | y | z == a | b | c
                    assert not x & ~a and not y & ~b and not z & ~c


def test_reduce_family_preserves_partition():
    chain = chain_space(2)
    base = up_sets(chain)
    forest = join((t_flat(1, PLAIN),), (t_flat(1, BAR),))
    a = KPartition((1, 0), 2)
    fam = dh_witness_family(a, forest, base, chain)
    reduced = reduce_family(fam, base, chain)
    assert is_reduced(reduced)
    part, diag = family_defines(reduced, chain)
    assert diag is None and part.labels == a.labels
    with pytest.raises(SpaceError):
        reduce_family(fam, up_sets(diamond_space()), diamond_space())


def _reduced_by_all_pairs(fam):
    """Reference: monotone, with disjoint sets on incomparable nodes."""
    items = [(pfx[0], mask) for pfx, mask in fam.sets.items()]
    for (p, mp), (q, mq) in combinations(items, 2):
        p_below_q = len(p) > len(q) and p[: len(q)] == q
        q_below_p = len(q) > len(p) and q[: len(p)] == p
        if p_below_q and mp & ~mq:
            return False
        if q_below_p and mq & ~mp:
            return False
        if not p_below_q and not q_below_p and mp & mq:
            return False
    return True


def test_is_reduced_matches_all_pairs_definition():
    seen = set()
    for sp in oracles.all_posets_up_to(2):
        for base in (up_sets(sp), powerset_base(sp)):
            for f in oracles.flat_forests(3, 1, include_empty=False):
                prefixes = [pfx for pfx, _, _ in family_prefixes(f, 1)]
                for sets in product(sorted(base), repeat=len(prefixes)):
                    fam = PFamily(f, 1, dict(zip(prefixes, sets)))
                    verdict = is_reduced(fam)
                    assert verdict == _reduced_by_all_pairs(fam)
                    seen.add(verdict)
    assert seen == {False, True}


def test_preimage_closure():
    """Membership is preserved under composition with base-pulling maps."""
    from hforest.degrees import monotone_maps

    spaces = oracles.all_posets_up_to(2)
    forests = oracles.flat_forests(3, 2, include_empty=False)
    for x in spaces:
        for y in spaces:
            bx, by = up_sets(x), up_sets(y)
            for f in monotone_maps(x, y):
                for a in all_partitions(y.n, 2):
                    pulled = KPartition(tuple(a.labels[f[i]] for i in range(x.n)), 2)
                    for forest in forests:
                        if dh_membership(a, forest, by, y):
                            assert dh_membership(pulled, forest, bx, x)


def test_hierarchy_report_example():
    chain = chain_space(2)
    base = up_sets(chain)
    t1, t1_bar = (t_flat(1, PLAIN),), (t_flat(1, BAR),)
    report = hierarchy_report(chain, base, [t1, t1_bar], 2)
    sizes = {lvl["forest"]: lvl["size"] for lvl in report["levels"]}
    assert sorted(sizes.values()) == [3, 3]
    constituent_sizes = sorted(c["size"] for c in report["constituents"])
    assert constituent_sizes == [1, 1, 2]

    bigger = hierarchy_report(chain, base, [t1, t1_bar, (t_flat(2, PLAIN),)], 2)
    inclusions = {tuple(pair) for pair in bigger["inclusions"]}
    terms = bigger["forests"]
    assert (terms[0], terms[2]) in inclusions
    assert (terms[1], terms[2]) in inclusions

    single = hierarchy_report(chain, base, [t1], 2)
    assert len(single["constituents"]) == 1
    assert single["constituents"][0]["size"] == single["levels"][0]["size"]
    dot = report_to_dot(bigger)
    assert dot.startswith("digraph")


def test_size_guard():
    big = antichain_space(6)
    with pytest.raises(SpaceError):
        hierarchy_report(big, up_sets(big), [singleton(0)], 2)
    assert len(up_sets(antichain_space(12))) == MAX_BASE_SETS
    assert len(powerset_base(chain_space(12))) == MAX_BASE_SETS
    with pytest.raises(SpaceError):
        up_sets(antichain_space(13))
    with pytest.raises(SpaceError):
        powerset_base(chain_space(13))
