"""Finite spaces, bases, partitions, families and hierarchy membership."""

import random
import re
import time
from itertools import combinations, product

import pytest

from hforest import oracles
from hforest.canonical import BAR, PLAIN, t_flat
from hforest.errors import ForestError
from hforest.forest import Forest, Tree, as_forest, join, lift, paths, singleton
from hforest.nested import nesting_level, parse_term, s_embed
from hforest.space import (
    MAX_BASE_SETS,
    MAX_SPACE_POINTS,
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
    check_size_guard,
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
    hasse_edges,
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


# ---------------------------------------------------------------------------
# reference: a back-pointer sweep over every union each tree can reach,
# an independent check of the greedy pass.  tests/test_package.py checks
# that it calls none of the functions it checks.


def reference_fold(option_dicts) -> list:
    """Back-pointer steps, folding in one {union: ...} dict at a time.

    steps[0] is {0: None}; steps[i] maps each union the first i dicts
    reach to its first derivation, the pair (union of the first i - 1,
    union from the i-th).
    """
    steps = [{0: None}]
    for opts in option_dicts:
        reach: dict = {}
        for u in steps[-1]:
            for v in opts:
                if u | v not in reach:
                    reach[u | v] = (u, v)
        steps.append(reach)
    return steps


def reference_sweep(a: KPartition, forest: Forest, levels, space: FiniteSpace):
    """Back-pointers for the top level of the forest, one base per level.

    Returns (steps, options, folds).  steps is the reference_fold of the
    trees' options; options maps each tree to {union: (its root's set, its
    children's union)}; folds maps each inner tree to the reference_fold
    of its children's options.
    """
    depth = len(levels)
    color_masks: dict = {}  # only the colors that occur: k may be huge
    for i, c in enumerate(a.labels):
        color_masks[c] = color_masks.get(c, 0) | 1 << i
    memo: dict = {}

    def feasible(f: Forest, level: int, target: int) -> bool:
        key = (f, level, target)
        if key not in memo:
            memo[key] = target in sweep(f, level, target)[0][-1]
        return memo[key]

    def sweep(f: Forest, level: int, target: int):
        choices = [b for b in sorted(levels[level]) if not b & ~target]
        deepest = level + 1 == depth
        options: dict = {}
        folds: dict = {}

        def tree_options(t: Tree) -> dict:
            if t in options:
                return options[t]
            if deepest:
                if not isinstance(t.label, int):
                    raise SpaceError("non-color label at the deepest level")
                allowed = color_masks.get(t.label, 0)
            else:
                label = lift(t.label)
            unions = (0,)
            if t.children:
                folds[t] = reference_fold([tree_options(c) for c in t.children])
                unions = folds[t][-1]
            out: dict = {}
            for below in unions:
                if deepest:
                    # the new part b & ~below must lie inside the class
                    outside = ~(below | allowed)
                    for b in choices:
                        u = b | below
                        if u not in out and not b & outside:
                            out[u] = (b, below)
                else:
                    for b in choices:
                        u = b | below
                        if u not in out and feasible(label, level + 1, b & ~below):
                            out[u] = (b, below)
            options[t] = out
            return out

        return reference_fold([tree_options(t) for t in f]), options, folds

    return sweep(forest, 0, space.full)


def reference_member(a: KPartition, forest: Forest, levels, space: FiniteSpace) -> bool:
    forest = as_forest(forest)
    depth = max(1, nesting_level(forest))
    steps, _, _ = reference_sweep(a, forest, tuple(levels[:depth]), space)
    return space.full in steps[-1]


def test_space_construction():
    chain = chain_space(2)
    assert chain.leq(0, 1) and not chain.leq(1, 0)
    with pytest.raises(SpaceError):
        FiniteSpace(2, (0b10, 0b10))  # first row misses its own point
    round_trip = FiniteSpace.from_json(chain.to_json())
    assert round_trip == chain


@pytest.mark.parametrize("n, up, message", [
    (2, (0b101, 0b10), "an order row names points outside the space"),
    (2, (-1, 0b10), "an order row names points outside the space"),
    (2, (1, 2, 4), "3 order rows for 2 points"),
    (3, (1, 2), "2 order rows for 3 points"),
])
def test_space_rows_name_only_its_points(n, up, message):
    with pytest.raises(SpaceError, match=message):
        FiniteSpace(n, up)


def _pairwise_order_check(n, up):
    """The order checks as every pair (i, j) in turn: the reference for
    FiniteSpace, which walks only the points in each row."""
    for i in range(n):
        if not up[i] & (1 << i):
            raise SpaceError("order must be reflexive")
        for j in range(n):
            if i != j and up[i] & (1 << j) and up[j] & (1 << i):
                raise SpaceError(f"points {i} and {j} violate antisymmetry")
            if up[i] & (1 << j) and up[j] & ~up[i]:
                raise SpaceError("order must be transitive")


def test_space_checks_match_the_pairwise_reference():
    # every tuple of rows on up to 4 points, so the first failing check and
    # its message are the reference's on each
    count = 0
    for n in range(1, 5):
        for up in product(range(1 << n), repeat=n):
            count += 1
            try:
                _pairwise_order_check(n, up)
                expected = None
            except SpaceError as exc:
                expected = str(exc)
            try:
                FiniteSpace(n, up)
                got = None
            except SpaceError as exc:
                got = str(exc)
            assert got == expected, (n, up)
    assert count == 66_066


def test_from_pairs_matches_the_closed_rows_constructor():
    # every relation of pairs i != j on up to 4 points, closed by a loop of
    # the test's own: from_pairs checks only that the closed rows are
    # distinct, so its space or its message must be the constructor's
    count = 0
    for n in range(5):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(1 << len(pairs)):
            chosen = [pair for idx, pair in enumerate(pairs) if bits >> idx & 1]
            count += 1
            up = [1 << i for i in range(n)]
            for i, j in chosen:
                up[i] |= 1 << j
            grown = True
            while grown:  # join each row with the rows of the points it holds
                grown = False
                for i in range(n):
                    row = up[i]
                    for j in range(n):
                        if row >> j & 1:
                            row |= up[j]
                    grown |= row != up[i]
                    up[i] = row
            try:
                expected = FiniteSpace(n, tuple(up))
            except SpaceError as exc:
                expected = str(exc)
            try:
                got = FiniteSpace.from_pairs(n, chosen)
            except SpaceError as exc:
                got = str(exc)
            assert got == expected, (n, chosen)
            if not isinstance(got, str):  # its down rows are made on first use
                assert got.down == expected.down
    assert count == 1 + 1 + 4 + 64 + 4096


@pytest.mark.parametrize("le", [[[]], [[0]], [[0, 1, 1]], [[0, 1.0]],
                                [["0", 1]], {"0": 1}, [7], "01", None])
def test_space_json_pairs_must_be_point_pairs(le):
    with pytest.raises(SpaceError, match="point pairs"):
        FiniteSpace.from_json({"points": 2, "le": le})


@pytest.mark.parametrize("n", [True, False, "x", 2.0, -1, MAX_SPACE_POINTS + 1])
@pytest.mark.parametrize("build", [
    lambda n: FiniteSpace.from_json({"points": n}),
    lambda n: FiniteSpace.from_pairs(n, []), chain_space, antichain_space,
    lambda n: FiniteSpace(n, (1,))])
def test_space_builders_refuse_a_bad_point_count(build, n):
    with pytest.raises(SpaceError,
                       match=f"point count|more than {MAX_SPACE_POINTS} points"):
        build(n)


@pytest.mark.parametrize("pair", [(0, True), (True, 0), (False, 1)])
def test_space_pairs_refuse_bool_points(pair):
    with pytest.raises(SpaceError, match="point pairs"):
        FiniteSpace.from_pairs(2, [pair])
    with pytest.raises(SpaceError, match="point pairs"):
        FiniteSpace.from_json({"points": 2, "le": [list(pair)]})


def test_space_builders_admit_their_bound():
    for build in (chain_space, antichain_space):
        assert build(MAX_SPACE_POINTS).n == MAX_SPACE_POINTS
    assert FiniteSpace.from_pairs(0, []).n == 0


def test_from_pairs_closure_and_antisymmetry():
    sp = FiniteSpace.from_pairs(3, [(0, 1), (1, 2)])
    assert sp.leq(0, 2)
    with pytest.raises(SpaceError):
        FiniteSpace.from_pairs(2, [(0, 1), (1, 0)])
    covers = [(i, i + 1) for i in range(15)]
    assert FiniteSpace.from_pairs(16, covers[::-1]) == chain_space(16)


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
        n = rng.randrange(8)
        seed = [rng.randrange(1 << n) for _ in range(rng.randrange(9))]
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


def test_all_posets_are_the_labeled_posets():
    # the corpus A4, A7 and A8 run on: one space per labeled partial order
    # (OEIS A001035)
    assert [len(oracles.all_posets(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]


def test_up_sets_match_brute_force_filter():
    spaces = list(oracles.all_posets_up_to(4))
    rng = random.Random(5)
    for _ in range(200):  # the benchmark's hierarchy ops reach 5 points
        name = rng.sample(range(5), 5)  # any labelling of a random DAG
        pairs = [(name[i], name[j]) for i in range(5) for j in range(i + 1, 5)
                 if rng.random() < 0.3]
        spaces.append(FiniteSpace.from_pairs(5, pairs))
    for sp in spaces:
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


@pytest.mark.parametrize("labels, k", [
    ((0.5, 1), 3), ((1, float("nan")), 3), ((float("nan"), 1), 3),
    ((True, 0), 2), ((1, "a"), 3), ((1.0, 0), 2)])
def test_partition_labels_are_ints(labels, k):
    with pytest.raises(SpaceError, match="partition label out of range"):
        KPartition(labels, k)


@pytest.mark.parametrize("labels", [(), (0,), (0, 1)])
@pytest.mark.parametrize("k", [0, -1])
def test_a_partition_needs_a_color(labels, k):
    # the message check_size_guard gives, before any label is read
    with pytest.raises(SpaceError, match=f"^the number of colors must be at least 1, not {k}$"):
        KPartition(labels, k)
    with pytest.raises(SpaceError, match=f"^the number of colors must be at least 1, not {k}$"):
        check_size_guard(len(labels), k)


@pytest.mark.parametrize("k", [2.5, 2.0, True, False, "x", None])
def test_the_number_of_colors_is_an_int(k):
    # a float or bool k was kept, and a str or None one leaked TypeError
    message = f"^the number of colors must be an integer, not {re.escape(repr(k))}$"
    with pytest.raises(SpaceError, match=message):
        KPartition((0,), k)
    with pytest.raises(SpaceError, match=message):
        check_size_guard(1, k)


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

    outside = PFamily(singleton(0), 1, {((0,),): 0b111})
    with pytest.raises(SpaceError, match="set 111 has points outside the space"):
        family_defines(outside, chain)


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


def test_membership_refuses_a_partition_of_another_size():
    # before any other check: a nested forest over one level is refused too
    chain = chain_space(2)
    base = up_sets(chain)
    a = KPartition((0, 0, 0), 1)
    for f in (parse_term("0"), parse_term("s(0)")):
        for call, bases in ((dh_membership, base), (dh_witness_family, base),
                            (fh_membership, (base,))):
            with pytest.raises(SpaceError, match="partition size does not match the space"):
                call(a, f, bases, chain)


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


def _random_space(rng, n):
    return FiniteSpace.from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3])


def _random_closed_base(rng, sp):
    return close_base([rng.randrange(sp.full + 1) for _ in range(rng.randrange(5))],
                      sp.n)


def _check_witness(a, f, base, sp):
    """dh_witness_family agrees with membership, and its family defines a."""
    fam = dh_witness_family(a, f, base, sp)
    if fam is not None:
        part, diag = family_defines(fam, sp)
        assert diag is None and part.labels == a.labels, (a, f)
    return fam is not None


def test_membership_matches_reference():
    """The greedy pass answers as the back-pointer sweep, on samples of every
    poset of at most 3 points, of 4- and 5-point posets, and of nested forests
    over random omega-bases on every poset of at most 4 points."""
    rng = random.Random(17)
    checked = members = 0
    forests = oracles.flat_forests(4, 3, include_empty=False)
    for sp in oracles.all_posets_up_to(3):
        for base in (up_sets(sp), powerset_base(sp), _random_closed_base(rng, sp)):
            for f in forests:
                for a in all_partitions(sp.n, 3):
                    if rng.random() < 0.05:
                        want = reference_member(a, f, (base,), sp)
                        assert dh_membership(a, f, base, sp) == want, (sp, base, f, a)
                        assert _check_witness(a, f, base, sp) == want
                        checked += 1
                        members += want
    pools = {k: oracles.flat_forests(5, k, include_empty=False) for k in (2, 3, 4)}
    for _ in range(2000):
        k = rng.choice((2, 3, 4))
        sp = _random_space(rng, rng.choice((4, 5)))
        base = rng.choice((up_sets(sp), powerset_base(sp), _random_closed_base(rng, sp)))
        f = rng.choice(pools[k])
        a = KPartition(tuple(rng.randrange(k) for _ in range(sp.n)), k)
        want = reference_member(a, f, (base,), sp)
        assert dh_membership(a, f, base, sp) == want, (sp, base, f, a)
        assert _check_witness(a, f, base, sp) == want
        checked += 1
        members += want
    assert checked > 50000 and 0.05 < members / checked < 0.95
    nested = oracles.nested_forests(4, 2, 2)
    fh_checked = fh_members = 0
    for sp in oracles.all_posets_up_to(3):
        levels = (up_sets(sp), powerset_base(sp))
        for f in nested:
            for a in all_partitions(sp.n, 2):
                if rng.random() < 0.1:
                    want = reference_member(a, f, levels, sp)
                    assert fh_membership(a, f, levels, sp) == want, (sp, f, a)
                    fh_checked += 1
                    fh_members += want
    assert fh_checked > 10000 and 0.05 < fh_members / fh_checked < 0.95
    # random closed omega-bases, whose coarse first levels give inner cells
    # (points sharing one least open) of several points
    pools = {2: oracles.nested_forests(4, 2, 2, include_empty=False),
             3: oracles.nested_forests(3, 2, 3, include_empty=False)}
    # 30 omega-bases on every poset of at most 3 points, 4 on each of the
    # 219 posets of 4 points
    verdicts, widest = set(), [0] * 5
    for sp in oracles.all_posets_up_to(4):
        count, sample = (30, 6) if sp.n < 4 else (4, 4)
        for _ in range(count):
            levels = _random_omega_base(rng, sp, rng.choice((2, 3)))
            for f in rng.sample(pools[len(levels)], sample):
                a = KPartition(tuple(rng.randrange(2) for _ in range(sp.n)), 2)
                want = reference_member(a, f, levels, sp)
                assert fh_membership(a, f, levels, sp) == want, (sp, levels, f, a)
                verdicts.add((sp.n == 4, want))
                if nesting_level(f) > 1:
                    widest[sp.n] = max(widest[sp.n], _widest_cell(levels[0], sp))
    assert verdicts == set(product((False, True), repeat=2))
    assert max(widest[:4]) >= 2 and widest[4] >= 2


def _random_omega_base(rng, sp, depth):
    """Closed levels: the first closes one or two random sets, and each
    next one the last, its complements and a few random sets."""
    levels = [close_base([rng.randrange(sp.full + 1) for _ in range(rng.randint(1, 2))],
                         sp.n)]
    while len(levels) < depth:
        seed = [*levels[-1], *complements(levels[-1], sp.n),
                *(rng.randrange(sp.full + 1) for _ in range(rng.randrange(3)))]
        levels.append(close_base(seed, sp.n))
    return tuple(levels)


def _widest_cell(base, sp):
    """The most points that share one least open in the base: the meet of
    the base sets holding them."""
    meets = [sp.full] * sp.n
    for s in base:
        for p in range(sp.n):
            if s >> p & 1:
                meets[p] &= s
    held = [m for p, m in enumerate(meets) if any(s >> p & 1 for s in base)]
    return max(map(held.count, held), default=0)


def test_witness_is_the_greatest_family():
    """Each node's set is the union of the base sets inside its children's
    union and its color's class."""
    witnesses = 0
    for sp in oracles.all_posets_up_to(3):
        for base in (up_sets(sp), powerset_base(sp)):
            for f in oracles.flat_forests(4, 2, include_empty=False):
                for a in all_partitions(sp.n, 2):
                    fam = dh_witness_family(a, f, base, sp)
                    if fam is None:
                        continue
                    witnesses += 1
                    for path, t in paths(f):
                        below = 0
                        for (q,), mask in fam.sets.items():
                            if len(q) > len(path) and q[:len(path)] == path:
                                below |= mask
                        inside = 0
                        for b in base:
                            if not b & ~(below | a.mask(t.label)):
                                inside |= b
                        assert fam.sets[(path,)] == inside, (sp, f, a, path)
    assert witnesses > 1000


def test_a_base_not_closed_under_union_is_refused():
    sp = antichain_space(3)
    base = frozenset({0, 0b01, 0b10, 0b110})
    with pytest.raises(SpaceError, match="not closed under union"):
        dh_membership(KPartition((0, 0, 0), 1), singleton(0), base, sp)
    with pytest.raises(SpaceError, match="not closed under union"):
        dh_witness_family(KPartition((0, 0, 0), 1), singleton(0), base, sp)
    with pytest.raises(SpaceError, match="not closed under union"):
        fh_membership(KPartition((0, 0, 0), 1), singleton(0), (base,), sp)


def test_membership_answers_on_the_parse_depth_limit():
    chain = chain_space(2)
    levels = (up_sets(chain), powerset_base(chain))
    deep = parse_term("0*" * 999 + "1")
    assert len(list(paths(deep))) == 1000
    for labels, member in (((0, 1), True), ((1, 0), False)):
        a = KPartition(labels, 2)
        assert dh_membership(a, deep, levels[0], chain) is member
        assert fh_membership(a, deep, levels, chain) is member
        assert _check_witness(a, deep, levels[0], chain) is member


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
    # the base {0, full} has one least open, so its one cell holds both points
    for first in (up_sets(chain), frozenset({0, chain.full})):
        levels = (first, powerset_base(chain))
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


def test_fh_membership_refuses_levels_that_are_not_nested():
    # both levels are closed, but the second lacks {1}, a cell of the first
    # and the complement of its set {0}: read as an omega-base, the greedy
    # pass would answer unlike the definition
    levels = (frozenset({0, 0b01, 0b11}), frozenset({0, 0b11}))
    a, sp = KPartition((0, 0), 2), antichain_space(2)
    nested = parse_term("s(0|1)")
    assert reference_member(a, nested, levels, sp)
    with pytest.raises(SpaceError, match="previous level and its complements"):
        fh_membership(a, nested, levels, sp)
    with pytest.raises(SpaceError, match="previous level and its complements"):
        check_omega_nesting(levels, sp.n)
    assert fh_membership(a, parse_term("0"), levels, sp)  # reads the first level


def test_the_cell_check_passes_levels_whose_first_misses_a_point():
    # the first level misses point 1, so its one cell {0} is a set of the
    # next level though the complement {1} is not: the cell check passes
    # and the pass answers as the reference, where the nesting check
    # refuses; the two checks agree where the first level covers the space
    levels = (frozenset({0, 0b01}), frozenset({0, 0b01}))
    a, sp, forest = KPartition((0, 0), 2), antichain_space(2), parse_term("s(0|1)")
    assert fh_membership(a, forest, levels, sp) is False
    assert reference_member(a, forest, levels, sp) is False
    with pytest.raises(SpaceError, match="previous level and its complements"):
        check_omega_nesting(levels, sp.n)


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


def test_diff_sequence_of_the_empty_family_is_refused():
    with pytest.raises(SpaceError, match="non-empty forest"):
        family_to_diff_sequence(PFamily((), 1, {}))


def test_diff_sequence_on_a_deep_chain():
    # every rank is read off one pass: no recursion, no pass per node
    chain = chain_space(2)
    a = KPartition((0, 1), 2)
    forest = parse_term("0*1*" * 400 + "0")
    seq = family_to_diff_sequence(dh_witness_family(a, forest, up_sets(chain), chain))
    assert len(seq) == 800
    assert difference_kernel(800, seq) == a.mask(1)


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


def test_reduction_property_is_reduce_pair_on_every_pair():
    rng = random.Random(28)
    cases = [(sp, base) for n in range(5) for sp in oracles.all_posets(n)
             for base in (up_sets(sp), powerset_base(sp),
                          *(_random_closed_base(rng, sp) for _ in range(5)))]
    cases += [(sp, up_sets(sp)) for sp in (_random_space(rng, 5) for _ in range(200))]
    verdicts = set()
    for sp, base in cases:
        verdict = has_reduction_property(base)
        assert verdict == oracles.oracle_reduction_property(base), (sp, base)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _disjoint_3_chains(count):
    return FiniteSpace.from_pairs(
        3 * count, [(3 * c + i, 3 * c + i + 1) for c in range(count) for i in range(2)])


@pytest.mark.parametrize("count", [5, 6])  # 1,024 and 4,096 = MAX_BASE_SETS sets
def test_reduction_property_on_disjoint_chains_is_fast(count):
    base = up_sets(_disjoint_3_chains(count))
    assert len(base) == 4 ** count
    start = time.perf_counter()
    assert has_reduction_property(base)
    assert time.perf_counter() - start < 1


def test_validate_base_on_the_largest_powerset_is_fast():
    base = powerset_base(antichain_space(12))
    start = time.perf_counter()
    assert validate_base(base, 12) == base
    assert time.perf_counter() - start < 1


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


def test_reduce_family_refuses_a_base_that_is_not_closed():
    # its least opens are nested, so the reduction property reads true, but
    # the base lacks 0 and 0b10, so the two sets have no reduction in it
    sp = antichain_space(2)
    base = frozenset({0b11, 0b01})
    fam = PFamily(parse_term("0|1"), 1, {((0,),): 0b11, ((1,),): 0b01})
    with pytest.raises(SpaceError, match="not closed"):
        reduce_family(fam, base, sp)


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


def test_hierarchy_report_checks_colors_against_k():
    chain = chain_space(2)
    with pytest.raises(ForestError, match="color 5 out of range for k=2"):
        hierarchy_report(chain, up_sets(chain), [parse_term("0*5")], 2)


def test_hasse_edges_match_the_scan_over_all_triples():
    """On preorders given as set inclusion, ties included, the covers are
    the pairs with no third point between them, in ascending order."""
    rng = random.Random(3)
    for _ in range(300):
        sets = [rng.randrange(8) for _ in range(rng.randint(0, 7))]
        n = len(sets)
        rel = {(i, j) for i in range(n) for j in range(n)
               if i != j and sets[i] & ~sets[j] == 0}
        covers = sorted((i, j) for i, j in rel
                        if not any((i, c) in rel and (c, j) in rel
                                   for c in range(n) if c not in (i, j)))
        above = [sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n)]
        assert hasse_edges(above) == covers


def test_report_dot_is_the_cover_diagram():
    chain = chain_space(2)
    report = hierarchy_report(chain, up_sets(chain),
                              [parse_term(t) for t in ("0*1", "1*0", "0|1", "0")], 2)
    terms = report["forests"]
    inclusions = {tuple(pair) for pair in report["inclusions"]}
    covers = [(a, b) for a in terms for b in terms if (a, b) in inclusions
              and not any((a, c) in inclusions and (c, b) in inclusions
                          for c in terms if c not in (a, b))]
    edges = [line.strip() for line in report_to_dot(report).splitlines()
             if "->" in line]
    assert covers and edges == [f'"{a}" -> "{b}";' for a, b in covers]


def test_size_guard():
    big = antichain_space(6)
    with pytest.raises(SpaceError, match=r"exceeds the limit \(5 points, 4 colors\)$"):
        hierarchy_report(big, up_sets(big), [singleton(0)], 2)
    assert len(up_sets(antichain_space(12))) == MAX_BASE_SETS
    assert len(powerset_base(chain_space(12))) == MAX_BASE_SETS
    with pytest.raises(SpaceError):
        up_sets(antichain_space(13))
    with pytest.raises(SpaceError):
        powerset_base(chain_space(13))
