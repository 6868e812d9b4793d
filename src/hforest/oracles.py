"""Brute-force oracles and exhaustive corpus enumeration.

Everything here recomputes results from first principles (enumerating all
maps, all candidate bounds, all posets) so the optimized implementations
can be validated against an independent authority.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .canonical import BAR, PLAIN, CanonicalName, _t_size, t_nested
from .forest import EMPTY, Forest, Tree, as_forest, as_label, normalize, sort_key
from .nested import flatten, morphism_exists, nesting_level
from .ordinal import ZERO, Ord
from .space import FiniteSpace, SpaceError, all_partitions, reduce_pair


# ---------------------------------------------------------------------------
# corpus enumeration


def flat_forests(max_nodes: int, k: int, include_empty: bool = True) -> list:
    """All flat forests with at most `max_nodes` nodes, one order per multiset."""
    return nested_forests(max_nodes, k, 1, include_empty)


@lru_cache(maxsize=None)
def nested_trees(nodes: int, k: int, level: int) -> tuple:
    """Trees of nesting level <= level with `nodes` flattened elements."""
    if nodes < 1:
        return ()
    labels: list = []
    labels.extend((1, c) for c in range(k))
    if level >= 2:
        for size in range(1, nodes + 1):
            for f in nested_forests_exact(size, k, level - 1):
                # skip singleton color forests: identified with the color
                if not isinstance(as_label(f), int):
                    labels.append((size, f))
    out = []
    for label_size, label in labels:
        for f in nested_forests_exact(nodes - label_size, k, level):
            out.append(Tree(label, f))
    return tuple(out)


@lru_cache(maxsize=None)
def nested_forests_exact(nodes: int, k: int, level: int) -> tuple:
    if nodes == 0:
        return (EMPTY,)
    out = []
    trees_by_size = {
        m: sorted(nested_trees(m, k, level), key=sort_key)
        for m in range(1, nodes + 1)
    }

    def extend(prefix: tuple, remaining: int, min_size: int, min_index: int):
        if remaining == 0:
            out.append(prefix)
            return
        for size in range(min_size, remaining + 1):
            pool = trees_by_size[size]
            start = min_index if size == min_size else 0
            for idx in range(start, len(pool)):
                extend(prefix + (pool[idx],), remaining - size, size, idx)

    extend((), nodes, 1, 0)
    return tuple(out)


def nested_forests(max_nodes: int, k: int, level: int,
                   include_empty: bool = True) -> list:
    out = [EMPTY] if include_empty else []
    for n in range(1, max_nodes + 1):
        out.extend(nested_forests_exact(n, k, level))
    return out


def sample_forests(forests, count: int, seed: int) -> list:
    """A fixed-seed sample of `count` of the given forests (all of them when fewer)."""
    forests = list(forests)
    return random.Random(seed).sample(forests, min(count, len(forests)))


def normalized_corpus(forests) -> list:
    """Distinct normal forms of the given forests."""
    seen = set()
    out = []
    for f in forests:
        n = normalize(f)
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# map-enumeration oracle for the h-preorder


def oracle_h_leq(f: Forest, g: Forest) -> bool:
    """Backtracking enumeration of label-respecting layer-monotone maps.

    Works through the flattened presentation, so nested labels are handled
    by the same element-map search rather than by the recursive h_leq.
    """
    if not f:
        return True
    if not g:
        return False
    depth = max(nesting_level(f), nesting_level(g), 1)
    return morphism_exists(flatten(f, depth), flatten(g, depth))


def oracle_h_equiv(f: Forest, g: Forest) -> bool:
    return oracle_h_leq(f, g) and oracle_h_leq(g, f)


# ---------------------------------------------------------------------------
# bound oracles over an enumerated universe


class BoundOracle:
    """Least-upper/greatest-lower bound checks over a fixed corpus.

    Rows of the order matrix are int bitsets over corpus indices, so the
    bound checks are a few word operations per candidate.
    """

    def __init__(self, corpus, leq):
        self.corpus = list(corpus)
        self.index = {f: i for i, f in enumerate(self.corpus)}
        n = len(self.corpus)
        self.below = [0] * n  # below[i]: bitset of j with corpus[j] <= corpus[i]
        self.above = [0] * n
        for i in range(n):
            for j in range(n):
                if leq(self.corpus[j], self.corpus[i]):
                    self.below[i] |= 1 << j
                    self.above[j] |= 1 << i

    def is_glb(self, m: Forest, f: Forest, g: Forest) -> bool:
        im, i, j = self.index[m], self.index[f], self.index[g]
        common = self.below[i] & self.below[j]
        return bool(common & (1 << im)) and common & ~self.below[im] == 0


# ---------------------------------------------------------------------------
# ordinal notations and the search that names nested 2-forests


@lru_cache(maxsize=None)
def ordinal_candidates(size_bound: int) -> tuple[Ord, ...]:
    """All notations with canonical_size(T_a) <= size_bound, ascending.

    canonical_size grows strictly when a CNF term is appended, when a
    coefficient grows, or when an exponent is replaced by a bigger one, so
    a bounded sweep over prefixes is exhaustive.  Exponents range over the
    candidate set itself, computed as a fixed point.
    """

    def sweep(exponents: list[Ord]) -> list[Ord]:
        exps = sorted(exponents)
        label = [0 if e.is_zero() else _t_size(e) for e in exps]
        out: list[Ord] = []

        # Appending (e, d) to a prefix of size s costs d*(1 + label) plus
        # 2*s when the prefix is nonempty; a bare finite part costs d + 1.
        def walk(prefix: tuple, size: int, bound_idx: int):
            out.append(Ord(prefix))
            for idx in range(bound_idx):
                e = exps[idx]
                if not prefix and e.is_zero():
                    for coeff in range(1, size_bound):
                        walk(((e, coeff),), coeff + 1, idx)
                    continue
                step = 1 + label[idx]
                base = 2 * size if prefix else 0
                coeff = 1
                while base + step * coeff <= size_bound:
                    walk(prefix + ((e, coeff),), base + step * coeff, idx)
                    coeff += 1

        walk((), 1, len(exps))
        return out

    exponents = [ZERO]
    while True:
        result = sweep(exponents)
        if len(result) == len(exponents):
            break
        exponents = result
    result.sort()
    return tuple(result)


def search_2tree_nested(f: Forest, size_bound: int) -> CanonicalName | None:
    """The first T_a or bar T_a, over ascending candidates, h-equivalent to f."""
    f = as_forest(f)
    for a in ordinal_candidates(size_bound):
        for kind, polarity in (("T", PLAIN), ("Tbar", BAR)):
            if oracle_h_equiv(f, t_nested(a, polarity)):
                return CanonicalName(kind, a)
    return None


# ---------------------------------------------------------------------------
# poset enumeration


def all_posets(n: int) -> list:
    """Every labeled partial order on n points."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for idx, (i, j) in enumerate(pairs):
            if bits >> idx & 1:
                up[i] |= 1 << j
        try:
            out.append(FiniteSpace(n, tuple(up)))
        except SpaceError:  # not antisymmetric or not transitive
            pass
    return out


def all_posets_up_to(max_points: int) -> list:
    return [p for n in range(1, max_points + 1) for p in all_posets(n)]


def oracle_reduction_property(base) -> bool:
    """The reduction property by its definition: reduce_pair finds a
    reduction of every ordered pair of base sets."""
    return all(reduce_pair(x, y, base) is not None for x in base for y in base)


# ---------------------------------------------------------------------------
# degrees of k-partitions from every composition


def oracle_monotone_maps(x: FiniteSpace, y: FiniteSpace) -> list:
    """Every tuple of images of x's points in y, in product order, kept
    when it preserves every pair of the order."""
    pairs = [(i, j) for i in range(x.n) for j in range(x.n) if x.leq(i, j)]
    return [f for f in product(range(y.n), repeat=x.n)
            if all(y.leq(f[i], f[j]) for i, j in pairs)]


def oracle_degree_poset(space: FiniteSpace, k: int) -> tuple:
    """(classes, leq) of the degree poset from a P x P table of reductions.

    red[i][j] holds when partition i is partition j composed with some
    monotone map; the table is filled by composing every partition with
    every map.  Each partition joins the first class found so far whose
    first member it is mutually reducible with, else starts one.
    """
    partitions = list(all_partitions(space.n, k))
    maps = oracle_monotone_maps(space, space)
    index = {a.labels: i for i, a in enumerate(partitions)}
    red = [[False] * len(partitions) for _ in partitions]
    for j, b in enumerate(partitions):
        for f in maps:
            red[index[tuple(b.labels[x] for x in f)]][j] = True
    classes = []
    for i, a in enumerate(partitions):
        for members in classes:
            j = index[members[0].labels]
            if red[i][j] and red[j][i]:
                members.append(a)
                break
        else:
            classes.append([a])
    firsts = [index[members[0].labels] for members in classes]
    leq = tuple(frozenset(c for c, j in enumerate(firsts) if red[i][j])
                for i in firsts)
    return tuple(tuple(c) for c in classes), leq
