"""Finite T0 spaces, bases, and difference/fine hierarchies of k-partitions.

A finite T0 space is a finite poset carrying the topology whose opens are
the up-sets; continuous maps are exactly the monotone ones.  Subsets are
int bitmasks.  A base is a family of subsets closed under union and
intersection that contains the empty set; an omega-base is a sequence of
bases, each containing the previous one and its complements.

A k-partition is defined by a family of base sets indexed by the nodes of
a forest (flat case) or by tuples of nodes walking through nested labels
(fine-hierarchy case): the "new part" of a node's set is what remains
after subtracting the sets of all strictly smaller nodes, and the colors
of the nodes whose new parts contain a point determine its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .forest import (
    Forest,
    Tree,
    as_forest,
    h_leq,
    lift,
    normalize,
    paths,
    rank,
)
from .errors import SpaceError
from .nested import nesting_level

SOFT_POINT_LIMIT = 5
SOFT_COLOR_LIMIT = 4
MAX_BASE_SETS = 1 << 12


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class FiniteSpace:
    """Finite poset; up[i] is the bitmask of points j with i <= j."""

    n: int
    up: tuple

    def __post_init__(self):
        for i in range(self.n):
            if not self.up[i] & (1 << i):
                raise SpaceError("order must be reflexive")
            for j in range(self.n):
                if i != j and self.up[i] & (1 << j) and self.up[j] & (1 << i):
                    raise SpaceError(f"points {i} and {j} violate antisymmetry")
                if self.up[i] & (1 << j) and self.up[j] & ~self.up[i]:
                    raise SpaceError("order must be transitive")

    @staticmethod
    def from_pairs(n: int, pairs) -> "FiniteSpace":
        """Build from a list of i <= j pairs; reflexive-transitive closure taken."""
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise SpaceError(f"pair ({i}, {j}) out of range")
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                reach = up[i]
                for j in range(n):
                    if reach & (1 << j):
                        reach |= up[j]
                if reach != up[i]:
                    up[i] = reach
                    changed = True
        return FiniteSpace(n, tuple(up))

    @staticmethod
    def from_json(data) -> "FiniteSpace":
        if not isinstance(data, dict) or "points" not in data:
            raise SpaceError("space JSON must have 'points' and 'le'")
        return FiniteSpace.from_pairs(data["points"], data.get("le", []))

    def to_json(self) -> dict:
        pairs = [
            [i, j]
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self.leq(i, j)
        ]
        return {"points": self.n, "le": pairs}

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_upset(self, mask: int) -> bool:
        return all(
            self.up[i] & ~mask == 0 for i in range(self.n) if mask & (1 << i)
        )


def chain_space(n: int) -> FiniteSpace:
    """The n-point chain 0 < 1 < ... < n-1."""
    return FiniteSpace.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def antichain_space(n: int) -> FiniteSpace:
    return FiniteSpace.from_pairs(n, [])


def diamond_space() -> FiniteSpace:
    """Two bottoms (0, 1) below two tops (2, 3)."""
    return FiniteSpace.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def check_size_guard(n_points: int, k: int, override: bool = False) -> None:
    if override:
        return
    if n_points > SOFT_POINT_LIMIT or k > SOFT_COLOR_LIMIT:
        raise SpaceError(
            f"{n_points} points / {k} colors exceeds the soft limit "
            f"({SOFT_POINT_LIMIT} points, {SOFT_COLOR_LIMIT} colors); "
            "pass override to proceed"
        )


# ---------------------------------------------------------------------------
# bases


Base = frozenset  # frozenset[int]


def close_base(seed, n_points: int) -> Base:
    """Least family containing seed closed under union and intersection, with 0.

    Set lattices are distributive, so the closure is the unions of the
    intersections of seed sets; each of the two closures is grown one set
    at a time, so the cost follows the size of the result.
    """
    full = (1 << n_points) - 1
    meets = {0}
    for s in seed:
        if s & ~full:
            raise SpaceError(f"set {s:b} has points outside the space")
        meets |= {s} | {s & m for m in meets}
        if len(meets) > MAX_BASE_SETS:
            raise SpaceError(f"the closed base exceeds {MAX_BASE_SETS} sets")
    joins = {0}
    for m in meets:
        joins |= {m | j for j in joins}
        if len(joins) > MAX_BASE_SETS:
            raise SpaceError(f"the closed base exceeds {MAX_BASE_SETS} sets")
    return frozenset(joins)


def validate_base(family, n_points: int) -> Base:
    base = frozenset(family)
    if close_base(base, n_points) != base:
        raise SpaceError("family is not closed under union/intersection")
    return base


def up_sets(space: FiniteSpace) -> Base:
    """The Alexandrov opens, grown from the empty set.

    A point joins an up-set once its strict up-set lies inside it; every
    nonempty up-set arises so from the up-set left by removing one of its
    minimal points.  The cost is O(n * |opens|).
    """
    found = {0}
    todo = [0]
    while todo:
        u = todo.pop()
        for i in range(space.n):
            bit = 1 << i
            v = u | bit
            if v == u or space.up[i] & ~v or v in found:
                continue
            if len(found) == MAX_BASE_SETS:
                raise SpaceError(
                    f"the up-sets of this space exceed {MAX_BASE_SETS} sets")
            found.add(v)
            todo.append(v)
    return frozenset(found)


def powerset_base(space: FiniteSpace) -> Base:
    if 1 << space.n > MAX_BASE_SETS:
        raise SpaceError(
            f"the powerset of {space.n} points exceeds {MAX_BASE_SETS} sets")
    return frozenset(range(space.full + 1))


def complements(base: Base, n_points: int) -> Base:
    full = (1 << n_points) - 1
    return frozenset(full & ~s for s in base)


def validate_omega_base(levels, n_points: int) -> tuple:
    return check_omega_nesting(
        tuple(validate_base(level, n_points) for level in levels), n_points)


def check_omega_nesting(levels: tuple, n_points: int) -> tuple:
    """Closed levels as an omega-base: each holds the last and its complements."""
    for lower, upper in zip(levels, levels[1:]):
        if not (lower | complements(lower, n_points)) <= upper:
            raise SpaceError(
                "omega-base level must contain the previous level and its complements"
            )
    return levels


def base_from_json(data, n_points: int) -> Base:
    if not isinstance(data, list):
        raise SpaceError("base JSON must be a list of point lists")
    return close_base((_mask_of(points, n_points) for points in data), n_points)


def base_to_json(base: Base) -> list:
    return [sorted(_points_of(mask)) for mask in sorted(base)]


def _mask_of(points, n_points: int) -> int:
    mask = 0
    for p in points:
        if not 0 <= p < n_points:
            raise SpaceError(f"point {p} out of range")
        mask |= 1 << p
    return mask


def _points_of(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class KPartition:
    """Total coloring of the points by 0..k-1."""

    labels: tuple
    k: int

    def __post_init__(self):
        if any(not 0 <= c < self.k for c in self.labels):
            raise SpaceError("partition label out of range")

    @property
    def n(self) -> int:
        return len(self.labels)

    def mask(self, color: int) -> int:
        out = 0
        for i, c in enumerate(self.labels):
            if c == color:
                out |= 1 << i
        return out

    @staticmethod
    def from_json(data, k: int) -> "KPartition":
        if not isinstance(data, dict) or "labels" not in data:
            raise SpaceError("partition JSON must have 'labels'")
        return KPartition(tuple(data["labels"]), k)

    def to_json(self) -> dict:
        return {"labels": list(self.labels)}


def all_partitions(n_points: int, k: int):
    for labels in product(range(k), repeat=n_points):
        yield KPartition(labels, k)


# ---------------------------------------------------------------------------
# the difference operation


def difference_kernel(alpha: int, sets) -> int:
    """Union of the new parts of the sets whose index parity differs from alpha's.

    The new part of the beta-th set is what it adds over all earlier sets.
    """
    sets = list(sets)
    if len(sets) != alpha:
        raise SpaceError(f"expected {alpha} sets, got {len(sets)}")
    out = 0
    seen = 0
    for beta, a in enumerate(sets):
        if beta % 2 != alpha % 2:
            out |= a & ~seen
        seen |= a
    return out


# ---------------------------------------------------------------------------
# families
#
# A family indexes sets by prefixes: tuples of node paths, the first path
# into the forest itself, the next into the first node's label forest, and
# so on.  Flat families have depth 1 (prefixes are single paths).


@dataclass
class PFamily:
    forest: Forest
    depth: int
    sets: dict  # prefix tuple -> mask

    def __post_init__(self):
        self.forest = as_forest(self.forest)
        expected = {pfx for pfx, _, _ in family_prefixes(self.forest, self.depth)}
        if set(self.sets) != expected:
            raise SpaceError("family must assign a set to every node tuple")


def family_prefixes(forest: Forest, depth: int):
    """Yield (prefix, level, color or None); color set on full-depth prefixes."""
    if depth < 1:
        raise SpaceError("depth must be positive")
    nesting = nesting_level(forest)
    if nesting > depth:
        raise SpaceError(f"nesting level {nesting} exceeds depth {depth}")

    def walk(f: Forest, level: int, acc: tuple):
        for path, t in paths(f):
            pfx = acc + (path,)
            if level + 1 == depth:
                color = t.label if isinstance(t.label, int) else None
                if color is None:
                    raise SpaceError("non-color label at the deepest level")
                yield pfx, level, color
            else:
                yield pfx, level, None
                yield from walk(lift(t.label), level + 1, pfx)

    yield from walk(forest, 0, ())


def _sibling_key(prefix: tuple) -> tuple:
    """The parent's prefix, or for a layer's roots a key they alone share."""
    return prefix[:-1] + (prefix[-1][:-1],)


def _unions_below(sets: dict) -> dict:
    """Per prefix, the union of the sets strictly below it in its layer.

    The key a layer's roots share maps to the union of the whole layer.
    Sorted in reverse, every prefix comes after its descendants and its
    label layer, so one pass suffices.
    """
    below: dict = {}
    for pfx in sorted(sets, reverse=True):
        key = _sibling_key(pfx)
        below[key] = below.get(key, 0) | sets[pfx] | below.get(pfx, 0)
    return below


def family_defines(fam: PFamily, space: FiniteSpace):
    """The k-partition the family defines, or (None, diagnostic).

    Checks the chain condition at inner levels, consistency of colors on
    overlapping components, and that the top-level sets cover the space.
    """
    prefixes = list(family_prefixes(fam.forest, fam.depth))
    below = _unions_below(fam.sets)
    new_parts = {pfx: fam.sets[pfx] & ~below.get(pfx, 0)
                 for pfx, _, _ in prefixes}
    for pfx, level, _ in prefixes:
        if level + 1 < fam.depth and below.get(pfx + ((),), 0) != new_parts[pfx]:
            return None, f"chain condition fails at {pfx}"
    full_prefixes = [(pfx, color) for pfx, lvl, color in prefixes
                     if lvl + 1 == fam.depth]
    for (p, cp), (q, cq) in combinations(full_prefixes, 2):
        if cp != cq and new_parts[p] & new_parts[q]:
            return None, f"components at {p} and {q} overlap with distinct colors"
    covered = below.get(((),), 0)
    if covered != space.full:
        missing = next(i for i in range(space.n) if not covered & (1 << i))
        return None, f"point {missing} is not covered"
    labels = [next(c for pfx, c in full_prefixes if new_parts[pfx] & (1 << i))
              for i in range(space.n)]
    k = max(max(labels), max(c for _, c in full_prefixes)) + 1
    return KPartition(tuple(labels), k), None


# ---------------------------------------------------------------------------
# membership
#
# A family defines the partition A exactly when the top-level sets cover
# the space, the label forest of every inner node has sets whose union is
# that node's new part, and every deepest new part lies inside its color's
# class.  A flat forest over a base B is the one-level case, over (B,).
# So one sweep decides all three questions: per tree it maps each union
# its sets can reach to a back-pointer (the node's set and the union of
# its children's sets from the first derivation found).


def _fold(option_dicts) -> list:
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


def _sweep(a: KPartition, forest: Forest, levels, space: FiniteSpace):
    """Back-pointers for the top level of the forest, one base per level.

    Returns (steps, options, folds).  steps is the _fold of the trees'
    options; options maps each tree to {union: (its root's set, its
    children's union)}; folds maps each inner tree to the _fold of its
    children's options.
    """
    depth = len(levels)
    color_masks = [a.mask(i) for i in range(a.k)]
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
                allowed = color_masks[t.label] if t.label < a.k else 0
            else:
                label = lift(t.label)
            unions = (0,)
            if t.children:
                folds[t] = _fold([tree_options(c) for c in t.children])
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

        return _fold([tree_options(t) for t in f]), options, folds

    return sweep(forest, 0, space.full)


def fh_membership(a: KPartition, forest: Forest, omega_base,
                  space: FiniteSpace) -> bool:
    """Is the partition definable by a family over the omega-base?"""
    forest = as_forest(forest)
    depth = max(1, nesting_level(forest))
    if depth > len(omega_base):
        raise SpaceError(
            f"nesting level {depth} exceeds the {len(omega_base)}-level base")
    steps, _, _ = _sweep(a, forest, omega_base[:depth], space)
    return space.full in steps[-1]


def dh_membership(a: KPartition, forest: Forest, base: Base,
                  space: FiniteSpace) -> bool:
    """Is the partition definable by a family of base sets over the flat forest?"""
    steps, _, _ = _sweep(a, as_forest(forest), (base,), space)
    return space.full in steps[-1]


def dh_witness_family(a: KPartition, forest: Forest, base: Base,
                      space: FiniteSpace) -> PFamily | None:
    """A family of base sets over the flat forest defining the partition, if any."""
    forest = as_forest(forest)
    steps, options, folds = _sweep(a, forest, (base,), space)
    if space.full not in steps[-1]:
        return None
    sets: dict = {}

    def assign(f: Forest, steps: list, path: tuple, u: int):
        for i in reversed(range(len(f))):
            u, v = steps[i + 1][u]
            t = f[i]
            b, below = options[t][v]
            sets[(path + (i,),)] = b
            if t.children:
                assign(t.children, folds[t], path + (i,), below)

    assign(forest, steps, (), space.full)
    return PFamily(forest, 1, sets)


# ---------------------------------------------------------------------------
# difference sequences (flat 2-partitions over the alternating chain)


def _ranked_paths(forest: Forest):
    """Paths of a flat forest with their ranks (leaf rank 0)."""
    return [(path, t, rank((t,))) for path, t in paths(forest)]


def family_to_diff_sequence(fam: PFamily) -> tuple:
    """The difference sequence recovering the family's color-1 class.

    The family must live on the rank-alpha alternating chain; the beta-th
    output set collects the node sets of rank at most beta carrying color
    0 when beta's parity matches alpha's, color 1 otherwise.
    """
    if fam.depth != 1:
        raise SpaceError("difference sequences need a flat family")
    nodes = _ranked_paths(fam.forest)
    alpha = max(r for _, _, r in nodes)
    seq = []
    for beta in range(alpha):
        want = 0 if beta % 2 == alpha % 2 else 1
        mask = 0
        for path, t, r in nodes:
            if r <= beta and t.label == want:
                mask |= fam.sets[(path,)]
        seq.append(mask)
    return tuple(seq)


def diff_sequence_to_family(seq, base: Base, space: FiniteSpace) -> PFamily:
    """The canonical-chain family defining the characteristic 2-partition."""
    from .canonical import t_flat

    for s in seq:
        if s not in base:
            raise SpaceError("sequence set is not in the base")
    alpha = len(seq)
    forest = (t_flat(alpha),)
    sets = {
        (path,): space.full if r == alpha else seq[r]
        for path, _, r in _ranked_paths(forest)
    }
    return PFamily(forest, 1, sets)


# ---------------------------------------------------------------------------
# reduction


def reduce_pair(a: int, b: int, base: Base):
    """Disjoint base subsets a2 <= a, b2 <= b with a2 | b2 == a | b, or None.

    The least a2 is chosen.  Every such a2 contains a & ~b, so a & ~b
    itself is the answer whenever it and b lie in the base.
    """
    if a & ~b in base and b in base:
        return a & ~b, b
    union = a | b
    a2 = min((s for s in base if not s & ~a and not union & ~s & ~b
              and union & ~s in base), default=None)
    return None if a2 is None else (a2, union & ~a2)


def has_reduction_property(base: Base) -> bool:
    # (a, b & ~a) is a reduction whenever b & ~a lies in the base
    return all(
        b & ~a in base or reduce_pair(a, b, base) is not None
        for a in base for b in base
    )


def is_reduced(fam: PFamily) -> bool:
    """Each child inside its parent, siblings disjoint (flat families)."""
    if fam.depth != 1:
        raise SpaceError("the reduced predicate is implemented for flat families")
    siblings: dict = {}
    for pfx, mask in fam.sets.items():
        key = _sibling_key(pfx)
        if key in fam.sets and mask & ~fam.sets[key]:
            return False
        if mask & siblings.get(key, 0):
            return False
        siblings[key] = siblings.get(key, 0) | mask
    return True


def reduce_family(fam: PFamily, base: Base, space: FiniteSpace) -> PFamily:
    """An equivalent reduced family: monotonized, then siblings disjointified.

    Monotonization replaces each node's set by the union over its subtree,
    which keeps every new part; then each sibling group, parents' groups
    first, is clipped to its parent's final set and its overlapping pairs
    are replaced by disjoint reductions with the same union.
    """
    if fam.depth != 1:
        raise SpaceError("reduce_family is implemented for flat families")
    if not has_reduction_property(base):
        raise SpaceError("base lacks the reduction property")
    below = _unions_below(fam.sets)
    sets = {pfx: mask | below.get(pfx, 0) for pfx, mask in fam.sets.items()}
    groups: dict = {}
    for pfx in sorted(sets):  # a parent precedes its children's group
        groups.setdefault(_sibling_key(pfx), []).append(pfx)
    for key, group in groups.items():
        if key in sets:
            for p in group:
                sets[p] &= sets[key]
        while overlap := next(((p, q) for p, q in combinations(group, 2)
                               if sets[p] & sets[q]), None):
            p, q = overlap
            sets[p], sets[q] = reduce_pair(sets[p], sets[q], base)
    return PFamily(fam.forest, 1, sets)


# ---------------------------------------------------------------------------
# hierarchy report


def hierarchy_report(space: FiniteSpace, bases, forests, k: int,
                     override_size_guard: bool = False) -> dict:
    """Membership sets, their inclusion order, and the constituents.

    bases is a single base (flat forests) or a sequence of bases (nested).
    Levels are intersections over antichains of forests; the constituent
    of an antichain removes every membership set not above the antichain.
    """
    from .nested import print_term

    check_size_guard(space.n, k, override_size_guard)
    levels = (bases,) if isinstance(bases, frozenset) else bases
    reps = list(dict.fromkeys(normalize(as_forest(f)) for f in forests))
    partitions = list(all_partitions(space.n, k))
    member_sets = []
    for f in reps:
        member_sets.append(frozenset(
            a for a in partitions if fh_membership(a, f, levels, space)))

    idx = range(len(reps))
    below = [[h_leq(reps[i], reps[j]) for j in idx] for i in idx]
    antichains = [
        combo
        for r in range(1, len(reps) + 1)
        for combo in combinations(idx, r)
        if all(
            not below[i][j] and not below[j][i]
            for i, j in combinations(combo, 2)
        )
    ]
    constituents = []
    for combo in antichains:
        level = frozenset.intersection(*(member_sets[i] for i in combo))
        outside = [
            j for j in idx if not any(below[i][j] for i in combo)
        ]
        constituent = level.difference(*(member_sets[j] for j in outside)) \
            if outside else level
        constituents.append((combo, level, constituent))

    terms = [print_term(f) for f in reps]
    return {
        "points": space.n,
        "k": k,
        "forests": terms,
        "levels": [
            {"forest": terms[i], "size": len(member_sets[i]),
             "members": sorted(list(a.labels) for a in member_sets[i])}
            for i in idx
        ],
        "inclusions": [
            [terms[i], terms[j]]
            for i in idx
            for j in idx
            if i != j and member_sets[i] <= member_sets[j]
        ],
        "constituents": [
            {"antichain": [terms[i] for i in combo],
             "level_size": len(level),
             "size": len(constituent),
             "members": sorted(list(a.labels) for a in constituent)}
            for combo, level, constituent in constituents
        ],
    }


def report_to_dot(report: dict) -> str:
    """Hasse diagram of the level inclusions."""
    terms = report["forests"]
    edges = {(a, b) for a, b in report["inclusions"]}
    hasse = [
        (a, b)
        for a, b in edges
        if not any((a, c) in edges and (c, b) in edges
                   for c in terms if c not in (a, b))
    ]
    lines = ["digraph levels {", "  rankdir=BT;"]
    for t in terms:
        lines.append(f'  "{t}";')
    for a, b in hasse:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)
