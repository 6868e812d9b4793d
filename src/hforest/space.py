"""Finite T0 spaces, bases, and difference/fine hierarchies of k-partitions.

A finite T0 space is a finite poset carrying the topology whose opens are
the up-sets; continuous maps are exactly the monotone ones.  Subsets are
int bitmasks.  A base is a family of subsets closed under union and
intersection that contains the empty set; an omega-base is a sequence of
bases, each containing the previous one and its complements.  On a finite
space a base is fixed by each point's least open, the meet of its sets
holding the point (_least_opens): the base is the unions of the least
opens, and it has the reduction property exactly when any two of them
are disjoint or nested.

A k-partition is defined by a family of base sets indexed by the nodes of
a forest (flat case) or by tuples of nodes walking through nested labels
(fine-hierarchy case): the "new part" of a node's set is what remains
after subtracting the sets of all strictly smaller nodes, and the colors
of the nodes whose new parts contain a point determine its class.
"""

from __future__ import annotations

from itertools import combinations, product

from ._record import Record, set_field
from .forest import (
    Forest,
    as_forest,
    h_leq,
    lift,
    node_ranks,
    normalize,
    paths,
    postorder,
    validate_forest,
)
from .errors import SpaceError
from .nested import nesting_level, print_term

POINT_LIMIT = 5
COLOR_LIMIT = 4
MAX_BASE_SETS = 1 << 12
# Most points from_pairs builds a space on, as closing one is super-quadratic
# in them: chain_space(512) takes about 17 ms on a 2-CPU x86-64 host under
# CPython 3.11.  chain_space(400) is the largest space in tests/ and benchmarks/.
MAX_SPACE_POINTS = 512


# ---------------------------------------------------------------------------
# spaces


class FiniteSpace(Record):
    """Finite poset; up[i] is the bitmask of points j with i <= j."""

    _fields = ("n", "up")
    __slots__ = _fields + ("_down",)

    def __init__(self, n: int, up: tuple):
        if len(up) != _point_count(n):
            raise SpaceError(f"{len(up)} order rows for {n} points")
        if any(row >> n for row in up):
            raise SpaceError("an order row names points outside the space")
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise SpaceError("order must be reflexive")
            rest = row ^ (1 << i)
            while rest:  # the points j strictly above i, ascending
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if up[j] >> i & 1:
                    raise SpaceError(f"points {i} and {j} violate antisymmetry")
                if up[j] & ~row:
                    raise SpaceError("order must be transitive")
        set_field(self, "n", n)
        set_field(self, "up", up)

    @staticmethod
    def from_pairs(n: int, pairs) -> "FiniteSpace":
        """Build from i <= j pairs, closed reflexively and transitively.  The
        count (at most MAX_SPACE_POINTS) and the points must be plain ints.

        Closed rows are reflexive and transitive by construction, so only
        antisymmetry is left to check: points on a cycle share one closed
        row, and the order is antisymmetric when the n rows are distinct."""
        up = [1 << i for i in range(_point_count(n))]
        try:
            for i, j in pairs:
                if i.__class__ is not int or j.__class__ is not int:
                    raise TypeError  # a bool or a float is no point number
                if not (0 <= i < n and 0 <= j < n):
                    raise SpaceError(f"pair ({i}, {j}) out of range")
                up[i] |= 1 << j
        except SpaceError:
            raise
        except (TypeError, ValueError):  # not pairs of ints
            raise SpaceError("the order must be a list of point pairs") from None
        for j in range(n):  # Warshall: every row that holds j takes row j
            bit, row = 1 << j, up[j]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        up = tuple(up)
        if len(set(up)) < n:  # the constructor names the first pair on a cycle
            return FiniteSpace(n, up)
        space = object.__new__(FiniteSpace)
        set_field(space, "n", n)
        set_field(space, "up", up)
        return space

    @staticmethod
    def from_json(data) -> "FiniteSpace":
        if not isinstance(data, dict) or "points" not in data:
            raise SpaceError("space JSON must have 'points' and 'le'")
        return FiniteSpace.from_pairs(data["points"], data.get("le", []))

    def to_json(self) -> dict:
        pairs = [[i, j] for i, row in enumerate(self.up)
                 for j in _points_of(row) if i != j]
        return {"points": self.n, "le": pairs}

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    @property
    def down(self) -> tuple:
        """down[j] is the bitmask of points i with i <= j, the dual order's
        rows: made on first use and kept in a slot that is not a field."""
        try:
            return self._down
        except AttributeError:
            down = [0] * self.n
            for i, row in enumerate(self.up):
                while row:  # each j above i gets i, highest first
                    j = row.bit_length() - 1
                    row ^= 1 << j
                    down[j] |= 1 << i
            set_field(self, "_down", tuple(down))
            return self._down

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_upset(self, mask: int) -> bool:
        return all(
            self.up[i] & ~mask == 0 for i in range(self.n) if mask & (1 << i)
        )


def chain_space(n: int) -> FiniteSpace:
    """The n-point chain 0 < 1 < ... < n-1."""
    n = _point_count(n)  # before the n - 1 pairs are built
    return FiniteSpace.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def antichain_space(n: int) -> FiniteSpace:
    return FiniteSpace.from_pairs(n, [])


def diamond_space() -> FiniteSpace:
    """Two bottoms (0, 1) below two tops (2, 3)."""
    return FiniteSpace.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def _point_count(n) -> int:
    """n, if it is a plain int from 0 to MAX_SPACE_POINTS."""
    if n.__class__ is not int or n < 0:
        raise SpaceError("the point count must be a non-negative integer")
    if n > MAX_SPACE_POINTS:
        raise SpaceError(f"the space has more than {MAX_SPACE_POINTS} points")
    return n


def check_size_guard(n_points: int, k: int) -> None:
    """Refuse a job that enumerates k ** n_points partitions past the
    limits, or that has no color to give a point."""
    if k < 1:
        raise _no_colors(k)
    if n_points > POINT_LIMIT or k > COLOR_LIMIT:
        raise SpaceError(
            f"{n_points} points / {k} colors exceeds the limit "
            f"({POINT_LIMIT} points, {COLOR_LIMIT} colors)")


def _no_colors(k) -> SpaceError:
    return SpaceError(f"the number of colors must be at least 1, not {k}")


# ---------------------------------------------------------------------------
# bases


Base = frozenset  # frozenset[int]


def close_base(seed, n_points: int) -> Base:
    """Least family containing seed closed under union and intersection, with 0.

    Set lattices are distributive, so the closure is the unions of the
    intersections of seed sets.  Each such intersection is the union of
    the least opens of its points (_least_opens), so the closure is the
    unions of the least opens, and its cost follows the size of the result.
    """
    return _unions(_least_opens(seed, n_points))


def _least_opens(sets, n_points: int) -> dict:
    """Each least open in the closure of the sets -> its class, the points
    it is least for: a point's least open is the meet of the sets holding it."""
    opens: dict = {}
    for s in sets:
        if s >> n_points:
            raise SpaceError(f"set {s:b} has points outside the space")
        for p in _points_of(s):
            opens[p] = opens.get(p, s) & s
    classes: dict = {}
    for p, o in opens.items():
        classes[o] = classes.get(o, 0) | 1 << p
    return classes


def _unions(sets) -> Base:
    """Every union of some of the sets, 0 included, grown one set at a
    time: each step keeps every union found and adds each joined with the
    new set.  A step's unions are among the result's, so a result past
    MAX_BASE_SETS is refused as soon as a step exceeds it."""
    joins = {0}
    for s in sets:
        joins |= {s | j for j in joins}
        if len(joins) > MAX_BASE_SETS:
            raise SpaceError(f"the closed base exceeds {MAX_BASE_SETS} sets")
    return frozenset(joins)


def validate_base(family, n_points: int) -> Base:
    base = frozenset(family)
    if close_base(base, n_points) != base:
        raise SpaceError("family is not closed under union/intersection")
    return base


def up_sets(space: FiniteSpace) -> Base:
    """The Alexandrov opens: every union of the points' up-sets.

    An up-set is the union of the up-sets of its points, so the opens are
    the union closure of the rows of space.up, grown as close_base grows
    its unions; the cost follows the number of opens, not 2^n.
    """
    return _unions(space.up)


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
    if not isinstance(points, list):
        raise SpaceError("base JSON must be a list of point lists")
    mask = 0
    for p in points:
        if p.__class__ is not int:
            raise SpaceError("base points must be point numbers")
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


class KPartition(Record):
    """Total coloring of the points by 0..k-1."""

    __slots__ = _fields = ("labels", "k")

    def __init__(self, labels: tuple, k: int):
        if k < 1:
            raise _no_colors(k)
        if not all(c.__class__ is int and 0 <= c < k for c in labels):
            raise SpaceError("partition label out of range")
        set_field(self, "labels", labels)
        set_field(self, "k", k)

    @property
    def n(self) -> int:
        return len(self.labels)

    def mask(self, color: int) -> int:
        return _classes(self, self.n).get(color, 0)

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


class PFamily(Record):
    """A set for every prefix of a forest; mutable, so unhashable."""

    __slots__ = _fields = ("forest", "depth", "sets")  # sets: prefix -> mask
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, forest: Forest, depth: int, sets: dict):
        self.forest = as_forest(forest)
        self.depth = depth
        self.sets = sets
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
            if level + 1 == depth:  # the nesting check leaves only colors here
                yield pfx, level, t.label
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
    for s in fam.sets.values():
        if s >> space.n:
            raise SpaceError(f"set {s:b} has points outside the space")
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
# One greedy pass decides each level (_greatest).  Children first, each
# node takes the union of the base sets inside (below | allowed) & target,
# where below is its children's union and allowed the points its new part
# may hold; as a base is closed under union, that is a base set holding
# below.  By induction any other family's set at a node lies inside this
# one's, so the target is reachable exactly when it is this union.  The
# deepest level allows a node its color's class.  Above it, call the
# points that share one least open at a level a cell of that level:
# - A level's sets are unions of least opens: a new part is a union of cells.
# - Each cell must be a set of the next level, and fh_membership refuses a
#   cell that is not.  For closed levels that holds exactly when the next
#   level holds this one and its complements (an omega-base): a cell is an
#   open minus the smaller opens.
# - So a label covers a new part exactly when it covers each cell in it.
# - A cell of the next level lies inside a cell of this one or misses it,
#   so what a label covers one level down does not depend on the target
#   it is read in.  fh_membership decides the levels deepest first, each
#   label once per level, and a node is allowed the cells its label covers.


def _classes(a: KPartition, n_points: int) -> dict:
    """Color -> class mask, for the colors that occur (k may be huge), of
    a partition of the n_points points of a space."""
    if len(a.labels) != n_points:
        raise SpaceError("partition size does not match the space")
    classes: dict = {}
    for i, c in enumerate(a.labels):
        classes[c] = classes.get(c, 0) | 1 << i
    return classes


def _greatest(forest: Forest, target: int, allowed: dict, base: Base) -> tuple:
    """The greatest family inside target whose new parts lie in allowed,
    by label: each distinct tree's set, and the union of the sets."""
    sets, top = {}, 0
    for t in postorder(forest):
        x = allowed.get(t.label)
        if x is None:
            if not isinstance(t.label, int):
                raise SpaceError("non-color label at the deepest level")
            x = 0
        for c in t.children:
            x |= sets[c]
        x &= target
        if x not in base:  # take the union of the base sets inside x
            inside = 0
            for b in base:
                if b | x == x:
                    inside |= b
            if inside not in base:
                raise SpaceError("the base is not closed under union")
            x = inside
        sets[t] = x
        top |= x
    return sets, top


def fh_membership(a: KPartition, forest: Forest, omega_base,
                  space: FiniteSpace) -> bool:
    """Is the partition definable by a family over the omega-base?

    The levels must be closed, and each must hold the last and its
    complements; a cell of one level that is not a set of the next is
    refused.  Each level is one greedy pass, deepest first: a label covers
    the cells of its level whose greatest family one level down is the cell.
    """
    allowed = _classes(a, space.n)
    forest = as_forest(forest)
    depth = max(1, nesting_level(forest))
    if depth > len(omega_base):
        raise SpaceError(
            f"nesting level {depth} exceeds the {len(omega_base)}-level base")
    if depth > 1:  # a flat call builds no layers and no least opens
        layers, trees = [], forest  # per inner level: each label -> its forest
        for _ in range(depth - 1):
            labels: dict = {}
            for t in postorder(trees):
                labels[t.label] = lift(t.label)
            layers.append(labels)
            trees = sum(labels.values(), ())
        for level in range(depth - 2, -1, -1):
            next_level = omega_base[level + 1]
            cells = _least_opens(omega_base[level], space.n).values()
            for cell in cells:
                if cell not in next_level:
                    raise SpaceError("omega-base level must contain the previous "
                                     "level and its complements")
            covers: dict = {}
            for label, lifted in layers[level].items():
                covers[label] = 0
                for cell in cells:
                    if _greatest(lifted, cell, allowed, next_level)[1] == cell:
                        covers[label] |= cell
            allowed = covers
    full = space.full
    return _greatest(forest, full, allowed, omega_base[0])[1] == full


def dh_membership(a: KPartition, forest: Forest, base: Base,
                  space: FiniteSpace) -> bool:
    """Is the partition definable by a family of base sets over the flat forest?"""
    _, top = _greatest(as_forest(forest), space.full, _classes(a, space.n), base)
    return top == space.full


def dh_witness_family(a: KPartition, forest: Forest, base: Base,
                      space: FiniteSpace) -> PFamily | None:
    """The greatest family over the flat forest, if it defines the partition."""
    forest = as_forest(forest)
    sets, top = _greatest(forest, space.full, _classes(a, space.n), base)
    if top != space.full:
        return None
    return PFamily(forest, 1, {(path,): sets[t] for path, t in paths(forest)})


# ---------------------------------------------------------------------------
# difference sequences (flat 2-partitions over the alternating chain)


def _ranked_paths(forest: Forest):
    """Paths of a flat forest with their ranks (leaf rank 0)."""
    ranks = node_ranks(forest)
    return [(path, t, ranks[t]) for path, t in paths(forest)]


def family_to_diff_sequence(fam: PFamily) -> tuple:
    """The difference sequence recovering the family's color-1 class.

    The family must live on the rank-alpha alternating chain; the beta-th
    output set collects the node sets of rank at most beta carrying color
    0 when beta's parity matches alpha's, color 1 otherwise.
    """
    if fam.depth != 1:
        raise SpaceError("difference sequences need a flat family")
    if not fam.forest:
        raise SpaceError("difference sequences need a non-empty forest")
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
    """Does every pair of sets of the closed base have a reduction?

    The base must be closed (every caller passes one), so each point p of
    its sets has a least open O_p in it, and the answer is whether any two
    least opens are disjoint or nested:
    - If O_p and O_q overlap and neither holds the other, then p is not in
      O_q and q is not in O_p, so a reduction of (O_p, O_q) keeps p on the
      first side and q on the second, and with them their least opens:
      it would put the overlap on both sides.
    - Otherwise, for any a and b, let a2 be the union of the least opens of
      the points of a - b, a base set inside a.  The rest of a | b lies in
      b, and for each point q of it O_q misses a2: were O_q to meet some
      O_p of a2, one would hold the other, and O_p inside O_q (inside b)
      puts p in b, while O_q inside O_p puts q in a2.  So the rest is the
      union of its points' least opens, a base set, and (a2, rest) is a
      reduction of (a, b).
    """
    opens = _least_opens(base, max(base, default=0).bit_length())
    return all(x & y in (0, x, y) for x, y in combinations(opens, 2))


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
        for p, q in combinations(group, 2):  # a reduced pair only shrinks
            if sets[p] & sets[q]:
                pair = reduce_pair(sets[p], sets[q], base)
                if pair is None:  # has_reduction_property reads a closed base
                    raise SpaceError("the base is not closed under union/intersection")
                sets[p], sets[q] = pair
    return PFamily(fam.forest, 1, sets)


# ---------------------------------------------------------------------------
# hierarchy report


def hierarchy_report(space: FiniteSpace, bases, forests, k: int) -> dict:
    """Membership sets, their inclusion order, and the constituents.

    bases is a single base (flat forests) or a sequence of bases (nested).
    Levels are intersections over antichains of forests; the constituent
    of an antichain removes every membership set not above the antichain.
    Forests with more than MAX_BASE_SETS antichains raise SpaceError, and
    a color past k ForestError, before the size guard.
    """
    forests = [as_forest(f) for f in forests]
    for f in forests:
        validate_forest(f, k)
    check_size_guard(space.n, k)
    levels = (bases,) if isinstance(bases, frozenset) else bases
    reps = list(dict.fromkeys(normalize(f) for f in forests))
    idx = range(len(reps))
    below = [[h_leq(reps[i], reps[j]) for j in idx] for i in idx]
    # Antichains by size, then lexicographically: each one of size r + 1
    # extends one of size r by a higher index apart from all its members.
    antichains = []
    grown = [(i,) for i in idx]
    while grown:
        antichains.extend(grown)
        if len(antichains) > MAX_BASE_SETS:
            raise SpaceError(
                f"the forests form more than {MAX_BASE_SETS} antichains")
        grown = [combo + (j,) for combo in grown
                 for j in range(combo[-1] + 1, len(reps))
                 if not any(below[i][j] or below[j][i] for i in combo)]
    partitions = list(all_partitions(space.n, k))
    member_sets = [  # of label tuples, which hash faster than partitions
        frozenset(a.labels for a in partitions if fh_membership(a, f, levels, space))
        for f in reps]

    constituents = []
    for combo in antichains:
        level = frozenset.intersection(*(member_sets[i] for i in combo))
        outside = [j for j in idx if not any(below[i][j] for i in combo)]
        constituent = level.difference(*(member_sets[j] for j in outside))
        constituents.append((combo, level, constituent))

    terms = [print_term(f) for f in reps]
    return {
        "points": space.n,
        "k": k,
        "forests": terms,
        "levels": [
            {"forest": terms[i], "size": len(member_sets[i]),
             "members": sorted(map(list, member_sets[i]))}
            for i in idx
        ],
        "inclusions": [[terms[i], terms[j]] for i in idx for j in idx
                       if i != j and member_sets[i] <= member_sets[j]],
        "constituents": [
            {"antichain": [terms[i] for i in combo],
             "level_size": len(level),
             "size": len(constituent),
             "members": sorted(map(list, constituent))}
            for combo, level, constituent in constituents
        ],
    }


def report_to_dot(report: dict) -> str:
    """Hasse diagram of the level inclusions."""
    terms = report["forests"]
    index = {t: i for i, t in enumerate(terms)}
    above = [0] * len(terms)
    for a, b in report["inclusions"]:
        above[index[a]] |= 1 << index[b]
    ids = [f'"{t}"' for t in terms]
    return hasse_dot("levels", ids, ids, above)


def hasse_dot(name: str, nodes, ids, above: list) -> str:
    """DOT text drawn bottom up: the node statements, then the covers of above."""
    edges = [f"{ids[i]} -> {ids[j]}" for i, j in hasse_edges(above)]
    return "\n".join([f"digraph {name} {{", "  rankdir=BT;",
                      *(f"  {line};" for line in (*nodes, *edges)), "}"])


def hasse_edges(above: list) -> list:
    """The covers of a relation on range(len(above)), in ascending order.

    above[i] is the bitmask of the j != i related above i; (i, j) covers
    when no third point c has i below c and c below j.
    """
    return [(i, j) for i, up in enumerate(above) for j in _points_of(up)
            if not any(above[c] >> j & 1 for c in _points_of(up & ~(1 << j)))]
