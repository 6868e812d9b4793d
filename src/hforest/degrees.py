"""Reducibility of k-partitions on one finite space and its degree structure.

On a finite Alexandrov space the continuous self-maps are exactly the
monotone ones, so A reduces to B when A = B o f for some monotone f.  The
degrees are the equivalence classes of mutual reducibility, partially
ordered by reducibility of representatives.  The monotone self-maps form
a monoid M, so B o f o M lies inside B o M: every member of a class has
the same down-set, and it is computed once per class.
"""

from __future__ import annotations

from array import array
from operator import mul
from sys import byteorder

from ._record import Record, set_field
from .nested import LabeledNPreorder, morphism_exists
from .space import (FiniteSpace, KPartition, SpaceError, _points_of,
                    all_partitions, check_size_guard, hasse_dot)


def monotone_maps(x: FiniteSpace, y: FiniteSpace):
    """All order-preserving functions from x to y, as tuples of images.

    The maps grow one point of x at a time.  Point p may go to the points
    of y above the image of each earlier point below p and below the image
    of each earlier point above p: one AND of order rows of y per earlier
    point.  The list comes out in the order of itertools.product.
    """
    check_size_guard(max(x.n, y.n), 2)
    maps = [()]
    for p in range(x.n):
        rows = [(q, y.up) for q in range(p) if x.up[q] >> p & 1]
        rows += [(q, y.down) for q in range(p) if x.up[p] >> q & 1]
        grown = []
        for f in maps:
            allowed = (1 << y.n) - 1
            for q, row in rows:
                allowed &= row[f[q]]
            grown += [f + (v,) for v in _points_of(allowed)]
        maps = grown
    return maps


def wadge_leq(a: KPartition, b: KPartition, space: FiniteSpace,
              target_space: FiniteSpace | None = None) -> bool:
    """Does a = b o f hold for some monotone f?  Same space unless one is given.

    A map monotone for <= is monotone for >=, so this asks morphism_exists
    on the dual orders: points come bottom first, and it assigns last first.
    """
    target = target_space or space
    if a.n != space.n or b.n != target.n:
        raise SpaceError("partition size does not match its space")
    return morphism_exists(LabeledNPreorder(space.n, (space.down,), a.labels),
                           LabeledNPreorder(target.n, (target.down,), b.labels))


class DegreePoset(Record):
    """Equivalence classes of mutual reducibility with the induced order."""

    # classes: tuple[tuple[KPartition, ...], ...]
    # leq[i] = frozenset of class indices j with class i <= class j
    __slots__ = _fields = ("space", "k", "classes", "leq")

    def __init__(self, space: FiniteSpace, k: int, classes: tuple, leq: tuple):
        set_field(self, "space", space)
        set_field(self, "k", k)
        set_field(self, "classes", classes)
        set_field(self, "leq", leq)

    def __len__(self) -> int:
        return len(self.classes)

    def strictly_below(self, i: int, j: int) -> bool:
        return j in self.leq[i] and i not in self.leq[j]

    def minimal(self) -> list:
        return [
            i
            for i in range(len(self.classes))
            if not any(self.strictly_below(j, i) for j in range(len(self.classes)))
        ]

    def maximal(self) -> list:
        return [
            i
            for i in range(len(self.classes))
            if not any(self.strictly_below(i, j) for j in range(len(self.classes)))
        ]


def degree_poset(space: FiniteSpace, k: int) -> DegreePoset:
    """Quotient of all k-partitions by mutual reducibility; k >= 1.

    The partitions are walked in product order, so partition i has index
    i = sum of labels[x] * k ** (n-1-x).  Each partition b not yet placed
    starts a class and computes its down-set b o M once, as the indexes
    sum of b[v] * w_f[v], with one weight vector per monotone map f:
    w_f[v] is the sum of k ** (n-1-x) over the x that f sends to v.  Each
    unplaced a in that down-set that uses the same colors as b, and that b
    reduces to, joins b's class.  Class c lies below class d exactly when
    c's first member lies in d's down-set.

    The weights are packed: column v holds w_f[v] of every map f, one
    array item each, as one int, so sum of b[v] * column v is every index
    of b o M at once.  An index is below k ** n <= 4 ** 5, so it fits its
    item and no sum carries into the next.
    """
    if k < 1:
        raise SpaceError(f"the number of colors must be at least 1, not {k}")
    check_size_guard(space.n, k)
    n = space.n
    maps = monotone_maps(space, space)
    places = [k ** (n - 1 - x) for x in range(n)]
    weights = [array("H", [0]) * len(maps) for _ in range(n)]
    for m, f in enumerate(maps):
        for x, v in enumerate(f):
            weights[v][m] += places[x]
    width = array("H").itemsize * len(maps)  # bytes in a packed int
    columns = [int.from_bytes(w.tobytes(), byteorder) for w in weights]
    partitions = list(all_partitions(n, k))
    placed = [False] * len(partitions)
    firsts, downs, classes = [], [], []
    for i, b in enumerate(partitions):
        if placed[i]:
            continue
        placed[i] = True
        packed = sum(map(mul, b.labels, columns))
        down = set(array("H", packed.to_bytes(width, byteorder)))
        colors = set(b.labels)
        members = [b]
        for j in sorted(down):
            a = partitions[j]
            if (not placed[j] and set(a.labels) == colors
                    and wadge_leq(b, a, space)):
                placed[j] = True
                members.append(a)
        firsts.append(i)
        downs.append(down)
        classes.append(tuple(members))
    leq = tuple(frozenset(d for d, down in enumerate(downs) if i in down)
                for i in firsts)
    return DegreePoset(space, k, tuple(classes), leq)


def degrees_to_json(poset: DegreePoset) -> dict:
    return {
        "points": poset.space.n,
        "k": poset.k,
        "degrees": [
            {
                "representative": list(members[0].labels),
                "size": len(members),
                "members": [list(a.labels) for a in members],
            }
            for members in poset.classes
        ],
        "leq": [sorted(s) for s in poset.leq],
    }


def degrees_to_dot(poset: DegreePoset) -> str:
    """Hasse diagram of the degree order."""
    above = [sum(1 << j for j in up if i not in poset.leq[j])
             for i, up in enumerate(poset.leq)]
    nodes = []
    for i, members in enumerate(poset.classes):
        label = "".join(map(str, members[0].labels))
        nodes.append(f'd{i} [label="{label} (x{len(members)})"]')
    return hasse_dot("degrees", nodes, [f"d{i}" for i in range(len(nodes))], above)
