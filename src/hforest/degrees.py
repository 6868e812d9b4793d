"""Reducibility of k-partitions on one finite space and its degree structure.

On a finite Alexandrov space the continuous self-maps are exactly the
monotone ones, so A reduces to B when A = B o f for some monotone f.  The
degrees are the equivalence classes of mutual reducibility, partially
ordered by reducibility of representatives.
"""

from __future__ import annotations

from itertools import product

from ._record import Record, set_field
from .nested import LabeledNPreorder, morphism_exists
from .space import (FiniteSpace, KPartition, SpaceError, all_partitions,
                    check_size_guard, hasse_edges)


def monotone_maps(x: FiniteSpace, y: FiniteSpace):
    """All order-preserving functions from x to y, as tuples of images."""
    check_size_guard(max(x.n, y.n), 2)
    pairs = [(i, j) for i in range(x.n) for j in range(x.n) if i != j and x.leq(i, j)]
    return [images for images in product(range(y.n), repeat=x.n)
            if all(y.up[images[i]] >> images[j] & 1 for i, j in pairs)]


def wadge_leq(a: KPartition, b: KPartition, space: FiniteSpace,
              target_space: FiniteSpace | None = None) -> bool:
    """Does a = b o f hold for some monotone f?  Same space unless one is given."""
    target = target_space or space
    if a.n != space.n or b.n != target.n:
        raise SpaceError("partition size does not match its space")
    return morphism_exists(LabeledNPreorder(space.n, (space.up,), a.labels),
                           LabeledNPreorder(target.n, (target.up,), b.labels))


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

    Row i is the bitmask of the partitions j with partition i = partition
    j o f for some monotone f: the up-set of i.  Two partitions are
    mutually reducible exactly when their rows are equal.
    """
    if k < 1:
        raise SpaceError(f"the number of colors must be at least 1, not {k}")
    check_size_guard(space.n, k)
    partitions = list(all_partitions(space.n, k))
    maps = monotone_maps(space, space)
    index = {a.labels: i for i, a in enumerate(partitions)}
    rows = [0] * len(partitions)
    for j, b in enumerate(partitions):
        bit = 1 << j
        for i in {index[tuple(b.labels[x] for x in f)] for f in maps}:
            rows[i] |= bit
    classes: dict = {}  # row -> members, in order of first member
    for row, a in zip(rows, partitions):
        classes.setdefault(row, []).append(a)
    firsts = [index[members[0].labels] for members in classes.values()]
    leq = tuple(frozenset(c for c, j in enumerate(firsts) if row >> j & 1)
                for row in classes)
    return DegreePoset(space, k, tuple(map(tuple, classes.values())), leq)


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
    lines = ["digraph degrees {", "  rankdir=BT;"]
    for i, members in enumerate(poset.classes):
        label = "".join(map(str, members[0].labels))
        lines.append(f'  d{i} [label="{label} (x{len(members)})"];')
    for i, j in hasse_edges(above):
        lines.append(f"  d{i} -> d{j};")
    lines.append("}")
    return "\n".join(lines)
