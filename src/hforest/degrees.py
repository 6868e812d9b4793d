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
from .space import FiniteSpace, KPartition, SpaceError, all_partitions, check_size_guard


def monotone_maps(x: FiniteSpace, y: FiniteSpace, override_size_guard: bool = False):
    """All order-preserving functions from x to y, as tuples of images."""
    check_size_guard(max(x.n, y.n), 2, override_size_guard)
    out = []
    for images in product(range(y.n), repeat=x.n):
        if all(
            y.leq(images[i], images[j])
            for i in range(x.n)
            for j in range(x.n)
            if x.leq(i, j)
        ):
            out.append(images)
    return out


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


def degree_poset(space: FiniteSpace, k: int,
                 override_size_guard: bool = False) -> DegreePoset:
    """Quotient of all k-partitions by mutual reducibility; k >= 1."""
    if k < 1:
        raise SpaceError(f"the number of colors must be at least 1, not {k}")
    check_size_guard(space.n, k, override_size_guard)
    partitions = list(all_partitions(space.n, k))
    maps = monotone_maps(space, space, override_size_guard=True)
    index = {a.labels: i for i, a in enumerate(partitions)}
    # red[i][j]: partition i is partition j o f for some monotone f
    red = [[False] * len(partitions) for _ in partitions]
    for j, b in enumerate(partitions):
        for f in maps:
            red[index[tuple(b.labels[x] for x in f)]][j] = True
    classes: list[list] = []
    for i, a in enumerate(partitions):
        for members in classes:
            j = index[members[0].labels]
            if red[i][j] and red[j][i]:
                members.append(a)
                break
        else:
            classes.append([a])
    leq = []
    for members in classes:
        i = index[members[0].labels]
        leq.append(
            frozenset(
                c
                for c, other in enumerate(classes)
                if red[i][index[other[0].labels]]
            )
        )
    return DegreePoset(space, k, tuple(tuple(c) for c in classes), tuple(leq))


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
    n = len(poset.classes)
    strict = {
        (i, j)
        for i in range(n)
        for j in poset.leq[i]
        if i != j and i not in poset.leq[j]
    }
    hasse = [
        (i, j)
        for i, j in strict
        if not any((i, c) in strict and (c, j) in strict for c in range(n))
    ]
    lines = ["digraph degrees {", "  rankdir=BT;"]
    for i, members in enumerate(poset.classes):
        label = "".join(map(str, members[0].labels))
        lines.append(f'  d{i} [label="{label} (x{len(members)})"];')
    for i, j in hasse:
        lines.append(f"  d{i} -> d{j};")
    lines.append("}")
    return "\n".join(lines)
