"""Reference answers the benchmark checks the library against.

These are written from the definitions, over the generator's structures
(see gen.py), and share no code with the library's fast paths.  They run
after the timed phase only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from gen import level, upsets


def from_lib(f) -> tuple:
    """A library forest (tuple of Tree) as a generator forest."""
    return tuple((t.label if isinstance(t.label, int) else from_lib(t.label),
                  from_lib(t.children)) for t in f)


# ---------------------------------------------------------------------------
# the h-preorder, from its definition: a tree s is below t when s embeds with
# its root at some node of t, labels compared by the same order one level down


def leq(f, g) -> bool:
    return all(any(_tree_leq(s, t) for t in g) for s in f)


def equiv(f, g) -> bool:
    return leq(f, g) and leq(g, f)


def subtrees(f):
    """The tree at every node of f (labels are not entered)."""
    for t in f:
        yield t
        yield from subtrees(t[1])


@lru_cache(maxsize=1 << 18)
def _tree_leq(s, t) -> bool:
    if _label_leq(s[0], t[0]) and all(_tree_leq(c, t) for c in s[1]):
        return True
    return any(_tree_leq(s, c) for c in t[1])


def _label_leq(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    lift = lambda x: ((x, ()),) if isinstance(x, int) else x
    return leq(lift(a), lift(b))


# ---------------------------------------------------------------------------
# hierarchy membership, from the definition of a family defining a partition:
# the sets cover the space and each node's new part (its set minus the sets
# below it) lies in its color's class; nested labels must realize that new
# part one base level deeper


def member(labels, forest, bases) -> bool:
    """Is the partition `labels` defined by base sets on the forest's nodes?

    bases is the list of base levels, one level for the flat hierarchy.
    """
    return _feasible(tuple(labels), forest, tuple(tuple(sorted(b)) for b in bases),
                     max(1, level(forest)), 0, (1 << len(labels)) - 1)


@lru_cache(maxsize=1 << 16)
def _feasible(labels, forest, bases, depth, lvl, target) -> bool:
    """Can sets of base level `lvl` inside `target` go on the forest's nodes so
    that they cover `target` and every node's new part is realized?"""
    choices = [b for b in bases[lvl] if b & ~target == 0]

    def class_mask(c):
        return sum(1 << i for i, x in enumerate(labels) if x == c)

    def node_ok(label, part):
        if lvl + 1 == depth:
            return isinstance(label, int) and part & ~class_mask(label) == 0
        inner = ((label, ()),) if isinstance(label, int) else label
        return _feasible(labels, inner, bases, depth, lvl + 1, part)

    def unions(t):
        label, kids = t
        out = set()
        for combo in product(*(unions(c) for c in kids)):
            below = 0
            for u in combo:
                below |= u
            for b in choices:
                if node_ok(label, b & ~below):
                    out.add(b | below)
        return out

    reach = {0}
    for t in forest:
        reach = {u | v for u in reach for v in unions(t)}
    return target in reach


def has_reduction(base) -> bool:
    """Every pair a, b has disjoint base subsets a' of a, b' of b covering a | b."""
    base = set(base)
    return all(
        any(a2 & ~a == 0 and ((a | b) & ~a2) in base and ((a | b) & ~a2) & ~b == 0
            for a2 in base)
        for a in base for b in base)


def is_reduced(sets: dict) -> bool:
    """Flat family: sets shrink going down, incomparable nodes are disjoint."""
    items = [(pfx[0], m) for pfx, m in sets.items()]
    for i, (p, mp) in enumerate(items):
        for q, mq in items[i + 1:]:
            if q[:len(p)] == p:
                if mq & ~mp:
                    return False
            elif p[:len(q)] == q:
                if mp & ~mq:
                    return False
            elif mp & mq:
                return False
    return True


# ---------------------------------------------------------------------------
# degrees: a reduces to b when a = b o f for a monotone f


def monotone_maps(up):
    n = len(up)
    return [f for f in product(range(n), repeat=n)
            if all(up[f[i]] >> f[j] & 1
                   for i in range(n) for j in range(n) if up[i] >> j & 1)]


@lru_cache(maxsize=64)
def degrees(up, k):
    """(classes as a set of frozensets of label tuples, strict order as pairs)."""
    n = len(up)
    parts = list(product(range(k), repeat=n))
    below = {a: set() for a in parts}  # below[a]: the b that a reduces to
    for f in monotone_maps(up):
        for b in parts:
            below[tuple(b[f[i]] for i in range(n))].add(b)
    cls = {a: frozenset(b for b in below[a] if a in below[b]) for a in parts}
    classes = frozenset(cls.values())
    order = frozenset((cls[a], cls[b]) for a in parts for b in below[a])
    return classes, order


@lru_cache(maxsize=256)
def upset_masks(up) -> frozenset:
    return frozenset(upsets(up))
