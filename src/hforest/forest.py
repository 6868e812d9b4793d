"""Finite labeled forests and trees with the h-preorder.

A forest is a tuple of trees; the empty tuple is the bottom element.
A tree has a label and a forest of children; the root of a tree is its
biggest element.  Labels are either colors (small non-negative ints) or,
in the iterated case, forests one level down.

F <= G in the h-preorder iff there is a monotone map from F to G whose
labels satisfy the label order pointwise: colors must coincide, nested
labels are compared recursively.
"""

from __future__ import annotations

import json
import weakref
from functools import lru_cache

from .errors import ForestError


class Tree:
    """Immutable labeled tree, hash-consed: equal trees are one object.

    ``Tree(label, children)`` returns the live node with that label and
    those children when there is one, so structural equality is identity
    and ``==`` is the default identity test.  The hash is the structural
    one, computed once.  A node also stores its normal form and its sort
    key once they are first asked for; both die with the node.

    Construction is single-threaded by contract: two threads building
    equal trees at the same moment could get two objects, and identity
    equality would then be wrong.
    """

    __slots__ = ("label", "children", "_hash", "_norm", "_key", "__weakref__")

    def __new__(cls, label: "Label", children: "Forest" = ()):
        if label.__class__ is not int and label.__class__ is not tuple:
            if isinstance(label, list):
                label = tuple(label)
            if isinstance(label, bool) or not isinstance(label, (int, tuple)):
                raise ForestError(f"bad label {label!r}")
        key = (label, tuple(children))
        ref = _REFS.get(key)
        if ref is not None and (t := ref()) is not None:
            return t
        t = object.__new__(cls)
        set_slot = object.__setattr__
        set_slot(t, "label", label)
        set_slot(t, "children", key[1])
        set_slot(t, "_hash", hash(key))
        set_slot(t, "_norm", None)
        set_slot(t, "_key", None)
        _INTERNED[key] = t
        return t

    def __setattr__(self, *args):
        raise AttributeError("Tree is immutable")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Tree, (self.label, self.children)

    def __repr__(self):
        if not self.children:
            return f"Tree({self.label!r})"
        return f"Tree({self.label!r}, {self.children!r})"


# (label, children) -> the live Tree with them; an entry leaves with its tree.
_INTERNED: "weakref.WeakValueDictionary[tuple, Tree]" = weakref.WeakValueDictionary()
# A hit reads the table's own dict of KeyedRefs: one lookup, one weakref call.
_REFS = _INTERNED.data

Forest = tuple  # tuple[Tree, ...]
Label = int | Forest

EMPTY: Forest = ()


def singleton(label: Label) -> Forest:
    """The forest consisting of one labeled point (the paper's s)."""
    return (Tree(label),)


def as_forest(x) -> Forest:
    if isinstance(x, Tree):
        return (x,)
    return tuple(x)


def lift(label: Label) -> Forest:
    """A label as a forest: a color c is identified with the singleton c."""
    return singleton(label) if isinstance(label, int) else label


def as_label(f: Forest) -> Label:
    """A forest as a label: a singleton bare-color forest is that color."""
    if len(f) == 1 and isinstance(f[0].label, int) and not f[0].children:
        return f[0].label
    return f


def paths(f: Forest, prefix=()):
    """Every node as (path, tree), parents first; a path is child indices."""
    for i, t in enumerate(as_forest(f)):
        path = prefix + (i,)
        yield path, t
        yield from paths(t.children, path)


def wrap(label: Label, forest: Forest) -> Tree:
    """Adjoin a new biggest element carrying the label (p_i / the * operation)."""
    return Tree(label, as_forest(forest))


def join(*forests: Forest) -> Forest:
    """Disjoint union of forests."""
    out: list[Tree] = []
    for f in forests:
        out.extend(as_forest(f))
    return tuple(out)


def node_count(f: Forest) -> int:
    """Number of nodes, counting nodes inside nested labels."""
    return sum(_label_size(t.label) + node_count(t.children) for t in as_forest(f))


def _label_size(label: Label) -> int:
    return 1 if isinstance(label, int) else node_count(label)


def max_color(f: Forest) -> int:
    """Largest color occurring anywhere (-1 for the empty forest)."""
    best = -1
    for t in as_forest(f):
        c = t.label if isinstance(t.label, int) else max_color(t.label)
        best = max(best, c, max_color(t.children))
    return best


def validate_forest(f: Forest, k: int) -> None:
    """Check every color is < k."""
    if max_color(f) >= k:
        raise ForestError(f"color {max_color(f)} out of range for k={k}")


def rank(f: Forest) -> int:
    """Length of the longest root chain; undefined on the empty forest."""
    f = as_forest(f)
    if not f:
        raise ForestError("rank of the empty forest is undefined")
    return max(1 + rank(t.children) if t.children else 0 for t in f)


# ---------------------------------------------------------------------------
# h-preorder


def label_leq(a: Label, b: Label) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return h_leq(lift(a), lift(b))


def label_equiv(a: Label, b: Label) -> bool:
    return label_leq(a, b) and label_leq(b, a)


def h_leq(f: Forest, g: Forest) -> bool:
    """True iff a monotone label-respecting map from f into g exists."""
    f, g = as_forest(f), as_forest(g)
    return all(any(tree_leq(s, t) for t in g) for s in f)


def h_equiv(f: Forest, g: Forest) -> bool:
    return h_leq(f, g) and h_leq(g, f)


@lru_cache(maxsize=None)
def tree_leq(s: Tree, t: Tree) -> bool:
    """s <= t for trees: s embeds with its root at some node of t."""
    if label_leq(s.label, t.label) and all(tree_leq(c, t) for c in s.children):
        return True
    return any(tree_leq(s, c) for c in t.children)


# ---------------------------------------------------------------------------
# canonical form


def sort_key(t: Tree):
    """Structural sort key, computed once per node."""
    key = t._key
    if key is None:
        if isinstance(t.label, int):
            lk = (0, t.label)
        else:
            lk = (1, tuple(sorted(sort_key(c) for c in t.label)))
        key = (lk, tuple(sorted(sort_key(c) for c in t.children)))
        object.__setattr__(t, "_key", key)
    return key


def normalize_label(label: Label) -> Label:
    """Canonical label: singleton color forests collapse to the color itself."""
    return label if isinstance(label, int) else as_label(normalize(label))


def normalize(f: Forest) -> Forest:
    """The canonical representative of the h-equivalence class of f.

    Labels are normalized first and children before their parent.  Then
    two rules contract a node with a neighbour it maps onto:

    (a) a child whose label is label_leq its parent's is spliced: its
        children become the parent's;
    (b) a node left with exactly one child, whose label dominates the
        node's own, is replaced by that child.

    Components strictly below a sibling are dropped, duplicates merged and
    the rest sorted by a structural key.  Two forests are h-equivalent
    exactly when their normal forms are equal (``==``), at every nesting
    level.  Idempotent.
    """
    return _dedupe([_normalize_tree(t) for t in as_forest(f)])


def _dedupe(trees: list[Tree]) -> Forest:
    """The maximal trees among normal trees, each once, sorted.

    Equivalent normal trees are one object, so set() merges each class.
    """
    reps = set(trees)
    kept = [s for s in reps if not any(tree_leq(s, t) and not tree_leq(t, s) for t in reps)]
    return tuple(sorted(kept, key=sort_key))


# The _norm slot of a tree that is its own normal form (a self-reference
# would keep every normal tree alive until the cyclic collector runs).
_NORMAL = object()


def _normalize_tree(t: Tree) -> Tree:
    """The normal form of one tree, computed once per node."""
    n = t._norm
    if n is _NORMAL:
        return t
    if n is not None:
        return n
    label = normalize_label(t.label)
    kids = list(normalize(t.children))
    while True:
        spliced: list[Tree] = []
        changed = False
        for c in kids:
            if label_leq(c.label, label):
                spliced.extend(c.children)
                changed = True
            else:
                spliced.append(c)
        kids = spliced
        if not changed:
            break
    kids = _dedupe(kids)
    if len(kids) == 1 and label_leq(label, kids[0].label):
        n = kids[0]
    else:
        n = Tree(label, kids)
        object.__setattr__(n, "_norm", _NORMAL)
    if n is not t:
        object.__setattr__(t, "_norm", n)
    return n


def is_join_irreducible(f: Forest) -> bool:
    return len(normalize(f)) == 1


# ---------------------------------------------------------------------------
# meet

# The infimum in the lattice of forests-with-bottom.  The recursion below is
# not in any reference; it is validated against a brute-force glb oracle over
# the exhaustively enumerated small-forest universe.


def meet(f: Forest, g: Forest) -> Forest:
    f, g = normalize(f), normalize(g)
    return normalize(join(*(meet_trees(s, t) for s in f for t in g)))


@lru_cache(maxsize=None)
def meet_trees(s: Tree, t: Tree) -> Forest:
    if tree_leq(s, t):
        return (s,)
    if tree_leq(t, s):
        return (t,)
    below = join(_meet_tree_forest(s, t.children), _meet_tree_forest(t, s.children))
    m = label_meet(s.label, t.label)
    return normalize((Tree(m, below),) if m is not None else below)


def _meet_tree_forest(s: Tree, g: Forest) -> Forest:
    return join(*(meet_trees(s, t) for t in g))


def label_meet(a: Label, b: Label) -> Label | None:
    """Greatest lower bound of two labels, or None when only bottom is below both."""
    if isinstance(a, int) and isinstance(b, int):
        return a if a == b else None
    m = meet(lift(a), lift(b))
    return as_label(m) if m else None


# ---------------------------------------------------------------------------
# JSON interchange: {"label": int | [tree...], "children": [tree...]}


def forest_to_json(f: Forest) -> list:
    return [tree_to_json(t) for t in as_forest(f)]


def tree_to_json(t: Tree) -> dict:
    label = t.label if isinstance(t.label, int) else forest_to_json(t.label)
    return {"label": label, "children": forest_to_json(t.children)}


def forest_from_json(data) -> Forest:
    if not isinstance(data, list):
        raise ForestError("forest JSON must be an array of trees")
    return tuple(tree_from_json(item) for item in data)


def tree_from_json(data) -> Tree:
    if not isinstance(data, dict) or "label" not in data:
        raise ForestError("tree JSON must be an object with a 'label'")
    label = data["label"]
    if isinstance(label, list):
        label = forest_from_json(label)
    elif not isinstance(label, int):
        raise ForestError(f"bad label {label!r}")
    return Tree(label, forest_from_json(data.get("children", [])))


def dumps(f: Forest) -> str:
    return json.dumps(forest_to_json(f))


def loads(text: str) -> Forest:
    return forest_from_json(json.loads(text))
