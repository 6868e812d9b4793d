"""Finite labeled forests and trees with the h-preorder.

A forest is a tuple of trees; the empty tuple is the bottom element.
A tree has a label and a forest of children; the root of a tree is its
biggest element.  Labels are either colors (small non-negative ints) or,
in the iterated case, forests one level down.

F <= G in the h-preorder iff there is a monotone map from F to G whose
labels satisfy the label order pointwise: colors must coincide, nested
labels are compared recursively.

Trees are interned, and each node keeps what is computed about it in
slots of its own: its normal form, sort key, canonical guess and printed
term, and its tree_leq and meet_trees answers against other nodes, keyed
by their serial ids.  So every memo dies with its node, and the module
keeps no global cache; an answer about a node that has died is dropped
by the next sweep of its table (_sweep).

A normal form costs what its output costs: _dedupe compares each of the
W roots it is given with the w roots it keeps, W x w pairs, not W x W.
The forest normalize returns is a _Normal, a tuple marked as normal, and
normalize hands a _Normal back as it is, so print_term, meet and the
rest never normalize one forest twice.
"""

from __future__ import annotations

import weakref
from itertools import count
from operator import attrgetter

from .errors import ForestError, check_count


class Tree:
    """Immutable labeled tree, hash-consed: equal trees are one object.

    ``Tree(label, children)`` returns the live node with that label and
    those children when there is one, so structural equality is identity
    and ``==`` and ``hash`` are the default identity ones.  Every node is
    made here, so here too are the label rules: a color is one with its
    one-point tree (the paper's s), so a one-point color forest as a label
    is that color; the empty forest is no label; and a color is a
    non-negative int, so every tree prints as a term.  The items of a
    forest label and the children are trees; anything else is refused
    with ForestError, checked only when a node is made.  A node also stores
    its normal form, its sort key, its canonical guess (canonical._decode)
    and, on a normal root, its term (nested.print_term, a str) once they
    are first asked for, and its answers to tree_leq and
    meet_trees against other nodes, keyed by their serial ids (_id, never
    reused, so a key keeps no node alive and outlives its node only until
    the sweep); all of these die with the node.

    Construction is single-threaded by contract: two threads building
    equal trees at the same moment could get two objects, and identity
    equality would then be wrong.
    """

    __slots__ = ("label", "children", "_id", "_norm", "_key", "_guess", "_text", "_leq",
                 "_meet", "__weakref__")

    def __new__(cls, label: "Label", children: "Forest" = ()):
        if label.__class__ is not int:
            if isinstance(label, (tuple, list)):
                if not label:
                    raise ForestError("the empty forest is not a label")
                label = tuple(label)
                if not all(isinstance(s, Tree) for s in label):
                    raise ForestError(f"bad label {label!r}")
                label = as_label(label)
            elif isinstance(label, bool) or not isinstance(label, int) or label < 0:
                raise ForestError(f"bad label {label!r}")
        elif label < 0:
            raise ForestError(f"bad label {label!r}")
        try:
            key = (label, tuple(children))
            ref = _REFS.get(key)
        except TypeError:  # children not iterable, or one unhashable
            raise ForestError(f"bad children {children!r}") from None
        if ref is not None and (t := ref()) is not None:
            return t
        for c in key[1]:
            if not isinstance(c, Tree):
                raise ForestError(f"bad children {children!r}")
        t = object.__new__(cls)
        set_slot = object.__setattr__
        set_slot(t, "label", label)
        set_slot(t, "children", key[1])
        set_slot(t, "_id", next(_SERIALS))
        set_slot(t, "_norm", None)
        set_slot(t, "_key", None)
        set_slot(t, "_guess", None)
        set_slot(t, "_text", None)
        set_slot(t, "_leq", {})  # read inline by every loop that asks many pairs
        set_slot(t, "_meet", None)  # made by the first meet_trees call on t
        _INTERNED[key] = t
        return t

    def __setattr__(self, *args):
        raise AttributeError("Tree is immutable")

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
# The serial id of each node made, in the order they are made.
_SERIALS = count()


def _sweep(memo: dict) -> None:
    """Drop from a node's tree_leq or meet_trees table every answer about a
    node that has died.  A table is swept once it holds more than twice as
    many answers as there are live nodes, and keeps at most one answer per
    live node, so a sweep follows at least as many inserts as it costs."""
    live = {t._id for ref in list(_REFS.values()) if (t := ref()) is not None}
    for key in [key for key in memo if key not in live]:
        del memo[key]


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


def paths(f: Forest):
    """Every node as (path, tree), parents first; a path is child indices."""
    stack = [((i,), t) for i, t in enumerate(as_forest(f))][::-1]
    while stack:
        path, t = stack.pop()
        yield path, t
        stack += [(path + (i,), c) for i, c in enumerate(t.children)][::-1]


def postorder(f: Forest, labels: bool = False, filled=None) -> list[Tree]:
    """Each distinct node of f once, after its children, and with labels
    after its label's nodes too.  Equal subtrees are one node, so a shared
    one is walked once.  A node for which filled(node) is true is left out
    with everything below it: a slot fold passes its slot's getter."""
    done: dict = {}  # insertion-ordered: the walk's output
    stack = list(as_forest(f))  # an expanded node waits under None and its operands
    while stack:
        t = stack.pop()
        if t is None:
            done[stack.pop()] = None
        elif t not in done and not (filled and filled(t)):
            below = t.children
            if labels and t.label.__class__ is not int:
                below = t.label + below
            if below:
                stack += (t, None, *below)
            else:
                done[t] = None
    return list(done)


def wrap(label: Label, forest: Forest) -> Tree:
    """Adjoin a new biggest element carrying the label (p_i / the * operation)."""
    return Tree(label, as_forest(forest))


def join(*forests: Forest) -> Forest:
    """Disjoint union of forests."""
    out: list[Tree] = []
    for f in forests:
        out.extend(as_forest(f))
    return tuple(out)


def every_node(f: Forest) -> list[Tree]:
    """Every node of f and of the forests in its labels, at any depth;
    a node that occurs twice is listed twice."""
    out = list(as_forest(f))
    for t in out:  # the loop visits what it appends
        if not isinstance(t.label, int):
            out.extend(t.label)
        out.extend(t.children)
    return out


def node_count(f: Forest) -> int:
    """Number of color-labeled nodes: the elements of the flattened forest."""
    return len([t for t in every_node(f) if isinstance(t.label, int)])


def max_color(f: Forest) -> int:
    """Largest color occurring anywhere (-1 for the empty forest)."""
    best = -1
    for t in every_node(f):
        if isinstance(t.label, int) and t.label > best:
            best = t.label
    return best


def validate_forest(f: Forest, k: int) -> None:
    """Check k is an int and every color is < k; a colorless forest passes."""
    check_count(k, "the number of colors", ForestError)
    top = max_color(f)
    if top >= max(k, 0):
        raise ForestError(f"color {top} out of range for k={k}")


def node_ranks(f: Forest) -> dict:
    """Each node of f with its rank: the length of its longest chain of
    children down to a leaf (leaf rank 0)."""
    ranks: dict = {}
    for t in postorder(f):
        ranks[t] = max([1 + ranks[c] for c in t.children], default=0)
    return ranks


def rank(f: Forest) -> int:
    """Length of the longest root chain; undefined on the empty forest."""
    f = as_forest(f)
    if not f:
        raise ForestError("rank of the empty forest is undefined")
    ranks = node_ranks(f)
    return max(ranks[t] for t in f)


# ---------------------------------------------------------------------------
# h-preorder


def label_leq(a: Label, b: Label) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return h_leq(lift(a), lift(b))


def h_leq(f: Forest, g: Forest) -> bool:
    """True iff a monotone label-respecting map from f into g exists: every
    tree of f is below some tree of g.  Each answer is read from its slot;
    tree_leq is asked only on a miss."""
    f, g = as_forest(f), as_forest(g)
    for s in f:
        leq = s._leq
        for t in g:
            below = leq.get(t._id)
            if below is None:
                below = tree_leq(s, t)
            if below:
                break
        else:
            return False
    return True


def h_equiv(f: Forest, g: Forest) -> bool:
    return h_leq(f, g) and h_leq(g, f)


def tree_leq(s: Tree, t: Tree) -> bool:
    """s <= t for trees: s embeds with its root at some node of t.

    That is: s is t; or the labels are in order and every child of s is
    below t; or s is below some child of t.  Nested labels are in order
    when every tree of s's lifted label is below one of t's.  The walk
    keeps one [s, t, stage, i, j, lifted labels] frame per pair whose
    answer is not yet in its slot, on an explicit stack, so it answers as deep as the parser
    reads; a frame waits on the first pair it needs, and each answer goes
    into s._leq under t's id.  Every pair a frame waits on is smaller, so
    no frame waits on itself.
    """
    answer = s._leq.get(t._id)
    if answer is not None:
        return answer
    stack = [[s, t, 0, 0, 0, None]]
    while stack:
        frame = stack[-1]
        s, t, stage, i, j, lifted = frame
        answer = need = None
        if stage == 0:  # the labels
            a, b = s.label, t.label
            if s is t:
                answer = True
            elif a.__class__ is int and b.__class__ is int:
                stage = 1 if a == b else 2
            else:
                # the frame holds the lifted labels: a color's one-point tree
                # may live nowhere else, and its answers die with it
                if lifted is None:
                    lifted = lift(a), lift(b)
                a, b = lifted
                while i < len(a):  # a[i] below some tree of b
                    leq = a[i]._leq
                    while j < len(b) and (below := leq.get(b[j]._id)) is False:
                        j += 1
                    if j == len(b):
                        stage, i = 2, 0
                        break
                    if below is None:
                        need = a[i], b[j]
                        break
                    i, j = i + 1, 0
                else:
                    stage, i = 1, 0
        if stage == 1 and need is None:  # every child of s below t
            kids, tid = s.children, t._id
            while i < len(kids):
                below = kids[i]._leq.get(tid)
                if below is None:
                    need = kids[i], t
                    break
                if not below:
                    stage, i = 2, 0
                    break
                i += 1
            else:
                answer = True
        if stage == 2 and need is None:  # s below some child of t
            leq, kids = s._leq, t.children
            while i < len(kids):
                below = leq.get(kids[i]._id)
                if below is None:
                    need = s, kids[i]
                    break
                if below:
                    answer = True
                    break
                i += 1
            else:
                answer = False
        if need is None:
            stack.pop()
            memo = s._leq
            memo[t._id] = answer
            if len(memo) > 2 * len(_REFS):
                _sweep(memo)
        else:
            frame[2:] = stage, i, j, lifted
            stack.append([*need, 0, 0, 0, None])
    return answer


# ---------------------------------------------------------------------------
# canonical form

_KEY_SLOT = attrgetter("_key")


def sort_key(t: Tree):
    """Structural sort key, computed once per node: the first call fills
    the empty slots under t, labels and children first."""
    if t._key is None:
        for u in postorder((t,), True, _KEY_SLOT):
            if u.label.__class__ is int:
                label = (0, u.label)
            else:
                label = (1, tuple(sorted([c._key for c in u.label])))
            object.__setattr__(u, "_key", (label, tuple(sorted([c._key for c in u.children]))))
    return t._key


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
    level.  Idempotent: the result is a _Normal, and a _Normal is returned
    as it is, so normalizing a normal form again costs one class test.
    """
    if f.__class__ is _Normal:
        return f
    return _Normal(_dedupe([_normalize_tree(t) for t in as_forest(f)]))


class _Normal(tuple):
    """A forest that normalize made, so its own normal form.  It is a
    tuple in every other respect: it compares, hashes and pickles as one,
    and Tree copies it into a plain tuple as a label or as children."""

    __slots__ = ()


def _dedupe(trees: list[Tree]) -> list[Tree]:
    """The maximal trees among normal trees, each once, sorted.

    Each tree is compared with the antichain kept so far, so the cost is
    the number of trees times the number kept, not the number squared.
    Equivalent normal trees are one object, and a tree below another one
    is strictly below it: two different normal trees, each below the
    other, would be two normal forms of one class.  So a tree that is a
    kept one or below one is dropped, and otherwise it is kept and the
    kept trees below it leave.
    """
    kept: list[Tree] = []
    for s in trees:
        leq = s._leq
        for t in kept:
            if t is s:
                break
            below = leq.get(t._id)
            if below is None:
                below = tree_leq(s, t)
            if below:
                break
        else:  # in place: a new list per kept tree cost the calculus build tail
            sid = s._id
            for i in reversed(range(len(kept))):
                t = kept[i]
                below = t._leq.get(sid)
                if below is None:
                    below = tree_leq(t, s)
                if below:
                    del kept[i]
            kept.append(s)
    if len(kept) > 1:
        kept.sort(key=sort_key)
    return kept


# The _norm slot of a tree that is its own normal form (a self-reference
# would keep every normal tree alive until the cyclic collector runs).
_NORMAL = object()
_NORM_SLOT = attrgetter("_norm")


def _normalize_tree(t: Tree) -> Tree:
    """The normal form of one tree, computed once per node: the first call
    fills the empty slots under t, labels and children first, and walks no
    subtree whose slot is filled.  A node reads its children's normal forms
    from their slots, so rule (a) is followed by its one _dedupe."""
    n = t._norm
    if n is None:
        for u in postorder((t,), True, _NORM_SLOT):
            if u._norm is not None:  # an earlier step made u as a normal form
                continue
            label = normalize_label(u.label)
            kids = [c if c._norm is _NORMAL else c._norm for c in u.children]
            while any(label_leq(c.label, label) for c in kids):  # rule (a)
                kids = [g for c in kids
                        for g in (c.children if label_leq(c.label, label) else (c,))]
            kids = _dedupe(kids)
            if len(kids) == 1 and label_leq(label, kids[0].label):
                n = kids[0]
            else:
                n = Tree(label, kids)
                object.__setattr__(n, "_norm", _NORMAL)
            if n is not u:
                object.__setattr__(u, "_norm", n)
        n = t._norm
    return t if n is _NORMAL else n


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


# The _meet entry of a tree under the id of a tree above it: the meet is the
# tree itself, which its own entry must not hold.
_SELF = object()


def meet_trees(s: Tree, t: Tree) -> Forest:
    """The meet of two trees, kept in s._meet under t's id."""
    memo = s._meet
    if memo is None:
        memo = {}
        object.__setattr__(s, "_meet", memo)
    m = memo.get(t._id)
    if m is None:
        if tree_leq(s, t):
            m = (s,)
        elif tree_leq(t, s):
            m = (t,)
        else:
            below = join(*(meet_trees(s, c) for c in t.children),
                         *(meet_trees(t, c) for c in s.children))
            label = label_meet(s.label, t.label)
            m = normalize((Tree(label, below),) if label is not None else below)
        memo[t._id] = _SELF if m == (s,) else m
        if len(memo) > 2 * len(_REFS):
            _sweep(memo)
    return (s,) if m is _SELF else m


def label_meet(a: Label, b: Label) -> Label | None:
    """Greatest lower bound of two labels, or None when only bottom is below both."""
    if isinstance(a, int) and isinstance(b, int):
        return a if a == b else None
    return meet(lift(a), lift(b)) or None


# ---------------------------------------------------------------------------
# JSON interchange: {"label": int | [tree...], "children": [tree...]}

_NO_CHILDREN: list = []  # one object for every tree without "children"


def forest_to_json(f: Forest) -> list:
    """f as JSON; equal subtrees share one object."""
    out: dict = {}
    for t in postorder(f, True):
        label = t.label if isinstance(t.label, int) else [out[s] for s in t.label]
        out[t] = {"label": label, "children": [out[c] for c in t.children]}
    return [out[t] for t in as_forest(f)]


def forest_from_json(data) -> Forest:
    """The forest a JSON value describes, read on an explicit stack: each
    array after the arrays of its trees' labels and children."""
    read: dict = {}  # id of an array -> its forest; data keeps the arrays alive
    opened = set()  # ids of the arrays waiting on the stack for those below
    stack = [data]
    while stack:
        items = stack[-1]
        if not isinstance(items, list):
            raise ForestError("forest JSON must be an array of trees")
        if not all(isinstance(t, dict) and "label" in t for t in items):
            raise ForestError("tree JSON must be an object with a 'label'")
        parts = [(t["label"], t.get("children", _NO_CHILDREN)) for t in items]
        below = [f for label, kids in parts for f in (label, kids)
                 if (f is kids or isinstance(f, list)) and id(f) not in read]
        if below:
            if any(id(f) in opened for f in below):
                raise ForestError("forest JSON must not contain itself")
            opened.add(id(items))
            stack += reversed(below)
            continue
        stack.pop()
        read[id(items)] = tuple(
            Tree(read[id(label)] if isinstance(label, list) else label, read[id(kids)])
            for label, kids in parts)
    return read[id(data)]
