"""Iterated forests (forests labeled by forests), the term DSL, and the
equivalence with labeled layered preorders.

A level-n forest carries labels that are themselves forests of level n-1;
colors are level-0 atoms.  ``forest.Tree`` turns a label that is a
one-point color forest into that color and refuses the empty forest as a
label, so ``s(0)`` is ``0`` in terms and in JSON alike; the parser only
adds positions to the errors of ``s(bot)`` and ``bot*F``.  ``flatten``
unrolls a nested forest into a flat structure carrying one preorder per
level; ``unflatten`` inverts it exactly.  ``morphism_exists`` decides the
h-preorder on that side by its own search, with no recursion and nothing
from the h-preorder code, so it serves as the independent authority.
``parse_term`` and ``flatten`` keep bounded memos, and ``print_term``
keeps each normal root's term on the root; ``morphism_exists`` keeps
none, as it reads only the order rows it is given.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import TermSyntaxError
from .forest import (
    EMPTY,
    Forest,
    ForestError,
    Label,
    Tree,
    as_forest,
    join,
    lift,
    normalize,
    normalize_label,
    paths,
    singleton,
)

# The memos.  A forest is a tuple, which cannot be weakly referenced, so
# their bounds are what keep them small.  parse_term keeps the forests of its
# last MEMO_TERMS distinct texts of at most MEMO_TERM_LENGTH characters, so a
# repeated short text is parsed once.  flatten keeps the preorders of its
# last MEMO_TERMS distinct (forest, depth) pairs whose preorder has at most
# MEMO_FLAT_ELEMENTS elements.
MEMO_TERMS = 1024
MEMO_TERM_LENGTH = 256
MEMO_FLAT_ELEMENTS = 64


def nesting_level(f: Forest) -> int:
    """0 for the empty forest; otherwise 1 + the deepest label level."""
    level = 0
    layer = list(as_forest(f))
    while layer:  # one level of nesting at a time, with no recursion
        level += 1
        deeper = []
        for t in layer:  # the loop visits what it appends
            if not isinstance(t.label, int):
                deeper.extend(t.label)
            layer.extend(t.children)
        layer = deeper
    return level


def s_embed(q) -> Forest:
    """Singleton tree labeled by q (a color or a forest)."""
    if isinstance(q, Tree):
        q = (q,)
    return singleton(normalize_label(q))


def l_join(p: Forest) -> Forest:
    """Join of all labels occurring in p; defined for level >= 2 only."""
    p = as_forest(p)
    if nesting_level(p) < 2:
        raise ForestError("l_join needs nested labels (level >= 2)")
    return join(*(lift(t.label) for _, t in paths(p)))


# ---------------------------------------------------------------------------
# flatten / unflatten


class LabeledNPreorder(namedtuple("LabeledNPreorder", "size orders labels")):
    """Finite set with layered preorders and a color labeling.

    orders[i] is a tuple of int bitmasks: bit b of orders[i][a] is set
    exactly when a <=_i b, reflexivity included.  Layer i+1 only relates
    elements equivalent at layer i.  labels[a] is the color of a.
    """

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.orders)

    def pairs(self, i: int) -> list:
        """The relation of layer i as a sorted list of (a, b) pairs."""
        n = range(self.size)
        return [(a, b) for a in n for b in n if self.orders[i][a] >> b & 1]


def flatten(f: Forest, depth: int) -> LabeledNPreorder:
    """Unroll a nested forest into its layered-preorder presentation.

    Shallow labels are padded through their singleton identification, so
    any forest of nesting level <= depth is accepted.  Equal (forest,
    depth) pairs whose preorder has at most MEMO_FLAT_ELEMENTS elements
    return one shared preorder; errors are raised afresh.
    """
    key = (as_forest(f), depth)
    x = _FLATS.get(key)
    if x is None:
        x = _flatten(*key)
        if x.size <= MEMO_FLAT_ELEMENTS:
            if len(_FLATS) >= MEMO_TERMS:
                del _FLATS[next(iter(_FLATS))]  # the oldest entry
            _FLATS[key] = x
    return x


# (forest, depth) -> its preorder, oldest first: flatten's memo
_FLATS: dict = {}


def _flatten(f: Forest, depth: int) -> LabeledNPreorder:
    """flatten's walk."""
    if depth < 1:
        raise ForestError("depth must be positive")
    # One walk, parents first, gives every node occurrence an id and every
    # element its node ids by level; a <=_i b iff b's is a's or above it.
    parent, elems, labels = [], [], []  # node -> parent; element -> ids, color
    # (trees left, level, ids of the enclosing label nodes, parent node);
    # a node's label frame sits above its children's, so labels come first
    stack = [(iter(f), 0, (), -1)]
    while stack:
        trees, level, outer, up = stack[-1]
        t = next(trees, None)
        if t is None:
            stack.pop()
            continue
        node = len(parent)
        parent.append(up)
        ids = outer + (node,)
        stack.append((iter(t.children), level, outer, node))
        if level + 1 < depth:
            stack.append((iter(lift(t.label)), level + 1, ids, -1))
        elif isinstance(t.label, int):
            elems.append(ids)
            labels.append(t.label)
        else:  # a label too deep
            raise ForestError(
                f"nesting level {nesting_level(f)} exceeds depth {depth}")
    # each node's members, then its ancestors' too; up[-1] == 0: no parent
    up = [0] * (len(parent) + 1)
    for a, ids in enumerate(elems):
        for node in ids:
            up[node] |= 1 << a
    for node, p in enumerate(parent):
        up[node] |= up[p]
    orders = tuple(tuple(up[ids[i]] for ids in elems) for i in range(depth))
    return LabeledNPreorder(len(elems), orders, tuple(labels))


def unflatten(x: LabeledNPreorder) -> Forest:
    """Inverse of flatten: unflatten(flatten(f, d)) == f.

    Each (level, members) part is a forest: its classes are the trees and
    each class below the last level labels its tree with the part of its
    members one level down.  The parts wait on an explicit stack, each
    under the parts of its labels, which come off in the order of its
    trees, so no layer takes a Python frame of its own.
    """
    forests: dict = {}  # (level, members) -> the forest of that part
    top = (0, tuple(range(x.size)))
    stack = [(top, None)]
    while stack:
        part, plan = stack.pop()
        level, members = part
        if plan is None:
            plan = _unflatten_plan(x, members, level)
            stack.append((part, plan))
            classes, order = plan[:2]
            if level + 1 < x.depth:  # the labels' parts, to come off in order
                stack += [((level + 1, tuple(classes[row])), None) for row in reversed(order)]
            continue
        classes, order, kids, roots = plan
        trees: dict[int, Tree] = {}
        for row in order:
            cls = classes[row]
            if level + 1 == x.depth:
                colors = {x.labels[m] for m in cls}
                if len(colors) != 1:
                    raise ForestError(f"layer {level} class has mixed colors")
                label: Label = colors.pop()
            else:
                label = forests[level + 1, tuple(cls)]
            trees[row] = Tree(label, tuple(trees[c] for c in kids[row]))
        forests[part] = tuple(trees[row] for row in roots)
    return forests[top]


def _unflatten_plan(x: LabeledNPreorder, members, level: int) -> tuple:
    """The classes of layer `level` over `members`, ascending: (row ->
    members, rows children first, row -> child rows, root rows).

    Equivalent members share one up-set row, so each class is one row; a
    class's parent is the class whose row is the class's strict up-set.
    """
    rows = x.orders[level]
    within = sum(1 << m for m in members)  # the members as a mask
    classes: dict[int, list[int]] = {}  # row -> members, by first member
    for m in members:
        classes.setdefault(rows[m] & within, []).append(m)
    kids: dict[int, list[int]] = {row: [] for row in classes}
    roots = []
    for row, cls in classes.items():
        strict = row & ~sum(1 << m for m in cls)
        if not strict:
            roots.append(row)
        elif strict in kids and strict != row:  # == row: not reflexive
            kids[strict].append(row)
        else:
            raise ForestError(f"layer {level} is not a forest")
    # a child's row strictly holds its parent's, so children come first
    order = sorted(classes, key=int.bit_count, reverse=True)
    return classes, order, kids, roots


def morphism_exists(x: LabeledNPreorder, y: LabeledNPreorder) -> bool:
    """Backtracking search for a label-preserving map monotone at every layer.

    It reads the up rows of x and y and nothing else.  Domains are bitmasks
    over y.  The elements of x are assigned from the last to the first, on
    an explicit stack of (element, untried images, domains) frames; flatten
    lists parents first, so each element is assigned before those above it.
    Assigning a to b cuts, at each layer, the domain of every element above
    a to y's up row at b.  An element already assigned holds only its
    image's bit, so the same AND checks it: each related pair is checked
    once, from its lower element, and a dead branch is cut as soon as a
    domain empties.
    """
    ups, rows = x.orders, y.orders
    if len(ups) != len(rows):
        raise ForestError("depth mismatch")
    by_color: dict[int, int] = {}  # color -> mask of the elements of y
    for b, color in enumerate(y.labels):
        by_color[color] = by_color.get(color, 0) | 1 << b
    domains = [by_color.get(color, 0) for color in x.labels]
    if 0 in domains:
        return False
    if not domains:
        return True
    a = x.size - 1
    stack = [(a, domains[a], domains)]
    while stack:
        a, dom, doms = stack.pop()
        low = dom & -dom
        if dom != low:
            stack.append((a, dom ^ low, doms))
        b = low.bit_length() - 1
        others = ~(1 << a)
        nxt = doms[:]
        nxt[a] = low
        layer = 0
        for up in ups:  # x's up rows, layer by layer
            cut = rows[layer][b]  # y's up row at b in the same layer
            layer += 1
            rest = up[a] & others
            while rest:  # the elements above a, highest first
                c = rest.bit_length() - 1
                rest ^= 1 << c
                allowed = nxt[c] & cut
                if not allowed:
                    break
                nxt[c] = allowed
            else:
                continue
            break  # a domain emptied
        else:
            if not a:
                return True
            stack.append((a - 1, nxt[a - 1], nxt))
    return False


# ---------------------------------------------------------------------------
# term DSL
#
# forest := item (('⊔'|'|') item)*
# item   := atom ('*' item)?          -- * binds tighter, right-associative
# atom   := nat | '⊥' | 'bot' | 's(' forest ')' | '(' forest ')'
#
# F*G adjoins a root labeled F above G; s(F) is the singleton labeled F.


# parse_term refuses a term with more pending '*' operands plus open '(' /
# 's(' than this, with ForestError, instead of building a tree that deep.
MAX_TERM_DEPTH = 1000

_EMPTY_LABEL = "the empty forest is not a label"


def parse_term(text: str) -> Forest:
    """Parse a term of the grammar above in one pass, with no recursion.

    Equal texts of at most MEMO_TERM_LENGTH characters return one shared
    forest.  Colors have no bound here: forest.validate_forest checks one.
    """
    parse = _parse if len(text) <= MEMO_TERM_LENGTH else _parse.__wrapped__
    return parse(text)


@lru_cache(maxsize=MEMO_TERMS)
def _parse(text: str) -> Forest:
    """The forest of a term; errors are raised."""
    n = len(text)
    pos = 0
    frames = []  # (items, stars, is_s) of each enclosing '(' or 's('
    items = []  # finished trees of the innermost open forest
    stars = []  # left operands of the pending '*' in the current item
    depth = 0  # len(stars) over all frames, plus len(frames)
    atom = None  # the operand just read, while an operator may follow
    while True:
        c = text[pos] if pos < n else ""
        if atom is None:
            if depth > MAX_TERM_DEPTH:
                raise ForestError("input nested too deeply")
            if "0" <= c <= "9":
                start = pos
                pos += 1
                while pos < n and "0" <= text[pos] <= "9":
                    pos += 1
                if pos - start == 1:
                    color = ord(c) - 48  # one digit: no slice, no int()
                else:
                    try:
                        color = int(text[start:pos])
                    except ValueError:  # longer than int() converts
                        raise TermSyntaxError("number too long", start) from None
                atom = (Tree(color),)
            elif c == "⊥" or text.startswith("bot", pos):
                pos += 1 if c == "⊥" else 3
                atom = EMPTY
            elif c == "(" or c == "s" and text[pos + 1 : pos + 2] == "(":
                frames.append((items, stars, c == "s"))
                items, stars = [], []
                pos += 1 if c == "(" else 2
                depth += 1
            elif c == "":
                raise TermSyntaxError("unexpected end of input", pos)
            elif c.isspace():
                pos += 1
            else:
                raise TermSyntaxError(f"unexpected character {c!r}", pos)
        elif c == "*":
            stars.append(atom)
            atom = None
            pos += 1
            depth += 1
        elif c.isspace():
            pos += 1
        else:
            # the item ends here: '*' binds right to left
            if stars:
                depth -= len(stars)
                for left in reversed(stars):
                    if not left:
                        raise TermSyntaxError(_EMPTY_LABEL, pos)
                    atom = (Tree(left, atom),)
                stars = []
            items.extend(atom)
            atom = None
            if c == "|" or c == "⊔":
                pos += 1
            elif not frames:
                if pos != n:
                    raise TermSyntaxError("trailing input", pos)
                break
            elif c != ")":
                raise TermSyntaxError("expected ')'", pos)
            else:
                atom = tuple(items)
                items, stars, is_s = frames.pop()
                pos += 1
                depth -= 1
                if is_s:
                    if not atom:
                        raise TermSyntaxError(_EMPTY_LABEL, pos)
                    atom = (Tree(atom),)
    return tuple(items)


def print_term(f: Forest) -> str:
    """Render the normalized forest; parse_term inverts this exactly.

    A normal form (a forest normalize returned) is not normalized again,
    and each of its roots is rendered once in its lifetime: its term waits
    in the root's _text slot, a str that keeps no node alive."""
    roots = normalize(f)
    for t in roots:
        if t._text is None:
            object.__setattr__(t, "_text", _render((t,)))
    return "|".join([t._text for t in roots]) or "bot"


def _render(f: Forest) -> str:
    """The term of f as it stands, parents first off one stack of pieces,
    each text to write or a forest still to render, pushed last first."""
    out, stack = [], [f]
    while stack:
        x = stack.pop()
        if x.__class__ is str or not x:
            out.append(x or "bot")
            continue
        for t in reversed(x):
            kids = t.children
            if len(kids) > 1:
                stack += (")", kids, "*(")
            elif kids:
                stack += (kids, "*")
            if t.label.__class__ is int:
                stack.append(str(t.label))
            else:  # a label is bracketed, or written s(...) on a leaf
                stack += (")", t.label, "(" if kids else "s(")
            stack.append("|")
        stack.pop()  # no '|' before the first tree
    return "".join(out)
