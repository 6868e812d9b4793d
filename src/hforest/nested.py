"""Iterated forests (forests labeled by forests), the term DSL, and the
equivalence with labeled layered preorders.

A level-n forest carries labels that are themselves forests of level n-1;
colors are level-0 atoms, identified with their singleton trees when a
deeper level is needed.  ``flatten`` unrolls a nested forest into a flat
structure carrying one preorder per level; ``unflatten`` inverts it up to
h-equivalence.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .errors import TermSyntaxError
from .forest import (
    EMPTY,
    Forest,
    ForestError,
    Label,
    Tree,
    as_forest,
    as_label,
    join,
    lift,
    normalize,
    normalize_label,
    paths,
    singleton,
    wrap,
)


def nesting_level(f: Forest) -> int:
    """0 for the empty forest; otherwise 1 + the deepest label level."""
    level = 0
    for t in as_forest(f):
        label = 0 if isinstance(t.label, int) else nesting_level(t.label)
        level = max(level, 1 + label, nesting_level(t.children))
    return level


def s_embed(q) -> Forest:
    """Singleton tree labeled by q (a color or a forest)."""
    if isinstance(q, Tree):
        q = (q,)
    if isinstance(q, tuple) and not q:
        raise ForestError("the empty forest is not a label")
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

    def leq(self, i: int, a: int, b: int) -> bool:
        return bool(self.orders[i][a] >> b & 1)

    def pairs(self, i: int) -> list:
        """The relation of layer i as a sorted list of (a, b) pairs."""
        return [
            (a, b)
            for a in range(self.size)
            for b in range(self.size)
            if self.orders[i][a] >> b & 1
        ]


def _elements(f: Forest, depth: int):
    """Tuples of node paths, one per level, plus the final color."""
    for path, t in paths(f):
        if depth == 1:
            if not isinstance(t.label, int):
                raise ForestError("nesting level exceeds the requested depth")
            yield (path,), t.label
        else:
            for inner, color in _elements(lift(t.label), depth - 1):
                yield (path,) + inner, color


def flatten(f: Forest, depth: int) -> LabeledNPreorder:
    """Unroll a nested forest into its layered-preorder presentation.

    Shallow labels are padded through their singleton identification, so
    any forest of nesting level <= depth is accepted.
    """
    f = as_forest(f)
    if depth < 1:
        raise ForestError("depth must be positive")
    nesting = nesting_level(f)
    if nesting > depth:
        raise ForestError(f"nesting level {nesting} exceeds depth {depth}")
    elems = list(_elements(f, depth))
    elem_paths = [e[0] for e in elems]
    labels = tuple(e[1] for e in elems)
    orders = []
    for level in range(depth):
        rows = []
        for pa in elem_paths:
            prefix = pa[:level]
            seg = pa[level]
            mask = 0
            # a is below b when b's node path is a prefix (an ancestor)
            for b, pb in enumerate(elem_paths):
                if pb[:level] == prefix and seg[: len(pb[level])] == pb[level]:
                    mask |= 1 << b
            rows.append(mask)
        orders.append(tuple(rows))
    return LabeledNPreorder(len(elems), tuple(orders), labels)


def unflatten(x: LabeledNPreorder) -> Forest:
    """Inverse of flatten up to h-equivalence."""
    return _unflatten_sub(x, tuple(range(x.size)), 0)


def _unflatten_sub(x: LabeledNPreorder, members: tuple, level: int) -> Forest:
    if not members:
        return EMPTY
    rows = x.orders[level]
    # equivalence classes at this layer
    classes: list[list[int]] = []
    for m in members:
        row = rows[m]
        for cls in classes:
            r = cls[0]
            if row >> r & 1 and rows[r] >> m & 1:
                cls.append(m)
                break
        else:
            classes.append([m])
    n = len(classes)
    reps = [cls[0] for cls in classes]
    below = [
        [j for j in range(n) if j != i and rows[reps[j]] >> reps[i] & 1]
        for i in range(n)
    ]
    # forest check: the strict up-set of every class must be a chain
    for i in range(n):
        above = [j for j in range(n) if i in below[j]]
        for a, b in product(above, above):
            if a != b and a not in below[b] and b not in below[a]:
                raise ForestError(f"layer {level} is not a forest")
    def build(i: int) -> Tree:
        cls = tuple(sorted(classes[i]))
        if level + 1 == x.depth:
            colors = {x.labels[m] for m in cls}
            if len(colors) != 1:
                raise ForestError(f"layer {level} class has mixed colors")
            label: Label = colors.pop()
        else:
            sub = _unflatten_sub(x, cls, level + 1)
            if sub == ():
                raise ForestError(f"layer {level} produced an empty label")
            label = as_label(sub)
        children = tuple(build(j) for j in range(n) if parent[j] == i)
        return Tree(label, children)

    # parent = least strict ancestor
    parent = []
    for i in range(n):
        above = [j for j in range(n) if i in below[j]]
        if not above:
            parent.append(None)
        else:
            parent.append(min(above, key=lambda j: len(below[j])))
    return tuple(build(i) for i in range(n) if parent[i] is None)


@lru_cache(maxsize=65536)
def _down_rows(orders: tuple, size: int) -> tuple:
    """Transpose of the up-set rows: bit a of result[i][b] means a <=_i b."""
    out = []
    for rows in orders:
        dn = [0] * size
        for a in range(size):
            row = rows[a]
            while row:
                b = (row & -row).bit_length() - 1
                row &= row - 1
                dn[b] |= 1 << a
        out.append(tuple(dn))
    return tuple(out)


def morphism_exists(x: LabeledNPreorder, y: LabeledNPreorder) -> bool:
    """Backtracking search for a label-preserving map monotone at every layer.

    Domains are bitmasks over y; assigning an element narrows the domains
    of the remaining ones (forward checking), so dead branches are cut as
    soon as any domain empties.
    """
    if x.depth != y.depth:
        raise ForestError("depth mismatch")
    if x.size == 0:
        return True
    xup = x.orders
    yup = y.orders
    ydn = _down_rows(y.orders, y.size)
    full = (1 << y.size) - 1
    domains = []
    for a in range(x.size):
        dom = 0
        for b in range(y.size):
            if y.labels[b] == x.labels[a]:
                dom |= 1 << b
        if not dom:
            return False
        domains.append(dom)

    levels = range(x.depth)
    size = x.size

    def search(a: int, doms: list) -> bool:
        if a == size:
            return True
        dom = doms[a]
        while dom:
            b = (dom & -dom).bit_length() - 1
            dom &= dom - 1
            nxt = doms[:]
            ok = True
            for c in range(a + 1, size):
                allowed = full
                for level in levels:
                    if xup[level][a] >> c & 1:
                        allowed &= yup[level][b]
                    if xup[level][c] >> a & 1:
                        allowed &= ydn[level][b]
                nxt[c] &= allowed
                if not nxt[c]:
                    ok = False
                    break
            if ok and search(a + 1, nxt):
                return True
        return False

    return search(0, domains)


# ---------------------------------------------------------------------------
# term DSL
#
# forest := item (('⊔'|'|') item)*
# item   := atom ('*' item)?          -- * binds tighter, right-associative
# atom   := nat | '⊥' | 'bot' | 's' '(' forest ')' | '(' forest ')'
#
# F*G adjoins a root labeled F above G; s(F) is the singleton labeled F.


def parse_term(text: str, k: int | None = None) -> Forest:
    parser = _TermParser(text)
    result = parser.parse_forest()
    parser.skip_ws()
    if parser.pos != len(text):
        raise TermSyntaxError("trailing input", parser.pos)
    if k is not None:
        from .forest import max_color

        if max_color(result) >= k:
            raise TermSyntaxError(f"color out of range for k={k}", 0)
    return result


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_forest(self) -> Forest:
        items = [self.parse_item()]
        while self.peek() in ("⊔", "|"):
            self.pos += 1
            items.append(self.parse_item())
        return join(*items)

    def parse_item(self) -> Forest:
        left = self.parse_atom()
        if self.peek() == "*":
            self.pos += 1
            right = self.parse_item()
            return (wrap(_as_label(left, self.pos), right),)
        return left

    def parse_atom(self) -> Forest:
        ch = self.peek()
        if ch == "":
            raise TermSyntaxError("unexpected end of input", self.pos)
        if "0" <= ch <= "9":
            start = self.pos
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            try:
                color = int(self.text[start:self.pos])
            except ValueError:  # longer than int() converts
                raise TermSyntaxError("number too long", start) from None
            return singleton(color)
        if ch == "⊥":
            self.pos += 1
            return EMPTY
        if self.text.startswith("bot", self.pos):
            self.pos += 3
            return EMPTY
        if ch == "s" and self.text[self.pos + 1 : self.pos + 2] == "(":
            self.pos += 2
            inner = self.parse_forest()
            self.expect(")")
            return (wrap(_as_label(inner, self.pos), EMPTY),)
        if ch == "(":
            self.pos += 1
            inner = self.parse_forest()
            self.expect(")")
            return inner
        raise TermSyntaxError(f"unexpected character {ch!r}", self.pos)

    def expect(self, ch: str):
        if self.peek() != ch:
            raise TermSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1


def _as_label(f: Forest, pos: int) -> Label:
    if not f:
        raise TermSyntaxError("the empty forest is not a label", pos)
    return as_label(f)


def print_term(f: Forest) -> str:
    """Render the normalized forest; parse_term inverts this exactly."""
    return _render(normalize(as_forest(f)))


def _render(f: Forest) -> str:
    if not f:
        return "bot"
    return "|".join(_render_tree(t) for t in f)


def _render_tree(t: Tree) -> str:
    if isinstance(t.label, int):
        head = str(t.label)
        if not t.children:
            return head
    else:
        if not t.children:
            return f"s({_render(t.label)})"
        head = f"({_render(t.label)})"
    child = _render(t.children)
    if len(t.children) > 1:
        child = f"({child})"
    return f"{head}*{child}"
