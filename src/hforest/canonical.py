"""Canonical 2-labeled trees indexed by ordinal notations.

The flat family is the alternating chain T_0 = 0, T_{n+1} = 0*(bar T_n).
The nested family extends it through all supported notations over w by a
case split on the Cantor normal form:

  finite n            -> the flat chain
  successor b+1       -> 0 * (T_b | bar T_b)
  w^g                 -> s(T_g)
  b + w^g  (b > 0)    -> T_g * (T_b | bar T_b)
  b + w^g*d  (d >= 2) -> T_g * bar T_{b + w^g*(d-1)}

bar swaps the colors 0 and 1 at every level.  Notations whose limit stage
would need an infinite join never arise in this fragment, so every Ord is
supported.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from ._record import Record, set_field
from .errors import check_count
from .forest import (
    Forest,
    ForestError,
    Tree,
    as_forest,
    every_node,
    join,
    normalize,
    normalize_label,
    postorder,
)
from .ordinal import ZERO, Ord, add, omega_pow

PLAIN = "plain"
BAR = "bar"
# Each kind of canonical name and how str() prints it.
KINDS = {"T": "T", "Tbar": "T-bar", "TjoinTbar": "T|T-bar"}


class CanonicalName(Record):
    """Which canonical class a 2-forest belongs to."""

    __slots__ = _fields = ("kind", "index")  # one of KINDS; Ord

    def __init__(self, kind: str, index: Ord):
        if kind.__class__ is not str or kind not in KINDS:
            raise ForestError(f"unknown canonical kind {kind!r}")
        set_field(self, "kind", kind)
        set_field(self, "index", index)

    def __str__(self) -> str:
        return f"{KINDS[self.kind]}[{self.index}]"


def swap_colors(f: Forest) -> Forest:
    """Exchange colors 0 and 1 everywhere, including inside nested labels."""
    swapped: dict = {}
    for t in postorder(f, True):
        if isinstance(t.label, int) and t.label > 1:
            raise ForestError(f"color {t.label} is not a 2-forest color")
        label = 1 - t.label if isinstance(t.label, int) else tuple(swapped[s] for s in t.label)
        swapped[t] = Tree(label, tuple(swapped[c] for c in t.children))
    return tuple(swapped[t] for t in as_forest(f))


def _is_bar(polarity: str) -> bool:
    """Whether the polarity is BAR; any other than PLAIN or BAR is refused."""
    if polarity not in (PLAIN, BAR):
        raise ForestError(f"unknown polarity {polarity!r}")
    return polarity == BAR


def t_flat(n: int, polarity: str = PLAIN) -> Tree:
    """The alternating chain of rank n; bar starts with color 1.  ForestError
    if n is not an int (a bool is not one), if n is negative, or if the
    polarity is neither PLAIN nor BAR."""
    check_count(n, "index", ForestError, 0, "index must be non-negative")
    start = _is_bar(polarity)
    t = Tree((start + n) % 2)
    for depth in range(n - 1, -1, -1):
        t = Tree((start + depth) % 2, (t,))
    return t


def t_nested(a: Ord, polarity: str = PLAIN) -> Forest:
    """The canonical nested 2-forest named by the notation a."""
    return _t_pair(a)[_is_bar(polarity)]


@lru_cache(maxsize=None)
def _t_pair(a: Ord) -> tuple[Forest, Forest]:
    """(T_a, bar T_a).  The d copies of w^g in b + w^g*d alternate polarity:
    each plain copy wraps the bar one below it and each bar copy the plain
    one, so only the head label is color-swapped, once per CNF term."""
    if a.is_finite():
        return (t_flat(a.to_int()),), (t_flat(a.to_int(), BAR),)
    gamma, delta = a.terms[-1]
    beta = Ord(a.terms[:-1])
    head = normalize_label(_t_pair(gamma)[0])
    bar_head = 1 - head if isinstance(head, int) else swap_colors(head)
    if beta.is_zero():
        plain, bar = Tree(head), Tree(bar_head)
    else:
        t_b, bar_b = _t_pair(beta)
        plain, bar = Tree(head, t_b + bar_b), Tree(bar_head, bar_b + t_b)
    for _ in range(delta - 1):
        plain, bar = Tree(head, (bar,)), Tree(bar_head, (plain,))
    return (plain,), (bar,)


def canonical_size(f: Forest) -> int:
    """Nodes at all nesting levels: each tree node counts once, labels recurse."""
    return len(every_node(f))


@lru_cache(maxsize=None)
def _t_size(a: Ord) -> int:
    """canonical_size(t_nested(a)) computed by the same case split.

    Labels that collapse to a bare color (exponent zero) add no nodes of
    their own beyond the root carrying them.  Each of the d copies of
    w^g in b + w^g*d adds a root and its label, and the last one also
    T_b | bar T_b, so the cost is O(notation) whatever the coefficients.
    """
    if a.is_finite():
        return a.to_int() + 1
    gamma, delta = a.terms[-1]
    beta = Ord(a.terms[:-1])
    step = 1 + (_t_size(gamma) if not gamma.is_zero() else 0)
    return delta * step + (2 * _t_size(beta) if not beta.is_zero() else 0)


def representative(name: CanonicalName, flat: bool = False) -> Forest:
    """The canonical forest a name stands for; flat=True insists that the
    index is finite, whose forest is already the flat chain."""
    if flat and not name.index.is_finite():
        raise ForestError(f"{name} has no flat representative")
    plain, bar = _t_pair(name.index)
    if name.kind == "TjoinTbar":
        return join(plain, bar)
    return plain if name.kind == "T" else bar


def classify_2forest(f: Forest) -> CanonicalName:
    """The unique name among T_n, bar T_n, T_n|bar T_n matching a flat 2-forest."""
    f = normalize(f)
    if not f:
        raise ForestError("the empty forest has no canonical name")
    name = _name(f)
    if name is None or not name.index.is_finite():
        raise ForestError("the forest is equivalent to no T_n, bar T_n or T_n|bar T_n")
    return name


def classify_2tree_nested(f: Forest, size_bound: int) -> CanonicalName | None:
    """The name T_a or bar T_a of a nested 2-forest, or None when f has
    none whose canonical forest's canonical_size is at most the int size_bound."""
    check_count(size_bound, "the size bound", ForestError)
    name = _name(normalize(f))
    if name is None or name.kind == "TjoinTbar" or _t_size(name.index) > size_bound:
        return None
    return name


def _name(f: Forest) -> CanonicalName | None:
    """The name whose canonical forest has the normal form f, or None.

    Normal forms are unique per class, so each normal tree is decoded by
    inverting the case split of _t_pair, once in its lifetime (_decode);
    one tree is T_a or bar T_a, two are T_a | bar T_a.  A canonical forest
    is its own normal form up to the order of siblings, so a guess of
    another size cannot match; that test comes first, on the sizes the
    guesses keep, so the confirmation never builds a forest larger than f.
    One comparison of normal forms confirms the guess.
    """
    guesses = [_decode(t) for t in f] if 1 <= len(f) <= 2 else [None]
    if None in guesses:
        return None
    a, polarity, _ = guesses[0]
    if len(f) * _t_size(a) != sum([g[2] for g in guesses]):
        return None
    kind = "TjoinTbar" if len(f) == 2 else "T" if polarity == PLAIN else "Tbar"
    name = CanonicalName(kind, a)
    return name if normalize(representative(name)) == f else None


# The _guess slot of a node that no canonical tree has the shape of.
_NO_GUESS = object()
_GUESS_SLOT = attrgetter("_guess")
# The head a color label gives: gamma 0, the polarity, no label nodes.
_COLOR_HEADS = ((ZERO, PLAIN, 0), (ZERO, BAR, 0))


def _decode(t: Tree) -> tuple[Ord, str, int] | None:
    """The (notation, polarity) whose canonical tree t has the shape of,
    and t's canonical_size.

    The root label names gamma and the polarity (a color is gamma 0); then
    a leaf is w^g (0 for a color), and one child bar T_b or a pair
    T_b | bar T_b is b + w^g.  Only the shape is read: the caller confirms
    the guess by comparing normal forms.  Each node keeps its guess in its
    _guess slot, so a node builds its notation and counts its nodes once
    in its lifetime: the first call fills the empty slots under t, labels
    and children first.  A node has no guess when its label tree or a
    child has none, so one node without a guess leaves t none.
    """
    if t._guess is None:
        for u in postorder((t,), True, _GUESS_SLOT):
            label, kids = u.label, u.children
            if label.__class__ is int:
                head = _COLOR_HEADS[label] if label <= 1 else _NO_GUESS
            else:
                head = label[0]._guess if len(label) == 1 else _NO_GUESS
            if head is _NO_GUESS or len(kids) > 2 or any(c._guess is _NO_GUESS for c in kids):
                guess = _NO_GUESS
            else:
                gamma, polarity, size = head
                size += 1 + sum([c._guess[2] for c in kids])
                if kids:
                    guess = add(kids[0]._guess[0], omega_pow(gamma)), polarity, size
                else:
                    guess = ZERO if label.__class__ is int else omega_pow(gamma), polarity, size
            object.__setattr__(u, "_guess", guess)
    return None if t._guess is _NO_GUESS else t._guess
