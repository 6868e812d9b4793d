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

from dataclasses import dataclass
from functools import lru_cache

from .forest import (
    Forest,
    ForestError,
    Label,
    Tree,
    as_forest,
    h_equiv,
    join,
    normalize,
    normalize_label,
    rank,
    singleton,
    wrap,
)
from .ordinal import ZERO, Ord, add, omega_pow, ord_of

PLAIN = "plain"
BAR = "bar"


@dataclass(frozen=True)
class CanonicalName:
    """Which canonical class a 2-forest belongs to."""

    kind: str  # "T", "Tbar" or "TjoinTbar"
    index: Ord

    def __str__(self) -> str:
        pretty = {"T": "T", "Tbar": "T-bar", "TjoinTbar": "T|T-bar"}[self.kind]
        return f"{pretty}[{self.index}]"


def swap_colors(f: Forest) -> Forest:
    """Exchange colors 0 and 1 everywhere, including inside nested labels."""
    return tuple(_swap_tree(t) for t in as_forest(f))


def _swap_tree(t: Tree) -> Tree:
    return Tree(_swap_label(t.label), swap_colors(t.children))


def _swap_label(label: Label) -> Label:
    if isinstance(label, int):
        if label > 1:
            raise ForestError(f"color {label} is not a 2-forest color")
        return 1 - label
    return swap_colors(label)


def t_flat(n: int, polarity: str = PLAIN) -> Tree:
    """The alternating chain of rank n; bar starts with color 1."""
    if n < 0:
        raise ForestError("index must be non-negative")
    start = 0 if polarity == PLAIN else 1
    t = Tree((start + n) % 2)
    for depth in range(n - 1, -1, -1):
        t = Tree((start + depth) % 2, (t,))
    return t


@lru_cache(maxsize=None)
def t_nested(a: Ord, polarity: str = PLAIN) -> Forest:
    """The canonical nested 2-forest named by the notation a."""
    f = _t_plain(a)
    return swap_colors(f) if polarity == BAR else f


@lru_cache(maxsize=None)
def _t_plain(a: Ord) -> Forest:
    if a.is_finite():
        return (t_flat(a.to_int()),)
    gamma, delta = a.terms[-1]
    beta = Ord(a.terms[:-1])
    head = normalize_label(_t_plain(gamma))
    if delta == 1 and beta.is_zero():
        return singleton(head)
    if delta == 1:
        body = join(_t_plain(beta), swap_colors(_t_plain(beta)))
    else:
        body = swap_colors(_t_plain(add(beta, Ord(((gamma, delta - 1),)))))
    return (wrap(head, body),)


def canonical_size(f: Forest) -> int:
    """Nodes at all nesting levels: each tree node counts once, labels recurse."""
    f = as_forest(f)
    total = 0
    for t in f:
        total += 1
        if not isinstance(t.label, int):
            total += canonical_size(t.label)
        total += canonical_size(t.children)
    return total


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
    """The canonical forest a name stands for."""
    if flat:
        n = name.index.to_int()
        if name.kind == "T":
            return (t_flat(n, PLAIN),)
        if name.kind == "Tbar":
            return (t_flat(n, BAR),)
        return (t_flat(n, PLAIN), t_flat(n, BAR))
    if name.kind == "T":
        return t_nested(name.index, PLAIN)
    if name.kind == "Tbar":
        return t_nested(name.index, BAR)
    return join(t_nested(name.index, PLAIN), t_nested(name.index, BAR))


def classify_2forest(f: Forest) -> CanonicalName:
    """The unique name among T_n, bar T_n, T_n|bar T_n matching a flat 2-forest.

    The index is the rank of the normalized forest (alternation depth);
    the match is then verified by h-equivalence in both directions.
    """
    f = normalize(as_forest(f))
    if not f:
        raise ForestError("the empty forest has no canonical name")
    n = rank(f)
    matches = [
        name
        for kind in ("T", "Tbar", "TjoinTbar")
        for name in [CanonicalName(kind, ord_of(n))]
        if h_equiv(f, representative(name, flat=True))
    ]
    if len(matches) != 1:
        raise ForestError(f"classification failed: {len(matches)} matches at index {n}")
    return matches[0]


def classify_2tree_nested(f: Forest, size_bound: int) -> CanonicalName | None:
    """The name T_a or bar T_a of a nested 2-forest, read off its normal form.

    Normal forms are unique per class, so the single normal tree of f is
    decoded by inverting the case split of _t_plain, and one comparison of
    normal forms confirms the name.  None means f has no such name whose
    canonical forest has canonical_size at most size_bound: either f is
    equivalent to no T_a or bar T_a, or its name's tree is over the bound.
    """
    f = normalize(as_forest(f))
    name = _decode(f[0]) if len(f) == 1 else None
    if name is None or _t_size(name[0]) > size_bound:
        return None
    a, polarity = name
    if normalize(t_nested(a, polarity)) != f:
        return None
    return CanonicalName("T" if polarity == PLAIN else "Tbar", a)


def _decode(t: Tree) -> tuple[Ord, str] | None:
    """The (notation, polarity) whose canonical tree t has the shape of.

    The root label names gamma and the polarity (a color is gamma 0); then
    a leaf is w^g (0 for a color), and one child bar T_b or a pair
    T_b | bar T_b is b + w^g.  Only the shape is read: the caller confirms
    the guess by comparing normal forms.
    """
    if isinstance(t.label, int):
        if t.label > 1:
            return None
        gamma, polarity = ZERO, (PLAIN, BAR)[t.label]
    else:
        head = _decode(t.label[0]) if len(t.label) == 1 else None
        if head is None:
            return None
        gamma, polarity = head
    kids = [_decode(c) for c in t.children]
    if None in kids or len(kids) > 2:
        return None
    if not kids:
        return (ZERO if isinstance(t.label, int) else omega_pow(gamma)), polarity
    return add(kids[0][0], omega_pow(gamma)), polarity
