"""Seeded input generator for the benchmark.

Everything here is plain Python over the benchmark's own structures and
never imports hforest, so generation warms no library cache and the
library only ever receives text.

Structures:
  forest = tuple of trees (the empty tuple is bottom)
  tree   = (label, children) with label an int color or a forest
  ordinal = tuple of (exponent ordinal, coefficient) in Cantor normal form
"""

from __future__ import annotations

import json
import random

# ---------------------------------------------------------------------------
# forests


def nodes(f) -> int:
    """Nodes at every nesting level (the library's node_count); this is also
    the number of elements of the flattened presentation."""
    return sum((1 if isinstance(l, int) else nodes(l)) + nodes(c) for l, c in f)


def level(f) -> int:
    """Nesting level: 0 for bottom, 1 for flat forests."""
    if not f:
        return 0
    out = 1
    stack = list(f)
    while stack:
        label, kids = stack.pop()
        if not isinstance(label, int):
            out = max(out, 1 + level(label))
        stack.extend(kids)
    return out


def depth(f) -> int:
    """Longest root-to-leaf chain in nodes (0 for bottom)."""
    return max((1 + depth(c) for _, c in f), default=0)


def term(f) -> str:
    """Render in the term DSL: '|' joins trees, '*' puts a root above a forest."""
    if not f:
        return "bot"
    return "|".join(_tree_term(t) for t in f)


def _tree_term(t) -> str:
    label, kids = t
    if isinstance(label, int):
        head = str(label)
        if not kids:
            return head
    else:
        if not kids:
            return f"s({term(label)})"
        head = f"({term(label)})"
    body = _tree_term(kids[0]) if len(kids) == 1 else f"({term(kids)})"
    return f"{head}*{body}"


def is_bare_color(f) -> bool:
    """A single childless color tree: the DSL identifies it with the color."""
    return len(f) == 1 and isinstance(f[0][0], int) and not f[0][1]


def random_forest(rng: random.Random, budget: int, k: int, lvl: int = 1,
                  p_nested: float = 0.0, p_chain: float = 0.3):
    """A forest with `budget` nodes and nesting level <= lvl.

    Nodes are attached one at a time: with probability p_chain below the
    newest node (deep chains), otherwise below a uniformly chosen node or
    as a new root.
    """
    labels, parents = [], []
    used = 0
    while used < budget:
        remaining = budget - used
        if lvl >= 2 and remaining >= 2 and rng.random() < p_nested:
            # two nodes or more: never a bare color, which the DSL would collapse
            inner = random_forest(rng, rng.randint(2, min(remaining, 4)), k,
                                  lvl - 1, p_nested, p_chain)
        else:
            inner = rng.randrange(k)
        labels.append(inner)
        used += 1 if isinstance(inner, int) else nodes(inner)
        if not parents:
            parents.append(None)
        elif rng.random() < p_chain:
            parents.append(len(parents) - 1)
        else:
            choice = rng.randrange(len(parents) + 1)
            parents.append(None if choice == len(parents) else choice)

    kids = [[] for _ in parents]
    roots = []
    for i, p in enumerate(parents):
        (roots if p is None else kids[p]).append(i)
    built = [None] * len(parents)
    for i in range(len(parents) - 1, -1, -1):  # children come after parents
        built[i] = (labels[i], tuple(built[j] for j in kids[i]))
    return tuple(built[i] for i in roots)


# ---------------------------------------------------------------------------
# ordinals and the canonical 2-labeled trees they name


ZERO = ()
ONE = ((ZERO, 1),)


def ord_cmp(a, b) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = ord_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def ord_text(a) -> str:
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if not exp:
            parts.append(str(coeff))
            continue
        base = "w" if exp == ONE else f"w^({ord_text(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


def swap(f):
    return tuple((1 - l if isinstance(l, int) else swap(l), swap(c)) for l, c in f)


def _as_label(f):
    return f[0][0] if is_bare_color(f) else f


def t_plain(a):
    """The canonical nested 2-forest T_a, by the case split on the last CNF term."""
    if all(not exp for exp, _ in a):
        n = a[-1][1] if a else 0
        t = ((n % 2, ()),)
        for d in range(n - 1, -1, -1):
            t = ((d % 2, t),)
        return t
    gamma, delta = a[-1]
    beta = a[:-1]
    head = _as_label(t_plain(gamma))
    if delta == 1 and not beta:
        return ((head, ()),)
    if delta == 1:
        body = t_plain(beta) + swap(t_plain(beta))
    else:
        body = swap(t_plain(beta + ((gamma, delta - 1),)))
    return ((head, body),)


def canonical_forest(a, kind: str):
    """T, bar T or T | bar T for the notation a."""
    t = t_plain(a)
    return {"T": t, "Tbar": swap(t), "TjoinTbar": t + swap(t)}[kind]


def canonical_size(f) -> int:
    """The library's canonical_size: tree nodes once each, labels recurse."""
    return sum(1 + (0 if isinstance(l, int) else canonical_size(l))
               + canonical_size(c) for l, c in f)


def random_ordinal(rng: random.Random, max_terms: int, max_coeff: int,
                   exp_depth: int):
    """A random CNF notation with strictly decreasing exponents."""
    if exp_depth == 0:
        return ((ZERO, rng.randint(1, max_coeff)),)
    exps = set()
    for _ in range(rng.randint(1, max_terms)):
        e = random_ordinal(rng, max_terms, max_coeff, exp_depth - 1) \
            if rng.random() < 0.6 else ZERO
        exps.add(e)
    ordered = sorted(exps, key=_OrdKey, reverse=True)
    return tuple((e, rng.randint(1, max_coeff)) for e in ordered)


class _OrdKey:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __lt__(self, other):
        return ord_cmp(self.a, other.a) < 0


def pad(rng: random.Random, f, extra: int):
    """An h-equivalent forest with about `extra` more nodes.

    A node is duplicated as its own parent (c*(c*G) is equivalent to c*G),
    so the class of the forest is unchanged.
    """
    f = list(f)
    start = nodes(f)
    while nodes(f) - start < extra:
        i = rng.randrange(len(f))
        f[i] = _pad_tree(rng, f[i])
    return tuple(f)


def _pad_tree(rng, t):
    label, kids = t
    if kids and (not isinstance(label, int) or rng.random() < 0.6):
        j = rng.randrange(len(kids))
        kids = kids[:j] + (_pad_tree(rng, kids[j]),) + kids[j + 1:]
        return (label, kids)
    return (label, ((label, kids),))


# ---------------------------------------------------------------------------
# finite spaces: posets as up-set bitmask rows


def random_poset(rng: random.Random, n: int, density: float = 0.35):
    """A random partial order on n points (i <= j only for i < j), closed."""
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= 1 << j
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    return tuple(up)


def chain(n: int):
    return tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))


def antichain(n: int):
    return tuple(1 << i for i in range(n))


DIAMOND = (0b1101, 0b1110, 0b0100, 0b1000)


def space_json(up) -> str:
    n = len(up)
    pairs = [[i, j] for i in range(n) for j in range(n) if i != j and up[i] >> j & 1]
    return json.dumps({"points": n, "le": pairs})


def space_text(up) -> str:
    """The CLI's short names where they apply, JSON otherwise."""
    n = len(up)
    if up == chain(n):
        return f"chain:{n}"
    if up == antichain(n):
        return f"antichain:{n}"
    if up == DIAMOND:
        return "diamond"
    return space_json(up)


def upsets(up) -> list:
    """Every up-set of the poset, by brute force over all masks."""
    n = len(up)
    return [m for m in range(1 << n)
            if all(not (m >> i & 1) or up[i] & ~m == 0 for i in range(n))]


def mask_points(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
