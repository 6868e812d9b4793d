"""The four workloads: seeded op streams, the ops, and their checks.

An op is a Spec drawn from a workload's stream.  `run` calls the library
only through `call(name, nodes, *args)`, which the worker binds to the
library function of that name, timed or not; `check` judges the op's
result after the timed phase against the references in ref.py or the
oracles, never against the fast path that produced it.  A check returns
True, False, or the failure a known defect shows (see KNOWN_DEFECTS).

Ops come in shuffled blocks with fixed counts per op and fixed size
classes, so every seed sends the same mix and only the inputs differ.
"""

from __future__ import annotations

import json
import random
from itertools import cycle, product

import gen
import ref

QUERY, BUILD = "query", "build"
CLASSIFY_BOUND = 8  # size bound for classify_2tree_nested

# Open defects, by the tag their ops carry in Spec.extra, and the one way
# each fails today.  Their failures count in error_rate; any other failure
# of a tagged op is unexpected.  nested-meet: meet misses lower bounds that
# map several nodes into one node with a nested label, e.g. 0*1 is below
# s(0*1) and 0*(0*1|2*0), yet their meet comes out as 0|1.
KNOWN_DEFECTS = {"deep": "traceback", "chain40": "deadline",
                 "nested-meet": "not greatest"}


class Spec:
    __slots__ = ("op", "a", "b", "extra", "nodes")

    def __init__(self, op, a=None, b=None, extra=None, nodes=0):
        self.op, self.a, self.b, self.extra, self.nodes = op, a, b, extra, nodes


class Item:
    """One generated forest: its text and the structure it was written from."""

    __slots__ = ("text", "f", "nodes", "level", "depth")

    def __init__(self, f):
        self.f = f
        self.text = gen.term(f)
        self.nodes = gen.nodes(f)
        self.level = gen.level(f)
        self.depth = gen.depth(f)


# ---------------------------------------------------------------------------
# forest, nested and canonical ops (calculus, calculus-large)


def run_compare(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    g = call("nested.parse_term", s.b.nodes, s.b.text)
    return (call("forest.h_leq", s.nodes, f, g), call("forest.h_leq", s.nodes, g, f))


def check_compare(s, res, lib):
    want = (ref.leq(s.a.f, s.b.f), ref.leq(s.b.f, s.a.f))
    if s.extra == "oracle":
        f, g = lib.parse_term(s.a.text), lib.parse_term(s.b.text)
        want = (lib.oracle_h_leq(f, g), lib.oracle_h_leq(g, f))
    return res == want


def run_meet(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    g = call("nested.parse_term", s.b.nodes, s.b.text)
    return call("forest.meet", s.nodes, f, g)


def check_meet(s, res, lib):
    return glb_check(ref.from_lib(res), s.a.f, s.b.f)


def meet_tag(a, b):
    """The defect tag of a meet of these two items, if it has one."""
    return "nested-meet" if max(a.level, b.level) > 1 else None


def glb_check(m, a, b):
    """m must be a lower bound of a and b, and no lower bound that is a
    node's subtree in a or b may lie outside it (so an empty or too-low m
    fails).  Missing only subtrees of several nodes is the nested-meet
    defect, "not greatest"; missing a single node is wrong."""
    if not (ref.leq(m, a) and ref.leq(m, b)):
        return False
    missed = [t for x, y in ((a, b), (b, a)) for t in ref.subtrees(x)
              if ref.leq((t,), y) and not ref.leq((t,), m)]
    if not missed:
        return True
    return all(t[1] for t in missed) and "not greatest"


def run_join(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    g = call("nested.parse_term", s.b.nodes, s.b.text)
    return call("forest.normalize", s.nodes, call("forest.join", s.nodes, f, g))


def check_join(s, res, lib):
    # an upper bound of both that is below their disjoint union
    return ref.equiv(ref.from_lib(res), s.a.f + s.b.f)


def run_normalize(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    n = call("forest.normalize", s.nodes, f)
    return n, call("nested.print_term", s.nodes, n)


def check_normalize(s, res, lib):
    n, text = res
    return (ref.equiv(ref.from_lib(n), s.a.f) and lib.parse_term(text) == n
            and canonical_ok(n, s.a.f, lib))


def canonical_ok(n, f, lib) -> bool:
    """n is what normalize makes of an h-equivalent rewrite of f: a normal
    form is one representative per class, so an input left as it was fails."""
    return lib.normalize(lib.parse_term(gen.term(twin(f)))) == n


def twin(f):
    """f with one node doubled and its components reversed: h-equivalent."""
    if not f:
        return f
    return tuple(reversed(gen.pad(random.Random(gen.term(f)), f, 1)))


def run_morphism(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    g = call("nested.parse_term", s.b.nodes, s.b.text)
    x = call("nested.flatten", s.a.nodes, f, s.extra)
    y = call("nested.flatten", s.b.nodes, g, s.extra)
    return call("nested.morphism_exists", s.nodes, x, y)


def check_morphism(s, res, lib):
    return res == ref.leq(s.a.f, s.b.f)


def run_classify_flat(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    return call("canonical.classify_2forest", s.nodes, f)


def check_classify_flat(s, res, lib):
    rep = lib.representative(res, flat=True)
    return ref.equiv(ref.from_lib(rep), s.a.f)


def run_classify_nested(call, s):
    f = call("nested.parse_term", s.a.nodes, s.a.text)
    return call("canonical.classify_2tree_nested", s.nodes, f, CLASSIFY_BOUND)


def check_classify_nested(s, res, lib):
    """The input was built h-equivalent to T_a or bar T_a, so the name is known.

    Canonical trees of distinct names are inequivalent, so the answer is
    None exactly when the known name's tree exceeds the size bound.
    """
    kind, a, fits = s.extra
    if not fits:
        return res is None
    return (res is not None and res.kind == kind and ordinal_of(res.index) == a
            and ref.equiv(ref.from_lib(lib.representative(res)), s.a.f))


def ordinal_of(o) -> tuple:
    """A library Ord as a generator ordinal."""
    return tuple((ordinal_of(e), c) for e, c in o.terms)


def run_canonical(call, s):
    text, kind = s.a
    a = call("ordinal.parse_ordinal", 0, text)
    rep = call("canonical.representative", s.nodes, call.lib.CanonicalName(kind, a))
    return a, rep, call("nested.print_term", s.nodes, rep)


def check_canonical(s, res, lib):
    a, rep, text = res
    _, kind = s.a
    return (ordinal_of(a) == s.b and lib.parse_term(text) == lib.normalize(rep)
            and ref.equiv(ref.from_lib(rep), gen.canonical_forest(s.b, kind)))


# ---------------------------------------------------------------------------
# finite-space ops (hierarchy)


class Space:
    __slots__ = ("text", "up", "n")

    def __init__(self, up):
        self.up, self.n = up, len(up)
        self.text = gen.space_json(up)


def _space(call, s):
    return call("space.from_json", 0, json.loads(s.a.text))


def _base(call, sp, kind):
    return call("space.up_sets", 0, sp) if kind == "upsets" \
        else call("space.powerset_base", 0, sp)


def _ref_base(sp: Space, kind):
    return ref.upset_masks(sp.up) if kind == "upsets" else frozenset(range(1 << sp.n))


def run_dh(call, s):
    kind, labels, k = s.extra
    sp = _space(call, s)
    base = _base(call, sp, kind)
    f = call("nested.parse_term", s.b.nodes, s.b.text)
    part = call.lib.KPartition(labels, k)
    return base, call("space.dh_membership", s.nodes, part, f, base, sp)


def check_dh(s, res, lib):
    kind, labels, _ = s.extra
    base, member = res
    want = _ref_base(s.a, kind)
    return base == want and member == ref.member(labels, s.b.f, [want])


def run_fh(call, s):
    labels, k = s.extra
    sp = _space(call, s)
    levels = [call("space.up_sets", 0, sp), call("space.powerset_base", 0, sp)]
    omega = call("space.validate_omega_base", 0, levels, sp.n)
    f = call("nested.parse_term", s.b.nodes, s.b.text)
    part = call.lib.KPartition(labels, k)
    return call("space.fh_membership", s.nodes, part, f, omega, sp)


def check_fh(s, res, lib):
    labels, _ = s.extra
    omega = [_ref_base(s.a, "upsets"), _ref_base(s.a, "powerset")]
    return res == ref.member(labels, s.b.f, omega)


def run_reduce_check(call, s):
    sp = _space(call, s)
    base = _base(call, sp, s.extra)
    return call("space.has_reduction_property", 0, base)


def check_reduce_check(s, res, lib):
    return res == ref.has_reduction(_ref_base(s.a, s.extra))


def run_witness(call, s):
    kind, labels, k = s.extra
    sp = _space(call, s)
    base = _base(call, sp, kind)
    f = call("nested.parse_term", s.b.nodes, s.b.text)
    part = call.lib.KPartition(labels, k)
    fam = call("space.dh_witness_family", s.nodes, part, f, base, sp)
    if fam is None:
        return None
    return fam, call("space.reduce_family", s.nodes, fam, base, sp), sp


def check_witness(s, res, lib):
    kind, labels, _ = s.extra
    base = _ref_base(s.a, kind)
    if res is None:
        return not ref.member(labels, s.b.f, [base])
    fam, red, sp = res
    for family in (fam, red):
        defined, _ = lib.family_defines(family, sp)
        if defined is None or defined.labels != labels:
            return False
        if not set(family.sets.values()) <= base:
            return False
    return ref.is_reduced(red.sets)


def run_degrees(call, s):
    sp = _space(call, s)
    return call("degrees.degree_poset", 0, sp, s.extra)


def degree_summary(classes, leq_pairs):
    """Classes as frozensets of label tuples and the order as class pairs."""
    cls = [frozenset(map(tuple, c)) for c in classes]
    return frozenset(cls), frozenset((cls[i], cls[j]) for i, j in leq_pairs)


def check_degrees(s, res, lib):
    got = degree_summary([[a.labels for a in c] for c in res.classes],
                         [(i, j) for i, js in enumerate(res.leq) for j in js])
    return got == ref.degrees(s.a.up, s.extra)


def run_report(call, s):
    sp = _space(call, s)
    base = _base(call, sp, "upsets")
    forests = [call("nested.parse_term", item.nodes, item.text) for item in s.b]
    return call("space.hierarchy_report", s.nodes, sp, base, forests, 2)


def check_report(s, res, lib):
    base = [ref.upset_masks(s.a.up)]
    classes = []
    for item in s.b:
        if not any(ref.equiv(item.f, g) for g in classes):
            classes.append(item.f)
    if len(res["levels"]) != len(classes):
        return False
    parts = list(product(range(2), repeat=s.a.n))
    for lvl in res["levels"]:
        f = ref.from_lib(lib.parse_term(lvl["forest"]))
        match = [g for g in classes if ref.equiv(f, g)]
        want = sorted(list(p) for p in parts if ref.member(p, f, base))
        if len(match) != 1 or lvl["members"] != want:
            return False
    return True


# ---------------------------------------------------------------------------
# op table: name -> (kind, run, check)

OPS = {
    "compare": (QUERY, run_compare, check_compare),
    "morphism": (QUERY, run_morphism, check_morphism),
    "classify_flat": (QUERY, run_classify_flat, check_classify_flat),
    "classify_nested": (QUERY, run_classify_nested, check_classify_nested),
    "meet": (BUILD, run_meet, check_meet),
    "join_normalize": (BUILD, run_join, check_join),
    "normalize": (BUILD, run_normalize, check_normalize),
    "canonical": (BUILD, run_canonical, check_canonical),
    "dh": (QUERY, run_dh, check_dh),
    "dh_chain": (QUERY, run_dh, check_dh),
    "fh": (QUERY, run_fh, check_fh),
    "reduce_check": (QUERY, run_reduce_check, check_reduce_check),
    "witness_reduce": (BUILD, run_witness, check_witness),
    "degrees": (BUILD, run_degrees, check_degrees),
    "report": (BUILD, run_report, check_report),
}

# ops per shuffled block, derived by mix.py from the library calls the
# acceptance suites make at their fast presets; an op no suite calls gets 1
MIX = {
    "calculus": {"compare": 14, "morphism": 3, "classify_flat": 1,
                 "classify_nested": 1, "meet": 1, "join_normalize": 1,
                 "normalize": 4, "canonical": 1},
    "calculus-large": {"compare": 14, "classify_flat": 1, "classify_nested": 1,
                       "meet": 1, "join_normalize": 1, "normalize": 4,
                       "canonical": 1},
    "hierarchy": {"dh": 21, "dh_chain": 1, "fh": 1, "reduce_check": 1,
                  "witness_reduce": 1, "degrees": 1, "report": 1},
}


def _blocks(rng: random.Random, mix: dict):
    block = [op for op, w in mix.items() for _ in range(w)]
    while True:
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# input generation


def _ordinal_pool(rng, count, lo, hi):
    """`count` notations spread evenly over the canonical sizes in [lo, hi]
    that a fixed number of draws hit, so pools differ only in content and
    every seed spends the same set-up on them."""
    buckets = {}
    for _ in range(6 * count):
        a = gen.random_ordinal(rng, 2, 3, rng.randint(0, 2))
        size = gen.canonical_size(gen.t_plain(a))
        if lo <= size <= hi:
            buckets.setdefault(size, []).append(a)
    sizes = sorted(buckets)
    return [rng.choice(buckets[sizes[i % len(sizes)]]) for i in range(count)]


def _classify_input(rng, a, kind, pad):
    """A forest built h-equivalent to T_a or bar T_a, with the answer it must get."""
    f = gen.pad(rng, gen.canonical_forest(a, kind), pad)
    fits = gen.canonical_size(gen.t_plain(a)) <= CLASSIFY_BOUND
    return Item(f), (kind, a, fits)


def _canonical_input(a, kind):
    return (gen.ord_text(a), kind), a, gen.nodes(gen.canonical_forest(a, kind))


def classify_nested_pool(rng, count):
    return [_classify_input(rng, a, ("T", "Tbar")[i % 2], rng.randint(0, 3))
            for i, a in enumerate(_ordinal_pool(rng, count, 1, CLASSIFY_BOUND + 6))]


# node counts of T_a that a pool's draws hit for every seed tried (300 of them)
CANONICAL_NODES = (2, 3, 4, 6, 8, 9)


def canonical_pool(rng, count):
    """`count` canonical-name inputs, the same number at each node count of
    T_a and each polarity, so the largest forests, which make the build
    tail of `calculus`, are the same sizes for every seed."""
    buckets = {}
    for _ in range(6 * count):
        a = gen.random_ordinal(rng, 2, 3, rng.randint(0, 2))
        t = gen.t_plain(a)
        if gen.canonical_size(t) <= 14:
            buckets.setdefault(gen.nodes(t), []).append(a)

    def near(n):
        return buckets[min(buckets, key=lambda m: (abs(m - n), m))]

    return [_canonical_input(rng.choice(near(CANONICAL_NODES[i // 3 % len(CANONICAL_NODES)])),
                             ("T", "Tbar", "TjoinTbar")[i % 3])
            for i in range(count)]


def _stratified(rng, count, sizes, **shape):
    """`count` forests, the same number at each size, so pools differ only in content."""
    sizes = list(sizes)
    return [Item(gen.random_forest(rng, sizes[i % len(sizes)], **shape))
            for i in range(count)]


def calculus_stream(rng: random.Random):
    """Pairs drawn with replacement from small seeded pools, so subterms repeat."""
    flat = _stratified(rng, 64, range(1, 7), k=3, p_chain=0.4)
    nested = _stratified(rng, 64, range(2, 6), k=2, lvl=3, p_nested=0.5)
    two = _stratified(rng, 36, range(1, 7), k=2, p_chain=0.4)
    canon = canonical_pool(rng, 96)
    classify = classify_nested_pool(rng, 96)
    return _calculus_ops(rng, flat + nested, two, canon, classify)


def _calculus_ops(rng, mixed, two, canon, classify):
    for op in _blocks(rng, MIX["calculus"]):
        if op in ("compare", "meet", "join_normalize", "morphism"):
            a, b = rng.choice(mixed), rng.choice(mixed)
            extra = {"compare": "oracle", "meet": meet_tag(a, b)}.get(op)
            if op == "morphism":
                extra = max(a.level, b.level, 1)
            yield Spec(op, a, b, extra, a.nodes + b.nodes)
        elif op == "normalize":
            a = rng.choice(mixed)
            yield Spec(op, a, nodes=a.nodes)
        elif op == "classify_flat":
            a = rng.choice(two)
            yield Spec(op, a, nodes=a.nodes)
        elif op == "classify_nested":
            a, extra = rng.choice(classify)
            yield Spec(op, a, extra=extra, nodes=a.nodes)
        else:
            text_kind, a, n = rng.choice(canon)
            yield Spec(op, text_kind, a, nodes=n)


LARGE_SIZES = (30, 35, 40, 45, 50, 55, 60)
CHAIN_SHARES = (0.3, 0.6, 0.9, 0.97)  # chance a node goes below the newest one
CLASSIFY_PADS = (20, 25, 30, 35, 40)


def calculus_large_stream(rng: random.Random):
    """Every op on inputs of its own: little reuse for the memo caches.

    Each op kind cycles through sizes, chain shares, notations and paddings
    in a fixed order, so every seed sends the same classes of input and
    only their content differs: the rare costly inputs that make the tails
    come in the same numbers.  The notations are the same for every seed,
    as their cost varies most; the forests built from them differ.  Meet
    operands are shallow: meets of two deep forests have an exponential
    tail that would blow the op deadline.
    """
    sizes = {op: cycle(LARGE_SIZES) for op in MIX["calculus-large"]}
    chains = {op: cycle(CHAIN_SHARES) for op in MIX["calculus-large"]}
    fixed = random.Random("calculus-large notations")
    notations = cycle(_ordinal_pool(fixed, 64, 1, CLASSIFY_BOUND + 6))
    pads = cycle(CLASSIFY_PADS)
    canon = cycle(_ordinal_pool(fixed, 64, 30, 44))
    polarities = cycle(("T", "Tbar"))
    kinds = cycle(("T", "Tbar", "TjoinTbar"))

    def forest(op, k=3):
        p_chain = 0.3 if op == "meet" else next(chains[op])
        return Item(gen.random_forest(rng, next(sizes[op]), k, 2,
                                      p_nested=0.03 if k == 3 else 0.0, p_chain=p_chain))

    for op in _blocks(rng, MIX["calculus-large"]):
        if op in ("compare", "join_normalize", "meet"):
            a, b = forest(op), forest(op)
            yield Spec(op, a, b, meet_tag(a, b) if op == "meet" else None, a.nodes + b.nodes)
        elif op in ("normalize", "classify_flat"):
            a = forest(op, 3 if op == "normalize" else 2)
            yield Spec(op, a, nodes=a.nodes)
        elif op == "classify_nested":
            a, extra = _classify_input(rng, next(notations), next(polarities), next(pads))
            yield Spec(op, a, extra=extra, nodes=a.nodes)
        else:
            text_kind, a, n = _canonical_input(next(canon), next(kinds))
            yield Spec(op, text_kind, a, nodes=n)


def input_ranges(specs) -> dict:
    """Node count, depth and nesting level ranges of the forests the ops read."""
    items = {}
    for s in specs:
        for x in (s.a, s.b):
            for item in (x if isinstance(x, (list, tuple)) else (x,)):
                if isinstance(item, Item):
                    items[id(item)] = item
    items = list(items.values())
    if not items:
        return {}
    return {key: [min(getattr(i, key) for i in items), max(getattr(i, key) for i in items)]
            for key in ("nodes", "depth", "level")}


POSET_SIZES = (2, 3, 4, 5)
CHAIN_SIZES = (6, 8, 10, 12, 14, 16)
DEGREE_SPACES = ((gen.chain(2), 2), (gen.chain(3), 2), (gen.antichain(2), 3),
                 (gen.DIAMOND, 2), (gen.chain(3), 3))


def hierarchy_stream(rng: random.Random):
    """Finite-space ops; forests have at most four nodes.

    Size classes cycle in a fixed order, so every seed sends the same
    sizes; the seed picks the posets, forests and partitions.
    """
    posets = [Space(gen.random_poset(rng, n)) for n in POSET_SIZES for _ in range(16)]
    by_size = {n: [p for p in posets if p.n == n] for n in POSET_SIZES}
    flat = [Item(gen.random_forest(rng, rng.randint(1, 4), 3)) for _ in range(64)]
    nested = [Item(gen.random_forest(rng, rng.randint(2, 4), 2, 2, p_nested=0.5))
              for _ in range(64)]
    two = _stratified(rng, 33, range(1, 4), k=2)  # report: one forest of each size
    chains = {n: Space(gen.chain(n)) for n in CHAIN_SIZES}
    reducible = [Space(gen.chain(n)) for n in (2, 3, 4)]
    sizes = {op: cycle(POSET_SIZES) for op in ("dh", "fh", "reduce_check", "witness_reduce")}
    chain_sizes = cycle(CHAIN_SIZES)
    degree_spaces = cycle(DEGREE_SPACES)
    report_sizes = cycle((2, 3))

    def labels(n, k):
        return tuple(rng.randrange(k) for _ in range(n))

    def stream():
        for op in _blocks(rng, MIX["hierarchy"]):
            if op == "dh":
                sp, f = rng.choice(by_size[next(sizes[op])]), rng.choice(flat)
                kind = rng.choice(("upsets", "powerset"))
                yield Spec(op, sp, f, (kind, labels(sp.n, 3), 3), f.nodes)
            elif op == "dh_chain":
                sp, f = chains[next(chain_sizes)], rng.choice(flat)
                yield Spec(op, sp, f, ("upsets", labels(sp.n, 3), 3), f.nodes)
            elif op == "fh":
                n = min(next(sizes[op]), 3)
                sp, f = rng.choice(by_size[n]), rng.choice(nested)
                yield Spec(op, sp, f, (labels(sp.n, 2), 2), f.nodes)
            elif op == "reduce_check":
                sp = rng.choice(by_size[next(sizes[op])])
                yield Spec(op, sp, extra=rng.choice(("upsets", "powerset")))
            elif op == "witness_reduce":
                n = next(sizes[op])
                # bases with the reduction property: chain up-sets, powersets
                if rng.random() < 0.5:
                    sp, kind = reducible[n % 3], "upsets"
                else:
                    sp, kind = rng.choice(by_size[min(n, 4)]), "powerset"
                f = rng.choice(flat)
                yield Spec(op, sp, f, (kind, labels(sp.n, 3), 3), f.nodes)
            elif op == "degrees":
                up, k = next(degree_spaces)
                yield Spec(op, Space(up), extra=k)
            else:
                sp = rng.choice(by_size[next(report_sizes)])
                fs = [rng.choice(two[j::3]) for j in range(3)]
                yield Spec(op, sp, fs, nodes=sum(f.nodes for f in fs))

    return stream()
