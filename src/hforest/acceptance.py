"""Self-validation suites pitting the optimized operations against
independent brute-force checks on exhaustive desk-scale corpora.

Each suite returns (ok, detail).  Default parameters are the mandated
corpus sizes; the smaller `fast` presets serve the quick selftest.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, product

from . import canonical, degrees, forest, nested, oracles, space
from .forest import h_equiv, h_leq, join, meet, node_count, normalize
from .nested import flatten, morphism_exists, nesting_level, parse_term, print_term
from .ordinal import Ord, pred
from .space import all_partitions, dh_membership, up_sets


def _fail(detail: str):
    return False, detail


def a1_h_preorder_oracle(flat_nodes: int = 6, flat_k: int = 3,
                         nested_nodes: int = 5, nested_level: int = 2,
                         nested_k: int = 2, nested_sample: int = 213,
                         canonical_corpora=((2, 5), (3, 4)),
                         extra_samples: int = 20000, seed: int = 0):
    """h_leq agrees with exhaustive map enumeration, flat and nested, and
    normal forms are one per class.

    The nested pairs run over a fixed-seed sample of distinct raw forests:
    their normal forms are too few to exercise h_leq.  Each
    (level, max nodes) corpus in canonical_corpora, at nested_k colors,
    checks every forest against its normal form and every two distinct
    normal forms against each other, by morphism_exists both ways.
    """
    checked = 0
    jobs = [
        (oracles.normalized_corpus(oracles.flat_forests(flat_nodes, flat_k)), 1),
        (oracles.sample_forests(
            oracles.nested_forests(nested_nodes, nested_k, nested_level),
            nested_sample, seed),
         nested_level),
    ]
    for corpus, depth in jobs:
        flats = [flatten(f, depth) for f in corpus]
        for i, f in enumerate(corpus):
            for j, g in enumerate(corpus):
                if h_leq(f, g) != morphism_exists(flats[i], flats[j]):
                    return _fail(
                        f"disagreement on {print_term(f)} vs {print_term(g)}")
                checked += 1
    for level, nodes in canonical_corpora:
        corpus = oracles.nested_forests(nodes, nested_k, level)
        normal = [normalize(f) for f in corpus]
        forms = list(dict.fromkeys(normal))
        flats = {f: flatten(f, level) for f in dict.fromkeys((*corpus, *forms))}
        for f, n in zip(corpus, normal):
            x, y = flats[f], flats[n]
            if not (morphism_exists(x, y) and morphism_exists(y, x)):
                return _fail(f"{print_term(f)} is not equivalent to its normal form")
            checked += 1
        for i, f in enumerate(forms):
            for g in forms[i + 1:]:
                x, y = flats[f], flats[g]
                if morphism_exists(x, y) and morphism_exists(y, x):
                    return _fail(
                        f"two normal forms of one class: {print_term(f)}, {print_term(g)}")
                checked += 1
    rng = random.Random(seed)
    pool = oracles.nested_forests(nested_nodes, 3, nested_level)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(extra_samples)]
    flats = {f: flatten(f, nested_level)
             for f in dict.fromkeys(x for pair in pairs for x in pair)}
    for f, g in pairs:
        if h_leq(f, g) != morphism_exists(flats[f], flats[g]):
            return _fail(
                f"sampled disagreement on {print_term(f)} vs {print_term(g)}")
        checked += 1
    return True, f"{checked} pairs agree with the map-enumeration oracle"


def a2_lattice_laws(corpus_nodes: int = 5, universe_nodes: int = 6,
                    k: int = 3, nested_nodes: int = 4, nested_level: int = 2,
                    nested_pairs: int = 40000, triples: int = 1000,
                    seed: int = 2):
    """join is the lub and meet the glb among all enumerated candidate bounds.

    Two universes serve: flat forests of up to universe_nodes nodes, with
    all pairs of those of up to corpus_nodes, and every class of nested
    forests of up to nested_nodes nodes, with a fixed-seed sample of
    nested_pairs distinct pairs.  The authority is the exhaustive candidate
    universe; the pairwise comparisons rely on h_leq, whose agreement with
    map enumeration is itself checked by A1.
    """
    flat = oracles.normalized_corpus(oracles.flat_forests(universe_nodes, k))
    corpus = [f for f in flat if node_count(f) <= corpus_nodes]
    nested_universe = oracles.normalized_corpus(
        oracles.nested_forests(nested_nodes, k, nested_level))
    n = len(nested_universe)
    sample = random.Random(seed).sample(range(n * n), min(nested_pairs, n * n))
    jobs = [
        (flat, corpus, [(f, g) for f in corpus for g in corpus]),
        (nested_universe, nested_universe,
         [(nested_universe[i // n], nested_universe[i % n]) for i in sample]),
    ]
    rng = random.Random(seed)
    for universe, corpus, pairs in jobs:
        failure = _lattice_failure(universe, corpus, pairs, triples, rng)
        if failure:
            return _fail(failure)
    return True, (
        f"lub/glb of {len(jobs[0][2])} flat and {len(sample)} nested pairs "
        f"verified against {len(flat)}- and {n}-element candidate universes; "
        f"distributivity on {triples} triples each")


def _lattice_failure(universe, corpus, pairs, triples, rng):
    """Why meet and join fail as glb and lub on the pairs, or None."""
    bounds = oracles.BoundOracle(universe, h_leq)
    index = bounds.index

    def candidates_ok(h, common, direction):
        """Every universe element indexed in `common` compares with h."""
        ih = index.get(normalize(h))
        if ih is not None:
            row = bounds.below[ih] if direction == "below" else bounds.above[ih]
            return common & ~row == 0
        while common:
            b = (common & -common).bit_length() - 1
            common &= common - 1
            other = universe[b]
            ok = h_leq(other, h) if direction == "below" else h_leq(h, other)
            if not ok:
                return False
        return True

    for f, g in pairs:
        i, j = index[f], index[g]
        m = meet(f, g)
        if not h_leq(m, f) or not h_leq(m, g):
            return f"meet not a lower bound: {print_term(f)} / {print_term(g)}"
        if not candidates_ok(m, bounds.below[i] & bounds.below[j], "below"):
            return f"meet not greatest: {print_term(f)} / {print_term(g)}"
        u = join(f, g)
        if not h_leq(f, u) or not h_leq(g, u):
            return f"join not an upper bound: {print_term(f)} / {print_term(g)}"
        if not candidates_ok(u, bounds.above[i] & bounds.above[j], "above"):
            return f"join not least: {print_term(f)} / {print_term(g)}"
    for _ in range(triples):
        f, g, h = (rng.choice(corpus) for _ in range(3))
        if not h_equiv(meet(f, join(g, h)), join(meet(f, g), meet(f, h))):
            return "distributivity fails on a sampled triple"
        if not h_equiv(join(f, meet(g, h)), meet(join(f, g), join(f, h))):
            return "dual distributivity fails on a sampled triple"
    return None


def a3_canonical_flat(max_m: int = 6, samples: int = 500, seed: int = 3):
    """The flat canonical family behaves per its ordering and meet laws."""
    t = {(n, p): (canonical.t_flat(n, p),)
         for n in range(max_m + 1) for p in (canonical.PLAIN, canonical.BAR)}
    for n in range(max_m + 1):
        plain, bar = t[(n, canonical.PLAIN)], t[(n, canonical.BAR)]
        if n > 0 and (h_leq(plain, bar) or h_leq(bar, plain)):
            return _fail(f"T_{n} comparable with its dual")
        both = join(plain, bar)
        for m in range(n + 1, max_m + 1):
            for target in (t[(m, canonical.PLAIN)], t[(m, canonical.BAR)]):
                if not h_leq(both, target) or h_leq(target, both):
                    return _fail(f"T_{n}|dual not strictly below index {m}")
        if n < max_m:
            inf = meet(t[(n + 1, canonical.PLAIN)], t[(n + 1, canonical.BAR)])
            if not h_equiv(inf, both):
                return _fail(f"meet identity fails at index {n + 1}")
    rng = random.Random(seed)
    pool = oracles.flat_forests(max_m, 2, include_empty=False)
    for _ in range(samples):
        f = rng.choice(pool)
        name = canonical.classify_2forest(f)
        if not h_equiv(f, canonical.representative(name, flat=True)):
            return _fail(f"classification mismatch on {print_term(f)}")
        others = [
            canonical.CanonicalName(kind, name.index)
            for kind in canonical.KINDS if kind != name.kind
        ]
        if any(h_equiv(f, canonical.representative(o, flat=True)) for o in others):
            return _fail(f"classification not unique on {print_term(f)}")
    return True, f"canonical flat laws up to index {max_m}; {samples} classifications"


def a4_difference_oracle(max_points: int = 4, max_n: int = 3):
    """Chain-forest definability coincides with the difference-kernel image."""
    checked = 0
    for sp in oracles.all_posets_up_to(max_points):
        base = frozenset(up_sets(sp))
        for n in range(max_n + 1):
            chain = (canonical.t_flat(n),)
            images = {space.difference_kernel(n, seq)
                      for seq in product(sorted(base), repeat=n)}
            for a in all_partitions(sp.n, 2):
                if dh_membership(a, chain, base, sp) != (a.mask(1) in images):
                    return _fail(
                        f"mismatch on {sp.to_json()}, n={n}, labels={a.labels}")
                checked += 1
    return True, f"{checked} membership queries match kernel enumeration"


def a5_canonical_nested(max_terms: int = 2, exp_depth: int = 2,
                        max_coeff: int = 2, classify_bound: int = 16,
                        nested_classes=((2, 5), (3, 4)), search_bound: int = 12):
    """Ordering and meet laws of the nested canonical family on the fragment,
    and the names classify_2tree_nested reads off normal forms.

    Every notation of canonical size up to classify_bound is named, in
    both polarities, exactly at its own size and not below it.  On the
    classes of 2-forests of each (level, max nodes) in nested_classes, the
    names agree with the oracle search over notations at search_bound.
    """
    frag = sorted(_ordinal_fragment(exp_depth, max_terms, max_coeff))
    for a in frag:
        ta = canonical.t_nested(a, canonical.PLAIN)
        tb = canonical.t_nested(a, canonical.BAR)
        if not a.is_zero() and (h_leq(ta, tb) or h_leq(tb, ta)):
            return _fail(f"T and its dual comparable at {a}")
        if a.terms and a.terms[-1][0].is_zero():
            b = pred(a)
            lower = join(canonical.t_nested(b, canonical.PLAIN),
                         canonical.t_nested(b, canonical.BAR))
            if not h_equiv(meet(ta, tb), lower):
                return _fail(f"meet identity fails at {a}")
    pairs = 0
    for i, a in enumerate(frag):
        both = join(canonical.t_nested(a, canonical.PLAIN),
                    canonical.t_nested(a, canonical.BAR))
        for b in frag[i + 1:]:
            tb = canonical.t_nested(b, canonical.PLAIN)
            if not h_leq(both, tb) or h_leq(tb, both):
                return _fail(f"T_{a}|dual not strictly below T_{b}")
            pairs += 1
    notations = oracles.ordinal_candidates(classify_bound)
    for a in notations:
        size = canonical._t_size(a)
        for kind, polarity in (("T", canonical.PLAIN), ("Tbar", canonical.BAR)):
            t = canonical.t_nested(a, polarity)
            if canonical.classify_2tree_nested(t, size) != canonical.CanonicalName(kind, a):
                return _fail(f"{kind}[{a}] is misnamed at its size bound {size}")
            if canonical.classify_2tree_nested(t, size - 1) is not None:
                return _fail(f"{kind}[{a}] is named below its size bound {size}")
    classes = named = 0
    for level, nodes in nested_classes:
        for f in oracles.normalized_corpus(
                oracles.nested_forests(nodes, 2, level, include_empty=False)):
            name = canonical.classify_2tree_nested(f, search_bound)
            if name != oracles.search_2tree_nested(f, search_bound):
                return _fail(f"classifying {print_term(f)} disagrees with the search")
            classes += 1
            named += name is not None
    return True, (
        f"{len(frag)} notations, {pairs} ordered pairs verified; "
        f"{2 * len(notations)} canonical trees named; {named} of {classes} "
        f"nested classes named as the search names them")


def _ordinal_fragment(depth: int, max_terms: int, max_coeff: int) -> list:
    if depth < 0:
        return [Ord()]
    exps = _ordinal_fragment(depth - 1, max_terms, max_coeff)
    out = {Ord()}

    def grow(prefix: tuple, remaining: int):
        for e in exps:
            if prefix and not e < prefix[-1][0]:
                continue
            for c in range(1, max_coeff + 1):
                term = prefix + ((e, c),)
                out.add(Ord(term))
                if remaining > 1:
                    grow(term, remaining - 1)

    grow((), max_terms)
    return list(out)


def a6_category_equivalence(level: int = 3, max_nodes: int = 5, k: int = 2,
                            sample: int = 1204, seed: int = 6):
    """flatten/unflatten round trips and morphism-existence agreement.

    The morphism pairs run over a fixed-seed sample of distinct raw forests
    of the pool: their normal forms are too few to exercise the search.
    """
    pool = oracles.nested_forests(max_nodes, k, level, include_empty=False)
    for f in pool:
        d = max(nesting_level(f), 1)
        if nested.unflatten(flatten(f, d)) != f:
            return _fail(f"round trip fails on {print_term(f)}")
    corpus = oracles.sample_forests(pool, sample, seed)
    flats = [flatten(f, level) for f in corpus]
    pairs = 0
    for i, f in enumerate(corpus):
        for j, g in enumerate(corpus):
            if h_leq(f, g) != morphism_exists(flats[i], flats[j]):
                return _fail(
                    f"morphism disagreement on {print_term(f)} vs {print_term(g)}")
            pairs += 1
    return True, f"{len(pool)} round trips, {pairs} morphism comparisons"


def a7_reduction(max_points: int = 3, forest_nodes: int = 4, k: int = 2):
    """Reduction property verdicts, each against reduce_pair on every pair
    of base sets, and reduced-family equivalence."""
    named = [(f"chain of {n} points", up_sets(space.chain_space(n)), True)
             for n in range(1, 6)]
    named += [("powerset base", space.powerset_base(space.antichain_space(n)), True)
              for n in range(1, 4)]
    named.append(("diamond up-sets", up_sets(space.diamond_space()), False))
    for name, base, verdict in named:
        if not (space.has_reduction_property(base) == verdict
                == oracles.oracle_reduction_property(base)):
            return _fail(f"{name} misreported")
    forests = oracles.normalized_corpus(
        oracles.flat_forests(forest_nodes, k, include_empty=False))
    checked = 0
    for sp in oracles.all_posets_up_to(max_points):
        for base in (up_sets(sp), space.powerset_base(sp)):
            verdict = space.has_reduction_property(base)
            if verdict != oracles.oracle_reduction_property(base):
                return _fail(f"reduction property misreported on {sp.to_json()}")
            if not verdict:
                continue
            for f in forests:
                for a in all_partitions(sp.n, k):
                    if not dh_membership(a, f, base, sp):
                        continue
                    fam = space.dh_witness_family(a, f, base, sp)
                    if fam is None:
                        return _fail("witness search contradicts membership")
                    reduced = space.reduce_family(fam, base, sp)
                    if not space.is_reduced(reduced):
                        return _fail(
                            f"reduce_family output not reduced on {print_term(f)}")
                    defined, diag = space.family_defines(reduced, sp)
                    if defined is None or defined.labels != a.labels:
                        return _fail(
                            f"reduce_family changed the partition on "
                            f"{print_term(f)}: {diag}")
                    checked += 1
    return True, f"{checked} memberships carried to reduced families"


def a8_level_monotonicity(max_points: int = 3, flat_nodes: int = 4, k: int = 3,
                          nested_samples: int = 200, nested_pool_size: int = 72,
                          seed: int = 8):
    """Bigger names have bigger levels; meets intersect levels."""
    forests = oracles.normalized_corpus(
        oracles.flat_forests(flat_nodes, k, include_empty=False))
    spaces = oracles.all_posets_up_to(max_points)
    meets = {
        (f, g): normalize(meet(f, g)) for f, g in combinations(forests, 2)
    }
    for sp in spaces:
        base = up_sets(sp)
        parts = list(all_partitions(sp.n, k))
        memb: dict = {}

        def level(f, sp=sp, base=base, parts=parts, memb=memb):
            if f not in memb:
                memb[f] = frozenset(
                    a for a in parts if dh_membership(a, f, base, sp))
            return memb[f]

        for f, g in combinations(forests, 2):
            lf, lg = level(f), level(g)
            if h_leq(f, g) and not lf <= lg:
                return _fail(
                    f"monotonicity fails: {print_term(f)} <= {print_term(g)}")
            if h_leq(g, f) and not lg <= lf:
                return _fail(
                    f"monotonicity fails: {print_term(g)} <= {print_term(f)}")
            if lf & lg != level(meets[(f, g)]):
                return _fail(
                    f"meet law fails on {print_term(f)} / {print_term(g)}")
    rng = random.Random(seed)
    nested_pool = oracles.sample_forests(
        oracles.nested_forests(4, 2, 2, include_empty=False), nested_pool_size, seed)
    small = [sp for sp in spaces if sp.n <= 2]
    fh_memb: dict = {}

    def fh_level(f, sp, omega, parts):
        key = (f, sp)
        if key not in fh_memb:
            fh_memb[key] = frozenset(
                a for a in parts if space.fh_membership(a, f, omega, sp))
        return fh_memb[key]

    for count in range(nested_samples):
        sp = small[count % len(small)]
        omega = space.validate_omega_base(
            [up_sets(sp), space.powerset_base(sp)], sp.n)
        parts = list(all_partitions(sp.n, 2))
        f, g = rng.choice(nested_pool), rng.choice(nested_pool)
        lf = fh_level(f, sp, omega, parts)
        lg = fh_level(g, sp, omega, parts)
        if h_leq(f, g) and not lf <= lg:
            return _fail("nested monotonicity fails")
        if lf & lg != fh_level(normalize(meet(f, g)), sp, omega, parts):
            return _fail(
                f"nested meet law fails on {print_term(f)} / {print_term(g)}")
    return True, (
        f"flat exhaustive on {len(spaces)} spaces; "
        f"{nested_samples} nested samples")


def a9_degrees():
    """Known degree structures of the two-point spaces, and degree_poset
    against the all-pairs authority on small and named spaces."""
    chain = degrees.degree_poset(space.chain_space(2), 2)
    if len(chain) != 4:
        return _fail(f"2-chain has {len(chain)} degrees, expected 4")
    if len(chain.minimal()) != 2 or len(chain.maximal()) != 2:
        return _fail("2-chain extremes are wrong")
    tops = chain.maximal()
    if any(chain.strictly_below(i, j) or chain.strictly_below(j, i)
           for i, j in combinations(tops, 2)):
        return _fail("2-chain maximal degrees are comparable")
    anti = degrees.degree_poset(space.antichain_space(2), 2)
    if len(anti) != 3:
        return _fail(f"2-antichain has {len(anti)} degrees, expected 3")
    cases = [(sp, k) for sp in oracles.all_posets_up_to(3) for k in (1, 2, 3)]
    cases += [(sp, k) for sp in (space.chain_space(4), space.antichain_space(4),
                                 space.diamond_space()) for k in (1, 2, 3, 4)]
    for sp, k in cases:
        poset = degrees.degree_poset(sp, k)
        if (poset.classes, poset.leq) != oracles.oracle_degree_poset(sp, k):
            return _fail(f"degree poset of {sp.to_json()} at k={k} differs "
                         "from the all-pairs table")
    return True, ("2-chain: 4 degrees (2 minimal, 2 maximal); 2-antichain: 3; "
                  f"all-pairs table matched in {len(cases)} cases")


def a10_parser(samples: int = 1000, seed: int = 10):
    """parse/print round trips and the documented grammar examples."""
    rng = random.Random(seed)
    pool = oracles.nested_forests(5, 3, 2) + oracles.flat_forests(5, 3)
    for _ in range(samples):
        f = rng.choice(pool)
        printed = print_term(f)
        if parse_term(printed) != normalize(f):
            return _fail(f"round trip fails on {printed}")
    cases = [
        ("⊥", forest.EMPTY),
        ("bot", forest.EMPTY),
        ("0*(1⊔2)", (forest.wrap(0, parse_term("1|2")),)),
        ("(0*1)*2", (forest.Tree(parse_term("0*1"), (forest.Tree(2),)),)),
        ("s(0*1)", (forest.Tree(parse_term("0*1")),)),
    ]
    for text, expect in cases:
        if parse_term(text) != expect:
            return _fail(f"grammar example {text!r} parses wrongly")
    return True, f"{samples} round trips and grammar examples"


SUITES = {
    "A1": a1_h_preorder_oracle,
    "A2": a2_lattice_laws,
    "A3": a3_canonical_flat,
    "A4": a4_difference_oracle,
    "A5": a5_canonical_nested,
    "A6": a6_category_equivalence,
    "A7": a7_reduction,
    "A8": a8_level_monotonicity,
    "A9": a9_degrees,
    "A10": a10_parser,
}

FAST_PRESETS = {
    "A1": dict(flat_nodes=4, nested_nodes=4, nested_sample=73,
               canonical_corpora=((2, 4), (3, 3)), extra_samples=2000),
    "A2": dict(corpus_nodes=4, universe_nodes=5, nested_nodes=3, triples=200),
    "A3": dict(max_m=4, samples=100),
    "A4": dict(max_points=3, max_n=2),
    "A5": dict(exp_depth=1, classify_bound=10, nested_classes=((2, 4),),
               search_bound=8),
    "A6": dict(level=2, max_nodes=4, sample=72),
    "A7": dict(forest_nodes=3),
    "A8": dict(flat_nodes=3, nested_samples=50),
    "A9": dict(),
    "A10": dict(samples=200),
}

# wall-clock seconds each suite may take at its full size: only ever tightened.
# Each is the least multiple of 5 s at least 5x the slowest of three runs of
# the suite alone in a fresh process (2-CPU host, CPython 3.11.7); A6 stays
# at 120, as that rule would raise it.
BUDGETS = {
    "A1": 40,
    "A2": 40,
    "A3": 5,
    "A4": 5,
    "A5": 25,
    "A6": 120,
    "A7": 5,
    "A8": 10,
    "A9": 5,
    "A10": 5,
}

FAST_SUITES = ("A1", "A2", "A3", "A4")


def run_suites(scope: str = "full"):
    """Run the suites; the fast scope shrinks corpora and keeps A1-A4 only.

    Each result is (ok, detail, seconds, memo), where memo is memo_sizes()
    read as the suite ends."""
    names = FAST_SUITES if scope == "fast" else tuple(SUITES)
    results = {}
    for name in names:
        kwargs = FAST_PRESETS[name] if scope == "fast" else {}
        start = time.monotonic()
        ok, detail = SUITES[name](**kwargs)
        results[name] = ok, detail, time.monotonic() - start, memo_sizes()
    return results


def memo_sizes() -> dict:
    """How big the package's memos have grown, as entries per table: the
    intern table, flatten's memo and each lru_cache.  The memos live as long
    as the process, so a later suite's sizes include an earlier one's."""
    sizes = {"forest._INTERNED": len(forest._INTERNED), "nested._FLATS": len(nested._FLATS)}
    for func in (nested._parse, canonical._t_pair, canonical._t_size,
                 oracles.ordinal_candidates, oracles.nested_trees, oracles.nested_forests_exact):
        module = func.__module__.rpartition(".")[2]
        sizes[f"{module}.{func.__name__}"] = func.cache_info().currsize
    return sizes
