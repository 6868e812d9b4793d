"""The `cli` workload: a seeded verb mix run as `python -m hforest.cli` calls.

Each Spec carries the verb's argument list in `a` and what its check
needs in `b`/`extra`.  Checks read the exit code, stdout and stderr.  A
documented error is exit 1 ("domain error: ...") or exit 2 ("syntax
error: ...") with that one line on stderr; anything else on stderr, a
traceback, another exit code or a timeout is a failure.
"""

from __future__ import annotations

import json
import random

import gen
import ref
from workloads import (CLASSIFY_BOUND, QUERY, BUILD, DEGREE_SPACES, Item, Spec,
                       canonical_ok, canonical_pool, classify_nested_pool, degree_summary,
                       glb_check, meet_tag, ordinal_of)

VERBS = {
    "compare": QUERY, "classify": QUERY, "dh-check": QUERY, "fh-check": QUERY,
    "reduce-check": QUERY,
    "meet": BUILD, "join": BUILD, "normalize": BUILD, "canonical": BUILD,
    "flatten": BUILD, "degrees": BUILD,
}

# The two open defects (a 600-deep term and a 40-point chain) and two
# documented errors.  Their share of the calls is fixed: they are the
# first calls of every run's first block, at seeded positions.
DEEP = "0*" * 600 + "1"
HOSTILE = [
    ("normalize", ["normalize", "--forest", DEEP], "deep"),
    ("dh-check", ["dh-check", "--space", "chain:40", "--base", "upsets",
                  "--partition", json.dumps({"labels": [0] * 40}),
                  "--forest", "0"], "chain40"),
    ("compare", ["compare", "--lhs", "0*(", "--rhs", "1"], "syntax"),
    ("dh-check", ["dh-check", "--space", "chain:2", "--partition",
                  json.dumps({"labels": [0, 3]}), "--k", "2", "--forest", "0*1"],
     "domain"),
]


def stream(rng: random.Random):
    flat = [Item(gen.random_forest(rng, rng.randint(1, 6), 3, p_chain=0.4))
            for _ in range(64)]
    nested = [Item(gen.random_forest(rng, rng.randint(2, 5), 2, 3, p_nested=0.5))
              for _ in range(64)]
    mixed = flat + nested
    small = [Item(gen.random_forest(rng, rng.randint(1, 4), 2)) for _ in range(32)]
    nested2 = [Item(gen.random_forest(rng, rng.randint(2, 4), 2, 2, p_nested=0.5))
               for _ in range(32)]
    classify = classify_nested_pool(rng, 32)
    canon = canonical_pool(rng, 32)
    posets = [gen.random_poset(rng, n) for n in (2, 3, 4) for _ in range(8)]
    posets3 = [p for p in posets if len(p) <= 3]

    def spec(verb):
        if verb in ("compare", "meet", "join"):
            a, b = rng.choice(mixed), rng.choice(mixed)
            return Spec(verb, [verb, "--lhs", a.text, "--rhs", b.text], (a, b),
                        meet_tag(a, b) if verb == "meet" else None, a.nodes + b.nodes)
        if verb in ("normalize", "flatten"):
            a = rng.choice(mixed)
            return Spec(verb, [verb, "--forest", a.text], a, nodes=a.nodes)
        if verb == "classify":
            a, extra = rng.choice(classify)
            return Spec(verb, [verb, "--forest", a.text, "--bound", str(CLASSIFY_BOUND)],
                        a, extra, a.nodes)
        if verb == "canonical":
            (text, kind), a, n = rng.choice(canon)
            polarity = {"T": "plain", "Tbar": "bar", "TjoinTbar": "join"}[kind]
            return Spec(verb, [verb, "--alpha", text, "--polarity", polarity],
                        (a, kind), nodes=n)
        up = rng.choice(posets)
        labels = [rng.randrange(2) for _ in up]
        where = ["--space", gen.space_text(up)]
        part = ["--partition", json.dumps({"labels": labels}), "--k", "2"]
        if verb == "dh-check":
            base = rng.choice(("upsets", "powerset"))
            f = rng.choice(small)
            return Spec(verb, [verb, *where, "--base", base, *part, "--forest", f.text],
                        (up, f), (base, labels), f.nodes)
        if verb == "fh-check":
            f, up = rng.choice(nested2), rng.choice(posets3)
            labels = [rng.randrange(2) for _ in up]
            levels = [[gen.mask_points(m) for m in sorted(ref.upset_masks(up))],
                      [gen.mask_points(m) for m in range(1 << len(up))]]
            return Spec(verb, [verb, "--space", gen.space_text(up), "--omega-base",
                               json.dumps(levels), "--partition",
                               json.dumps({"labels": labels}), "--k", "2",
                               "--forest", f.text], (up, f), labels, f.nodes)
        if verb == "reduce-check":
            base = rng.choice(("upsets", "powerset"))
            return Spec(verb, [verb, *where, "--base", base], (up, base))
        up, k = DEGREE_SPACES[rng.randrange(len(DEGREE_SPACES))]
        return Spec(verb, [verb, "--space", gen.space_text(up), "--k", str(k)], up, k)

    def specs():
        first = True
        while True:
            block = [spec(v) for v in VERBS]
            rng.shuffle(block)
            if first:
                for verb, argv, tag in HOSTILE:
                    block.insert(rng.randrange(len(block) + 1), Spec(verb, argv, extra=tag))
                first = False
            yield from block

    return specs()


def _domain_error(rc, err, code, prefix):
    return rc == code and err.startswith(prefix) and err.count("\n") <= 1


def check(s, rc, out, err, lib):
    """Is this exit, stdout and stderr a correct answer to the call?

    True, False, or the failure a known defect shows."""
    if "Traceback" in err:
        return False
    tag = s.extra if isinstance(s.extra, str) else None  # hostile calls, nested meets
    if tag == "syntax":
        return _domain_error(rc, err, 2, "syntax error:")
    if tag == "domain":
        return _domain_error(rc, err, 1, "domain error:")
    if tag in ("deep", "chain40") and _domain_error(rc, err, 1, "domain error:"):
        return True  # an explicit size or depth guard is a documented answer
    if tag == "deep":
        return rc == 0 and ref.equiv(ref.from_lib(lib.parse_term(out.strip())),
                                     ((0, ((1, ()),)),))
    if tag == "chain40":
        return rc == 0 and json.loads(out)["member"] is True
    if s.op == "classify" and not s.extra[2]:
        return _domain_error(rc, err, 1, "domain error:")
    if rc != 0 or err:
        return False
    return CHECKS[s.op](s, out.strip(), lib)


def _forest(lib, text):
    return ref.from_lib(lib.parse_term(text))


def _compare(s, out, lib):
    a, b = s.b
    f, g = lib.parse_term(a.text), lib.parse_term(b.text)
    return json.loads(out) == {"h_leq": lib.oracle_h_leq(f, g),
                               "h_geq": lib.oracle_h_leq(g, f)}


def _meet(s, out, lib):
    return glb_check(_forest(lib, out), s.b[0].f, s.b[1].f)


def _join(s, out, lib):
    return ref.equiv(_forest(lib, out), s.b[0].f + s.b[1].f)


def _normalize(s, out, lib):
    n = lib.parse_term(out)
    return ref.equiv(ref.from_lib(n), s.b.f) and canonical_ok(n, s.b.f, lib)


def _classify(s, out, lib):
    kind, a, _ = s.extra
    doc = json.loads(out)
    name = lib.CanonicalName(doc["kind"], lib.parse_ordinal(doc["index"]))
    return (name.kind == kind and ordinal_of(name.index) == a
            and ref.equiv(ref.from_lib(lib.representative(name)), s.b.f))


def _canonical(s, out, lib):
    a, kind = s.b
    return ref.equiv(_forest(lib, out), gen.canonical_forest(a, kind))


def _flatten(s, out, lib):
    doc = json.loads(out)
    rows = []
    for pairs in doc["orders"]:
        row = [0] * doc["size"]
        for i, j in pairs:
            row[i] |= 1 << j
        rows.append(tuple(row))
    x = lib.LabeledNPreorder(doc["size"], tuple(rows), tuple(doc["labels"]))
    return (doc["size"] == gen.nodes(s.b.f)
            and ref.equiv(ref.from_lib(lib.unflatten(x)), s.b.f))


def _dh(s, out, lib):
    up, f = s.b
    base, labels = s.extra
    masks = ref.upset_masks(up) if base == "upsets" else frozenset(range(1 << len(up)))
    doc = json.loads(out)
    if doc["member"] != ref.member(labels, f.f, [masks]):
        return False
    if not doc["member"]:
        return True
    sets = {tuple(tuple(p) for p in e["prefix"]): sum(1 << i for i in e["set"])
            for e in doc["witness"]}
    fam = lib.PFamily(lib.parse_term(f.text), 1, sets)
    defined, _ = lib.family_defines(fam, lib.FiniteSpace(len(up), up))
    return (defined is not None and list(defined.labels) == labels
            and set(sets.values()) <= masks)


def _fh(s, out, lib):
    up, f = s.b
    omega = [ref.upset_masks(up), frozenset(range(1 << len(up)))]
    return json.loads(out) == {"member": ref.member(s.extra, f.f, omega)}


def _reduce(s, out, lib):
    up, base = s.b
    masks = ref.upset_masks(up) if base == "upsets" else frozenset(range(1 << len(up)))
    return json.loads(out) == {"reduction_property": ref.has_reduction(masks)}


def _degrees(s, out, lib):
    doc = json.loads(out)
    got = degree_summary([d["members"] for d in doc["degrees"]],
                         [(i, j) for i, js in enumerate(doc["leq"]) for j in js])
    return got == ref.degrees(s.b, s.extra)


CHECKS = {"compare": _compare, "meet": _meet, "join": _join, "normalize": _normalize,
          "classify": _classify, "canonical": _canonical, "flatten": _flatten,
          "dh-check": _dh, "fh-check": _fh, "reduce-check": _reduce,
          "degrees": _degrees}
