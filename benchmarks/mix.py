"""Derive the op mix of the in-process workloads from the acceptance suites.

    python3 benchmarks/mix.py

Runs every suite at its `acceptance.FAST_PRESETS` size and counts the
outermost calls into the library functions behind each benchmark op
(calls the library makes to itself are not counted).  An op's weight is
its share of its workload's calls times the block size, rounded, and at
least 1, so every op the workload names appears once per block even when
no suite calls it.  `workloads.MIX` holds the result; the self-tests
check that it still matches.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# benchmark op -> {library function: ops per call}.  compare is h_leq both
# ways, so one h_leq call is half a compare and one h_equiv call a whole one.
OP_CALLS = {
    "calculus": {
        "compare": {"forest.h_leq": 0.5, "forest.h_equiv": 1.0},
        "morphism": {"nested.morphism_exists": 1.0},
        "classify_flat": {"canonical.classify_2forest": 1.0},
        "classify_nested": {"canonical.classify_2tree_nested": 1.0},
        "meet": {"forest.meet": 1.0},
        "join_normalize": {"forest.join": 1.0},
        "normalize": {"forest.normalize": 1.0},
        "canonical": {"canonical.representative": 1.0, "canonical.t_nested": 1.0,
                      "canonical.t_flat": 1.0},
    },
    "hierarchy": {
        "dh": {"space.dh_membership": 1.0},
        "dh_chain": {},  # no suite asks about chains longer than five points
        "fh": {"space.fh_membership": 1.0},
        "reduce_check": {"space.has_reduction_property": 1.0},
        "witness_reduce": {"space.dh_witness_family": 1.0},
        "degrees": {"degrees.degree_poset": 1.0},
        "report": {"space.hierarchy_report": 1.0},
    },
}
BLOCK = {"calculus": 24, "hierarchy": 24}  # ops per shuffled block, before the floor of 1
# calculus-large sends the calculus mix without the morphism op
LARGE_DROPS = ("morphism",)


def count_calls() -> Counter:
    """Outermost calls per counted function over all suites at their fast presets."""
    sys.path.insert(0, str(SRC))
    from hforest import acceptance

    names = {fn for ops in OP_CALLS.values() for calls in ops.values() for fn in calls}
    modules = [importlib.import_module(f"hforest.{m}") for m in
               ("forest", "nested", "canonical", "ordinal", "space", "degrees",
                "oracles", "acceptance")]
    counts = Counter()
    depth = [0]

    def wrap(name, fn):
        def counted(*args, **kwargs):
            if depth[0] == 0:
                counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    saved = []
    for name in sorted(names):
        module, attr = name.split(".")
        original = getattr(importlib.import_module(f"hforest.{module}"), attr)
        counted = wrap(name, original)
        for mod in modules:  # every binding, including `from .forest import h_leq`
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, value))
                    setattr(mod, key, counted)
    try:
        for suite, run in acceptance.SUITES.items():
            ok, detail = run(**acceptance.FAST_PRESETS[suite])
            if not ok:
                raise SystemExit(f"{suite} failed: {detail}")
    finally:
        for mod, key, value in saved:
            setattr(mod, key, value)
    return counts


def derive(counts: Counter) -> dict:
    """Per-workload op weights from the call counts."""
    mix = {}
    for workload, ops in OP_CALLS.items():
        per_op = {op: sum(counts[fn] * w for fn, w in calls.items())
                  for op, calls in ops.items()}
        total = sum(per_op.values())
        mix[workload] = {op: max(1, round(BLOCK[workload] * n / total))
                         for op, n in per_op.items()}
    mix["calculus-large"] = {op: w for op, w in mix["calculus"].items()
                             if op not in LARGE_DROPS}
    return mix


def main():
    counts = count_calls()
    print(json.dumps({"calls": dict(sorted(counts.items())), "mix": derive(counts)},
                     indent=1))


if __name__ == "__main__":
    main()
