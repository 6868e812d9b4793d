"""Command-line front end.

Verbs dispatch to the library; inputs are inline literals or file paths
(sniffed by first byte), outputs are JSON, DOT or term text.  Exit codes:
0 success, 1 domain error, 2 syntax error.

A call is mostly interpreter start-up and import, so each verb imports
the library modules it runs inside its own function and loaders; only
``forest`` and ``nested``, which every verb runs, load at the top.  For
the same reason ``main`` builds only the subparser of the verb that argv
names.  It builds all of VERBS when argv names no verb, so that the
top-level help and the unknown-verb error still list every verb.  A usage
error is one ``syntax error:`` line on stderr, as every other failure is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ForestError, OrdinalSyntaxError, SpaceError, TermSyntaxError
from .forest import (
    Forest,
    forest_from_json,
    forest_to_json,
    h_leq,
    join,
    max_color,
    meet,
    normalize,
    paths,
    validate_forest,
)
from .nested import flatten, nesting_level, parse_term, print_term

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SYNTAX = 2

# Largest space a verb builds.  It admits every space in tests/ and
# benchmarks/, of which chain_space(400) is the largest.
MAX_SPACE_POINTS = 512

# Most nodes `canonical` builds, counted by canonical._t_size before
# anything is built.  The largest canonical forest in tests/ and
# benchmarks/ has 14 nodes.
MAX_CANONICAL_NODES = 10_000


# ---------------------------------------------------------------------------
# input loading


def _read_maybe_file(value: str) -> str:
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            return fh.read()
    return value


def load_forest(value: str) -> Forest:
    """A forest from a term literal, inline JSON, or a file of either."""
    text = _read_maybe_file(value).strip()
    if text.startswith("["):
        return forest_from_json(json.loads(text))
    return parse_term(text)


def load_space(value: str):
    """A FiniteSpace from JSON, a file, or chain:N / antichain:N / diamond.

    The point count is checked against MAX_SPACE_POINTS before the space is
    built, because building and closing a space is super-quadratic in it.
    """
    from .space import FiniteSpace, antichain_space, chain_space, diamond_space

    text = _read_maybe_file(value).strip()
    if text == "diamond":
        return diamond_space()
    for name, builder in (("chain", chain_space), ("antichain", antichain_space)):
        if text.startswith(name + ":"):
            digits = text[len(name) + 1:]
            if not (digits.isascii() and digits.isdigit()):
                raise SpaceError(f"bad point count {digits[:20]!r}")
            try:
                n = int(digits)
            except ValueError:  # longer than int() converts
                n = MAX_SPACE_POINTS + 1
            return builder(_point_count(n))
    data = json.loads(text)
    if isinstance(data, dict):
        _point_count(data.get("points"))
    return FiniteSpace.from_json(data)


def _point_count(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise SpaceError("the point count must be a non-negative integer")
    if n > MAX_SPACE_POINTS:
        raise SpaceError(
            f"the space has more than {MAX_SPACE_POINTS} points")
    return n


def load_base(value: str, space):
    from .space import base_from_json, powerset_base, up_sets

    text = _read_maybe_file(value).strip()
    if text == "upsets":
        return up_sets(space)
    if text == "powerset":
        return powerset_base(space)
    return base_from_json(json.loads(text), space.n)


def load_omega_base(value: str, space):
    from .space import base_from_json, check_omega_nesting

    text = _read_maybe_file(value).strip()
    data = json.loads(text)
    if not isinstance(data, list):
        raise SpaceError("omega-base JSON must be a list of levels")
    # base_from_json closes each level, so only the nesting is left to check
    return check_omega_nesting(
        tuple(base_from_json(level, space.n) for level in data), space.n)


def load_partition(value: str, k: int | None, forest: Forest, space):
    """The KPartition of the space's points a forest is checked against;
    the forest's colors must be below k.  Without k, k is the fewest colors
    that admit both."""
    from .space import KPartition

    text = _read_maybe_file(value).strip()
    data = json.loads(text)
    if not isinstance(data, dict) or "labels" not in data:
        raise SpaceError("partition JSON must have 'labels'")
    labels = data["labels"]
    if not isinstance(labels, list) or any(
            isinstance(c, bool) or not isinstance(c, int) for c in labels):
        raise SpaceError("partition labels must be a list of colors")
    if k is None:
        k = max(max(labels, default=0), max_color(forest)) + 1
    validate_forest(forest, k)
    partition = KPartition(tuple(labels), k)
    if partition.n != space.n:
        raise SpaceError("partition size does not match the space")
    return partition


# ---------------------------------------------------------------------------
# emitters


def emit_forest(f: Forest, mode: str) -> str:
    if mode == "term":
        return print_term(f)
    if mode == "json":
        return json.dumps(forest_to_json(f))
    if mode == "dot":
        return forest_to_dot(f)
    raise SpaceError(f"unsupported emit mode {mode!r}")


def forest_to_dot(f: Forest) -> str:
    """One DOT node per forest node, labeled by its color or label term."""
    lines = ["digraph forest {", "  rankdir=BT;"]
    ids: dict = {}
    for n, (path, t) in enumerate(paths(f)):
        ids[path] = n
        text = str(t.label) if isinstance(t.label, int) else print_term(t.label)
        lines.append(f'  n{n} [label="{text}"];')
        if len(path) > 1:
            lines.append(f"  n{n} -> n{ids[path[:-1]]};")
    lines.append("}")
    return "\n".join(lines)


def _family_json(fam) -> list:
    from .space import _points_of

    return [
        {"prefix": [list(path) for path in pfx],
         "set": list(_points_of(mask))}
        for pfx, mask in sorted(fam.sets.items())
    ]


# ---------------------------------------------------------------------------
# verbs


def cmd_compare(args) -> str:
    lhs, rhs = load_forest(args.lhs), load_forest(args.rhs)
    return json.dumps({"h_leq": h_leq(lhs, rhs), "h_geq": h_leq(rhs, lhs)})


def cmd_meet(args) -> str:
    return emit_forest(meet(load_forest(args.lhs), load_forest(args.rhs)),
                       args.emit)


def cmd_join(args) -> str:
    return emit_forest(
        normalize(join(load_forest(args.lhs), load_forest(args.rhs))),
        args.emit)


def cmd_normalize(args) -> str:
    return emit_forest(normalize(load_forest(args.forest)), args.emit)


def cmd_classify(args) -> str:
    from .canonical import classify_2forest, classify_2tree_nested
    from .ordinal import format_ordinal

    f = load_forest(args.forest)
    if args.bound is not None:
        name = classify_2tree_nested(f, args.bound)
        if name is None:
            raise SpaceError(
                f"no canonical class found within size bound {args.bound}")
    else:
        name = classify_2forest(f)
    if args.emit == "term":
        return str(name)
    return json.dumps({
        "kind": name.kind,
        "index": format_ordinal(name.index),
        "name": str(name),
    })


def cmd_canonical(args) -> str:
    from .canonical import CanonicalName, _t_size, representative
    from .ordinal import parse_ordinal

    alpha = parse_ordinal(args.alpha)
    kind = {"plain": "T", "bar": "Tbar", "join": "TjoinTbar"}[args.polarity]
    nodes = _t_size(alpha) * (2 if kind == "TjoinTbar" else 1)
    if nodes > MAX_CANONICAL_NODES:
        raise ForestError(f"the canonical forest has {nodes} nodes, "
                          f"more than {MAX_CANONICAL_NODES}")
    return emit_forest(representative(CanonicalName(kind, alpha)), args.emit)


def cmd_flatten(args) -> str:
    f = load_forest(args.forest)
    depth = max(nesting_level(f), 1)
    x = flatten(f, depth)
    return json.dumps({
        "size": x.size,
        "depth": x.depth,
        "labels": list(x.labels),
        "orders": [x.pairs(i) for i in range(x.depth)],
    })


def cmd_parse(args) -> str:
    return emit_forest(load_forest(args.forest), args.emit)


def cmd_dh_check(args) -> str:
    from .space import dh_witness_family

    space = load_space(args.space)
    base = load_base(args.base, space)
    forest = load_forest(args.forest)
    partition = load_partition(args.partition, args.k, forest, space)
    witness = dh_witness_family(partition, forest, base, space)
    out = {"member": witness is not None}
    if witness is not None:
        out["witness"] = _family_json(witness)
    return json.dumps(out)


def cmd_fh_check(args) -> str:
    from .space import fh_membership

    space = load_space(args.space)
    levels = load_omega_base(args.omega_base, space)
    forest = load_forest(args.forest)
    partition = load_partition(args.partition, args.k, forest, space)
    return json.dumps(
        {"member": fh_membership(partition, forest, levels, space)})


def cmd_reduce_check(args) -> str:
    from .space import (dh_witness_family, has_reduction_property, is_reduced,
                        reduce_family)

    space = load_space(args.space)
    base = load_base(args.base, space)
    out: dict = {"reduction_property": has_reduction_property(base)}
    if args.partition is not None and args.forest is not None:
        forest = load_forest(args.forest)
        partition = load_partition(args.partition, args.k, forest, space)
        fam = dh_witness_family(partition, forest, base, space)
        out["member"] = fam is not None
        if fam is not None and out["reduction_property"]:
            fam = reduce_family(fam, base, space)
            out["reduced"] = is_reduced(fam)
            out["reduced_family"] = _family_json(fam)
    return json.dumps(out)


def cmd_degrees(args) -> str:
    from .degrees import degree_poset, degrees_to_dot, degrees_to_json

    space = load_space(args.space)
    poset = degree_poset(space, args.k,
                         override_size_guard=args.override_size_guard)
    if args.emit == "dot":
        return degrees_to_dot(poset)
    return json.dumps(degrees_to_json(poset))


def cmd_report(args) -> str:
    from .space import hierarchy_report, report_to_dot

    space = load_space(args.space)
    if args.omega_base is not None:
        bases = load_omega_base(args.omega_base, space)
    else:
        bases = load_base(args.base, space)
    forests = [load_forest(v) for v in args.forest]
    k = args.k if args.k is not None else 2
    for f in forests:
        validate_forest(f, k)
    report = hierarchy_report(space, bases, forests, k,
                              override_size_guard=args.override_size_guard)
    if args.emit == "dot":
        return report_to_dot(report)
    return json.dumps(report)


def cmd_selftest(args) -> str:
    from . import acceptance

    results = acceptance.run_suites(args.scope)
    doc = {name: {"ok": ok, "detail": detail}
           for name, (ok, detail) in results.items()}
    text = json.dumps(doc, indent=2)
    if not all(ok for ok, _ in results.values()):
        failed = sorted(name for name, (ok, _) in results.items() if not ok)
        raise _SelftestFailure(text, failed)
    return text


class _SelftestFailure(Exception):
    def __init__(self, text: str, failed: list):
        super().__init__("selftest failure")
        self.text = text
        self.failed = failed


# ---------------------------------------------------------------------------
# argument plumbing


# verb -> (function, flags).  _build_parser adds the arguments the flags
# name; the "emit" flag's value is the default --emit mode.
VERBS = {
    "compare": (cmd_compare, dict(pair=True)),
    "meet": (cmd_meet, dict(pair=True, emit="term")),
    "join": (cmd_join, dict(pair=True, emit="term")),
    "normalize": (cmd_normalize, dict(forest=True, emit="term")),
    "classify": (cmd_classify, dict(forest=True, emit="json", extra=(
        (("--bound",), dict(type=int, default=None,
                            help="size bound for nested classification")),))),
    "canonical": (cmd_canonical, dict(emit="term", extra=(
        (("--alpha",), dict(required=True, help="ordinal notation over w")),
        (("--polarity",), dict(choices=("plain", "bar", "join"),
                               default="plain")),))),
    "flatten": (cmd_flatten, dict(forest=True)),
    "parse": (cmd_parse, dict(forest=True, emit="json")),
    "dh-check": (cmd_dh_check, dict(space=True, base=True, partition=True,
                                    forest=True, k=True)),
    "fh-check": (cmd_fh_check, dict(space=True, omega_base=True,
                                    partition=True, forest=True, k=True)),
    "reduce-check": (cmd_reduce_check, dict(space=True, base=True,
                                            partition_opt=True,
                                            forest_opt=True, k=True)),
    "degrees": (cmd_degrees, dict(space=True, emit="json", guard=True, extra=(
        (("--k",), dict(type=int, default=2, help="number of colors")),))),
    "report": (cmd_report, dict(space=True, base=True, omega_base_opt=True,
                                forests=True, k=True, emit="json",
                                guard=True)),
    "selftest": (cmd_selftest, dict(extra=(
        (("--scope",), dict(choices=("fast", "full"), default="fast")),))),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, as every other failure is."""

    def error(self, message):
        self.exit(EXIT_SYNTAX, f"syntax error: {self.prog}: {message}\n")


def _build_parser(verbs=VERBS) -> argparse.ArgumentParser:
    """The parser with a subparser for each of the given verbs."""
    parser = _Parser(
        prog="hforest",
        description="h-preorder calculus on labeled forests and "
                    "hierarchy membership over finite spaces")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in verbs:
        func, flags = VERBS[name]
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if flags.get("pair"):
            p.add_argument("--lhs", required=True, help="forest term or file")
            p.add_argument("--rhs", required=True, help="forest term or file")
        if flags.get("forest"):
            p.add_argument("--forest", required=True,
                           help="forest term or file")
        if flags.get("forests"):
            p.add_argument("--forest", action="append", required=True,
                           help="forest term or file (repeatable)")
        if flags.get("forest_opt"):
            p.add_argument("--forest", help="forest term or file")
        if flags.get("space"):
            p.add_argument("--space", required=True,
                           help="space JSON/file, chain:N, antichain:N, diamond")
        if flags.get("base"):
            p.add_argument("--base", default="upsets",
                           help="base JSON/file, 'upsets' or 'powerset'")
        if flags.get("omega_base"):
            p.add_argument("--omega-base", dest="omega_base", required=True,
                           help="JSON list of base levels, or a file")
        if flags.get("omega_base_opt"):
            p.add_argument("--omega-base", dest="omega_base",
                           help="JSON list of base levels, or a file")
        if flags.get("partition"):
            p.add_argument("--partition", required=True,
                           help='partition JSON {"labels": [...]} or file')
        if flags.get("partition_opt"):
            p.add_argument("--partition",
                           help='partition JSON {"labels": [...]} or file')
        if flags.get("k"):
            p.add_argument("--k", type=int, help="number of colors")
        if flags.get("emit"):
            p.add_argument("--emit", choices=("json", "term", "dot"),
                           default=flags["emit"])
        if flags.get("guard"):
            p.add_argument("--override-size-guard", action="store_true",
                           dest="override_size_guard")
        for names, kwargs in flags.get("extra", ()):
            p.add_argument(*names, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verbs = argv[:1] if argv and argv[0] in VERBS else VERBS
    args = _build_parser(verbs).parse_args(argv)
    try:
        output = args.func(args)
    except (TermSyntaxError, OrdinalSyntaxError, json.JSONDecodeError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except _SelftestFailure as exc:
        print(exc.text)
        print(f"failed suites: {', '.join(exc.failed)}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ForestError, SpaceError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print("domain error: input nested too deeply", file=sys.stderr)
        return EXIT_DOMAIN
    print(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
