"""Command-line front end.

Verbs dispatch to the library; inputs are inline literals or file paths
(sniffed by first byte), outputs are JSON, DOT or term text.  Exit codes:
0 success, 1 domain error, 2 syntax error.

A call is mostly interpreter start-up and import, so each verb imports
the library modules it runs inside its own function and loaders; only
``forest`` and ``nested``, which every verb runs, load at the top, and
``json`` loads only where a call reads or writes JSON.  For the same
reason ``main`` reads argv off the OPTIONS table itself, and imports
argparse only for help and usage errors.  A usage error is one
``syntax error:`` line on stderr, as every other failure is.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import ForestError, OrdinalSyntaxError, SpaceError, TermSyntaxError
from .forest import (Forest, forest_from_json, forest_to_json, h_leq, join,
                     max_color, meet, normalize, postorder,
                     validate_forest)
from .nested import flatten, nesting_level, parse_term, print_term

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SYNTAX = 2

# Most nodes `canonical` builds, counted by canonical._t_size before
# anything is built.  tests/test_cli.py builds forests at this bound.
MAX_CANONICAL_NODES = 10_000

# Most nodes an emitted forest may write, at every nesting level, counted by
# _written_size before anything is written.  A meet can write exponentially
# more nodes than its operands hold: for the periodic chains of n colors
# i mod 3 and 2i mod 3, n=30 writes 520,675 (0.3 s as a term, 2.4 s and
# 257 MB as DOT, on a 2-CPU x86-64 host) and n=32 writes 1,293,291.
MAX_WRITTEN_NODES = 1_000_000


# ---------------------------------------------------------------------------
# input loading


def _read_maybe_file(value: str) -> str:
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            return fh.read()
    return value


def _loads(text: str):
    """JSON text as a value.  An integer longer than int() converts is a
    syntax error where its digits start, as any other bad JSON is."""
    import json
    import re

    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other error json.loads raises on a str
        limit = sys.get_int_max_str_digits()
        at = re.search(rf"\d{{{limit + 1}}}", text).start()
        raise json.JSONDecodeError(f"integer of more than {limit} digits",
                                   text, at) from None


def load_forest(value: str) -> Forest:
    """A forest from a term literal, inline JSON, or a file of either."""
    text = _read_maybe_file(value).strip()
    if text.startswith("["):
        return forest_from_json(_loads(text))
    return parse_term(text)


def load_space(value: str):
    """A FiniteSpace from JSON, a file, or chain:N / antichain:N / diamond.

    The library's builders check the point count and the point numbers
    before they build; only this syntax is read here.
    """
    from .space import FiniteSpace, antichain_space, chain_space, diamond_space

    text = _read_maybe_file(value).strip()
    if text == "diamond":
        return diamond_space()
    for name, builder in (("chain", chain_space), ("antichain", antichain_space)):
        if text.startswith(name + ":"):
            digits = text[len(name) + 1:]
            if (not (digits.isascii() and digits.isdigit())
                    or 0 < sys.get_int_max_str_digits() < len(digits)):  # int() limit
                raise SpaceError(f"bad point count {digits[:20]!r}")
            return builder(int(digits))
    return FiniteSpace.from_json(_loads(text))


def load_base(value: str, space):
    from .space import base_from_json, powerset_base, up_sets

    text = _read_maybe_file(value).strip()
    if text == "upsets":
        return up_sets(space)
    if text == "powerset":
        return powerset_base(space)
    return base_from_json(_loads(text), space.n)


def load_omega_base(value: str, space):
    from .space import base_from_json, check_omega_nesting

    data = _loads(_read_maybe_file(value).strip())
    if not isinstance(data, list):
        raise SpaceError("omega-base JSON must be a list of levels")
    # base_from_json closes each level, so only the nesting is left to check
    return check_omega_nesting(
        tuple(base_from_json(level, space.n) for level in data), space.n)


def load_partition(value: str, k: int | None, forest: Forest):
    """The KPartition a forest is checked against; the forest's colors must
    be below k.  Without k, k is the fewest colors that admit both.  The
    library reads the JSON, and the membership calls check its size."""
    from .space import KPartition, _json_labels

    labels = _json_labels(_loads(_read_maybe_file(value).strip()))
    if k is None:
        k = max(max(labels, default=0), max_color(forest)) + 1
    validate_forest(forest, k)
    return KPartition(labels, k)


# ---------------------------------------------------------------------------
# emitters


def emit_forest(f: Forest, mode: str):
    """The forest as term or DOT text, or as the JSON value main prints.
    A forest that writes more than MAX_WRITTEN_NODES nodes is refused first."""
    nodes = _written_size(f)
    if nodes > MAX_WRITTEN_NODES:
        raise ForestError(f"the output forest writes {nodes} nodes, "
                          f"more than {MAX_WRITTEN_NODES}")
    if mode == "json":
        return forest_to_json(f)
    return print_term(f) if mode == "term" else forest_to_dot(f)


def _written_size(f: Forest) -> int:
    """The nodes f writes at every nesting level, a shared node once per
    place it occurs: one postorder pass over its distinct nodes.  JSON
    writes exactly these, term and DOT text no more."""
    size: dict = {}
    for t in postorder(f, True):
        below = t.children if t.label.__class__ is int else t.label + t.children
        size[t] = 1 + sum([size[c] for c in below])
    return sum([size[t] for t in f])


def forest_to_dot(f: Forest) -> str:
    """One DOT node per forest node, labeled by its color or label term."""
    lines = ["digraph forest {", "  rankdir=BT;"]
    stack = [None, *[(t, None) for t in reversed(f)]]  # None ends the preorder
    for n, (t, parent) in enumerate(iter(stack.pop, None)):  # parent: its DOT id
        text = str(t.label) if isinstance(t.label, int) else print_term(t.label)
        lines.append(f'  n{n} [label="{text}"];')
        if parent is not None:
            lines.append(f"  n{n} -> n{parent};")
        stack += [(c, n) for c in reversed(t.children)]
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
# verbs: each returns its output as text, or as a value main prints as JSON


def cmd_compare(args):
    # normal forms are h-equivalent to their forests and often far narrower
    lhs, rhs = normalize(load_forest(args.lhs)), normalize(load_forest(args.rhs))
    return {"h_leq": h_leq(lhs, rhs), "h_geq": h_leq(rhs, lhs)}


def cmd_meet(args):
    return emit_forest(meet(load_forest(args.lhs), load_forest(args.rhs)),
                       args.emit)


def cmd_join(args):
    joined = join(load_forest(args.lhs), load_forest(args.rhs))
    return emit_forest(normalize(joined), args.emit)


def cmd_normalize(args):
    return emit_forest(normalize(load_forest(args.forest)), args.emit)


def cmd_classify(args):
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
    return {"kind": name.kind, "index": format_ordinal(name.index),
            "name": str(name)}


def cmd_canonical(args):
    from .canonical import CanonicalName, _t_size, representative
    from .ordinal import parse_ordinal

    alpha = parse_ordinal(args.alpha)
    kind = {"plain": "T", "bar": "Tbar", "join": "TjoinTbar"}[args.polarity]
    nodes = _t_size(alpha) * (2 if kind == "TjoinTbar" else 1)
    if nodes > MAX_CANONICAL_NODES:
        raise ForestError(f"the canonical forest has {nodes} nodes, "
                          f"more than {MAX_CANONICAL_NODES}")
    return emit_forest(representative(CanonicalName(kind, alpha)), args.emit)


def cmd_flatten(args):
    f = load_forest(args.forest)
    depth = max(nesting_level(f), 1)
    x = flatten(f, depth)
    return {"size": x.size, "depth": x.depth, "labels": list(x.labels),
            "orders": [x.pairs(i) for i in range(x.depth)]}


def cmd_parse(args):
    return emit_forest(load_forest(args.forest), args.emit)


def cmd_dh_check(args):
    from .space import dh_witness_family

    space = load_space(args.space)
    base = load_base(args.base, space)
    forest = load_forest(args.forest)
    partition = load_partition(args.partition, args.k, forest)
    witness = dh_witness_family(partition, forest, base, space)
    out = {"member": witness is not None}
    if witness is not None:
        out["witness"] = _family_json(witness)
    return out


def cmd_fh_check(args):
    from .space import fh_membership

    space = load_space(args.space)
    levels = load_omega_base(args.omega_base, space)
    forest = load_forest(args.forest)
    partition = load_partition(args.partition, args.k, forest)
    return {"member": fh_membership(partition, forest, levels, space)}


def cmd_reduce_check(args):
    from .space import (dh_witness_family, has_reduction_property, is_reduced,
                        reduce_family)

    missing = [o for o in ("--forest", "--partition") if getattr(args, o[2:]) is None]
    if len(missing) == 1 or missing and args.k is not None:  # or they go unread
        raise SpaceError(f"reduce-check needs {' and '.join(missing)} too")
    space = load_space(args.space)
    base = load_base(args.base, space)
    out: dict = {"reduction_property": has_reduction_property(base)}
    if not missing:
        forest = load_forest(args.forest)
        partition = load_partition(args.partition, args.k, forest)
        fam = dh_witness_family(partition, forest, base, space)
        out["member"] = fam is not None
        if fam is not None and out["reduction_property"]:
            fam = reduce_family(fam, base, space)
            out["reduced"] = is_reduced(fam)
            out["reduced_family"] = _family_json(fam)
    return out


def cmd_degrees(args):
    from .degrees import degree_poset, degrees_to_dot, degrees_to_json

    poset = degree_poset(load_space(args.space), args.k)
    return degrees_to_dot(poset) if args.emit == "dot" else degrees_to_json(poset)


def cmd_report(args):
    from .space import hierarchy_report, report_to_dot

    space = load_space(args.space)
    bases = (load_base(args.base, space) if args.omega_base is None
             else load_omega_base(args.omega_base, space))
    forests = [load_forest(v) for v in args.forest]
    report = hierarchy_report(space, bases, forests, args.k)
    return report_to_dot(report) if args.emit == "dot" else report


def cmd_selftest(args) -> str:
    import json

    from . import acceptance

    results = acceptance.run_suites(args.scope)
    doc = {name: {"ok": ok, "detail": detail, "seconds": round(seconds, 3),
                  "budget_s": acceptance.BUDGETS[name], "memo": memo}
           for name, (ok, detail, seconds, memo) in results.items()}
    text = json.dumps(doc, indent=2)
    failed = sorted(name for name, entry in doc.items() if not entry["ok"])
    if failed:
        raise _SelftestFailure(text, failed)
    return text


class _SelftestFailure(Exception):
    def __init__(self, text: str, failed: list):
        super().__init__("selftest failure")
        self.text = text
        self.failed = failed


# ---------------------------------------------------------------------------
# argument plumbing


_TERM, _PART = "forest term or file", 'partition JSON {"labels": [...]} or file'
_SPACE = "space JSON/file, chain:N, antichain:N, diamond"
_LEVELS, _MODES = "JSON list of base levels, or a file", ("json", "term", "dot")

# flag -> (option string, argparse keywords).  _read and argparse both take
# a verb's options off this table; an option's dest is its string's.  An
# emit flag names its default, then the other modes a verb can write if
# it cannot write all three.
OPTIONS = {
    "lhs": ("--lhs", dict(required=True, help=_TERM)),
    "rhs": ("--rhs", dict(required=True, help=_TERM)),
    "forest": ("--forest", dict(required=True, help=_TERM)),
    "forest?": ("--forest", dict(help=_TERM)),
    "forests": ("--forest", dict(action="append", required=True,
                                 help=_TERM + " (repeatable)")),
    "space": ("--space", dict(required=True, help=_SPACE)),
    "base": ("--base", dict(default="upsets",
                            help="base JSON/file, 'upsets' or 'powerset'")),
    "omega-base": ("--omega-base", dict(required=True, help=_LEVELS)),
    "omega-base?": ("--omega-base", dict(help=_LEVELS)),
    "partition": ("--partition", dict(required=True, help=_PART)),
    "partition?": ("--partition", dict(help=_PART)),
    "k": ("--k", dict(type=int, help="number of colors")),
    "k=2": ("--k", dict(type=int, default=2, help="number of colors")),
    "emit=json": ("--emit", dict(choices=_MODES, default="json")),
    "emit=term": ("--emit", dict(choices=_MODES, default="term")),
    "emit=json|term": ("--emit", dict(choices=_MODES[:2], default="json")),
    "emit=json|dot": ("--emit", dict(choices=_MODES[::2], default="json")),
    "bound": ("--bound", dict(type=int,
                              help="size bound for nested classification")),
    "alpha": ("--alpha", dict(required=True, help="ordinal notation over w")),
    "polarity": ("--polarity", dict(choices=("plain", "bar", "join"),
                                    default="plain")),
    "scope": ("--scope", dict(choices=("fast", "full"), default="fast")),
}

# verb -> (function, its flags in the order its usage line lists them)
VERBS = {
    "compare": (cmd_compare, "lhs rhs"),
    "meet": (cmd_meet, "lhs rhs emit=term"),
    "join": (cmd_join, "lhs rhs emit=term"),
    "normalize": (cmd_normalize, "forest emit=term"),
    "classify": (cmd_classify, "forest emit=json|term bound"),
    "canonical": (cmd_canonical, "emit=term alpha polarity"),
    "flatten": (cmd_flatten, "forest"),
    "parse": (cmd_parse, "forest emit=json"),
    "dh-check": (cmd_dh_check, "forest space base partition k"),
    "fh-check": (cmd_fh_check, "forest space omega-base partition k"),
    "reduce-check": (cmd_reduce_check, "forest? space base partition? k"),
    "degrees": (cmd_degrees, "space emit=json|dot k=2"),
    "report": (cmd_report, "forests space base omega-base? k=2 emit=json|dot"),
    "selftest": (cmd_selftest, "scope"),
}


def _read(argv: list):
    """The arguments argparse would parse from argv, or None for argparse
    to rule on: help, an unknown verb or flag (an abbreviation too), a
    missing value or flag, a value that starts with '-', an int that is not
    plain ASCII digits, or a value outside its choices."""
    if not argv or argv[0] not in VERBS:
        return None
    func, flags = VERBS[argv[0]]
    options = dict(OPTIONS[flag] for flag in flags.split())
    args = {option: kw.get("default") for option, kw in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        kw = options.get(option, {})
        value = value if eq else next(tokens, "-")  # "-": argparse reports
        if (not kw or value.startswith("-")
                or value not in kw.get("choices", (value,))):
            return None
        if "type" in kw:  # longer ints are left to argparse's int()
            if not (value.isascii() and value.isdigit() and len(value) < 20):
                return None
            value = int(value)
        args[option] = (args[option] or []) + [value] if "action" in kw else value
    if any(kw.get("required") and args[option] is None
           for option, kw in options.items()):
        return None
    return SimpleNamespace(verb=argv[0], func=func, **{
        option[2:].replace("-", "_"): value for option, value in args.items()})


def _build_parser(verbs=VERBS):
    """The argparse parser with a subparser for each of the given verbs
    (all of VERBS for the top-level help and the unknown-verb error)."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a usage error on one stderr line."""

        def error(self, message):
            self.exit(EXIT_SYNTAX, f"syntax error: {self.prog}: {message}\n")

    parser = _Parser(
        prog="hforest",
        description="h-preorder calculus on labeled forests and "
                    "hierarchy membership over finite spaces")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in verbs:
        func, flags = VERBS[name]
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        for flag in flags.split():
            option, kw = OPTIONS[flag]
            p.add_argument(option, **kw)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        verbs = argv[:1] if argv and argv[0] in VERBS else VERBS
        args = _build_parser(verbs).parse_args(argv)
    try:
        output = args.func(args)
        if not isinstance(output, str):
            import json

            output = json.dumps(output)  # its encoder recurses per level
    except (TermSyntaxError, OrdinalSyntaxError, *_json_errors()) as exc:
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
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    return EXIT_OK


def _json_errors() -> tuple:
    """JSON's decode error once json is loaded, as a call that failed to
    parse JSON has loaded it; a call that read no JSON does not load it."""
    json = sys.modules.get("json")
    return (json.JSONDecodeError,) if json else ()


if __name__ == "__main__":
    sys.exit(main())
