"""Fuzzing of CLI verbs, run in process via main(argv).

Every call must answer, refuse or report a syntax error (exit 0, 1 or 2)
within a time bound, with at most one line on stderr and no traceback.
Option values go in as ``--opt=value`` or as a separate token, so a value
that starts with ``-`` reaches the parser as an option would.  main's own
argv reader is checked against argparse on every verb.  The runs are
derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hforest import cli
from hforest.cli import OPTIONS, VERBS, _build_parser, _read, main

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

SECONDS = 2.0


def forest_terms(colors: str, nested: bool):
    """Terms over the given colors with joins and heights, and nested
    labels when asked for."""
    def grow(inner):
        parts = [st.builds("{}|{}".format, inner, inner),
                 st.builds("{}*({})".format, st.sampled_from(colors), inner)]
        if nested:
            parts += [st.builds("({})*({})".format, inner, inner),
                      st.builds("s({})".format, inner)]
        return st.one_of(parts)
    return st.recursive(st.sampled_from(colors), grow, max_leaves=6)


terms = forest_terms("012", nested=True) | st.just("bot")
flat_terms = forest_terms("01", nested=False)

# JSON forests whose labels may be negative, empty or a verbose color
# [{"label": c}]
json_trees = st.recursive(
    st.fixed_dictionaries({"label": st.integers(-1, 2) | st.just([])}),
    lambda inner: st.fixed_dictionaries(
        {"label": st.integers(-1, 2) | st.lists(inner, max_size=2)},
        optional={"children": st.lists(inner, max_size=2)}),
    max_leaves=6,
)
json_forests = st.lists(json_trees, max_size=3).map(json.dumps)

forest_args = st.one_of(terms, json_forests, st.text(max_size=30),
                        st.text(max_size=10).map("-{}".format))

json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=5))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
partitions = st.one_of(
    json_values,
    st.fixed_dictionaries({"labels": json_values}),
    st.fixed_dictionaries({"labels": st.lists(st.integers(-1, 3), max_size=5)}),
    st.fixed_dictionaries({"labels": st.lists(st.integers(), max_size=5)}),
)


def _too_slow(signum, frame):
    raise TimeoutError


def call(argv):
    """Run one call, stopped by an alarm once it has taken SECONDS."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and help
        code = exc.code
    except TimeoutError:
        raise AssertionError(f"{argv} ran past {SECONDS} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert err.count("\n") <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)


def option(name, value, split):
    return ["--" + name, str(value)] if split else [f"--{name}={value}"]


@FUZZ
@example(forest="-x", bound=None, split=True)
@given(forest=forest_args, bound=st.none() | st.integers(), split=st.booleans())
def test_classify(forest, bound, split):
    argv = ["classify", *option("forest", forest, split)]
    if bound is not None:
        argv += option("bound", bound, split)
    call(argv)


@FUZZ
@given(forests=st.lists(flat_terms, min_size=1, max_size=30),
       strings=st.lists(forest_args, max_size=3),
       k=st.none() | st.integers(-1, 4), split=st.booleans())
def test_report(forests, strings, k, split):
    argv = ["report", *option("space", "chain:2", split)]
    for f in forests + strings:
        argv += option("forest", f, split)
    if k is not None:
        argv += option("k", k, split)
    call(argv)


@FUZZ
# a color far above the others must not cost one mask per color below it
@example(partition={"labels": [10 ** 20, 0]}, forest="0", points=2, k=None,
         split=False)
@given(partition=partitions, forest=forest_args, points=st.integers(0, 4),
       k=st.none() | st.integers(-1, 4), split=st.booleans())
def test_reduce_check(partition, forest, points, k, split):
    argv = ["reduce-check", *option("space", f"chain:{points}", split),
            *option("partition", json.dumps(partition), split),
            *option("forest", forest, split)]
    if k is not None:
        argv += option("k", k, split)
    call(argv)


emits = st.none() | st.sampled_from(("json", "term", "dot")) | st.text(max_size=5)


def with_emit(argv, emit, split):
    return argv if emit is None else argv + option("emit", emit, split)


@FUZZ
@given(verb=st.sampled_from(("compare", "meet", "join")), lhs=forest_args,
       rhs=forest_args, emit=emits, split=st.booleans())
def test_pair_verbs(verb, lhs, rhs, emit, split):
    call(with_emit([verb, *option("lhs", lhs, split),
                    *option("rhs", rhs, split)], emit, split))


@FUZZ
@given(verb=st.sampled_from(("normalize", "parse", "flatten")),
       forest=forest_args, emit=emits, split=st.booleans())
def test_forest_verbs(verb, forest, emit, split):
    call(with_emit([verb, *option("forest", forest, split)], emit, split))


ordinals = st.recursive(
    st.sampled_from(("0", "1", "2", "w")),
    lambda inner: st.one_of(st.builds("{}+{}".format, inner, inner),
                            st.builds("{}*{}".format, inner, inner),
                            st.builds("w^({})".format, inner)),
    max_leaves=5)


@FUZZ
@given(alpha=ordinals | st.text(max_size=12),
       polarity=st.none() | st.sampled_from(("plain", "bar", "join", "x")),
       emit=emits, split=st.booleans())
def test_canonical(alpha, polarity, emit, split):
    argv = ["canonical", *option("alpha", alpha, split)]
    if polarity is not None:
        argv += option("polarity", polarity, split)
    call(with_emit(argv, emit, split))


spaces = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(("chain", "antichain")),
              st.integers(0, 4)),
    st.just("diamond"),
    st.fixed_dictionaries({"points": st.integers(-1, 4),
                           "le": st.lists(st.lists(st.integers(-1, 4)),
                                          max_size=4)}).map(json.dumps),
    st.text(max_size=10),
)
# a point set may hold a point that is no point number, or be no list
point_sets = st.lists(
    st.lists(st.integers(-1, 4) | json_scalars, max_size=4) | json_scalars,
    max_size=5)
bases = st.sampled_from(("upsets", "powerset")) | point_sets.map(json.dumps) \
    | st.text(max_size=10)
colors = st.none() | st.integers(-1, 4)


@FUZZ
@example(space="chain:2", base='[["a"]]', partition={"labels": [0, 1]},
         forest="0*1", k=None, split=False)
@example(space="chain:2", base="[[1.5]]", partition={"labels": [0, 1]},
         forest="0*1", k=None, split=False)
@example(space="chain:2", base="[3]", partition={"labels": [0, 1]},
         forest="0*1", k=None, split=False)
@given(space=spaces, base=bases, partition=partitions, forest=forest_args,
       k=colors, split=st.booleans())
def test_dh_check(space, base, partition, forest, k, split):
    argv = ["dh-check", *option("space", space, split),
            *option("base", base, split),
            *option("partition", json.dumps(partition), split),
            *option("forest", forest, split)]
    if k is not None:
        argv += option("k", k, split)
    call(argv)


@FUZZ
@example(space="chain:2", levels='[[["a"]]]', partition={"labels": [0, 1]},
         forest="0*1", k=None, split=False)
@example(space="chain:2", levels="[[1]]", partition={"labels": [0, 1]},
         forest="0*1", k=None, split=False)
@given(space=spaces,
       levels=st.lists(point_sets, max_size=3).map(json.dumps)
       | json_values.map(json.dumps) | st.text(max_size=10),
       partition=partitions, forest=forest_args, k=colors,
       split=st.booleans())
def test_fh_check(space, levels, partition, forest, k, split):
    argv = ["fh-check", *option("space", space, split),
            *option("omega-base", levels, split),
            *option("partition", json.dumps(partition), split),
            *option("forest", forest, split)]
    if k is not None:
        argv += option("k", k, split)
    call(argv)


@FUZZ
@example(space="chain:2", k=-1, emit=None, split=True)
@given(space=spaces, k=st.none() | st.integers(-2, 3), emit=emits,
       split=st.booleans())
def test_degrees(space, k, emit, split):
    argv = ["degrees", *option("space", space, split)]
    if k is not None:
        argv += option("k", k, split)
    call(with_emit(argv, emit, split))


def test_degrees_at_the_limits_answers_in_time():
    # 4 ** 5 partitions of the 5-point antichain and 5 ** 5 monotone maps:
    # the most of both that the point and color limits admit
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "hforest.cli", "degrees",
                        "--space", "antichain:5", "--k", "4"],
                       env={**os.environ, "PYTHONPATH": path},
                       capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    assert p.returncode == 0 and p.stderr == "", p.stderr
    assert elapsed < SECONDS, f"took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# main's argv reader against argparse


INT_TEXTS = ("3", "0", "12", "+3", " 3", "3 ", "\u0663", "-1", "1_0", "9" * 30)
ODD_TOKENS = ("-h", "--help", "--", "-", "extra", "", "--emit=", "-x")


def _chunk(draw, name, kw, fit):
    """One option's tokens in a drawn form; fit draws a fitting value in
    the split or = form, else any form and values that nearly fit."""
    forms = ("split", "eq") if fit else ("split", "eq", "bare", "abbrev")
    form = draw(st.sampled_from(forms))
    if form == "abbrev":
        name = name[:draw(st.integers(2, len(name) - 1))]
    if "choices" in kw:
        values = st.sampled_from(kw["choices"])
        if not fit:
            values |= st.sampled_from(("", "x", "JSON", kw["choices"][0][:-1]))
    elif "type" in kw:
        values = st.sampled_from(INT_TEXTS[:3] if fit else INT_TEXTS)
    else:
        values = st.sampled_from(("0*1", "chain:2", "a=b", "", " -x"))
        values |= (st.text(max_size=6).filter(lambda v: not v.startswith("-"))
                   if fit else st.sampled_from(("-x", "--", "-1", "-h")))
    value = draw(values)
    return ([name] if form == "bare"
            else [f"{name}={value}"] if form == "eq" else [name, value])


@st.composite
def argvs(draw):
    """A verb with most of its own options, each once in any order, most
    with a fitting value in either value form; and maybe a few odd,
    abbreviated, repeated or foreign tokens, or values that nearly fit."""
    verb = draw(st.sampled_from(list(VERBS)))
    own = [OPTIONS[flag] for flag in VERBS[verb][1].split()]
    chunks = [_chunk(draw, name, kw, draw(st.integers(0, 9)) > 0)
              for name, kw in draw(st.permutations(own)) if draw(st.integers(0, 5))]
    foreign = sorted({name for name, _ in OPTIONS.values()})
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2)))):
        kind = draw(st.sampled_from(("odd", "own", "foreign")))
        if kind == "odd":
            chunk = [draw(st.sampled_from(ODD_TOKENS))]
        else:
            name, kw = draw(st.sampled_from(
                own if kind == "own" else [(n, {}) for n in foreign]))
            chunk = _chunk(draw, name, kw, False)
        chunks.insert(draw(st.integers(0, len(chunks))), chunk)
    return [verb, *(token for chunk in chunks for token in chunk)]


def _stub():
    """A verb function that keeps the fields it is called with."""
    def run(args):
        run.seen = vars(args)
        return ""
    return run


def _outcome(run, argv):
    """run(argv), or the (code, stdout, stderr) with which it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return run(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(FUZZ, max_examples=600)
@example(["degrees", "--space", "chain:2", "--k", "+3"])
@example(["degrees", "--space", "chain:2", "--k= 3"])
@example(["degrees", "--space", "chain:2", "--k", "\u0663"])
@example(["degrees", "--space", "chain:2", "--k", "-1"])
@example(["degrees", "--space=chain:2", "--override-size-guard=1"])  # no such flag
@example(["report", "--forest", "0", "--space", "x", "--forest=1", "--k=2"])
@example(["normalize", "--for", "0"])
@example(["normalize", "--forest", "0", "--", "--forest", "1"])
@example(["selftest", "--scope", "full", "--scope=fast"])
@example(["canonical", "--alpha", "w", "--polarity=x"])
@given(argv=argvs())
def test_reader_agrees_with_argparse(argv):
    """Where _read takes an argv, it reads argparse's fields; where it
    declines, main exits as argparse does, or runs on argparse's fields."""
    stubs = {verb: (_stub(), flags) for verb, (_, flags) in VERBS.items()}
    with mock.patch.dict(cli.VERBS, stubs):
        expected = _outcome(lambda a: vars(_build_parser().parse_args(a)),
                            argv)
        read = _read(argv)
        if read is not None:
            assert vars(read) == expected, argv
            return
        got = _outcome(main, argv)
        if isinstance(expected, dict):
            assert got == 0 and expected["func"].seen == expected, argv
        else:
            assert got == expected, argv
