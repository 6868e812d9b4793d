"""Fuzzing of CLI verbs, run in process via main(argv).

Every call must answer, refuse or report a syntax error (exit 0, 1 or 2)
within a time bound, with at most one line on stderr and no traceback.
Option values go in as ``--opt=value`` or as a separate token, so a value
that starts with ``-`` reaches argparse as an option would.  The runs are
derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import signal

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hforest.cli import main

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

forest_args = st.one_of(terms, st.text(max_size=30),
                        st.text(max_size=10).map("-{}".format))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
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
