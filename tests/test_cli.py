"""Command-line interface, exercised in process via main(argv)."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import hforest.acceptance
from hforest import nested, oracles
from hforest.cli import (MAX_CANONICAL_NODES, MAX_WRITTEN_NODES, VERBS,
                         _build_parser, load_space, main)
from hforest.forest import forest_from_json, h_equiv
from hforest.nested import parse_term
from hforest.space import MAX_SPACE_POINTS


# canonical --alpha 'w^(w*2)+w^3*2+4' --polarity bar: 52 nodes
T_BAR_52 = ("1*0*1*0*((0*1*0*1)*(1*0*1*0)*(s((0*1)*s(1*0))|s((1*0)*s(0*1)))"
            "|(1*0*1*0)*(0*1*0*1)*(s((0*1)*s(1*0))|s((1*0)*s(0*1))))")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--lhs", "0|1", "--rhs", "0*1")
    assert code == 0
    assert json.loads(out) == {"h_leq": True, "h_geq": False}


def test_meet_join_normalize(capsys):
    code, out, _ = run(capsys, "meet", "--lhs", "0*1", "--rhs", "1*0")
    assert code == 0
    assert h_equiv(parse_term(out.strip()), parse_term("0|1"))

    code, out, _ = run(capsys, "join", "--lhs", "0", "--rhs", "0")
    assert code == 0 and out.strip() == "0"

    code, out, _ = run(capsys, "normalize", "--forest", "0*0*1")
    assert code == 0 and out.strip() == "0*1"


def test_parse_emit_modes(capsys):
    code, out, _ = run(capsys, "parse", "--forest", "0*(1|2)", "--emit", "json")
    assert code == 0
    f = forest_from_json(json.loads(out))
    assert f == parse_term("0*(1|2)")

    code, out, _ = run(capsys, "parse", "--forest", out.strip(),
                       "--emit", "term")
    assert code == 0 and out.strip() == "0*(1|2)"

    code, out, _ = run(capsys, "parse", "--forest", "0*1", "--emit", "dot")
    assert code == 0 and out.startswith("digraph")

    code, out, _ = run(capsys, "parse", "--forest", "0*(1|2)|3", "--emit", "dot")
    assert code == 0
    assert out.splitlines() == [
        "digraph forest {", "  rankdir=BT;",
        '  n0 [label="0"];',
        '  n1 [label="1"];', "  n1 -> n0;",
        '  n2 [label="2"];', "  n2 -> n0;",
        '  n3 [label="3"];',
        "}",
    ]


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--forest", "1*0*1")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "Tbar" and data["index"] == "2"

    code, out, _ = run(capsys, "classify", "--forest", "s(0*1)",
                       "--bound", "8", "--emit", "term")
    assert code == 0 and out.strip() == "T[w]"

    code, _, err = run(capsys, "classify", "--forest", "bot")
    assert code == 1 and "domain error" in err


def test_canonical(capsys):
    code, out, _ = run(capsys, "canonical", "--alpha", "w", "--emit", "term")
    assert code == 0 and out.strip() == "s(0*1)"

    code, out, _ = run(capsys, "canonical", "--alpha", "2",
                       "--polarity", "bar", "--emit", "term")
    assert code == 0 and out.strip() == "1*0*1"


def test_flatten(capsys):
    code, out, _ = run(capsys, "flatten", "--forest", "s(0|1)")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 2 and data["depth"] == 2
    assert sorted(data["labels"]) == [0, 1]
    assert sorted(map(tuple, data["orders"][1])) == [(0, 0), (1, 1)]


def test_dh_check(capsys):
    code, out, _ = run(
        capsys, "dh-check", "--space", "chain:2", "--base", "upsets",
        "--partition", '{"labels": [0, 1]}', "--forest", "0*1")
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True and data["witness"]

    code, out, _ = run(
        capsys, "dh-check", "--space", "chain:2", "--base", "upsets",
        "--partition", '{"labels": [1, 0]}', "--forest", "0*1")
    assert code == 0 and json.loads(out) == {"member": False}

    # the witness is the greatest family: the root takes both points,
    # though [0] alone would also do
    code, out, _ = run(
        capsys, "dh-check", "--space", "chain:2", "--base", "powerset",
        "--partition", '{"labels": [1, 0]}', "--forest", "1*0")
    assert code == 0 and json.loads(out) == {"member": True, "witness": [
        {"prefix": [[0]], "set": [0, 1]}, {"prefix": [[0, 0]], "set": [1]}]}

    code, out, _ = run(
        capsys, "dh-check", "--space", "chain:40", "--base", "upsets",
        "--partition", json.dumps({"labels": [0] * 40}), "--forest", "0")
    assert code == 0 and json.loads(out)["member"] is True


def test_wide_node_dh_check(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "dh-check", "--space", "chain:8",
        "--partition", json.dumps({"labels": [0] * 8}),
        "--forest", "1*(0|0|0|0|0|0|0|0)")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["member"] is True


def test_witness_lists_every_point(capsys):
    code, out, _ = run(
        capsys, "dh-check", "--space", "chain:70", "--base", "upsets",
        "--partition", json.dumps({"labels": [0] * 70}), "--forest", "0")
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert [entry["set"] for entry in data["witness"]] == [list(range(70))]


@pytest.mark.parametrize("argv", [
    ["dh-check", "--space", "antichain:20", "--base", "upsets",
     "--partition", json.dumps({"labels": [0] * 20}), "--forest", "0"],
    ["reduce-check", "--space", "chain:20", "--base", "powerset"],
    ["dh-check", "--space", "antichain:13",
     "--base", json.dumps([[i] for i in range(13)]),
     "--partition", json.dumps({"labels": [0] * 13}), "--forest", "0"],
    ["dh-check", "--space", "antichain:20",
     "--base", json.dumps([[i] for i in range(20)]),
     "--partition", json.dumps({"labels": [0] * 20}), "--forest", "0"],
])
def test_exponential_base_is_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_fh_check_closes_each_level_once(capsys):
    # 12 singletons close to all 4096 subsets; closing those again is 4096^2 pairs
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "fh-check", "--space", "antichain:12",
        "--omega-base", json.dumps([[[i] for i in range(12)]]),
        "--partition", json.dumps({"labels": [0] * 12}), "--forest", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out) == {"member": True}

    code, _, err = run(
        capsys, "fh-check", "--space", "chain:2",
        "--omega-base", json.dumps([[[], [1], [0, 1]], [[], [1], [0, 1]]]),
        "--partition", '{"labels": [1, 0]}', "--forest", "s(0|1)")
    assert code == 1 and "previous level and its complements" in err


@pytest.mark.parametrize("argv", [
    ["reduce-check", "--space", "chain:3000"],
    ["dh-check", "--space", "chain:3000",
     "--partition", '{"labels": [0]}', "--forest", "0"],
    ["fh-check", "--space", "antichain:3000", "--omega-base", "[[]]",
     "--partition", '{"labels": [0]}', "--forest", "0"],
    ["reduce-check", "--space", json.dumps({"points": 3000, "le": []})],
    ["reduce-check", "--space", "chain:" + "9" * 5000],
    ["reduce-check", "--space", "chain:999999999"],
    ["reduce-check", "--space", "antichain:999999999"],
    ["reduce-check", "--space", "chain:x"],
    ["reduce-check", "--space", '{"points": "3"}'],
    ["reduce-check", "--space", "chain:2", "--partition", '{"labels": [0, 1, 1, 1]}',
     "--forest", "0*1"],
    ["fh-check", "--space", "chain:2", "--omega-base", "[[]]",
     "--partition", '{"labels": [0]}', "--forest", "0"],
])
def test_space_point_limit(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_space_point_limit_admits_its_bound():
    assert load_space(f"antichain:{MAX_SPACE_POINTS}").n == MAX_SPACE_POINTS
    assert load_space(json.dumps({"points": MAX_SPACE_POINTS})).n == MAX_SPACE_POINTS


@pytest.mark.parametrize("argv", [
    ["classify", "--forest", T_BAR_52, "--bound", "51"],
    ["classify", "--forest", "0*1", "--bound", "-1"],
    ["canonical", "--alpha", "10000000"],
    ["canonical", "--alpha", "w*10000000", "--polarity", "bar"],
    ["canonical", "--alpha", "w*3334"],  # 10,002 nodes
    ["canonical", "--alpha", "w^w^w*" + "9" * 40],
    # 10,239 nodes, built from two T_b | bar T_b at each of ten steps
    ["canonical", "--alpha", "w^9+w^8+w^7+w^6+w^5+w^4+w^3+w^2+w+1"],
])
def test_size_limits_refuse_before_building(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_size_limits_admit_their_bounds(capsys):
    code, out, _ = run(capsys, "classify", "--forest", T_BAR_52,
                       "--bound", "52", "--emit", "term")
    assert code == 0 and out.strip() == "T-bar[w^(w*2)+w^3*2+4]"
    # 4,607 nodes, twice over for the join of both polarities
    assert 2 * 4607 <= MAX_CANONICAL_NODES
    code, out, _ = run(capsys, "canonical", "--polarity", "join",
                       "--alpha", "w^8+w^7+w^6+w^5+w^4+w^3+w^2+w+1")
    assert code == 0 and out.strip()


@pytest.mark.parametrize("argv", [
    ["dh-check", "--space", "chain:2", "--partition", '{"labels": [0, 1]}',
     "--k", "2", "--forest", "0*5"],
    ["fh-check", "--space", "chain:2",
     "--omega-base", "[[[], [1], [0, 1]], [[], [0], [1], [0, 1]]]",
     "--partition", '{"labels": [0, 1]}', "--k", "2", "--forest", "s(0*2)"],
    ["reduce-check", "--space", "chain:2", "--partition", '{"labels": [0, 1]}',
     "--k", "2", "--forest", "1*3"],
])
def test_forest_colors_must_be_below_k(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("domain error: color") and err.count("\n") == 1
    # without --k, k is the fewest colors that admit the partition and forest
    argv = argv[:argv.index("--k")] + argv[argv.index("--k") + 2:]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["member"] is False


def test_report_forest_colors_must_be_below_k(capsys):
    for k in ([], ["--k", "3"]):
        code, out, err = run(capsys, "report", "--space", "chain:2",
                             "--forest", "0*1", "--forest", "0*5", *k)
        assert code == 1 and out == ""
        assert err.startswith("domain error: color 5") and err.count("\n") == 1


@pytest.mark.parametrize("labels", ['{"labels": 5}', '{"labels": ["a", 1]}',
                                    '{"labels": [0.5, 1]}', '{"labels": [true, 0]}'])
def test_partition_labels_must_be_colors(capsys, labels):
    code, out, err = run(capsys, "dh-check", "--space", "chain:2",
                         "--partition", labels, "--forest", "0")
    assert code == 1 and out == ""
    assert err == "domain error: partition labels must be a list of colors\n"


@pytest.mark.parametrize("option, value", [
    ("--base", '[["a"]]'), ("--base", "[[1.5]]"), ("--base", "[[true]]"),
    ("--base", "[3]"), ("--omega-base", '[[["a"]]]'), ("--omega-base", "[[3]]")])
def test_base_points_must_be_point_numbers(capsys, option, value):
    verb = "dh-check" if option == "--base" else "fh-check"
    code, out, err = run(capsys, verb, "--space", "chain:2", option, value,
                         "--partition", '{"labels": [0, 1]}', "--forest", "0*1")
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


@pytest.mark.parametrize("space", ['{"points": true}',
                                   '{"points": 2, "le": [[0, true]]}',
                                   '{"points": 2, "le": [[true, 0]]}'])
@pytest.mark.parametrize("verb", ["degrees", "dh-check"])
def test_space_points_must_be_point_numbers(capsys, verb, space):
    # a bool is no point count and no point number: [0, true] is not chain:2
    more = ["--partition", '{"labels": [0, 1]}', "--forest", "0"]
    code, out, err = run(capsys, verb, "--space", space,
                         *(more if verb == "dh-check" else []))
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_fh_check(capsys):
    levels = json.dumps([
        [[], [1], [0, 1]],
        [[], [0], [1], [0, 1]],
    ])
    code, out, _ = run(
        capsys, "fh-check", "--space", "chain:2", "--omega-base", levels,
        "--partition", '{"labels": [1, 0]}', "--forest", "s(0|1)")
    assert code == 0 and json.loads(out) == {"member": True}


def test_reduce_check(capsys):
    code, out, _ = run(capsys, "reduce-check", "--space", "chain:3",
                       "--base", "upsets")
    assert code == 0
    assert json.loads(out) == {"reduction_property": True}

    code, out, _ = run(
        capsys, "reduce-check", "--space", "chain:2", "--base", "upsets",
        "--partition", '{"labels": [1, 0]}', "--forest", "1*0")
    assert code == 0
    data = json.loads(out)
    assert data["member"] and data["reduced"] and data["reduced_family"]

    code, out, _ = run(capsys, "reduce-check", "--space", "diamond",
                       "--base", "upsets")
    assert code == 0
    assert json.loads(out) == {"reduction_property": False}


@pytest.mark.parametrize("given, missing", [
    (["--forest", "0"], "--partition"),
    (["--partition", '{"labels": [0, 1]}'], "--forest"),
    (["--k", "2"], "--forest and --partition"),
    (["--forest", "0", "--k", "2"], "--partition"),
])
def test_reduce_check_refuses_an_option_it_would_drop(capsys, given, missing):
    code, out, err = run(capsys, "reduce-check", "--space", "chain:2", *given)
    assert code == 1 and out == ""
    assert err == f"domain error: reduce-check needs {missing} too\n"


def test_degrees(capsys):
    code, out, _ = run(capsys, "degrees", "--space", "chain:2", "--k", "2")
    assert code == 0
    assert len(json.loads(out)["degrees"]) == 4

    code, out, _ = run(capsys, "degrees", "--space", "antichain:2",
                       "--emit", "dot")
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_degrees_needs_a_color(capsys, k):
    # report's empty forest holds no color, so only k can refuse it
    for verb in (["degrees"], ["report", "--forest", "bot"]):
        for argv in (["--k", k], [f"--k={k}"]):
            code, out, err = run(capsys, *verb, "--space", "chain:2", *argv)
            assert (code, out) == (1, "")
            assert err == f"domain error: the number of colors must be at least 1, not {k}\n"


def test_report(capsys):
    code, out, _ = run(capsys, "report", "--space", "chain:2",
                       "--base", "upsets", "--forest", "0*1",
                       "--forest", "1*0")
    assert code == 0
    data = json.loads(out)
    assert len(data["levels"]) == 2

    code, out, _ = run(capsys, "report", "--space", "chain:2",
                       "--base", "upsets", "--forest", "0*1",
                       "--emit", "dot")
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("verb", [["degrees"], ["report", "--forest", "0"]],
                         ids=["degrees", "report"])
def test_there_is_no_size_override(capsys, verb):
    argv = [*verb, "--space", "chain:8", "--k", "3", "--override-size-guard"]
    start = time.perf_counter()
    code, out, err = _exit(lambda: main(argv), capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("syntax error:") and err.count("\n") == 1


def test_degree_limits_are_hard(capsys):
    code, out, err = run(capsys, "degrees", "--space", "chain:2", "--k", "5")
    assert (code, out) == (1, "")
    assert err == ("domain error: 2 points / 5 colors exceeds the limit "
                   "(5 points, 4 colors)\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--forest", "0*1", "--emit", "dot"],
    ["degrees", "--space", "chain:2", "--emit", "term"],
    ["report", "--space", "chain:2", "--forest", "0*1", "--emit=term"],
])
def test_unwritable_emit_modes_are_syntax_errors(capsys, argv):
    code, out, err = _exit(lambda: main(argv), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("syntax error:") and err.count("\n") == 1
    assert "invalid choice" in err


def _cli(*argv, **env):
    src = os.path.dirname(os.path.dirname(hforest.acceptance.__file__))
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.Popen([sys.executable, "-m", "hforest.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def _outputs(call, timeout=60):
    """The child's (stdout, stderr) as text.  A child still running at the
    timeout is killed and reaped before TimeoutExpired fails the test."""
    try:
        out, err = call.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        call.kill()
        call.communicate()
        raise
    return out.decode(), err.decode()


def _meet_of_periodic_chains(n, emit):
    """[exit code, stdout size, stderr, ru_maxrss in KB] of the CLI's meet of
    the n-node chains of colors i mod 3 and 2i mod 3, a graph of a few
    hundred nodes that writes exponentially many in n.  A wrapper child
    runs the call, so that ru_maxrss is that call's alone."""
    lhs = "*".join(str(i % 3) for i in range(n))
    rhs = "*".join(str(2 * i % 3) for i in range(n))
    wrapper = ("import json, resource, subprocess, sys\n"
               "call = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
               "print(json.dumps([call.returncode, len(call.stdout), call.stderr,\n"
               "    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))")
    src = os.path.dirname(os.path.dirname(hforest.acceptance.__file__))
    done = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m", "hforest.cli",
         "meet", "--lhs", lhs, "--rhs", rhs, "--emit", emit],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    return json.loads(done.stdout)


@pytest.mark.parametrize("emit", ["term", "json", "dot"])
def test_a_forest_too_large_to_write_is_refused_before_it_is_written(emit):
    # at n=40 the meet's 196 distinct nodes write 40,116,599
    start = time.perf_counter()
    code, size, err, maxrss = _meet_of_periodic_chains(40, emit)
    assert time.perf_counter() - start < 5.0
    assert (code, size) == (1, 0)
    assert err == ("domain error: the output forest writes 40116599 nodes, "
                   f"more than {MAX_WRITTEN_NODES}\n")
    assert maxrss < 100 * 1024


def test_the_written_size_counts_each_node_where_it_occurs():
    # every_node lists a shared node once per place, at every nesting level
    from hforest.cli import _written_size
    from hforest.forest import every_node, meet

    chains = [parse_term("*".join(str(i * m % 3) for i in range(20))) for m in (1, 2)]
    for f in [*map(parse_term, ["bot", "0", "0*1|1", "s(0*1)*(s(0|1)|0)", T_BAR_52]),
              meet(*chains)]:
        assert _written_size(f) == len(every_node(f))
    assert _written_size(meet(*chains)) == 6005


def test_dot_of_a_shared_meet_keeps_its_text(capsys):
    # the meet of the 20-node periodic chains shares its nodes, so DOT
    # writes each once per place: SHA-256 computed when the ids were kept
    # in a dict keyed by every node's path
    lhs = "*".join(str(i % 3) for i in range(20))
    rhs = "*".join(str(2 * i % 3) for i in range(20))
    code, out, err = run(capsys, "meet", "--lhs", lhs, "--rhs", rhs, "--emit", "dot")
    assert (code, len(out), err) == (0, 230861, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "70d023cfba8e8047c7dc415902c346dc81a7003f059e8010aa44704f363c3721")


def test_a_forest_below_the_written_size_bound_is_written():
    # at n=30 the meet writes 520,675 nodes, a term of 1,410,859 characters
    assert _meet_of_periodic_chains(30, "term")[:3] == [0, 1410860, ""]


@pytest.mark.parametrize("verb, out", [
    ("compare", '{"h_leq": false, "h_geq": false}'),
    ("meet", "0*1|2"),
    ("join", "0*(1|2)|s(0*1)"),
])
def test_a_color_label_below_a_nested_one_in_a_fresh_process(verb, out):
    # no node 0 lives in these forests, so the walk lifts the label 0 to a
    # one-point tree that it alone keeps alive while it waits on its answer
    call = _cli(verb, "--lhs", "0*(1|2)", "--rhs", "s(0*1)|2")
    stdout, stderr = _outputs(call)  # a walk that waits on itself is killed
    assert (call.returncode, stdout, stderr) == (0, out + "\n", "")


def test_report_dot_is_the_same_under_any_hash_seed():
    argv = ["report", "--space", "chain:2", "--forest", "0", "--forest", "1",
            "--forest", "0*1", "--forest", "1*0", "--forest", "0|1",
            "--emit", "dot"]
    outputs = set()
    for seed in ("1", "2"):
        out, err = _outputs(_cli(*argv, PYTHONHASHSEED=seed))
        assert err == "" and out.count("->") >= 2
        outputs.add(out)
    assert len(outputs) == 1


def test_a_reader_that_closes_early_gets_no_traceback():
    call = _cli("degrees", "--space", "chain:5", "--k", "4")
    assert len(call.stdout.read(100)) == 100
    call.stdout.close()
    err = call.stderr.read()
    assert call.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"Exception" not in err


def test_report_of_a_long_chain_is_fast(capsys):
    chain = ["*".join(str(i % 2) for i in range(n)) for n in range(1, 27)]
    start = time.perf_counter()
    code, out, _ = run(capsys, "report", "--space", "chain:2",
                       *(x for f in chain for x in ("--forest", f)))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert [c["antichain"] for c in json.loads(out)["constituents"]] == [[f] for f in chain]


def test_report_refuses_too_many_antichains(capsys):
    # chains of three distinct colors are pairwise incomparable: 2^13 - 1 antichains
    forests = ["*".join(map(str, p)) for p in itertools.permutations(range(4), 3)][:13]
    start = time.perf_counter()
    code, out, err = run(capsys, "report", "--space", "chain:2", "--k", "4",
                         *(x for f in forests for x in ("--forest", f)))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def _verbose_json(f) -> list:
    """f as forest JSON with every color label c, at every level, spelled
    as the one-point forest [{"label": c}]."""
    return [{"label": [{"label": t.label}] if isinstance(t.label, int)
             else _verbose_json(t.label), "children": _verbose_json(t.children)}
            for t in f]


def test_a_json_forest_answers_as_its_term(capsys):
    space = ["--space", "chain:2", "--partition", '{"labels": [0, 1]}']
    levels = json.dumps([[[], [1], [0, 1]], [[], [0], [1], [0, 1]]])
    verbs = (["parse", "--emit", "json"], ["flatten"], ["normalize"],
             ["compare", "--rhs", "0*1|s(1)"], ["dh-check", *space],
             ["fh-check", *space, "--omega-base", levels])
    forests = oracles.nested_forests(4, 2, 2)
    assert len(forests) > 300
    for f in forests:
        term = nested._render(f)  # f itself, where print_term normalizes
        assert parse_term(term) == f
        text = json.dumps(_verbose_json(f))
        for verb, *rest in verbs:
            flag = "--lhs" if verb == "compare" else "--forest"
            answers = [run(capsys, verb, flag, form, *rest) for form in (term, text)]
            assert answers[0] == answers[1], (verb, term)


@pytest.mark.parametrize("label, err", [
    ("[]", "the empty forest is not a label"), ("-1", "bad label -1")])
def test_json_labels_are_colors_or_forests(capsys, label, err):
    text = f'[{{"label": {label}, "children": [{{"label": 0}}]}}]'
    for verb in ("parse", "normalize", "flatten", "classify"):
        code, out, stderr = run(capsys, verb, "--forest", text)
        assert (code, out, stderr) == (1, "", f"domain error: {err}\n")


def test_file_input(tmp_path, capsys):
    path = tmp_path / "forest.term"
    path.write_text("0*1\n")
    code, out, _ = run(capsys, "normalize", "--forest", str(path))
    assert code == 0 and out.strip() == "0*1"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "parse", "--forest", "0*(1")
    assert code == 2 and "syntax error" in err

    code, _, err = run(capsys, "canonical", "--alpha", "w^")
    assert code == 2 and "syntax error" in err

    code, _, err = run(capsys, "dh-check", "--space", "chain:2",
                       "--base", "upsets",
                       "--partition", '{"labels": [0, 1, 0]}',
                       "--forest", "0*1")
    assert code == 1 and "domain error" in err

    code, _, err = run(capsys, "degrees", "--space", "antichain:6")
    assert code == 1 and "domain error" in err

    with pytest.raises(SystemExit):
        main(["no-such-verb"])


def _exit(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_top_level_help_lists_every_verb(capsys):
    code, out, err = _exit(lambda: main(["-h"]), capsys)
    assert code == 0 and err == ""
    assert len(VERBS) == 14
    assert all(verb in out for verb in VERBS)


@pytest.mark.parametrize("verb", VERBS)
def test_verb_help_is_the_full_parsers(capsys, verb):
    code, out, err = _exit(lambda: main([verb, "-h"]), capsys)
    assert code == 0 and err == "" and out.startswith(f"usage: hforest {verb} ")
    full = _exit(lambda: _build_parser().parse_args([verb, "-h"]), capsys)
    assert (code, out, err) == full


@pytest.mark.parametrize("argv, err", [
    (["bogus"], "hforest: argument verb: invalid choice: 'bogus' (choose from "
                + ", ".join(map(repr, VERBS)) + ")"),
    ([], "hforest: the following arguments are required: verb"),
    (["classify", "--forest", "-x"],
     "hforest classify: argument --forest: expected one argument"),
    (["classify", "--forest", "0", "--bound", "x"],
     "hforest classify: argument --bound: invalid int value: 'x'"),
    (["normalize", "--forest", "0", "extra"],
     "hforest: unrecognized arguments: extra"),
])
def test_usage_errors_are_one_syntax_error_line(capsys, argv, err):
    assert _exit(lambda: main(argv), capsys) == (2, "", f"syntax error: {err}\n")


NINES = "9" * 5000  # more digits than int() and json.loads convert


@pytest.mark.parametrize("argv", [
    ["normalize", "--forest", "\u00b2"],
    ["canonical", "--alpha", "\u00b2"],
    ["normalize", "--forest", "1" * 5000],
    ["canonical", "--alpha", "1" * 5000],
    ["canonical", "--alpha", "w*" + "1" * 5000],
    ["degrees", "--space", f'{{"points": {NINES}}}'],
    ["parse", "--forest", f'[{{"label": {NINES}}}]'],
    ["dh-check", "--space", "chain:2", "--forest", "0",
     "--partition", f'{{"labels": [{NINES}]}}'],
])
def test_numbers_outside_ascii_or_int_are_syntax_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("syntax error:") and err.count("\n") == 1


def test_reduce_check_answers_on_the_largest_base_admitted():
    # six disjoint 3-chains: 18 points and 4 ** 6 = MAX_BASE_SETS up-sets
    le = [[3 * c + i, 3 * c + i + 1] for c in range(6) for i in range(2)]
    space = json.dumps({"points": 18, "le": le})
    call = _cli("reduce-check", "--space", space)
    out, err = _outputs(call, timeout=30)
    assert (call.returncode, out, err) == (0, '{"reduction_property": true}\n', "")


@pytest.mark.parametrize("labels, member", [([0] * 11 + [1], True),
                                             ([0] * 11 + [2], False)])
def test_fh_check_answers_on_the_largest_omega_base_admitted(capsys, labels, member):
    # two levels of 12 singletons, each closed to the 4,096-set powerset
    singletons = [[p] for p in range(12)]
    start = time.perf_counter()
    code, out, err = run(capsys, "fh-check", "--space", "antichain:12",
                         "--omega-base", json.dumps([singletons, singletons]),
                         "--forest", "(0*1)*((1*0)|(0*1)|s(0|1))",
                         "--partition", json.dumps({"labels": labels}))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, json.dumps({"member": member}) + "\n", "")


def test_deep_input_is_a_domain_error(capsys):
    # a deep term answers; the JSON reader has a depth limit of its own
    code, out, err = run(capsys, "normalize", "--forest", "0*" * 600 + "1")
    assert (code, out, err) == (0, "0*1\n", "")
    node = '{"label": 0, "children": ['
    deep_json = "[" + node * 600 + "]}" * 600 + "]"
    code, out, err = run(capsys, "normalize", "--forest", deep_json)
    assert code == 1 and out == ""
    assert err == "domain error: input nested too deeply\n"


# The 1,000-node alternating chain, as deep as the term parser reads, and a
# term 300 labels deep: both far deeper than a walk by recursion reaches.
CHAIN = ("0*1*" * 500)[:-1]
LAYERS = "s(" * 299 + "0*1" + ")" * 299
OTHER_CHAIN = CHAIN[:-1] + "0"
# T_{w+1} and its bar: the labels of the copies of w^(w+1) in T_{w^(w+1)*d}
W1, BAR_W1 = "0*(s(0*1)|s(1*0))", "1*(s(0*1)|s(1*0))"
DH_CHECK = ["dh-check", "--space", "chain:2", "--partition", '{"labels": [0, 1]}']
# The alternating chain 490 trees deep as forest JSON: near the stdlib
# decoder's own depth limit, two levels (an object and an array) per tree.
JSON_CHAIN = ("[" + "".join(f'{{"label": {i % 2}, "children": [' for i in range(490))
              + "]}" * 490 + "]")


def _copies(labels, d):
    """The term of d copies of w^g down a chain, their labels alternating."""
    items = [labels[i % 2] for i in range(d)]
    return "*".join(f"({x})" for x in items[:-1]) + f"*s({items[-1]})"


@pytest.mark.parametrize("argv, out, may_stop", [
    pytest.param(["normalize", "--forest", CHAIN], CHAIN, False, id="normalize chain"),
    pytest.param(["normalize", "--forest", LAYERS], LAYERS, False, id="normalize layers"),
    pytest.param(["join", "--lhs", CHAIN, "--rhs", CHAIN], CHAIN, False, id="join chain"),
    pytest.param(["join", "--lhs", LAYERS, "--rhs", LAYERS], LAYERS, False,
                 id="join layers"),
    pytest.param(["parse", "--forest", CHAIN, "--emit", "term"], CHAIN, False,
                 id="parse term chain"),
    pytest.param(["parse", "--forest", LAYERS, "--emit", "term"], LAYERS, False,
                 id="parse term layers"),
    pytest.param(["classify", "--forest", CHAIN, "--emit", "term"], "T[999]", False,
                 id="classify chain"),
    pytest.param(["classify", "--forest", LAYERS, "--bound", "10000", "--emit", "term"],
                 "T[" + "w^(" * 298 + "w" + ")" * 298 + "]", False, id="classify layers"),
    # 990 copies of w down a chain, whose labels are two trees: each label
    # tree's guess is filled once and read by the nodes that share it
    pytest.param(["classify", "--forest", _copies(("0*1", "1*0"), 990), "--bound", "100000",
                  "--emit", "term"], "T[w*990]", False, id="classify w*990"),
    pytest.param(["flatten", "--forest", CHAIN], '{"size": 1000, "depth": 1, ', False,
                 id="flatten chain"),
    pytest.param(["flatten", "--forest", LAYERS], '{"size": 2, "depth": 300, ', False,
                 id="flatten layers"),
    pytest.param([*DH_CHECK, "--forest", CHAIN], '{"member": true, ', False,
                 id="dh-check chain"),
    pytest.param(["canonical", "--alpha", "9999"], ("0*1*" * 5000)[:-1], False,
                 id="canonical 9999"),
    # coefficients as large as the node guard admits
    pytest.param(["canonical", "--alpha", "w*3333"], _copies(("0*1", "1*0"), 3333),
                 False, id="canonical w*3333"),
    pytest.param(["canonical", "--alpha", "w*3333", "--polarity", "bar"],
                 _copies(("1*0", "0*1"), 3333), False, id="canonical w*3333 bar"),
    pytest.param(["canonical", "--alpha", "w^2*2500"],
                 _copies(("0*1*0", "1*0*1"), 2500), False, id="canonical w^2*2500"),
    pytest.param(["canonical", "--alpha", "w^w*1000", "--polarity", "bar"],
                 "s(" + _copies(("1*0", "0*1"), 1000) + ")", False,
                 id="canonical w^w*1000 bar"),
    # printing normalizes T_b | bar T_b, which compares two deep trees
    pytest.param(["canonical", "--alpha", "w*300", "--polarity", "join"],
                 _copies(("0*1", "1*0"), 300) + "|" + _copies(("1*0", "0*1"), 300), False,
                 id="canonical w*300 join"),
    pytest.param(["canonical", "--alpha", "w*1000", "--polarity", "join"],
                 _copies(("0*1", "1*0"), 1000) + "|" + _copies(("1*0", "0*1"), 1000), False,
                 id="canonical w*1000 join"),
    pytest.param(["canonical", "--alpha", "w^(w+1)*126+3"],
                 "0*1*0*(" + _copies((W1, BAR_W1), 126) + "|" + _copies((BAR_W1, W1), 126) + ")",
                 False, id="canonical w^(w+1)*126+3"),
    pytest.param(["compare", "--lhs", CHAIN, "--rhs", OTHER_CHAIN],
                 '{"h_leq": false, "h_geq": true}', False, id="compare chains"),
    # the meet of two comparable trees is the lower one
    pytest.param(["meet", "--lhs", CHAIN, "--rhs", OTHER_CHAIN], CHAIN[:-2], False,
                 id="meet chains"),
    pytest.param(["normalize", "--forest", JSON_CHAIN], ("0*1*" * 245)[:-1], False,
                 id="normalize json chain"),
    # the stdlib JSON encoder, and meet_trees on two incomparable trees, may
    # stop at the depth guard
    pytest.param(["parse", "--forest", CHAIN], '[{"label": 0, "children": ', True,
                 id="parse json chain"),
    pytest.param(["parse", "--forest", LAYERS], '[{"label": [{"label": ', True,
                 id="parse json layers"),
    pytest.param(["meet", "--lhs", CHAIN, "--rhs", CHAIN[:-1] + "2"], "", True,
                 id="meet incomparable chains"),
])
def test_every_forest_verb_answers_as_deep_as_the_parser_reads(argv, out, may_stop):
    call = _cli(*argv)
    stdout, stderr = _outputs(call)
    if may_stop and call.returncode:  # the one-line error, never a traceback
        assert (call.returncode, stdout) == (1, "")
        assert stderr == "domain error: input nested too deeply\n"
    else:
        assert (call.returncode, stderr) == (0, "")
        assert stdout.startswith(out) and stdout.endswith("\n")


def test_flatten_answers_at_the_parse_depth_limit(capsys):
    code, out, err = run(capsys, "flatten", "--forest", "0*" * 999 + "1")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["size"] == 1000 and len(data["orders"][0]) == 1000 * 1001 // 2


def test_deep_ordinal_is_a_domain_error(capsys):
    code, out, err = run(capsys, "canonical", "--alpha",
                         "w^(" * 2000 + "1" + ")" * 2000)
    assert code == 1 and out == ""
    assert err == "domain error: input nested too deeply\n"


def test_very_deep_term_file_is_refused_at_once(capsys, tmp_path):
    deep = tmp_path / "deep.term"
    deep.write_text("0*" * 200_000 + "1", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", "--forest", str(deep))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "domain error: input nested too deeply\n"


def test_selftest_fast(capsys):
    code, out, _ = run(capsys, "selftest", "--scope", "fast")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"A1", "A2", "A3", "A4"}
    assert all(entry["ok"] for entry in data.values())
    for name, entry in data.items():
        assert entry["budget_s"] == hforest.acceptance.BUDGETS[name]
        assert 0 <= entry["seconds"] < entry["budget_s"]
        assert set(entry["memo"]) == {
            "forest._INTERNED", "nested._FLATS", "nested._parse", "canonical._t_pair",
            "canonical._t_size", "oracles.ordinal_candidates", "oracles.nested_trees",
            "oracles.nested_forests_exact"}
        assert all(type(size) is int and size >= 0 for size in entry["memo"].values())


def test_selftest_reports_failure(capsys, monkeypatch):
    real_meet = hforest.acceptance.meet

    def broken_meet(f, g):
        m = real_meet(f, g)
        return () if f and g and m else m

    monkeypatch.setattr(hforest.acceptance, "meet", broken_meet)
    code, out, err = run(capsys, "selftest", "--scope", "fast")
    assert code == 1
    assert "A2" in err
    assert json.loads(out)["A2"]["ok"] is False
