"""Command-line interface, exercised in process via main(argv)."""

import json
import time

import pytest

import hforest.acceptance
from hforest.cli import (MAX_CANONICAL_NODES, MAX_CLASSIFY_BOUND,
                         MAX_SPACE_POINTS, load_space, main)
from hforest.forest import forest_from_json, h_equiv
from hforest.nested import parse_term


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
    ["reduce-check", "--space", "chain:x"],
    ["reduce-check", "--space", '{"points": "3"}'],
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
    ["classify", "--forest", "0*1", "--bound", str(MAX_CLASSIFY_BOUND + 1)],
    ["classify", "--forest", "0*1", "--bound", "24"],
    ["canonical", "--alpha", "10000000"],
    ["canonical", "--alpha", "w*10000000", "--polarity", "bar"],
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
    code, out, _ = run(capsys, "classify", "--forest", "s(0*1)",
                       "--bound", str(MAX_CLASSIFY_BOUND), "--emit", "term")
    assert code == 0 and out.strip() == "T[w]"
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


def test_degrees(capsys):
    code, out, _ = run(capsys, "degrees", "--space", "chain:2", "--k", "2")
    assert code == 0
    assert len(json.loads(out)["degrees"]) == 4

    code, out, _ = run(capsys, "degrees", "--space", "antichain:2",
                       "--emit", "dot")
    assert code == 0 and out.startswith("digraph")


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


@pytest.mark.parametrize("argv", [
    ["normalize", "--forest", "\u00b2"],
    ["canonical", "--alpha", "\u00b2"],
    ["normalize", "--forest", "1" * 5000],
    ["canonical", "--alpha", "1" * 5000],
    ["canonical", "--alpha", "w*" + "1" * 5000],
])
def test_numbers_outside_ascii_or_int_are_syntax_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("syntax error:") and err.count("\n") == 1


def test_deep_input_is_a_domain_error(capsys):
    node = '{"label": 0, "children": ['
    deep_json = "[" + node * 600 + "]}" * 600 + "]"
    for text in ("0*" * 600 + "1", deep_json):
        code, out, err = run(capsys, "normalize", "--forest", text)
        assert code == 1 and out == ""
        assert err == "domain error: input nested too deeply\n"


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
