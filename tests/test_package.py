"""The package's lazy exports and what each CLI verb imports."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import hforest

SRC = os.path.dirname(os.path.dirname(hforest.__file__))
MODULES = ("ordinal", "forest", "nested", "canonical", "space", "degrees")


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=60)


def test_every_export_is_its_home_modules_object():
    homes = [importlib.import_module(f"hforest.{m}") for m in MODULES]
    assert set(MODULES) <= set(hforest.__all__)
    assert len(hforest.__all__) == 96
    for name in hforest.__all__:
        value = getattr(hforest, name)
        if name in MODULES:
            assert value is importlib.import_module(f"hforest.{name}")
        else:
            assert any(getattr(m, name, None) is value for m in homes), name
    assert set(hforest.__all__) <= set(dir(hforest))
    namespace = {}
    exec("from hforest import *", namespace)
    assert all(namespace[name] is getattr(hforest, name) for name in hforest.__all__)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hforest.no_such_name


def test_error_classes_have_one_home():
    from hforest import errors

    assert hforest.ForestError is errors.ForestError
    assert hforest.SpaceError is errors.SpaceError
    assert hforest.TermSyntaxError is errors.TermSyntaxError
    assert hforest.OrdinalSyntaxError is errors.OrdinalSyntaxError


def test_import_hforest_loads_no_module():
    p = _python("-c", "import sys, hforest; import hforest.cli; print(' '.join("
                "sorted(m for m in sys.modules if m.startswith('hforest'))))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["hforest", "hforest.cli", "hforest.errors",
                                "hforest.forest", "hforest.nested"]


def _imports(*argv):
    # -S keeps the site hooks' imports out of the list
    p = _python("-S", "-X", "importtime", "-m", "hforest.cli", *argv)
    assert p.returncode == 0, p.stderr
    return {line.rsplit("|", 1)[1].strip() for line in p.stderr.splitlines()
            if line.startswith("import time:")}


LIBRARY = {f"hforest.{m}" for m in (*MODULES, "errors", "acceptance", "oracles")}
FOREST_VERB = {"hforest", "hforest.errors", "hforest.forest", "hforest.nested"}
# argparse and what it loads: a call that parses needs none of them
PARSER = {"argparse", "gettext", "locale", "shutil"}


@pytest.mark.parametrize("argv, modules", [
    (["normalize", "--forest", "0*1"], set()),
    (["meet", "--lhs", "0*1", "--rhs", "1*0"], set()),
    (["join", "--lhs=0", "--rhs=1"], set()),
    (["compare", "--lhs", "0", "--rhs", "s(0*1)"], set()),
    (["flatten", "--forest", "s(0|1)"], set()),
    (["canonical", "--alpha", "w+1"], {"hforest.canonical", "hforest.ordinal"}),
    (["dh-check", "--space", "chain:2", "--partition", '{"labels": [0, 1]}',
      "--forest", "0*1"], {"hforest.space"}),
    (["degrees", "--space", "chain:2"], {"hforest.space", "hforest.degrees"}),
    (["classify", "--forest", "s(0*1)", "--bound", "8"],
     {"hforest.canonical", "hforest.ordinal"}),
    (["fh-check", "--space", "chain:2", "--omega-base", "[[[1]]]",
      "--partition", '{"labels": [0, 1]}', "--forest", "0*1"], {"hforest.space"}),
    (["reduce-check", "--space", "chain:2"], {"hforest.space"}),
    (["report", "--space", "chain:2", "--forest", "0*1"], {"hforest.space"}),
    (["degrees", "--space", "chain:2", "--emit", "dot"],
     {"hforest.space", "hforest.degrees"}),
    (["report", "--space", "chain:2", "--forest", "0*1", "--emit", "dot"],
     {"hforest.space"}),
])
def test_each_verb_imports_only_what_it_runs(argv, modules):
    imported = _imports(*argv)
    assert imported & (LIBRARY | {"hforest"}) == FOREST_VERB | modules
    assert not imported & ({"dataclasses", "inspect", "typing"} | PARSER)
    # term or DOT output from term and named-space input
    if argv[0] in ("normalize", "meet", "join", "canonical") or "dot" in argv:
        assert "json" not in imported


def test_help_imports_argparse():
    assert PARSER <= _imports("normalize", "-h")


def test_the_label_rules_have_one_home():
    # Tree applies the label rules as it makes a node; oracles uses as_label
    # to skip color labels while it enumerates, so a corpus has no duplicates
    package = pathlib.Path(hforest.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "as_label" in p.read_text())
    assert users == ["forest.py", "oracles.py"]


def test_the_memo_slots_have_one_home():
    # Tree makes the tree_leq and meet_trees slots, and forest alone reads them
    package = pathlib.Path(hforest.__file__).parent
    for slot in ("_leq", "_meet"):
        word = re.compile(rf"\b{slot}\b")
        users = sorted(p.name for p in package.glob("*.py") if word.search(p.read_text()))
        assert users == ["forest.py"], slot


def test_the_guess_slot_has_one_home():
    # Tree makes the slot empty and canonical._decode alone fills and reads it
    package = pathlib.Path(hforest.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "_guess" in p.read_text())
    assert users == ["canonical.py", "forest.py"]


def test_the_text_slot_has_one_home():
    # Tree makes the slot empty and nested.print_term alone fills and reads it
    package = pathlib.Path(hforest.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "_text" in p.read_text())
    assert users == ["forest.py", "nested.py"]


def test_the_input_checks_have_one_home():
    # from_pairs checks the point count, as close_base and the other
    # counts of points do through the same _point_count, errors.check_count
    # is the one rule for every other count, _colors words k for
    # check_size_guard, KPartition and all_partitions, _json_labels reads a
    # partition's JSON for the library and the CLI, the membership calls
    # check a partition's size, validate_forest the colors, _is_bar the
    # polarity of both canonical builders, and one writer draws both Hasse
    # diagrams
    import inspect

    from hforest import canonical, forest, nested, ordinal, space

    package = pathlib.Path(hforest.__file__).parent
    for text, home in (("MAX_SPACE_POINTS", "space.py"),
                       ("the point count must be", "space.py"),
                       ("the number of colors must be", "space.py"),
                       ("partition size does not match the space", "space.py"),
                       ("partition JSON must have", "space.py"),
                       ("must be a list of colors", "space.py"),
                       ("must be an integer, not", "errors.py")):
        users = sorted(p.name for p in package.glob("*.py") if text in p.read_text())
        assert users == [home], text
    modules = [importlib.import_module(f"hforest.{p.stem}")
               for p in package.glob("*.py") if p.stem != "__init__"]
    functions = {func for m in modules for value in vars(m).values()
                 for func in ([getattr(value, name) for name in vars(value)]
                              if isinstance(value, type) else [value])
                 if hasattr(func, "__code__")}
    assert {func for func in functions if "check_count" in _names(func.__code__)} == {
        space._colors, space.family_prefixes, forest.validate_forest,
        nested.flatten, canonical.t_flat, canonical.classify_2tree_nested,
        ordinal.ord_of}
    for func in (space.check_size_guard, space.KPartition.__init__,
                 space.all_partitions):
        assert "_colors" in _names(func.__code__), func.__qualname__
    for func in (space.close_base, space.complements, space.check_omega_nesting,
                 space.all_partitions, space.check_size_guard):
        assert "_point_count" in _names(func.__code__), func.__name__
    assert "_json_labels" in _names(space.KPartition.from_json.__code__)
    for func in (canonical.t_flat, canonical.t_nested):
        assert "_is_bar" in _names(func.__code__), func.__name__
    assert list(inspect.signature(nested.parse_term).parameters) == ["text"]
    callers = {func for func in functions if "hasse_edges" in _names(func.__code__)}
    assert callers == {space.hasse_dot}


def test_the_poset_authority_checks_its_own_rows():
    # all_posets hands each relation's rows to the FiniteSpace constructor,
    # which checks every row, so it stays off from_pairs and its closure
    from hforest import oracles

    names = _names(oracles.all_posets.__code__)
    assert "FiniteSpace" in names and "from_pairs" not in names


def _names(code):
    """The global and attribute names a code object and its nested ones use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_the_opens_and_the_closed_bases_share_one_union_step():
    from hforest import space

    for func in (space.up_sets, space.close_base):
        assert "_unions" in _names(func.__code__), func.__name__


def test_a_bases_order_is_read_from_the_least_opens():
    # A7 checks has_reduction_property by reduce_pair on every pair, so the
    # verdict may never run reduce_pair
    from hforest import oracles, space

    assert "_least_opens" in _names(space.close_base.__code__)
    assert {"validate_base", "opens"} <= _names(space.has_reduction_property.__code__)
    assert space._least_opens([0b011, 0b110], 3) == {0b011, 0b010, 0b110}
    assert "reduce_pair" not in _names(space.has_reduction_property.__code__)
    assert "reduce_pair" in _names(oracles.oracle_reduction_property.__code__)


def test_a_closed_base_has_one_check():
    # validate_base passes a Base as it is and closes any other family, so
    # it alone words the refusal; every reader of a base takes it through
    # validate_base, the membership pass and the order read its least
    # opens, and reduce_pair and A7's authority still scan its sets
    import inspect

    from hforest import oracles, space

    package = pathlib.Path(hforest.__file__).parent
    message = "not closed under"
    assert sum(p.read_text().count(message) for p in package.glob("*.py")) == 1
    assert message in inspect.getsource(space.validate_base)
    for func in (space.dh_membership, space.dh_witness_family, space.fh_membership,
                 space.has_reduction_property, space.reduce_family,
                 space.check_omega_nesting):
        assert "validate_base" in _names(func.__code__), func.__name__
    for func in (space._greatest, space.has_reduction_property,
                 space.check_omega_nesting):
        assert "opens" in _names(func.__code__), func.__name__
    for func in (space.reduce_pair, oracles.oracle_reduction_property):
        assert "opens" not in _names(func.__code__), func.__name__


def test_the_authority_stays_off_the_fast_path():
    # oracle_h_leq checks h_leq through flatten and morphism_exists, so those
    # may never run the h-preorder code they check
    from hforest import nested, oracles

    fast = {"h_leq", "tree_leq", "h_equiv", "label_leq", "meet", "meet_trees",
            "normalize"}
    for func in (oracles.oracle_h_leq, nested.flatten, nested._flatten,
                 nested.morphism_exists):
        assert not _names(func.__code__) & fast, func.__name__
    assert "_flatten" in _names(nested.flatten.__code__)


def test_the_degree_authority_stays_off_the_fast_path():
    # oracle_degree_poset composes every partition with every map of its
    # own product filter, so it checks degree_poset and monotone_maps
    # without the morphism search they use
    from hforest import oracles

    fast = {"monotone_maps", "wadge_leq", "morphism_exists", "degree_poset"}
    for func in (oracles.oracle_degree_poset, oracles.oracle_monotone_maps):
        assert not _names(func.__code__) & fast, func.__name__
    assert "oracle_monotone_maps" in _names(oracles.oracle_degree_poset.__code__)


def test_the_membership_checks_stay_off_the_greedy_pass():
    # family_defines checks every witness and difference_kernel is A4's
    # enumeration; the kept reference sweep checks the pass in test_space
    import importlib.util

    from hforest import space

    path = pathlib.Path(__file__).with_name("test_space.py")
    spec = importlib.util.spec_from_file_location("_reference_space", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    fast = {"_greatest", "dh_membership", "fh_membership", "dh_witness_family"}
    for func in (space.family_defines, space.difference_kernel,
                 reference.reference_sweep, reference.reference_fold,
                 reference.reference_member):
        assert not _names(func.__code__) & fast, func.__name__
    assert "reference_sweep" in _names(reference.reference_member.__code__)


def test_the_one_tree_folds_do_not_recurse():
    # each walks forest.postorder or a stack of its own, so it answers on
    # every forest the parser reads; a fold that calls itself fails here
    from hforest import canonical, forest, nested, space

    for func in (nested._render, forest.forest_to_json, forest._normalize_tree,
                 canonical.swap_colors, canonical._decode, forest.node_ranks,
                 forest.rank, space._ranked_paths, forest.forest_from_json,
                 forest.sort_key, forest.tree_leq, nested.unflatten):
        assert func.__name__ not in _names(func.__code__), func.__name__


def test_membership_has_one_entry_and_no_closure():
    # _greatest decides one level at a time over the whole space, the inner
    # ones deepest first, each label allowed the union of its greatest
    # family one level down, so no union sweep is left, and it neither
    # recurses nor takes a parameter for the levels below or a target; no
    # function is built per call
    import inspect

    from hforest import space

    for func in (space.fh_membership, space.dh_membership, space.dh_witness_family):
        assert "_greatest" in _names(func.__code__), func.__name__
    # the levels are checked as an omega-base by the one validator, not by
    # a second rule over their least opens
    names = _names(space.fh_membership.__code__)
    assert "check_omega_nesting" in names and "_least_opens" not in names
    assert not hasattr(space, "_feasible") and not hasattr(space, "_joins")
    params = inspect.signature(space._greatest).parameters
    assert list(params) == ["forest", "allowed", "base"]
    assert all(p.default is p.empty for p in params.values())
    for func in (space.fh_membership, space._greatest):
        assert not any(hasattr(c, "co_code") for c in func.__code__.co_consts), \
            func.__name__
        assert func.__name__ not in _names(func.__code__), func.__name__
    # an inner level's trees are joined in one call: sum(..., ()) copies
    # the tuple once per label, quadratic in the labels
    assert "sum" not in _names(space.fh_membership.__code__)


def test_nested_membership_makes_one_pass_per_inner_label(monkeypatch):
    # one pass for each distinct label of the top level, then one for the
    # forest itself, not one per label and cell of the level below
    from hforest import space
    from hforest.forest import postorder
    from hforest.nested import parse_term

    calls = []
    greatest = space._greatest

    def counted(*args):
        calls.append(args)
        return greatest(*args)

    monkeypatch.setattr(space, "_greatest", counted)
    diamond = space.diamond_space()
    levels = (space.up_sets(diamond), space.powerset_base(diamond))
    forest = parse_term("(0*1)*((1*0)|(0*1)|s(0|1))")
    passes = len({t.label for t in postorder(forest)}) + 1
    assert passes == 5
    for a in space.all_partitions(diamond.n, 2):
        calls.clear()
        space.fh_membership(a, forest, levels, diamond)
        assert len(calls) == passes, a.labels


def _flat_only_family():
    from hforest.nested import parse_term
    from hforest.space import PFamily

    return PFamily(parse_term("s(0)"), 2, {((0,),): 1, ((0,), (0,)): 1})


# A 2-point chain, its two-level omega-base and a forest of colors 0 and 1,
# as source text for the calls below
CHAIN = "space.chain_space(2)"
LEVELS = f"(space.up_sets({CHAIN}), space.powerset_base({CHAIN}))"
FOREST = "nested.parse_term('0*1')"
POINTS = "the point count must be a non-negative integer"
COLORS = ("the number of colors must be an integer, not {}",
          "the number of colors must be at least 1, not -1")
LABELS = "partition labels must be a list of colors"
CLOSED = "family is not closed under union/intersection"
UNCLOSED = "frozenset({0, 0b01, 0b10, 0b110})"  # lacks 0b11 and 0b111

# Every public call that takes a count or a partition's JSON, with {} for
# the count: its error, its message for a str, a float or a bool ({} is the
# value), and its message for -1.  classify_2tree_nested answers any int
# bound, -1 included.
HOSTILE_COUNTS = [
    ("space.FiniteSpace({}, ())", "SpaceError", POINTS, POINTS),
    ("space.FiniteSpace.from_pairs({}, [])", "SpaceError", POINTS, POINTS),
    ("space.FiniteSpace.from_json({{'points': {}}})", "SpaceError", POINTS, POINTS),
    ("space.chain_space({})", "SpaceError", POINTS, POINTS),
    ("space.antichain_space({})", "SpaceError", POINTS, POINTS),
    ("space.check_size_guard({}, 2)", "SpaceError", POINTS, POINTS),
    ("space.check_size_guard(1, {})", "SpaceError", *COLORS),
    ("space.close_base([1], {})", "SpaceError", POINTS, POINTS),
    ("space.validate_base([0], {})", "SpaceError", POINTS, POINTS),
    ("space.base_from_json([[0]], {})", "SpaceError", POINTS, POINTS),
    ("space.complements(frozenset({{1}}), {})", "SpaceError", POINTS, POINTS),
    ("space.validate_omega_base([[0]], {})", "SpaceError", POINTS, POINTS),
    (f"space.check_omega_nesting({LEVELS}, {{}})", "SpaceError", POINTS, POINTS),
    ("space.KPartition((0,), {})", "SpaceError", *COLORS),
    ("space.KPartition.from_json({{'labels': {}}}, 2)", "SpaceError", LABELS, LABELS),
    ("space.KPartition.from_json({{'labels': [{}]}}, 2)", "SpaceError", LABELS,
     "partition label out of range"),
    ("space.all_partitions({}, 2)", "SpaceError", POINTS, POINTS),
    ("space.all_partitions(1, {})", "SpaceError", *COLORS),
    ("space.difference_kernel({}, [1, 2])", "SpaceError", "expected {} sets, got 2",
     "expected -1 sets, got 2"),
    (f"space.PFamily({FOREST}, {{}}, {{{{}}}})", "SpaceError",
     "depth must be an integer, not {}", "depth must be positive"),
    (f"list(space.family_prefixes({FOREST}, {{}}))", "SpaceError",
     "depth must be an integer, not {}", "depth must be positive"),
    (f"space.hierarchy_report({CHAIN}, space.up_sets({CHAIN}), [{FOREST}], {{}})",
     "ForestError", COLORS[0], "color 1 out of range for k=-1"),
    (f"degrees.degree_poset({CHAIN}, {{}})", "SpaceError", *COLORS),
    (f"forest.validate_forest({FOREST}, {{}})", "ForestError", COLORS[0],
     "color 1 out of range for k=-1"),
    (f"nested.flatten({FOREST}, {{}})", "ForestError",
     "depth must be an integer, not {}", "depth must be positive"),
    ("canonical.t_flat({})", "ForestError", "index must be an integer, not {}",
     "index must be non-negative"),
    (f"canonical.classify_2tree_nested({FOREST}, {{}})", "ForestError",
     "the size bound must be an integer, not {}", None),
    ("ordinal.ord_of({})", "ValueError", "a finite ordinal must be an integer, not {}",
     "ordinals are non-negative"),
]
HOSTILE_ROWS = [(call.format(value), error, message.format(value))
                for call, error, typed, negative in HOSTILE_COUNTS
                for value, message in (("'2'", typed), ("2.5", typed),
                                       ("True", typed), ("-1", negative))
                if message is not None]


@pytest.mark.parametrize("call, error, message", dict.fromkeys([  # one row per call
    ("space.base_from_json([[5]], 2)", "SpaceError", "point 5 out of range"),
    ("space.KPartition.from_json({}, 2)", "SpaceError",
     "partition JSON must have 'labels'"),
    ("space.difference_kernel(2, [1])", "SpaceError", "expected 2 sets, got 1"),
    ("list(space.family_prefixes(nested.parse_term('s(0|1)'), 1))", "SpaceError",
     "nesting level 2 exceeds depth 1"),
    ("space.family_to_diff_sequence(_flat_only_family())", "SpaceError",
     "difference sequences need a flat family"),
    ("space.is_reduced(_flat_only_family())", "SpaceError",
     "the reduced predicate is implemented for flat families"),
    ("space.reduce_family(_flat_only_family(), space.up_sets(space.chain_space(1)),"
     " space.chain_space(1))", "SpaceError",
     "reduce_family is implemented for flat families"),
    ("space.diff_sequence_to_family((0b01,), space.up_sets(space.chain_space(2)),"
     " space.chain_space(2))", "SpaceError", "sequence set is not in the base"),
    ("canonical.t_flat(-1)", "ForestError", "index must be non-negative"),
    ("nested.unflatten(nested.LabeledNPreorder(2, ((0b11, 0b11),), (0, 1)))",
     "ForestError", "layer 0 class has mixed colors"),
    ("ordinal.parse_ordinal('w^(1')", "OrdinalSyntaxError", "expected ')'"),
    ("ordinal.parse_ordinal('w*0')", "OrdinalSyntaxError",
     "coefficient must be positive"),
    ("ordinal.ord_of(-1)", "ValueError", "ordinals are non-negative"),
    ("ordinal.OMEGA.to_int()", "ValueError", "w is not finite"),
    ("space.PFamily(nested.parse_term('0'), 1.5, {})", "SpaceError",
     "depth must be an integer, not 1.5"),
    ("nested.flatten(nested.parse_term('0'), 1.5)", "ForestError",
     "depth must be an integer, not 1.5"),
    ("canonical.t_flat(2, 'x')", "ForestError", "unknown polarity 'x'"),
    ("canonical.t_nested(ordinal.ord_of(2), 'x')", "ForestError",
     "unknown polarity 'x'"),
    ("space.close_base([1], -1)", "SpaceError",
     "the point count must be a non-negative integer"),
    ("ordinal.Ord(((ordinal.ZERO, 0),))", "ValueError", "bad CNF term"),
    ("ordinal.pred(ordinal.ZERO)", "ValueError", "0 is not a successor"),
    # a count, a k or a partition's JSON that a call now reads through its one home
    ("canonical.t_flat('3')", "ForestError", "index must be an integer, not '3'"),
    ("canonical.t_flat(True)", "ForestError", "index must be an integer, not True"),
    ("ordinal.ord_of('3')", "ValueError", "a finite ordinal must be an integer, not '3'"),
    ("space.all_partitions(-1, 2)", "SpaceError", POINTS),
    ("space.all_partitions(2, '2')", "SpaceError",
     "the number of colors must be an integer, not '2'"),
    ("space.complements(frozenset({1}), -1)", "SpaceError", POINTS),
    ("space.complements(frozenset({1}), 1.5)", "SpaceError", POINTS),
    (f"space.check_omega_nesting({LEVELS}, -1)", "SpaceError", POINTS),
    ("space.check_size_guard('2', 2)", "SpaceError", POINTS),
    (f"forest.validate_forest({FOREST}, None)", "ForestError",
     "the number of colors must be an integer, not None"),
    (f"forest.validate_forest({FOREST}, 2.5)", "ForestError",
     "the number of colors must be an integer, not 2.5"),
    (f"space.hierarchy_report({CHAIN}, space.up_sets({CHAIN}), [{FOREST}], '2')",
     "ForestError", "the number of colors must be an integer, not '2'"),
    ("space.KPartition.from_json({'labels': 5}, 2)", "SpaceError", LABELS),
    (f"space.dh_witness_family(space.KPartition((0, 1), 2), nested.parse_term('0*5'),"
     f" space.up_sets({CHAIN}), {CHAIN})", "ForestError", "color 5 out of range for k=2"),
    # a partition that does not fit its space, for every call that takes one
    (f"space.dh_membership(space.KPartition((0,), 2), {FOREST}, space.up_sets({CHAIN}),"
     f" {CHAIN})", "SpaceError", "partition size does not match the space"),
    (f"space.dh_witness_family(space.KPartition((0,), 2), {FOREST},"
     f" space.up_sets({CHAIN}), {CHAIN})", "SpaceError",
     "partition size does not match the space"),
    (f"space.fh_membership(space.KPartition((0,), 2), {FOREST}, {LEVELS}, {CHAIN})",
     "SpaceError", "partition size does not match the space"),
    (f"degrees.wadge_leq(space.KPartition((0,), 2), space.KPartition((0, 1), 2),"
     f" {CHAIN})", "SpaceError", "partition size does not match its space"),
    # a family that is no closed base, refused by validate_base for any
    # partition, and a family set outside its base
    ("space.has_reduction_property(frozenset({0b11, 0b01}))", "SpaceError", CLOSED),
    (f"space.dh_membership(space.KPartition((1, 1, 1), 2), nested.parse_term('0'),"
     f" {UNCLOSED}, space.antichain_space(3))", "SpaceError", CLOSED),
    (f"space.fh_membership(space.KPartition((1, 1, 1), 2), nested.parse_term('0'),"
     f" ({UNCLOSED},), space.antichain_space(3))", "SpaceError", CLOSED),
    (f"space.dh_membership(space.KPartition((0, 1), 2), {FOREST},"
     f" frozenset({{0, 0b10, 0b11, 0b111}}), {CHAIN})", "SpaceError",
     "set 111 has points outside the space"),
    (f"space.reduce_family(space.PFamily(nested.parse_term('0|1'), 1,"
     f" {{((0,),): 0b01, ((1,),): 0b10}}), space.up_sets({CHAIN}), {CHAIN})",
     "SpaceError", "family set is not in the base"),
    *HOSTILE_ROWS,
]))
def test_the_library_refuses_with_its_own_errors(call, error, message):
    # each public call refuses a hostile value of its documented type with
    # the library's error, or the ValueError its docstring names
    from hforest import canonical, degrees, errors, forest, nested, ordinal, space

    scope = {"canonical": canonical, "degrees": degrees, "forest": forest,
             "nested": nested, "ordinal": ordinal, "space": space,
             "_flat_only_family": _flat_only_family}
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        eval(call, scope)
    assert type(caught.value) is getattr(errors, error, ValueError)
    if error == "ValueError":
        name = call.split("(")[0].split(".")[-1]
        func = getattr(ordinal, name, getattr(ordinal.Ord, name, None))
        assert "ValueError" in func.__doc__, call


def test_each_normal_form_node_is_deduped_once():
    # the children's normal forms are read from their slots, not renormalized
    from hforest import forest

    assert "normalize" not in _names(forest._normalize_tree.__code__)


def test_only_normalize_marks_a_normal_form():
    # a _Normal is taken as normal unseen, so nothing else may make one
    from hforest import forest

    package = pathlib.Path(hforest.__file__).parent
    call = re.compile(r"(?<!class )\b_Normal\(")
    users = sorted(p.name for p in package.glob("*.py") if call.search(p.read_text()))
    assert users == ["forest.py"]
    modules = [importlib.import_module(f"hforest.{p.stem}")
               for p in package.glob("*.py") if p.stem != "__init__"]
    namers = {func for m in modules for func in vars(m).values()
              if hasattr(func, "__code__") and "_Normal" in _names(func.__code__)}
    assert namers == {forest.normalize}
    lines = [line.strip() for line in (package / "forest.py").read_text().splitlines()
             if call.search(line)]
    assert lines == ["return _Normal(_dedupe([_normalize_tree(t) for t in as_forest(f)]))"]
