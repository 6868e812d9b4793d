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
    # from_pairs checks the point count, _no_colors words k below 1 for
    # check_size_guard and KPartition, the membership calls a partition's
    # size, validate_forest the colors, and one writer draws both Hasse
    # diagrams
    import inspect

    from hforest import nested, space

    package = pathlib.Path(hforest.__file__).parent
    for text in ("MAX_SPACE_POINTS", "the point count must be",
                 "the number of colors must be",
                 "partition size does not match the space"):
        users = sorted(p.name for p in package.glob("*.py") if text in p.read_text())
        assert users == ["space.py"], text
    for func in (space.check_size_guard, space.KPartition.__init__):
        assert "_no_colors" in _names(func.__code__), func.__qualname__
    assert list(inspect.signature(nested.parse_term).parameters) == ["text"]
    modules = [importlib.import_module(f"hforest.{p.stem}")
               for p in package.glob("*.py") if p.stem != "__init__"]
    callers = {func for m in modules for func in vars(m).values()
               if hasattr(func, "__code__") and "hasse_edges" in _names(func.__code__)}
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

    for func in (space.close_base, space.has_reduction_property):
        assert "_least_opens" in _names(func.__code__), func.__name__
    assert "reduce_pair" not in _names(space.has_reduction_property.__code__)
    assert "reduce_pair" in _names(oracles.oracle_reduction_property.__code__)


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
    # _greatest decides one level at a time, the inner ones deepest first
    # from the cells each label covers, so no union sweep is left, and it
    # neither recurses nor takes a parameter for the levels below; no
    # function is built per call
    import inspect

    from hforest import space

    for func in (space.fh_membership, space.dh_membership, space.dh_witness_family):
        assert "_greatest" in _names(func.__code__), func.__name__
    assert not hasattr(space, "_feasible") and not hasattr(space, "_joins")
    params = inspect.signature(space._greatest).parameters
    assert list(params) == ["forest", "target", "allowed", "base"]
    assert all(p.default is p.empty for p in params.values())
    for func in (space.fh_membership, space._greatest):
        assert not any(hasattr(c, "co_code") for c in func.__code__.co_consts), \
            func.__name__
        assert func.__name__ not in _names(func.__code__), func.__name__


def test_each_normal_form_node_is_deduped_once():
    # the children's normal forms are read from their slots, not renormalized
    from hforest import forest

    assert "normalize" not in _names(forest._normalize_tree.__code__)
