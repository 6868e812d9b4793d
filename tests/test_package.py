"""The package's lazy exports and what each CLI verb imports."""

import importlib
import os
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
    assert len(hforest.__all__) == 97
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


@pytest.mark.parametrize("argv, modules", [
    (["normalize", "--forest", "0*1"], set()),
    (["compare", "--lhs", "0", "--rhs", "s(0*1)"], set()),
    (["flatten", "--forest", "s(0|1)"], set()),
    (["canonical", "--alpha", "w+1"], {"hforest.canonical", "hforest.ordinal"}),
    (["dh-check", "--space", "chain:2", "--partition", '{"labels": [0, 1]}',
      "--forest", "0*1"], {"hforest.space"}),
    (["degrees", "--space", "chain:2"], {"hforest.space", "hforest.degrees"}),
])
def test_each_verb_imports_only_what_it_runs(argv, modules):
    imported = _imports(*argv)
    assert imported & (LIBRARY | {"hforest"}) == FOREST_VERB | modules
    if not modules:
        assert not imported & {"dataclasses", "inspect", "typing"}
