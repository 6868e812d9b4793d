"""Full-scale acceptance suites, each with its wall-clock budget."""

import time

import pytest

from hforest import acceptance


@pytest.mark.parametrize("name", list(acceptance.SUITES))
def test_acceptance_suite(name):
    start = time.monotonic()
    ok, detail = acceptance.SUITES[name]()
    elapsed = time.monotonic() - start
    assert ok, f"{name} failed in {elapsed:.1f}s: {detail}"
    assert elapsed < acceptance.BUDGETS[name], (
        f"{name} passed ({detail}) but took {elapsed:.1f}s, "
        f"over the {acceptance.BUDGETS[name]}s budget"
    )
