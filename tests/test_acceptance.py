"""Full-scale acceptance suites, each with its wall-clock budget."""

import time

import pytest

from hforest import acceptance

BUDGETS = {
    "A1": 60,
    "A2": 60,
    "A3": 60,
    "A4": 120,
    "A5": 300,
    "A6": 120,
    "A7": 120,
    "A8": 300,
    "A9": 5,
    "A10": 10,
}


@pytest.mark.parametrize("name", list(acceptance.SUITES))
def test_acceptance_suite(name):
    start = time.monotonic()
    ok, detail = acceptance.SUITES[name]()
    elapsed = time.monotonic() - start
    assert ok, f"{name} failed in {elapsed:.1f}s: {detail}"
    assert elapsed < BUDGETS[name], (
        f"{name} passed ({detail}) but took {elapsed:.1f}s, "
        f"over the {BUDGETS[name]}s budget"
    )
