"""Self-tests of the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import time
from itertools import islice

import pytest

import hostspeed
import mix
import run
import worker
import workloads
from workloads import Item, Space


def _inputs(workload: str, seed: int, count: int = 150) -> str:
    """The text every op of the first `count` would hand the program."""

    def text(x):
        if isinstance(x, (Item, Space)):
            return x.text
        if isinstance(x, (list, tuple)):
            return [text(y) for y in x]
        return repr(x)

    specs = islice(worker.make_stream(workload, seed), count)
    return json.dumps([[s.op, text(s.a), text(s.b), text(s.extra)] for s in specs])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = _inputs(workload, 7)
    assert _inputs(workload, 7) == first
    assert _inputs(workload, 8) != first


def _error_rate(doc):
    failed, unexpected = run.failures(doc)
    return len(failed) / len(doc["ops"]), failed, unexpected


def test_wrong_answer_counts_as_failure():
    real = worker.load_library()[0]["forest.h_leq"]
    doc = worker.measure("calculus", 3, 0.5,
                         funcs={"forest.h_leq": lambda f, g: not real(f, g)})
    rate, failed, unexpected = _error_rate(doc)
    assert rate > 0
    assert {op for op, _, _ in failed} == {"compare"}
    assert all(err == "wrong" for _, err, _ in failed)
    assert unexpected == failed


def test_deadline_overrun_counts_as_failure(monkeypatch):
    monkeypatch.setattr(worker, "OP_DEADLINE_S", 0.01)

    def slow_meet(f, g):
        time.sleep(0.2)
        return ()

    doc = worker.measure("calculus", 3, 0.5, funcs={"forest.meet": slow_meet})
    rate, failed, _ = _error_rate(doc)
    assert rate > 0
    assert failed and all(op == "meet" and err == "deadline" for op, err, _ in failed)
    meets = [o[2] for o in doc["ops"] if o[0] == "meet"]
    assert max(meets) < 0.15  # cut at the deadline, not left to sleep


def test_clean_run_has_no_failures():
    doc = worker.measure("hierarchy", 3, 0.5)
    assert _error_rate(doc)[0] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(1, 1001))[1:] == (99, 10)
    assert run.tail(range(1, 201))[1:] == (95, 10)
    assert run.tail(range(1, 51))[1] == 90


def test_mix_matches_the_suites():
    assert mix.derive(mix.count_calls()) == workloads.MIX


@pytest.mark.parametrize("op, stand_in", [
    ("forest.meet", lambda f, g: ()),        # below everything, greatest of nothing
    ("forest.normalize", lambda f: f),       # equivalent, but no normal form
])
def test_too_weak_an_answer_is_wrong(op, stand_in):
    doc = worker.measure("calculus", 3, 0.5, funcs={op: stand_in})
    _, failed, unexpected = _error_rate(doc)
    assert failed and unexpected == failed
    assert {name for name, _, _ in failed} == {op.split(".")[1]}
    assert all(err == "wrong" for _, err, _ in failed)


def test_known_defect_may_fail_only_its_own_way():
    def doc(tag, err):
        return {"ops": [["normalize", "build", 0.1, err, tag, 0]]}

    assert run.failures(doc("deep", "traceback"))[1] == []
    assert run.failures(doc("chain40", "deadline"))[1] == []
    assert run.failures(doc("nested-meet", "not greatest"))[1] == []
    for tag, err in [("deep", "wrong (exit 0)"), ("chain40", "wrong (exit 0)"),
                     ("nested-meet", "wrong"), (None, "not greatest")]:
        assert len(run.failures(doc(tag, err))[1]) == 1


def test_scales_follow_the_probes_around_each_segment():
    ref = hostspeed.REFERENCE_UNIT_S
    assert hostspeed.scales([]) == [1.0]
    assert hostspeed.scales([ref] * 3) == [1.0] * 4
    # one disturbed probe is outvoted; a lasting change of speed is not
    assert hostspeed.scales([ref, ref, 3 * ref, ref, ref]) == [1.0] * 6
    assert hostspeed.scales([ref, ref, 2 * ref, 2 * ref, 2 * ref])[3:] == [0.5] * 3


def test_bracket_scales_use_the_probes_before_and_after_each_op():
    ref = hostspeed.REFERENCE_START_S
    assert hostspeed.bracket_scales([], ref) == [1.0]
    assert hostspeed.bracket_scales([ref, 3 * ref], ref) == [1.0, 0.5, 1 / 3]
