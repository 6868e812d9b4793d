"""One run of one workload in a fresh interpreter: set up, run, check.

Started by run.py.  The in-process workloads import hforest, generate
their inputs as text, and run a closed loop with one client: each op
starts when the previous one returns.  The `cli` workload runs the same
kind of loop over `python -m hforest.cli` subprocesses, one at a time.
After the timed phase every op's output is checked, and the worker
prints one JSON line with the raw figures for run.py to summarise.

    python3 benchmarks/worker.py --workload calculus --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A run is a fixed number of ops: --seconds times about the workload's rate
# at the commit that defined the benchmark, on a shared 2-CPU host.  Fixed
# work makes the memo caches, the heap and the GC pauses the same in every run
# of a seed, so only the program's speed moves the figures.  A run also
# stops after TIME_CAP times --seconds of timed clock, so a slow commit
# cannot stall it.
NOMINAL_OPS_PER_S = {"calculus": 6000, "calculus-large": 150, "hierarchy": 800,
                     "cli": 5.2}
TIME_CAP = 1.5
OP_DEADLINE_S = 5.0   # in-process ops: well above the slowest op plus a full GC pass
CLI_TIMEOUT_S = 2.5   # cli calls take about 0.15 s at the seed
SETUP_PROBE_UNITS = 25

# traced function name -> (module, attribute)
TRACED = {
    "ordinal.parse_ordinal": ("ordinal", "parse_ordinal"),
    "forest.h_leq": ("forest", "h_leq"),
    "forest.meet": ("forest", "meet"),
    "forest.join": ("forest", "join"),
    "forest.normalize": ("forest", "normalize"),
    "nested.parse_term": ("nested", "parse_term"),
    "nested.print_term": ("nested", "print_term"),
    "nested.flatten": ("nested", "flatten"),
    "nested.morphism_exists": ("nested", "morphism_exists"),
    "canonical.representative": ("canonical", "representative"),
    "canonical.classify_2forest": ("canonical", "classify_2forest"),
    "canonical.classify_2tree_nested": ("canonical", "classify_2tree_nested"),
    "space.from_json": ("space", "FiniteSpace.from_json"),
    "space.up_sets": ("space", "up_sets"),
    "space.powerset_base": ("space", "powerset_base"),
    "space.validate_omega_base": ("space", "validate_omega_base"),
    "space.dh_membership": ("space", "dh_membership"),
    "space.dh_witness_family": ("space", "dh_witness_family"),
    "space.fh_membership": ("space", "fh_membership"),
    "space.has_reduction_property": ("space", "has_reduction_property"),
    "space.reduce_family": ("space", "reduce_family"),
    "space.hierarchy_report": ("space", "hierarchy_report"),
    "degrees.degree_poset": ("degrees", "degree_poset"),
}
# functions whose verdict share is reported: name -> outcome counted as a hit
OUTCOMES = {
    "forest.h_leq": "true_frac",
    "nested.morphism_exists": "true_frac",
    "canonical.classify_2tree_nested": "found_frac",
    "space.dh_membership": "member_frac",
    "space.fh_membership": "member_frac",
}
NODE_LAYERS = ("forest.", "nested.")


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


class Calls:
    """`call(name, nodes, *args)`: the library function `name`, untraced."""

    def __init__(self, funcs: dict, lib):
        self.funcs = funcs
        self.lib = lib

    def __call__(self, name, nodes, *args):
        return self.funcs[name](*args)


class TracedCalls(Calls):
    """The same calls, each recorded as a span: count, busy time, input nodes
    as counted by the generator, and hits for the functions in OUTCOMES."""

    def __init__(self, funcs: dict, lib):
        super().__init__(funcs, lib)
        self.stats = {name: [0, 0.0, 0, 0] for name in funcs}

    def __call__(self, name, nodes, *args):
        st = self.stats[name]
        t0 = time.perf_counter()
        try:
            out = self.funcs[name](*args)
        finally:
            st[1] += time.perf_counter() - t0
            st[0] += 1
            st[2] += nodes
        if name in OUTCOMES:
            st[3] += (out is not None) if name.startswith("canonical.") else bool(out)
        return out


def load_library():
    """Import hforest from the checkout's src/ and name what the ops need."""
    sys.path.insert(0, str(SRC))
    import importlib
    from types import SimpleNamespace

    funcs = {}
    for name, (module, attr) in TRACED.items():
        obj = importlib.import_module(f"hforest.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        funcs[name] = obj
    from hforest import canonical, nested, oracles, space
    lib = SimpleNamespace(
        parse_term=nested.parse_term, normalize=funcs["forest.normalize"],
        parse_ordinal=funcs["ordinal.parse_ordinal"],
        representative=canonical.representative, CanonicalName=canonical.CanonicalName,
        KPartition=space.KPartition, FiniteSpace=space.FiniteSpace,
        PFamily=space.PFamily, family_defines=space.family_defines,
        LabeledNPreorder=nested.LabeledNPreorder, unflatten=nested.unflatten,
        oracle_h_leq=oracles.oracle_h_leq)
    return funcs, lib


def make_stream(workload: str, seed: int):
    import workloads

    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        import cliload
        return cliload.stream(rng)
    return {"calculus": workloads.calculus_stream,
            "calculus-large": workloads.calculus_large_stream,
            "hierarchy": workloads.hierarchy_stream}[workload](rng)


def _timed(specs, count: int, cap_s: float, run_one, probe=hostspeed.unit,
           probe_every_s: float = hostspeed.PROBE_EVERY_S):
    """Closed loop over `count` ops, or until `cap_s` of timed wall clock.

    Drawing or generating the next op's inputs is the client's own work:
    the clock is paused for it, so the timed wall clock is the ops end to end.
    So is a host-speed `probe` every `probe_every_s`; each op records how
    many probes came before it, its segment.
    """
    records = []  # (spec, result, seconds, error, segment)
    probes = []
    perf = time.perf_counter
    start = last = perf()
    paused = 0.0
    next_probe = 0.0
    for spec in specs:
        t0 = perf()
        paused += t0 - last
        res, err = run_one(spec)
        t1 = last = perf()
        records.append((spec, res, t1 - t0, err, len(probes)))
        timed = t1 - start - paused
        if len(records) >= count or timed >= cap_s:
            return records, timed, probes
        if timed >= next_probe:
            probes.append(probe())
            next_probe = timed + probe_every_s


def run_inprocess(specs, call, count: int, cap_s: float):
    """Each op under a SIGALRM deadline, so none can stall the run."""
    from workloads import OPS

    signal.signal(signal.SIGALRM, _on_alarm)

    def run_one(spec):
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
            try:
                return OPS[spec.op][1](call, spec), None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            return None, "deadline"
        except Exception as exc:  # the op failed; the run goes on
            return None, f"raised {type(exc).__name__}"

    return _timed(specs, count, cap_s, run_one)


def check_inprocess(records, lib):
    """Judge every op; identical (op, inputs, answer) triples are judged once."""
    from workloads import OPS

    verdicts = {}
    out = []
    for spec, res, _, err, _ in records:
        if err is None:
            key = (spec.op, id(spec.a), id(spec.b), repr(spec.extra), _result_key(res))
            if key not in verdicts:
                try:
                    verdicts[key] = _verdict(OPS[spec.op][2](spec, res, lib))
                except Exception as exc:
                    verdicts[key] = f"wrong ({type(exc).__name__})"
            err = verdicts[key]
        out.append(err)
    return out


def _verdict(ok):
    """A check's answer as an error: None, "wrong", or a known defect's failure."""
    return None if ok is True else ok or "wrong"


def _result_key(res):
    try:
        hash(res)
        return res
    except TypeError:
        return id(res)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(specs, count: int, cap_s: float):
    """One call at a time, each followed by a bare interpreter start-up
    that probes the host's speed (see hostspeed.REFERENCE_START_S)."""
    env = cli_env()

    def startup():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
        return time.perf_counter() - t0

    def run_one(spec):
        try:
            p = subprocess.run([sys.executable, "-m", "hforest.cli", *spec.a],
                               capture_output=True, text=True, env=env, cwd=ROOT,
                               timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None, "deadline"
        return (p.returncode, p.stdout, p.stderr), None

    return _timed(specs, count, cap_s, run_one, startup, 0.0)


def check_cli(records, lib):
    import cliload

    out = []
    for spec, res, _, err, _ in records:
        if err is None:
            rc, _, stderr = res
            try:
                err = _verdict(cliload.check(spec, *res, lib))
            except Exception as exc:
                err = f"wrong ({type(exc).__name__})"
            if err == "wrong":
                err = "traceback" if "Traceback" in stderr else f"wrong (exit {rc})"
        out.append(err)
    return out


def measure(workload: str, seed: int, seconds: float, trace: int = 0,
            funcs: dict | None = None, setup_only: bool = False) -> dict:
    """Set up, run the timed loop and check every op; returns the raw figures.

    `funcs` replaces the library functions the ops call (by TRACED name),
    which lets a test slip in a wrong or slow stand-in.
    """
    cli = workload == "cli"
    if not cli:
        real, lib = load_library()
        funcs = {**real, **(funcs or {})}
    specs = make_stream(workload, seed)
    first = next(specs)  # streams build their pools before the first op
    ready = time.monotonic()
    setup_probes = [hostspeed.unit() for _ in range(SETUP_PROBE_UNITS)]
    if setup_only:
        return {"ready": ready, "setup_probe_s": setup_probes}

    specs = chain([first], specs)
    count = max(1, round(NOMINAL_OPS_PER_S[workload] * seconds))
    cap_s = TIME_CAP * seconds
    started = time.perf_counter()
    if cli:
        records, wall, probes = run_cli(specs, count, cap_s)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        _, lib = load_library()
        errors = check_cli(records, lib)
        stats = None
    else:
        call = (TracedCalls if trace else Calls)(funcs, lib)
        records, wall, probes = run_inprocess(specs, call, count, cap_s)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        errors = check_inprocess(records, lib)
        stats = getattr(call, "stats", None)

    from workloads import KNOWN_DEFECTS, OPS, input_ranges
    import cliload
    kinds = cliload.VERBS if cli else {op: v[0] for op, v in OPS.items()}
    return {
        "workload": workload,
        "ready": ready,
        "setup_probe_s": setup_probes,
        "probe_s": probes,
        "wall_s": wall,
        "run_and_check_s": time.perf_counter() - started,
        "ops_target": count,
        "rss_mb": rss / 1024.0,
        "meta": input_ranges(r[0] for r in records),
        # op, kind, seconds, error or None, known-defect tag or None, segment
        "ops": [[spec.op, kinds[spec.op], dt, err,
                 spec.extra if isinstance(spec.extra, str)
                 and spec.extra in KNOWN_DEFECTS else None, seg]
                for (spec, _, dt, _, seg), err in zip(records, errors)],
        "stats": stats,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace,
                             setup_only=args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
