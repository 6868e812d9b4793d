"""hforest benchmark: one workload, one seed, every metric by name and unit.

    python3 benchmarks/run.py --workload calculus --seed 1 --seconds 30 --trace 0

A run measures a fixed number of ops sized to take about --seconds at the
commit that defined the benchmark (see worker.py).  Run from anywhere
inside a checkout that has src/hforest.  With --trace 0
it prints the end-to-end metrics, with --trace 1 the per-layer ones;
either way the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics, and the line before it holds
the run's metadata.  See README.md for the workloads and metrics.

This process never imports hforest.  Every workload runs in worker.py
processes, one at a time: several that only set up (for setup_s), then
the one that measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from worker import NODE_LAYERS, OUTCOMES, TRACED, cli_env  # noqa: E402
from cliload import VERBS  # noqa: E402
from workloads import KNOWN_DEFECTS  # noqa: E402

WORKLOADS = ("calculus", "calculus-large", "hierarchy", "cli")
SETUP_PROBES = 6     # extra set-ups per run; setup_s is the median of these and the run's
STARTUP_PROBES = 5   # `python -c ...` calls per startup figure in the traced run
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "build_p50_ms": "ms",
    "build_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = "count"
        out[f"{name}.busy_s"] = "s"
        if name.startswith(NODE_LAYERS):
            out[f"{name}.nodes_in"] = "count"
        if name in OUTCOMES:
            out[f"{name}.{OUTCOMES[name]}"] = "frac"
    out["cli.busy_s"] = "s"
    out["cli.interpreter_ms"] = "ms"
    out["cli.import_ms"] = "ms"
    for verb in VERBS:
        out[f"cli.{verb}.p50_ms"] = "ms"
    out["bench.glue_s"] = "s"
    out["trace.overhead_frac"] = "frac"
    return out


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """The highest of p99, p95 and p90 with at least ten samples beyond it.

    With fewer than 100 samples none qualifies and p90 is used; the run
    records the percentile and how many samples lay beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in (99, 95, 90):
        idx = max(math.ceil(p * n / 100) - 1, 0)
        if n - idx - 1 >= 10 or p == 90:
            return xs[idx], p, n - idx - 1


def summarise(doc: dict, scaled: bool = True) -> dict:
    """Rate and latencies of a run, each op's time taken to the reference
    host speed by the probes around it (see hostspeed.py), or as measured."""
    ops = doc["ops"]
    factor = _factors(doc) if scaled else None
    secs = [o[2] * factor[o[5]] if scaled else o[2] for o in ops]
    out = {"attempted": len(ops), "ops_per_s": len(ops) / sum(secs)}
    for kind in ("query", "build"):
        lat = [dt * 1000.0 for o, dt in zip(ops, secs) if o[1] == kind]
        if not lat:
            raise SystemExit(f"no {kind} ops completed")
        value, pct, beyond = tail(lat)
        out[kind] = {"p50_ms": statistics.median(lat), "tail_ms": value,
                     "tail_pct": pct, "beyond_tail": beyond, "samples": len(lat)}
    return out


def _factors(doc) -> list:
    """Per segment of the run, the factor to the reference host speed."""
    if doc["workload"] == "cli":
        return hostspeed.bracket_scales(doc["probe_s"], hostspeed.REFERENCE_START_S)
    return hostspeed.scales(doc["probe_s"])


# ---------------------------------------------------------------------------
# processes


def run_worker(workload, seed, seconds, trace=0, setup_only=False):
    """One worker process; returns its JSON and the monotonic time it was started."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"worker for {workload} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1]), started


def startup_ms(code: str) -> float:
    env = cli_env()
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def failures(doc):
    """(failed ops, unexpected failures): an op tagged with a known defect
    may fail, but only the way it fails today."""
    failed = [(o[0], o[3], o[4]) for o in doc["ops"] if o[3]]
    unexpected = [f for f in failed if KNOWN_DEFECTS.get(f[2]) != f[1]]
    return failed, unexpected


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args):
    setups = []  # (seconds as measured, at the reference speed)
    for _ in range(SETUP_PROBES):
        probe, started = run_worker(args.workload, args.seed, args.seconds, setup_only=True)
        setups.append(_setup(probe, started))
    doc, started = run_worker(args.workload, args.seed, args.seconds)
    setups.append(_setup(doc, started))
    s = summarise(doc)
    raw = summarise(doc, scaled=False)
    failed, _ = failures(doc)
    values = {
        "ops_per_s": s["ops_per_s"],
        "query_p50_ms": s["query"]["p50_ms"],
        "query_tail_ms": s["query"]["tail_ms"],
        "build_p50_ms": s["build"]["p50_ms"],
        "build_tail_ms": s["build"]["tail_ms"],
        "setup_s": statistics.median(x for _, x in setups),
        "peak_rss_mb": doc["rss_mb"],
        "success_rate": 1.0 - len(failed) / s["attempted"],
    }
    meta = {
        "error_rate": len(failed) / s["attempted"],
        "setup_samples_s": setups,
        "probe_ms": _quartiles(doc["probe_s"]),
        "run_and_check_s": doc["run_and_check_s"],
        "as_measured": {
            "ops_per_s": raw["ops_per_s"],
            **{f"{k}_{x}": raw[k][x] for k in ("query", "build") for x in ("p50_ms", "tail_ms")},
            "setup_s": statistics.median(x for x, _ in setups)},
        "tail": {k: {x: s[k][x] for x in ("tail_pct", "beyond_tail", "samples")}
                 for k in ("query", "build")},
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return doc, metrics, meta


def _setup(doc, started):
    measured = doc["ready"] - started
    return measured, hostspeed.scale(measured, doc["setup_probe_s"])


def _quartiles(probes):
    """The host-speed probes of a run, in ms: first quartile, median, third."""
    if len(probes) < 2:
        return [p * 1000.0 for p in probes]
    q = statistics.quantiles(probes, n=4)
    return [q[0] * 1000.0, statistics.median(probes) * 1000.0, q[2] * 1000.0]


def per_layer(args):
    """Half the time untraced, half traced: the gap is the tracing overhead."""
    half = args.seconds / 2.0
    plain, _ = run_worker(args.workload, args.seed, half, trace=0)
    doc, _ = run_worker(args.workload, args.seed, half, trace=1)
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    stats = doc["stats"] or {}
    busy = 0.0
    for name, (calls, busy_s, nodes, hits) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.busy_s"] = busy_s
        busy += busy_s
        if name.startswith(NODE_LAYERS):
            values[f"{name}.nodes_in"] = nodes
        if name in OUTCOMES:
            values[f"{name}.{OUTCOMES[name]}"] = hits / calls if calls else 0.0
    if args.workload == "cli":
        busy = values["cli.busy_s"] = sum(o[2] for o in doc["ops"])
        factor = _factors(doc)
        for verb in VERBS:
            lat = [o[2] * factor[o[5]] * 1000.0 for o in doc["ops"] if o[0] == verb]
            values[f"cli.{verb}.p50_ms"] = statistics.median(lat) if lat else 0.0
    values["cli.interpreter_ms"] = startup_ms("pass")
    values["cli.import_ms"] = startup_ms("import hforest.cli")
    values["bench.glue_s"] = doc["wall_s"] - busy
    # the two runs are compared at the reference speed, as the host's may differ
    rate = summarise(doc)["ops_per_s"]
    plain_rate = summarise(plain)["ops_per_s"]
    values["trace.overhead_frac"] = 1.0 - rate / plain_rate
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    meta = {"traced_wall_s": doc["wall_s"], "untraced_ops_per_s": plain_rate,
            "traced_ops_per_s": rate}
    return doc, metrics, meta


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hforest" / "__init__.py").is_file():
        print(f"no hforest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    doc, metrics, meta = (per_layer if args.trace else end_to_end)(args)
    failed, unexpected = failures(doc)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "op_mix": Counter(o[0] for o in doc["ops"]),
        "per_kind": Counter(o[1] for o in doc["ops"]),
        "inputs": doc["meta"],
        "failed": [f"{op}: {err}" for op, err, _ in failed],
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(doc["ops"]),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
