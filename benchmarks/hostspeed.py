"""A fixed unit of plain-Python work that tracks how fast the host runs.

On a shared host the same code runs at different speeds from one moment
to the next: on the 2-CPU container the benchmark was defined on, the
unit below took about 0.22 ms or about 0.38 ms, often switching between
the two within 10 ms, and a whole run moved by up to 1.9 times with it.
So every worker times one unit every PROBE_EVERY_S of timed clock (and
SETUP_PROBE_UNITS right after set-up), with the clock paused, and run.py
scales each op's time by REFERENCE_UNIT_S over the units timed around it:
the figures are times at the host speed where one unit takes
REFERENCE_UNIT_S.  The unit is short and timed often because ops of
about 10 ms next to a switch of speed must be scaled by the speed they
ran at, and such ops make the tails.

The unit never touches hforest: it compares and prints a fixed set of
generator forests with the definitions also used in ref.py, uncached and
with the garbage collector off, so it does the same work on every commit
and the caller's heap does not show in it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import gen

PROBE_EVERY_S = 0.01
REFERENCE_UNIT_S = 0.00022  # the unit on that host when it ran fast
# `cli` calls are child processes, and their time is mostly process
# start-up, which on that host did not move with the unit above (their
# correlation was about 0.1) but moved with a bare `python -c pass`
# (about 0.85 call by call).  So the cli loop times one bare start-up
# after every call instead, and each call is scaled by
# REFERENCE_START_S over the mean of the start-ups just before and after it.
REFERENCE_START_S = 0.055


def _forests():
    rng = random.Random("host speed")
    return [gen.random_forest(rng, rng.randint(3, 7), 3, 2, p_nested=0.2)
            for _ in range(4)]


FORESTS = _forests()


def _leq(f, g) -> bool:
    return all(any(_tree_leq(s, t) for t in g) for s in f)


def _tree_leq(s, t) -> bool:
    if _label_leq(s[0], t[0]) and all(_tree_leq(c, t) for c in s[1]):
        return True
    return any(_tree_leq(s, c) for c in t[1])


def _label_leq(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    lift = lambda x: ((x, ()),) if isinstance(x, int) else x
    return _leq(lift(a), lift(b))


def unit() -> float:
    """Seconds one unit took.  The garbage collector is off meanwhile, so
    the size of the caller's heap does not show in the time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for f in FORESTS:
            text = gen.term(f)
            for g in FORESTS:
                seen[text, gen.term(g)] = _leq(f, g)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scales(probes) -> list:
    """Per segment of a run, the factor that takes its times to the
    reference speed.  Probe j follows segment j; segment j is scaled by the
    median of probes j-1, j and j+1, so one disturbed probe does not count
    and a change of speed is placed to within a segment."""
    if not probes:
        return [1.0]
    return [REFERENCE_UNIT_S / statistics.median(probes[max(j - 1, 0):j + 2])
            for j in range(len(probes) + 1)]


def bracket_scales(probes, reference: float) -> list:
    """Per op of a run probed after every op, the factor that takes its
    time to the reference speed: op j is scaled by `reference` over the
    mean of the probes just before it (j - 1) and after it (j)."""
    if not probes:
        return [1.0]
    return [reference / statistics.fmean(probes[max(j - 1, 0):j + 1])
            for j in range(len(probes) + 1)]


def scale(seconds: float, probes) -> float:
    """One span timed just before `probes`, at the reference speed."""
    return seconds * REFERENCE_UNIT_S / statistics.median(probes)
