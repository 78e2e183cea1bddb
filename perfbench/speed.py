"""Host speed, measured with a fixed reference unit, for normalizing
wall times.

The benchmark runs on shared hosts whose CPUs do not keep one speed:
on a 2-vCPU cloud VM the same pure-Python loop took anywhere from 1.0x
to 2.7x its fastest time, switching within a second, and the two
vCPUs swung independently (their speeds correlated 0.14 over 100 ms
windows).  Process CPU time grows with wall time through such a
slowdown, so it cannot separate the host's share from the program's.

So every measured interval is bracketed by two timings of a reference
unit -- a fixed piece of pure-Python work that does not touch the
program -- on the same CPU (the measured processes are pinned to one
CPU with :func:`pin`).  An interval of ``wall`` seconds whose
neighbouring units took ``before`` and ``after`` seconds counts as
``wall * REFERENCE_S / sqrt(before * after)`` seconds: its length at
the speed where one unit takes ``REFERENCE_S``.  A slower host slows
the unit and the program alike, and the ratio stays; a slower program
leaves the unit alone, and the ratio grows.

Host slowdowns do not hit all work alike: compute-bound loops slow
most, scattered memory reads less (their time grew as a compute loop's
to the power 0.4-0.5).  So there are two units.  The compute unit
suits the gateway, whose requests are short parses, hashes and cache
lookups.  The mixed unit, half compute and half scattered reads (its
time grew as the compute unit's to the power 0.63), suits the
in-process workloads, where the collector's full collections walk a
heap of tens of megabytes: on exchange, a round's total time grew as
the compute unit's to the power 0.68, its median latency 0.76 and its
p90, where the full collections sit, 0.54.  With the compute unit
there, the p90 of rounds run while the host was slow read 20% below
that of rounds run while it was fast.  The match stays inexact: a slow
stretch leaves some of its mark.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import time
from array import array

#: Seconds one unit of either kind takes at the reference speed
#: (roughly its fastest on the 2-vCPU Xeon VM the benchmark was tuned
#: on).  Normalized times are in seconds at this speed.
REFERENCE_S = 0.001
#: Units timed per sample.
UNITS = 2
#: Positions of the memory walk (4 bytes each: 4 MiB, more than a
#: core's own caches hold).
WALK_SIZE = 1 << 20


def _compute(rounds: int) -> int:
    """Compute-bound work: the operations the chase spends its time on
    -- building tuples and strings, hashing them into sets and dicts,
    probing them, appending and sorting -- over a working set of a few
    hundred entries.  Everything it allocates is freed by reference
    counting before it returns."""
    index: dict = {}
    seen = set()
    total = 0
    for i in range(rounds):
        key = (i % 97, i % 89, "c%d" % (i % 61))
        if key not in seen:
            seen.add(key)
            index.setdefault(key[0], []).append(key)
        total += len(index[key[0]])
    return total + len(sorted(seen))


@functools.lru_cache(maxsize=None)
def _walk_table() -> array:
    """The memory walk's successor table, built once per process
    (without a list in between, which would raise the peak resident
    set): a full-period linear congruential step over ``WALK_SIZE``
    positions, so consecutive reads land far apart."""
    mask = WALK_SIZE - 1
    return array("i", ((1_103_515_245 * i + 12_345) & mask
                       for i in range(WALK_SIZE)))


def _memory() -> int:
    """Memory-bound work: 6,000 dependent reads at scattered places of
    a 4 MiB table, like the collector's walk over a large heap."""
    table = _walk_table()
    position = time.perf_counter_ns() & (WALK_SIZE - 1)
    for _ in range(6000):
        position = table[position]
    return position


def compute_unit() -> None:
    """The gateway's reference unit."""
    _compute(1200)


def mixed_unit() -> None:
    """The in-process workloads' reference unit: half compute, half
    scattered reads."""
    _compute(600)
    _memory()


def sample(unit) -> float:
    """Seconds one ``unit`` takes now (the mean of ``UNITS``).  The
    collector is off while it runs, so the unit never pays for, or
    triggers, a collection of the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(UNITS):
            unit()
        return (time.perf_counter() - started) / UNITS
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds measured between two samples into
    seconds at the reference speed."""
    return REFERENCE_S / math.sqrt(before * after)


def normalized(segments) -> float:
    """Seconds at the reference speed of ``(wall, before, after)``
    segments."""
    return sum(wall * scale(before, after)
               for wall, before, after in segments)


class Segments:
    """Consecutive wall-time segments, each bracketed by samples of
    ``unit``; the samples' own time is in none of them."""

    def __init__(self, unit) -> None:
        self.unit = unit
        self.items: list = []
        self._before = sample(unit)
        self._started = time.perf_counter()

    def mark(self) -> None:
        """End the current segment and start the next."""
        wall = time.perf_counter() - self._started
        after = sample(self.unit)
        self.items.append((wall, self._before, after))
        self._before = after
        self._started = time.perf_counter()


def pin() -> int:
    """Pin this process (and the processes it starts from now on) to
    its lowest allowed CPU, so the reference unit and the measured work
    run on the same one; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
