"""A fixed pure-Python kernel that measures how fast the machine runs right
now, so that timings taken on a shared host can be scaled to one speed.

On a host shared with other tenants, the same pure-Python code runs in
phases up to twice as slow as the fastest, each lasting seconds, with the
process on the CPU all the while (its CPU time equals its wall time); the
neighbours slow every instruction, so no clock of this process can leave
the slowdown out.  A run that times ops in wall seconds therefore measures
the neighbours as much as the program.

The benchmark runs a few slices of this kernel between groups of ops,
outside their timing, and scales each op's wall time by ``NOMINAL_S`` over
the kernel's mean slice time just before and after the op's group: a
*reference second* is a second of a machine that runs a slice in
``NOMINAL_S``.  The kernel does not use gainchroma, so a change to the
program moves its reference-second timings in the same proportion as its
wall timings, while a slow phase of the machine slows the kernel and the
ops together and cancels out.

The kernel mixes the three kinds of work the program's ops do: an
interpreter loop over small integers, a backtracking search with calls and
dict updates, and lookups spread over a table larger than the per-core
caches.  Each takes about a third of a slice.  A slice runs with the cyclic
garbage collector paused, so the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# About the wall time of one slice on the 2-core VM the figures in README.md
# come from (Python 3.11.7).  Only a scale: any fixed value would do.
NOMINAL_S = 0.0025

_RING = 8
_NEIGHBOURS = [[(v - 1) % _RING, (v - 3) % _RING] for v in range(_RING)]
_TABLE_BITS = 21
_TABLE = random.Random(0).randbytes(1 << _TABLE_BITS)


def _loop(n: int = 5000) -> int:
    total = 0
    last = {}
    for i in range(n):
        total += i * i % 7
        last[i & 63] = total
    return total


def _colourings() -> int:
    """Proper 3-colourings of the circulant graph C8(1, 3), counted by
    backtracking over vertices in order."""
    colour: dict[int, int] = {}

    def extend(v: int) -> int:
        if v == _RING:
            return 1
        found = 0
        for c in range(3):
            if all(colour.get(u) != c for u in _NEIGHBOURS[v]):
                colour[v] = c
                found += extend(v + 1)
                del colour[v]
        return found

    return extend(0)


def _lookups(n: int = 4000) -> int:
    """Bytes of a 2 MiB table at pseudo-random places."""
    table, mask = _TABLE, (1 << _TABLE_BITS) - 1
    total = k = 0
    for _ in range(n):
        k = (k * 1103515245 + 12345) & mask
        total += table[k]
    return total


def slice_s() -> float:
    """Wall time of one slice of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        _colourings()
        _lookups()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure(budget_s: float) -> float:
    """Median wall time of slices run one after another until they have
    taken ``budget_s`` in all; at least one slice runs.

    An untimed slice runs first, to bring the kernel's table back into the
    caches: otherwise the first slice would also time how much of the cache
    the program's last ops took, and a change to the program's memory use
    would move the scale."""
    slice_s()
    times = [slice_s()]
    while sum(times) < budget_s:
        times.append(slice_s())
    return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor from wall seconds to reference seconds for work done between
    two measurements of the kernel."""
    return 2 * NOMINAL_S / (before_s + after_s)
