"""The host's speed, timed with a fixed piece of work of the benchmark's own.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same pure-Python work takes up to 1.5 times longer for minutes at a
time, and faster and slower spells alternate within a second. A round's
program time is therefore put on a nominal clock: the round also times
reference chunks, interleaved with the program's work, and its host
seconds are divided by (mean chunk time / REFERENCE_S). A nominal second
is the host time of 1 / REFERENCE_S chunks timed alongside.

The chunk touches nothing of cdnsim, so a change to the program changes
the program's time and not the scale. It runs with the cyclic garbage
collector off, so a collection owed to the program's allocations never
lands in it.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from random import Random
from time import perf_counter

# The nominal time of one chunk: 2,500 chunks make a nominal second. On the
# 2-core VM the benchmark was written on (Python 3.11) a chunk took 0.2 to
# 0.45 ms of host time, depending on the host's state and on what ran
# before it.
REFERENCE_S = 0.4e-3
REFERENCE_STEPS = 300

_rng = Random()


def reference_chunk() -> float:
    """Float draws, list and dict indexing and a bounded heap: the kinds of
    interpreter work the simulator's event loop does."""
    _rng.seed(7)
    heap: list[float] = []
    counts: dict[int, int] = {}
    sums = [0.0] * 64
    total = 0.0
    for _ in range(REFERENCE_STEPS):
        x = _rng.random()
        j = int(x * 64)
        sums[j] += x
        counts[j] = counts.get(j, 0) + 1
        heappush(heap, x)
        if len(heap) > 32:
            total += heappop(heap)
    return total


class Gauge:
    """Reference chunks timed over a stretch of the benchmark."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.chunks = 0

    def sample(self) -> float:
        """Time one chunk; returns its host seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_chunk()
            took = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.seconds += took
        self.chunks += 1
        return took

    def nominal(self, host_seconds: float) -> float:
        """host_seconds on the nominal clock."""
        return host_seconds * REFERENCE_S * self.chunks / self.seconds
