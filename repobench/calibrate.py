"""Host-speed reference for the benchmark's host times.

On a shared machine the speed of one CPU swings by up to 2x over
seconds to minutes, and CPU time moves with wall time, so raw host
times of two runs differ by more than the effects worth measuring. The
benchmark therefore brackets every timed execution with a fixed
pure-Python loop shaped like the simulator's hot path (a heap of
timestamped events, small objects, label strings, dict counters,
method calls) and scales the execution's time by how long the loop took
against :data:`REFERENCE_S`. A scaled time reads "host seconds on a
host that runs the loop in ``REFERENCE_S``". The loop imports nothing
from the program, so a change to the program never moves it.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Callable, List, Tuple

#: Seconds the loop takes on the reference host (a 2-vCPU Xeon VM with
#: Python 3.11, when the host was quiet). Only a unit: it scales every
#: figure alike.
REFERENCE_S = 0.2

#: events per loop
EVENTS = 100_000

#: A long execution also samples the host speed from inside, with a
#: slice of the loop this many times shorter every ``SLICE_EVERY_S``
#: seconds; the slices' own time is taken out of the execution's.
SLICE_FRACTION = 8
SLICE_EVERY_S = 0.5


class _Event:
    __slots__ = ("at", "kind", "n", "callback")

    def __init__(self, at, kind, n, callback):
        self.at = at
        self.kind = kind
        self.n = n
        self.callback = callback


class _Node:
    def __init__(self):
        self.load = 0.0
        self.done: List[int] = []

    def on_event(self, ev: _Event, now: float) -> bool:
        self.load += ev.at * 0.001
        if ev.n % 3 == 0:
            self.done.append(ev.n)
        return self.load > now


def loop_seconds(events: int = EVENTS) -> float:
    """Run ``events`` of the reference loop; their host time in seconds."""
    rng = random.Random(7)
    nodes = [_Node() for _ in range(16)]
    heap: List[tuple] = []
    labels = {}
    now = 0.0
    t0 = time.perf_counter()
    for i in range(events):
        node = nodes[i & 15]
        heapq.heappush(heap, (now + rng.expovariate(1.0), i,
                              _Event(i * 0.5, i % 13, i, node.on_event)))
        if len(heap) > 512:
            now, _, ev = heapq.heappop(heap)
            label = f"k{ev.kind}/ctx{ev.n & 31}"
            labels[label] = labels.get(label, 0) + 1
            ev.callback(ev, now)
    return time.perf_counter() - t0


class HostClock:
    """Times calls and scales them to the reference host speed. Each
    call is bracketed by reference loops — the one before it (shared
    with the previous call) and one after it — and a call that runs long
    can sample the speed from inside by calling :meth:`tick` often."""

    def __init__(self):
        self.loops = [loop_seconds()]
        self._slices: List[float] = []
        self._slice_s = 0.0
        self._next_slice = float("inf")

    def time(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """``(result, raw seconds, scale)``: ``raw * scale`` is the call's
        time at reference speed; ``raw`` leaves out the slices."""
        self._slices, self._slice_s = [], 0.0
        t0 = time.perf_counter()
        self._next_slice = t0 + SLICE_EVERY_S
        try:
            result = fn()
        finally:
            self._next_slice = float("inf")
        raw = time.perf_counter() - t0 - self._slice_s
        before = self.loops[-1]
        self.loops.append(loop_seconds())
        samples = [before, *self._slices, self.loops[-1]]
        return result, raw, REFERENCE_S * len(samples) / sum(samples)

    def tick(self) -> None:
        """Inside a timed call: sample the host speed with a slice of the
        loop when the last sample is ``SLICE_EVERY_S`` old."""
        t0 = time.perf_counter()
        if t0 < self._next_slice:
            return
        self._slices.append(
            loop_seconds(EVENTS // SLICE_FRACTION) * SLICE_FRACTION
        )
        t1 = time.perf_counter()
        self._slice_s += t1 - t0
        self._next_slice = t1 + SLICE_EVERY_S

    @property
    def speed(self) -> float:
        """Median host speed against the reference (1.0 = reference)."""
        loops = sorted(self.loops)
        return REFERENCE_S / loops[len(loops) // 2]
