"""Deterministic companion to ``benchmarks/test_engine_hotpath.py``.

The hot-path bench bounds the engine's wall time against a bare
``heapq`` loop, which reads host noise as well as engine cost. This file
counts Python-level calls (``sys.setprofile`` "call" events: one per
Python frame entered) on the same self-scheduling chain workload, which
no host can perturb: the engine must make no more calls per fired and
per scheduled event than the bare loop, and scheduling an event must
cost exactly one frame.
"""

import heapq
import sys

from repro.gpu.events import Event
from repro.gpu.sim import Simulator

CHAINS = 8
HOPS = 100
CANCEL_EVERY = 8  # every 8th hop schedules + cancels a decoy event


def _count_calls(fn, *args) -> int:
    """Python frames entered by ``fn(*args)``, ``fn``'s own included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _engine_workload():
    """(run, fired, scheduled) for the chain workload on a Simulator."""
    sim = Simulator()
    state = [HOPS] * CHAINS

    def make_hop(i):
        def hop():
            state[i] -= 1
            if state[i] > 0:
                if state[i] % CANCEL_EVERY == 0:
                    sim.schedule_at(sim.clock._now + 5.0, hop, "decoy").cancel()
                sim.schedule_at(sim.clock._now + 1.0, hop, "hop")
        return hop

    def run():
        for i in range(CHAINS):
            sim.schedule_at(0.1 * i, make_hop(i), "hop")
        sim.run()

    return run, lambda: sim.stats.processed, lambda: sim.stats.scheduled


def _bare_workload():
    """The same workload on a minimal, obligations-equivalent loop."""
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    clock = [0.0]
    seqs = [0]
    fired = [0]
    state = [HOPS] * CHAINS

    def schedule(at, cb, label):
        seqs[0] += 1
        ev = Event(at, seqs[0], cb, label=label)
        push(heap, (at, 0, seqs[0], ev))
        return ev

    def make_hop(i):
        def hop():
            state[i] -= 1
            if state[i] > 0:
                if state[i] % CANCEL_EVERY == 0:
                    schedule(clock[0] + 5.0, hop, "decoy").cancel()
                schedule(clock[0] + 1.0, hop, "hop")
        return hop

    def run():
        for i in range(CHAINS):
            schedule(0.1 * i, make_hop(i), "hop")
        while heap:
            head = pop(heap)
            ev = head[3]
            if ev.cancelled:
                continue
            clock[0] = head[0]
            fired[0] += 1
            ev.callback()

    return run, lambda: fired[0], lambda: seqs[0]


def test_engine_makes_no_more_calls_than_the_bare_loop():
    results = {}
    for name, workload in (("engine", _engine_workload),
                           ("bare", _bare_workload)):
        run, fired, scheduled = workload()
        calls = _count_calls(run)
        assert fired() == CHAINS * HOPS
        results[name] = (calls / fired(), calls / scheduled())
    engine, bare = results["engine"], results["bare"]
    assert engine[0] <= bare[0], f"calls per fired event: {engine} vs {bare}"
    assert engine[1] <= bare[1], f"calls per scheduled event: {engine} vs {bare}"


def test_schedule_at_takes_one_frame():
    sim = Simulator()
    assert _count_calls(sim.schedule_at, 1.0, print) == 1
    assert _count_calls(sim.schedule, 1.0, print) == 2
