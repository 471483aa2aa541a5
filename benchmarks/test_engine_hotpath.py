"""Engine hot-path microbenchmark: the run loop vs a bare heap.

The fast-path contract (DESIGN.md §12) is that with no instrumentation
installed the engine's loop does essentially what any correct bare
``heapq`` event loop must do — pop ``(time, priority, seq, event)``
entries, drop cancelled heads lazily, store the clock, count against
the event budget, fire the callback — and nothing more. This bench
times the engine against a hand-written reference loop carrying those
same obligations on the same workload and asserts the engine stays
within 5% (plus a small absolute guard for timer noise).

The workload is self-scheduling chains (each callback schedules the
next hop) with periodic decoy cancellations, so both sides exercise
scheduling, firing and the lazy-cancellation path in steady state.
"""

import heapq
import time

from repro.gpu.events import Event
from repro.gpu.sim import Simulator

CHAINS = 32
HOPS = 400
CANCEL_EVERY = 8  # every 8th hop schedules + cancels a decoy event
ROUNDS = 5
TOLERANCE = 1.05
ABS_SLACK_S = 0.005


def _run_engine() -> float:
    """Schedule the chain workload on a Simulator and time run()."""
    sim = Simulator()
    state = [HOPS] * CHAINS

    def make_hop(i):
        def hop():
            state[i] -= 1
            if state[i] > 0:
                if state[i] % CANCEL_EVERY == 0:
                    sim.schedule_event(
                        sim.clock._now + 5.0, hop, "decoy"
                    ).cancel()
                sim.schedule_event(sim.clock._now + 1.0, hop, "hop")
        return hop

    for i in range(CHAINS):
        sim.schedule_event(0.1 * i, make_hop(i), "hop")
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.stats.processed == CHAINS * HOPS
    return elapsed


def _run_bare() -> float:
    """The same workload on a minimal, obligations-equivalent loop."""
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    clock = [0.0]
    seqs = [0]
    state = [HOPS] * CHAINS
    max_events = 50_000_000

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

    for i in range(CHAINS):
        schedule(0.1 * i, make_hop(i), "hop")
    processed = 0
    t0 = time.perf_counter()
    while heap:
        head = pop(heap)
        ev = head[3]
        if ev.cancelled:
            continue
        clock[0] = head[0]
        processed += 1
        if processed > max_events:
            raise RuntimeError("budget blown")
        ev.callback()
    elapsed = time.perf_counter() - t0
    assert processed == CHAINS * HOPS
    return elapsed


def test_uninstrumented_loop_within_5pct_of_bare_heap(benchmark):
    benchmark.pedantic(_run_engine, rounds=3, iterations=1, warmup_rounds=1)
    # alternate the two loops and take per-side minima: best-of-N is the
    # standard way to strip scheduler noise from a ratio assertion
    engine_s = min(_run_engine() for _ in range(ROUNDS))
    bare_s = min(_run_bare() for _ in range(ROUNDS))
    assert engine_s <= bare_s * TOLERANCE + ABS_SLACK_S, (
        f"engine loop {engine_s * 1e3:.2f}ms vs bare heap "
        f"{bare_s * 1e3:.2f}ms ({engine_s / bare_s:.2f}x)"
    )


def test_uninstrumented_engine_is_not_hooked():
    sim = Simulator()
    assert not sim.bus.on_event
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.stats.processed == 1
