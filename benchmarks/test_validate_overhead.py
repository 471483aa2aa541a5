"""Conformance-monitor overhead.

The contract is that an unmonitored run pays *zero* cost: nothing
subscribes to the simulator's bus unless ``install_monitors`` is called,
so the engine's per-event cost is the single guard on the bus's (empty)
event-hook tuple. This bench verifies the uninstalled path stays
hook-free, times the guard directly, records the monitored run's cost
for the report, and bounds what always-on monitors cost a fleet run."""

import statistics
import time
import timeit

from repro.core.flep import FlepSystem
from repro.fleet import FleetConfig, FleetSystem
from repro.obs import SimBus
from repro.runtime.engine import RuntimeConfig
from repro.serving import PoissonLoadGen, Tenant
from repro.validate import install_monitors


def _run_pair(monitored: bool = False):
    """The canonical temporal-preemption co-run (NN preempted by SPMV)."""
    system = FlepSystem(
        policy="hpf", config=RuntimeConfig(oracle_model=True)
    )
    monitors = install_monitors(system) if monitored else None
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(200.0, "high", "SPMV", "small", priority=1)
    system.run()
    if monitors is not None:
        monitors.finalize()
        monitors.uninstall()
    return system


def _guard_cost_us() -> float:
    """Measured cost of the event loop's guard on an empty bus (µs)."""
    bus = SimBus(None)
    n = 200_000
    total_s = timeit.timeit(lambda: bus.on_event, number=n)
    return total_s / n * 1e6


def test_uninstalled_monitors_leave_no_trace_hook(benchmark):
    system = benchmark.pedantic(
        _run_pair, rounds=3, iterations=1, warmup_rounds=1
    )
    # zero-cost contract: the engine never saw a hook
    assert not system.sim.bus.on_event

    t0 = time.perf_counter()
    _run_pair()
    bare_wall_us = (time.perf_counter() - t0) * 1e6

    # the only residual cost is the guard the engine always carried
    guard_total_us = _run_pair().sim.processed_events * _guard_cost_us()
    overhead = guard_total_us / bare_wall_us
    assert overhead < 0.05, (
        f"trace guards cost {guard_total_us:.0f}us "
        f"= {overhead:.2%} of the {bare_wall_us:.0f}us co-run"
    )


def test_monitored_run_cost_is_bounded(benchmark):
    """Full monitor stack on the same co-run, for the report. Each event
    costs the monitors work in proportion to live state (resident CTAs,
    unfinished pools, the queue); on a two-kernel co-run that is a fixed
    per-event charge, so bound it loosely to catch pathological
    regressions."""
    t0 = time.perf_counter()
    _run_pair()
    bare_s = time.perf_counter() - t0

    system = benchmark.pedantic(
        lambda: _run_pair(monitored=True),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert not system.sim.bus.on_event  # uninstall left the bus bare
    t0 = time.perf_counter()
    _run_pair(monitored=True)
    monitored_s = time.perf_counter() - t0
    assert monitored_s < max(50 * bare_s, 5.0)


def _run_fleet(monitored: bool) -> float:
    """Wall seconds of a small fleet run: 4 spatial GPUs, 6 tiered
    tenants, ~100 requests, wired as ``flep fleet`` wires it."""
    tenants = [
        Tenant(f"web{i}", priority=2, slo_us=4_000.0) if i % 3 == 0 else
        Tenant(f"analytics{i}", priority=1, slo_us=20_000.0) if i % 3 == 1
        else Tenant(f"batch{i}", priority=0)
        for i in range(6)
    ]
    t0 = time.perf_counter()
    fleet = FleetSystem(
        tenants, FleetConfig(node_modes=["flep-spatial"] * 4, seed=11),
    )
    bundle = install_monitors(fleet, require_complete=True) if monitored else None
    for i, t in enumerate(tenants):
        fleet.add_generator(PoissonLoadGen(
            tenant=t.name, kernels=("SPMV", "MM", "PL"), rate_per_ms=0.2,
            duration_ms=80.0, seed=11 + i, input_names=("small",),
            priority=t.priority,
        ))
    fleet.run()
    if bundle is not None:
        bundle.finalize()
    return time.perf_counter() - t0


def test_fleet_monitor_cost_is_bounded():
    """Always-on fleet checking stays a small multiple of the bare run:
    per-event work follows live state, not run history (a monitor that
    re-checks every pool it has seen costs ~5x on a 2-vCPU Xeon)."""
    _run_fleet(monitored=True)  # warm imports and memo caches
    bare = statistics.median(_run_fleet(monitored=False) for _ in range(3))
    monitored = statistics.median(_run_fleet(monitored=True) for _ in range(3))
    assert monitored <= 2.5 * bare, (
        f"monitored fleet {monitored:.2f}s vs bare {bare:.2f}s "
        f"= {monitored / bare:.2f}x"
    )
