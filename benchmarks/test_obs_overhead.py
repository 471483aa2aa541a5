"""Observability overhead: the unsubscribed hot path.

The instrumentation contract is that an unobserved system pays only one
guard per hook site: reading the hook's (empty) subscriber tuple off the
simulator's bus (:mod:`repro.obs.bus`). This bench times that guard
directly, counts how often the hot sites actually fire in a
representative co-run, and asserts the extrapolated guard cost stays
under 5 % of the co-run's wall time. A second bench records the cost of
running fully observed, for the report.

The same contract holds for the self-profiler (see
:mod:`repro.obs.profiler`): unprofiled runs pay ~0 % (the same single
guard per site), and a subscribed profiler's plain-int hooks, called
through the bus as deployed, stay under 5 % of the co-run's wall time.
"""

import time
import timeit

from repro.core.flep import FlepSystem
from repro.gpu.sim import Simulator
from repro.obs import SimBus, SimProfiler
from repro.runtime.engine import RuntimeConfig


def _run_pair(**kwargs):
    """The canonical temporal-preemption co-run (NN preempted by SPMV)."""
    system = FlepSystem(
        policy="hpf", config=RuntimeConfig(oracle_model=True), **kwargs
    )
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(200.0, "high", "SPMV", "small", priority=1)
    system.run()
    return system


def _guard_cost_us() -> float:
    """Measured cost of one site guard on an empty bus (µs): the hot
    sites cache the bus and test the hook's subscriber tuple."""

    class HotObject:
        bus = SimBus(None)

    hot = HotObject()
    n = 200_000
    total_s = timeit.timeit(lambda: hot.bus.on_sm_admit, number=n)
    return total_s / n * 1e6


def _guarded_sites_fired(system) -> float:
    """How many guard checks the null path would have evaluated, counted
    from a fully-observed run of the same scenario: one per simulator
    event, one per completed batch (CTA hot loop), two per CTA context
    (admit + release), plus a handful of engine-side lifecycle hooks."""
    m = system.obs
    batches = m.m_sim_events.value(kind="batch")
    return (
        m.m_sim_events.total
        + batches
        + 2 * m.m_cta_admissions.total
        + 4 * m.m_invocations.total
        + 20  # queue-depth / launch / preemption hooks, generously
    )


def test_null_recorder_overhead_under_5_percent(benchmark):
    # wall time of the scenario on the default (null-recorder) path
    benchmark.pedantic(_run_pair, rounds=3, iterations=1, warmup_rounds=1)
    t0 = time.perf_counter()
    _run_pair()
    null_wall_us = (time.perf_counter() - t0) * 1e6

    observed = _run_pair(observability=True)
    sites = _guarded_sites_fired(observed)
    guard_total_us = sites * _guard_cost_us()

    overhead = guard_total_us / null_wall_us
    assert overhead < 0.05, (
        f"null-recorder guards cost {guard_total_us:.0f}us over {sites:.0f} "
        f"sites = {overhead:.2%} of the {null_wall_us:.0f}us co-run"
    )


def test_observed_run_records_everything(benchmark):
    system = benchmark.pedantic(
        lambda: _run_pair(observability=True),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert system.obs.m_finished.total == 2
    assert system.obs.m_preempt_done.value(kind="temporal") == 1
    assert not system.obs.tracer.open_spans()


# ---------------------------------------------------------------------------
# self-profiler (repro.obs.profiler) overhead
# ---------------------------------------------------------------------------
def _prof_sites_fired(prof) -> float:
    """Guard evaluations on the uninstalled path, counted from a
    profiled run of the same scenario: one per simulator event, one per
    completed batch (task-pull + flag-poll feed), two per CTA admission
    (admit + release), plus the engine's preemption hooks."""
    batches = prof.events_by_kind.get("batch", 0)
    preempts = sum(prof.preempt_requested.values())
    return (
        prof.events_total
        + batches
        + 2 * prof.cta_admissions
        + 2 * preempts
        + 20  # launch / drain / top-up hooks, generously
    )


def test_uninstalled_profiler_overhead_is_negligible(benchmark):
    """No profiler installed: the extrapolated guard cost must be ~0 %.
    We assert <2 % — well under the 5 % obs budget; the true figure is
    ~0.5 %, but the timeit'd guard cost inflates on a loaded machine."""
    benchmark.pedantic(_run_pair, rounds=3, iterations=1, warmup_rounds=1)
    t0 = time.perf_counter()
    system = _run_pair()
    null_wall_us = (time.perf_counter() - t0) * 1e6
    assert system.prof is None
    assert not system.sim.bus.on_event

    profiled_run = _run_pair(profiler=SimProfiler())
    sites = _prof_sites_fired(profiled_run.prof)
    guard_total_us = sites * _guard_cost_us()

    overhead = guard_total_us / null_wall_us
    assert overhead < 0.02, (
        f"uninstalled-profiler guards cost {guard_total_us:.0f}us over "
        f"{sites:.0f} sites = {overhead:.2%} of the {null_wall_us:.0f}us "
        f"co-run"
    )


def test_installed_profiler_overhead_under_5_percent(benchmark):
    """A live profiler's counters are plain ints/dicts. Same methodology
    as the null-recorder bench (wall-clock diffs of a ~60 ms co-run are
    noisier than the budget on shared CI): time each hook directly,
    multiply by how often it fired in the canonical co-run, and assert
    the extrapolated hook cost stays under 5 % of the bare wall time."""
    benchmark.pedantic(
        lambda: _run_pair(profiler=SimProfiler()),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    t0 = time.perf_counter()
    _run_pair()
    bare_wall_us = (time.perf_counter() - t0) * 1e6

    run = _run_pair(profiler=SimProfiler())
    p = run.prof
    assert p.events_total > 0
    assert p.task_pulls > 0
    assert p.latency["temporal"].count == 1

    # time each hook as the bus calls it (bound to its simulator)
    sim = Simulator()
    sim.bus.subscribe(SimProfiler())
    ev = sim.schedule_at(1.0, lambda: None, "k/ctx0/batch")
    (on_event,) = sim.bus.on_event
    (on_batch,) = sim.bus.on_batch
    (on_sm_admit,) = sim.bus.on_sm_admit
    n = 100_000
    ev_us = timeit.timeit(lambda: on_event(ev), number=n) / n * 1e6
    batch_us = timeit.timeit(lambda: on_batch(64, 1), number=n) / n * 1e6
    sm_us = timeit.timeit(lambda: on_sm_admit(3, 4), number=n) / n * 1e6

    batches = p.events_by_kind.get("batch", 0)
    hook_total_us = (
        p.events_total * ev_us
        + batches * batch_us
        + 2 * p.cta_admissions * sm_us
    )
    overhead = hook_total_us / bare_wall_us
    assert overhead < 0.05, (
        f"installed-profiler hooks cost {hook_total_us:.0f}us "
        f"(event={ev_us:.3f}us x{p.events_total}, "
        f"batch={batch_us:.3f}us x{batches}, sm={sm_us:.3f}us "
        f"x{2 * p.cta_admissions}) = {overhead:.2%} of the "
        f"{bare_wall_us:.0f}us co-run"
    )
