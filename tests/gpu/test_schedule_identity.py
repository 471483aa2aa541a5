"""Golden-trace schedule identity across the engine's loop variants.

The optimized ``run()`` loop and the macro-event fast-forward
(:mod:`repro.gpu.macro`) are only allowed to be *faster* than the
step-by-step reference loop — never different where it can be observed.
Since the macro engine deliberately collapses ``batch`` events, identity
is asserted one level up (DESIGN.md §15): **kernel-level timelines** —
every CTA residency interval (SM id, start, end, kernel), their order,
and the crc32 ``schedule_hash`` over them — plus the aggregate
task-pull / flag-poll accounting, must be bit-identical between loops, also
under fleet fault plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import (
    KernelImage,
    KernelMode,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from repro.gpu.sim import Simulator, install_global_trace
from repro.gpu.trace import collected_timelines
from repro.obs.bench import BUDGETS, SCENARIOS
from repro.obs.profiler import SimProfiler, profiled

#: CI-smoke scale; big enough that every scenario exercises dispatch,
#: preemption, cancellations and the batch loop.
SCALE = BUDGETS["small"]


def _run_golden(name: str, use_reference: bool):
    """Run one bench scenario, returning its kernel-level golden trace:
    per-device interval tuples + schedule hashes, and the profiler's
    aggregate hot-loop accounting.

    Scenarios construct their simulators internally, so timelines are
    captured with the process-global collection window.
    """
    Simulator.use_reference_loop = use_reference
    prof = SimProfiler()
    try:
        with collected_timelines() as timelines, profiled(prof):
            SCENARIOS[name].run(SCALE)
    finally:
        Simulator.use_reference_loop = False
    traces = [
        [
            (iv.sm_id, iv.start_us, iv.end_us, iv.kernel, iv.tag)
            for iv in tl.intervals
        ]
        for tl in timelines
    ]
    hashes = [tl.schedule_hash() for tl in timelines]
    return traces, hashes, {
        "task_pulls": prof.task_pulls,
        "flag_polls": prof.flag_polls,
        "cta_admissions": prof.cta_admissions,
        "preempt_requested": dict(prof.preempt_requested),
        "preempt_completed": dict(prof.preempt_completed),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_macro_loop_replays_reference_timelines(name):
    """Kernel-level timelines, schedule hashes and aggregate hot-loop
    accounting are bit-identical between the macro-event loop and the
    per-batch reference loop, for every bench scenario."""
    fast_traces, fast_hashes, fast_totals = _run_golden(name, False)
    ref_traces, ref_hashes, ref_totals = _run_golden(name, True)
    assert fast_traces, f"scenario {name} recorded no timelines"
    assert any(fast_traces), f"scenario {name} recorded empty timelines"
    assert fast_traces == ref_traces
    assert fast_hashes == ref_hashes
    assert fast_totals == ref_totals


def _run_faulted_fleet(use_reference: bool):
    """A faulted fleet plan (crash + rejoin mid-run) under either loop."""
    from repro.fleet import FleetConfig, FleetSystem, parse_fault_spec
    from repro.serving import PoissonLoadGen, Tenant

    Simulator.use_reference_loop = use_reference
    try:
        with collected_timelines() as timelines:
            fleet = FleetSystem(
                [
                    Tenant("web", priority=2, slo_us=3_000.0),
                    Tenant("batch", priority=0),
                ],
                FleetConfig(
                    node_modes=("flep-temporal", "flep-spatial"),
                    routing="deadline", oracle_model=True, seed=5,
                    faults=parse_fault_spec("crash@2000:n0,rejoin@5000:n0"),
                ),
            )
            for i, (tenant, prio) in enumerate((("web", 2), ("batch", 0))):
                fleet.add_generator(PoissonLoadGen(
                    tenant=tenant, kernels=("SPMV", "PL"), rate_per_ms=0.6,
                    duration_ms=8.0, seed=5 + i, input_names=("trivial",),
                    priority=prio,
                ))
            fleet.run()
    finally:
        Simulator.use_reference_loop = False
    return [
        [
            (iv.sm_id, iv.start_us, iv.end_us, iv.kernel, iv.tag)
            for iv in tl.intervals
        ]
        for tl in timelines
    ], [tl.schedule_hash() for tl in timelines]


def test_macro_loop_identity_under_fleet_faults():
    """Node loss and rejoin mid-run (re-routing, give-backs) cannot
    perturb the macro loop's timelines either."""
    fast, fast_hashes = _run_faulted_fleet(False)
    ref, ref_hashes = _run_faulted_fleet(True)
    assert any(fast), "faulted fleet recorded empty timelines"
    assert fast == ref
    assert fast_hashes == ref_hashes


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_are_deterministic_across_runs(name):
    """A scenario replayed twice on the same loop is bit-identical —
    the property the drift gate in ``flep bench --compare`` relies on."""
    first = _run_golden(name, use_reference=False)
    second = _run_golden(name, use_reference=False)
    assert first == second


# ---------------------------------------------------------------------------
# property: fast-forward never skips a flag write the reference observes
# ---------------------------------------------------------------------------
def _run_flagged_grid(use_reference, num_sms, slots, tasks, task_us, L,
                      spatial, writes):
    """One persistent grid driven through a host-write schedule; returns
    everything externally observable."""
    Simulator.use_reference_loop = use_reference
    prof = SimProfiler()
    try:
        with collected_timelines() as timelines, profiled(prof):
            sim = Simulator()
            gpu = SimulatedGPU(sim, small_test_gpu(
                num_sms=num_sms, max_ctas_per_sm=slots,
            ))
            kernel = KernelImage(
                "K", ResourceUsage(threads_per_cta=64, regs_per_thread=8),
                TaskModel(task_us), mode=KernelMode.PERSISTENT,
                amortize_l=L, supports_spatial=spatial,
            )
            pool = TaskPool(tasks)
            flag = gpu.new_flag()
            gpu.launch(
                kernel,
                LaunchConfig.persistent(tasks, num_sms * slots),
                pool=pool, flag=flag,
            )
            for at, value in writes:
                sim.schedule(at, lambda v=value: flag.host_write(v))
            sim.run()
            end = sim.now
    finally:
        Simulator.use_reference_loop = False
    (tl,) = timelines
    return {
        "intervals": [
            (iv.sm_id, iv.start_us, iv.end_us) for iv in tl.intervals
        ],
        "hash": tl.schedule_hash(),
        "done": pool.done,
        "remaining": pool.remaining,
        "outstanding": pool.outstanding,
        "task_pulls": prof.task_pulls,
        "flag_polls": prof.flag_polls,
        "end": end,
    }


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=8),
    task_us=st.floats(min_value=0.5, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
    tasks=st.integers(min_value=1, max_value=400),
    spatial=st.booleans(),
    writes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2_000.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=3,
    ),
)
def test_fast_forward_never_skips_a_flag_write(
    L, task_us, tasks, spatial, writes,
):
    """For arbitrary host-write schedules (preempts, clears, spatial
    thresholds) the macro loop's wake-ups observe every poll boundary
    the reference loop does: yields land at the same instants, the same
    tasks complete, and the same number of flag polls is charged."""
    args = (4, 2, tasks, task_us, L, spatial, writes)
    fast = _run_flagged_grid(False, *args)
    ref = _run_flagged_grid(True, *args)
    assert fast == ref


# ---------------------------------------------------------------------------
# property: cohorts formed at a burst's first placement replay the
# reference loop, whatever the burst's shape
# ---------------------------------------------------------------------------
def _run_burst(use_reference, num_sms, slots, persistent, ctas, tasks,
               blockers, sharers, gap):
    """``blockers`` original CTAs with staggered task times occupy slots
    first; then a grid of ``ctas`` CTAs and ``sharers`` more grids,
    enqueued ``gap`` us apart, drain one pool. Returns everything
    externally observable."""
    Simulator.use_reference_loop = use_reference
    prof = SimProfiler()
    try:
        with collected_timelines() as timelines, profiled(prof):
            sim = Simulator()
            gpu = SimulatedGPU(sim, small_test_gpu(
                num_sms=num_sms, max_ctas_per_sm=slots,
            ), seed=3)
            res = ResourceUsage(threads_per_cta=64, regs_per_thread=8)
            if blockers:
                gpu.launch(
                    KernelImage("B", res, TaskModel(30.0, 0.5)),
                    LaunchConfig.original(blockers),
                )
            kernel = KernelImage(
                "K", res, TaskModel(2.0, 0.3),
                mode=(KernelMode.PERSISTENT if persistent
                      else KernelMode.ORIGINAL),
                amortize_l=3 if persistent else 1,
                supports_spatial=persistent,
            )
            pool = TaskPool(tasks)
            flag = gpu.new_flag() if persistent else None
            for i in range(1 + sharers):
                config = (
                    LaunchConfig.persistent(tasks, ctas) if persistent
                    else LaunchConfig.original(tasks)
                )
                gpu.launch(kernel, config, pool=pool, flag=flag,
                           launch_overhead_us=5.0 + gap * i)
            sim.run()
    finally:
        Simulator.use_reference_loop = False
    (tl,) = timelines
    return {
        "intervals": [
            (iv.sm_id, iv.start_us, iv.end_us, iv.kernel)
            for iv in tl.intervals
        ],
        "hash": tl.schedule_hash(),
        "pool": (pool.done, pool.outstanding, pool.remaining),
        "task_pulls": prof.task_pulls,
        "flag_polls": prof.flag_polls,
        "end": sim.now,
    }


@settings(max_examples=60, deadline=None)
@given(
    num_sms=st.integers(min_value=1, max_value=4),
    slots=st.integers(min_value=1, max_value=3),
    persistent=st.booleans(),
    ctas_per_capacity=st.floats(min_value=0.25, max_value=2.0),
    tasks=st.integers(min_value=1, max_value=600),
    blockers=st.integers(min_value=0, max_value=6),
    sharers=st.integers(min_value=0, max_value=2),
    gap=st.sampled_from([0.0, 0.5, 40.0]),
)
def test_burst_shapes_replay_reference(
    num_sms, slots, persistent, ctas_per_capacity, tasks, blockers, sharers,
    gap,
):
    """Grids smaller or larger than the free slots, SMs pre-occupied by
    a blocker that retires CTA by CTA, persistent and original kernels,
    and pools shared by several grids, enqueued in one instant or
    apart: timelines, schedule hashes and
    accounting are the reference loop's."""
    ctas = max(1, round(num_sms * slots * ctas_per_capacity))
    args = (num_sms, slots, persistent, ctas, tasks, blockers, sharers, gap)
    fast = _run_burst(False, *args)
    ref = _run_burst(True, *args)
    assert fast == ref


def test_global_trace_uninstalls_cleanly():
    seen = []
    install_global_trace(seen.append)
    try:
        sim = Simulator()
        assert sim._hooked
    finally:
        install_global_trace(None)
    sim2 = Simulator()
    sim2.schedule(1.0, lambda: None)
    sim2.run()
    # only the first simulator inherited the hook
    assert not sim2._hooked
