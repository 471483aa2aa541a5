"""Macro cohorts (:mod:`repro.gpu.macro`): formation at a dispatch
burst's first placement, lazily committed pool counters, and the
dissolve paths — each checked against the per-batch reference loop."""

import pytest

from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import LaunchConfig, TaskPool
from repro.gpu.macro import MacroCohort
from repro.gpu.sim import Simulator
from repro.gpu.trace import collected_timelines
from repro.obs.profiler import SimProfiler, profiled


def _run(use_reference, scenario):
    """Build ``scenario(sim, gpu) -> (pool, probes)`` on a 4-SM x 2-slot
    device, run it on the chosen loop and return everything observable:
    CTA residency intervals, the schedule hash, final pool counters,
    task-pull/flag-poll charges and the probes' readings."""
    Simulator.use_reference_loop = use_reference
    prof = SimProfiler()
    try:
        with collected_timelines() as timelines, profiled(prof):
            sim = Simulator()
            gpu = SimulatedGPU(
                sim, small_test_gpu(num_sms=4, max_ctas_per_sm=2), seed=7
            )
            pool, probes = scenario(sim, gpu)
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
        "probes": probes,
        "end": sim.now,
    }


def _assert_replays_reference(scenario):
    fast = _run(False, scenario)
    ref = _run(True, scenario)
    assert fast["intervals"], "scenario placed no CTA"
    assert fast == ref
    return fast


def _persistent(gpu, make_kernel, tasks, ctas, pool=None, flag=None, **kw):
    kernel = make_kernel(
        name=kw.pop("name", "P"), mode="persistent", task_us=3.0,
        amortize_l=4, spatial=True, jitter=0.2,
    )
    pool = pool if pool is not None else TaskPool(tasks)
    flag = flag if flag is not None else gpu.new_flag()
    grid = gpu.launch(
        kernel, LaunchConfig.persistent(tasks, ctas), pool=pool, flag=flag,
        **kw,
    )
    return grid, pool, flag


@pytest.fixture
def count_cohorts(monkeypatch):
    """Count cohorts formed (successful ``MacroCohort.absorb`` calls)."""
    formed = []
    absorb = MacroCohort.absorb.__func__

    def counting(cls, grid, trigger, now):
        ok = absorb(cls, grid, trigger, now)
        if ok:
            formed.append(grid.pool._cohort)
        return ok

    monkeypatch.setattr(MacroCohort, "absorb", classmethod(counting))
    return formed


class TestFormationAtFirstPlacement:
    def test_one_burst_forms_one_cohort_and_cancels_nothing(
        self, sim, make_kernel, count_cohorts,
    ):
        gpu = SimulatedGPU(sim, small_test_gpu(num_sms=4, max_ctas_per_sm=2))
        grid, pool, _ = _persistent(gpu, make_kernel, 3_000, 8)
        sim.run()
        assert pool.complete
        # every CTA placed in the burst joined the cohort formed at the
        # burst's first placement: no completion event was scheduled
        # only to be absorbed and cancelled
        assert len(count_cohorts) == 1
        assert len(count_cohorts[0]._members) == 8
        assert sim.stats.cancelled == 0

    def test_pool_counters_at_fixed_instants_match_reference(
        self, make_kernel,
    ):
        """Probe events read the pool mid-chain (each read commits the
        cohort's running totals up to that instant); every reading
        equals the per-batch loop's."""

        def scenario(sim, gpu):
            _, pool, _ = _persistent(gpu, make_kernel, 2_500, 8)
            probes = []
            for k in range(60):
                sim.schedule_at(
                    13.7 + 41.3 * k,
                    lambda: probes.append(
                        (pool.done, pool.outstanding, pool.remaining,
                         pool.unfinished, pool.exhausted)
                    ),
                )
            return pool, probes

        fast = _assert_replays_reference(scenario)
        assert len(fast["probes"]) == 60
        # the probes saw the chain in progress, not just its ends
        assert len({p[0] for p in fast["probes"]}) > 10


class TestReplaysReferenceTimeline:
    def test_grid_larger_than_free_slots(self, make_kernel, count_cohorts):
        """A blocker holds half the slots and retires CTA by CTA, so the
        persistent grid is placed over several bursts; each later burst
        dissolves the cohort and the chain re-forms."""

        def scenario(sim, gpu):
            blocker = make_kernel(name="B", task_us=40.0, jitter=0.4)
            gpu.launch(blocker, LaunchConfig.original(4))
            _, pool, _ = _persistent(gpu, make_kernel, 4_000, 8)
            return pool, []

        fast = _assert_replays_reference(scenario)
        starts = {iv[1] for iv in fast["intervals"] if iv[3] != "B"}
        assert len(starts) > 2, "grid was not placed over several bursts"
        assert count_cohorts

    def test_resume_grid_sharing_a_pool(self, make_kernel):
        """Temporal preemption, then a resume grid on the same pool."""

        def scenario(sim, gpu):
            grid, pool, flag = _persistent(gpu, make_kernel, 3_000, 8)

            def resume():
                flag.clear()
                _persistent(
                    gpu, make_kernel, pool.remaining, 8, pool=pool, flag=flag,
                )

            sim.schedule_at(300.0, lambda: flag.host_write(4))
            sim.schedule_at(700.0, resume)
            return pool, []

        fast = _assert_replays_reference(scenario)
        assert fast["pool"] == (3_000, 0, 0)

    def test_topup_grid_joins_running_survivors(self, make_kernel):
        """Spatial preemption keeps survivors claiming; after the clear a
        top-up grid sharing the pool is placed next to them."""

        def scenario(sim, gpu):
            grid, pool, flag = _persistent(gpu, make_kernel, 4_000, 8)

            def top_up():
                flag.clear()
                _persistent(gpu, make_kernel, 4_000, 4, pool=pool, flag=flag)

            sim.schedule_at(250.0, lambda: flag.host_write(2))
            sim.schedule_at(600.0, top_up)
            return pool, []

        fast = _assert_replays_reference(scenario)
        assert fast["pool"] == (4_000, 0, 0)

    def test_foreign_grid_placed_in_the_same_burst(self, make_kernel):
        """Two grids of one pool enqueued together are placed by one
        dispatch burst: the second grid's first CTA is a foreign worker
        and dissolves the first grid's still-open cohort."""

        def scenario(sim, gpu):
            pool = TaskPool(3_000)
            flag = gpu.new_flag()
            # launch commands that reach the hardware queue only after
            # the run is over; the event below enqueues both at once
            grids = [
                _persistent(gpu, make_kernel, 3_000, ctas, pool=pool,
                            flag=flag, launch_overhead_us=1e12)[0]
                for ctas in (3, 4)
            ]

            def enqueue_both():
                gpu._queue.extend(grids)
                gpu._dispatch()

            sim.schedule_at(10.0, enqueue_both)
            return pool, []

        fast = _assert_replays_reference(scenario)
        assert {iv[1] for iv in fast["intervals"]} == {10.0}

    @pytest.mark.parametrize("write_first", [True, False])
    def test_flag_write_at_the_burst_instant(self, make_kernel, write_first):
        """A host write at the very instant the grid's burst runs —
        ordered before it (the cohort never forms) or after it (the
        fresh cohort dissolves before its replay commits anything)."""

        def scenario(sim, gpu):
            at = gpu.spec.costs.kernel_launch_us
            flag = gpu.new_flag()
            write = lambda: flag.host_write(2)  # noqa: E731
            if write_first:
                sim.schedule_at(at, write)
            _, pool, _ = _persistent(gpu, make_kernel, 3_000, 8, flag=flag)
            if not write_first:
                sim.schedule_at(at, write)
            return pool, []

        _assert_replays_reference(scenario)

    def test_flag_write_inside_the_burst(self, make_kernel):
        """A write issued between two placements of one burst (here from
        a placement hook) dissolves the still-open cohort."""

        class WriteOnThirdPlacement:
            def __init__(self, flag):
                self.flag = flag
                self.placed = 0

            def context_placed(self, ctx, grid):
                self.placed += 1
                if self.placed == 3:
                    self.flag.host_write(2)

            def context_retired(self, ctx, now):
                pass

        def scenario(sim, gpu):
            flag = gpu.new_flag()
            hook = WriteOnThirdPlacement(flag)
            real = gpu.tracer

            class Both:
                def context_placed(self, ctx, grid):
                    real.context_placed(ctx, grid)
                    hook.context_placed(ctx, grid)

                def context_retired(self, ctx, now):
                    real.context_retired(ctx, now)

            gpu.tracer = Both()
            _, pool, _ = _persistent(gpu, make_kernel, 3_000, 8, flag=flag)
            return pool, []

        _assert_replays_reference(scenario)
