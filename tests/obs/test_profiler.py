"""Self-profiler tests: null path, shared event accounting, hot-loop
counters on a hand-built schedule, trace export, global installation."""

import pytest

from repro.baselines.mps_corun import MPSCoRun
from repro.core.flep import FlepSystem
from repro.errors import ObservabilityError, SimulationError
from repro.gpu.sim import Simulator
from repro.obs import (
    NULL_PROFILER,
    NullSimProfiler,
    SimProfiler,
    SpanTracer,
    get_global_profiler,
    install_global_profiler,
    profiled,
    uninstall_global_profiler,
)
from repro.obs.profiler import LatencyStat, _event_kind
from repro.runtime.engine import RuntimeConfig


def _three_kernel_run(prof):
    """The hand-built schedule the counter assertions run against: a
    long low-priority NN, a high-priority SPMV arriving mid-flight (one
    guaranteed temporal preemption under hpf), and a trailing MM."""
    system = FlepSystem(
        policy="hpf",
        config=RuntimeConfig(oracle_model=True, spatial_enabled=False),
        profiler=prof,
    )
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    system.submit_at(200.0, "rt", "SPMV", "trivial", priority=1)
    system.submit_at(400.0, "rt2", "MM", "trivial", priority=1)
    result = system.run()
    assert result.all_finished
    return system


# ---------------------------------------------------------------------------
# null path (the zero-cost default)
# ---------------------------------------------------------------------------
class TestNullProfiler:
    def test_default_system_uses_null_profiler(self):
        system = FlepSystem(policy="hpf")
        assert system.prof is NULL_PROFILER
        assert system.sim.prof is NULL_PROFILER
        assert not system.prof.enabled

    def test_null_hooks_record_nothing(self):
        null = NullSimProfiler()
        null.on_event("x/batch", 3)
        null.on_sm_admit(0, 1)
        null.on_tasks_pulled(100)
        null.on_flag_polls(5)
        null.on_preempt_requested("temporal", 1)
        null.on_drained(1)
        null.start()
        assert null.events_by_kind == {}
        assert null.task_pulls == 0 and null.flag_polls == 0
        assert null.wall_s == 0.0
        assert null.events_total == 0

    def test_explicit_null_instance_stays_null(self):
        system = FlepSystem(policy="hpf", profiler=NULL_PROFILER)
        assert system.prof is NULL_PROFILER

    def test_run_results_identical_with_and_without_profiler(self):
        bare = _three_kernel_run(None)
        prof = SimProfiler()
        inst = _three_kernel_run(prof)
        assert bare.sim.now == inst.sim.now
        assert bare.sim.stats.processed == inst.sim.stats.processed
        assert bare.sim.stats.peak_pending == inst.sim.stats.peak_pending


# ---------------------------------------------------------------------------
# shared event accounting (no double bookkeeping)
# ---------------------------------------------------------------------------
class TestSharedCounter:
    def test_profiler_reads_the_simulators_own_counter(self):
        prof = SimProfiler()
        system = _three_kernel_run(prof)
        assert prof.events_total == system.sim.stats.processed
        assert prof.events_total > 0
        # 'macro-batch' counts per-batch events the fast-forward engine
        # *avoided* firing — the only synthetic kind in the breakdown
        by_kind = dict(prof.events_by_kind)
        collapsed = by_kind.pop("macro-batch", 0)
        assert collapsed == prof.batches_collapsed
        assert sum(by_kind.values()) == prof.events_total
        assert prof.peak_queue_depth == system.sim.stats.peak_pending
        assert prof.events_scheduled == system.sim.stats.scheduled

    def test_attach_baselines_prior_activity(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None, label="warmup")
        sim.run()
        assert sim.stats.processed == 5
        prof = SimProfiler()
        prof.attach(sim)
        sim.prof = prof
        assert prof.events_total == 0
        sim.schedule_at(10.0, lambda: None, label="counted")
        sim.run()
        assert prof.events_total == 1
        assert sim.stats.processed == 6

    def test_cancelled_events_are_reported(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, label="dropped").cancel()
        sim.run()
        prof = SimProfiler()
        prof.attach(sim)
        sim.prof = prof
        for at in (2.0, 3.0):
            sim.schedule_at(at, lambda: None, label="dropped").cancel()
        sim.schedule_at(4.0, lambda: None, label="kept")
        sim.run()
        # baselined at attach, like the processed/scheduled counters
        assert sim.stats.cancelled == 3
        assert prof.events_cancelled == 2
        assert prof.snapshot()["events_cancelled"] == 2
        assert "cancelled 2" in prof.format_summary()

    def test_max_events_exhaustion_uses_the_same_counter(self):
        sim = Simulator(max_events=10)
        prof = SimProfiler()
        prof.attach(sim)
        sim.prof = prof

        def rearm():
            sim.schedule(1.0, rearm, label="loop")

        rearm()
        with pytest.raises(SimulationError, match="event budget exceeded"):
            sim.run()
        # both views agree even after the abort mid-loop
        assert prof.events_total == sim.stats.processed

    def test_multi_sim_aggregation(self):
        prof = SimProfiler()
        a = _three_kernel_run(prof)
        b = _three_kernel_run(prof)
        assert prof.num_sims == 2
        assert prof.events_total == (
            a.sim.stats.processed + b.sim.stats.processed
        )
        assert prof.sim_elapsed_us == a.sim.now + b.sim.now


# ---------------------------------------------------------------------------
# hot-loop counters on the hand-built schedule
# ---------------------------------------------------------------------------
class TestCounters:
    @pytest.fixture(scope="class")
    def run(self):
        prof = SimProfiler()
        with prof:
            system = _three_kernel_run(prof)
        return prof, system

    def test_hot_loop_counters_fire(self, run):
        prof, _ = run
        assert prof.task_pulls > 0
        assert prof.flag_polls > 0
        assert prof.cta_admissions > 0
        # amortized polling: far fewer flag polls than task pulls
        assert prof.flag_polls < prof.task_pulls

    def test_event_kinds_are_bounded_classes(self, run):
        prof, _ = run
        assert "batch" in prof.events_by_kind
        assert "submit" in prof.events_by_kind
        # no raw per-context labels leaked through
        assert all("/" not in k and ":" not in k for k in prof.events_by_kind)

    def test_temporal_preemption_latency_recorded(self, run):
        prof, _ = run
        assert prof.preempt_requested.get("temporal", 0) >= 1
        stat = prof.latency["temporal"]
        assert stat.count >= 1
        assert 0.0 < stat.mean <= stat.max
        assert stat.count == prof.preempt_completed["temporal"]

    def test_queue_and_sm_timelines_sampled(self, run):
        prof, _ = run
        assert prof.sm_samples, "SM occupancy timeline is empty"
        assert all(r >= 0 for _, _, r in prof.sm_samples)

    def test_rates_need_a_wall_window(self, run):
        prof, _ = run
        assert prof.wall_s > 0.0
        assert prof.events_per_sec > 0.0
        assert prof.sim_us_per_wall_s > 0.0

    def test_engine_block_shape(self, run):
        prof, _ = run
        block = prof.engine_block()
        assert set(block) == {
            "events", "events_per_sec", "wall_s", "peak_queue_depth",
            "sim_us", "sim_us_per_wall_s", "sims",
        }
        assert block["events"] == prof.events_total
        assert block["sims"] == 1

    def test_snapshot_and_summary(self, run):
        prof, _ = run
        snap = prof.snapshot()
        assert snap["task_pulls"] == prof.task_pulls
        assert "temporal" in snap["preempt_latency_us"]
        text = prof.format_summary()
        assert "simulator self-profile" in text
        assert "preempt[temporal]" in text

    def test_export_to_tracer(self, run):
        prof, _ = run
        tracer = SpanTracer(clock=lambda: 0.0)
        n = prof.export_to_tracer(tracer)
        assert n == (
            len(prof.queue_samples) + len(prof.sm_samples)
            + len(prof.drain_stalls)
        )
        assert len(tracer.counters) >= len(prof.sm_samples)
        stalls = [s for s in tracer.spans if "temporal_stall" in s.name]
        assert len(stalls) == len(prof.drain_stalls)


# ---------------------------------------------------------------------------
# sampling bounds
# ---------------------------------------------------------------------------
class TestSamplingBounds:
    def test_sample_every_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            SimProfiler(sample_every=0)

    def test_timelines_are_bounded_and_truncation_is_counted(self):
        prof = SimProfiler(sample_every=1, max_samples=10)
        prof.attach(Simulator())
        for i in range(25):
            prof.on_event("x", i)
        assert len(prof.queue_samples) == 10
        assert prof.dropped_samples == 15
        assert "truncated" in prof.format_summary()

    def test_event_kind_collapse(self):
        assert _event_kind("NN__flep/ctx3/batch") == "batch"
        assert _event_kind("launch:NN") == "launch"
        assert _event_kind("submit:p:NN") == "submit"
        assert _event_kind("") == "unlabelled"

    def test_latency_stat_buckets(self):
        stat = LatencyStat()
        stat.observe(5.0)
        stat.observe(75.0)
        stat.observe(1e9)  # beyond the last bound -> overflow bucket
        d = stat.as_dict()
        assert d["count"] == 3
        assert d["bucket_counts"][0] == 1
        assert d["bucket_counts"][-1] == 1
        assert d["min_us"] == 5.0 and d["max_us"] == 1e9


# ---------------------------------------------------------------------------
# process-global installation
# ---------------------------------------------------------------------------
class TestGlobalProfiler:
    def teardown_method(self):
        uninstall_global_profiler()

    def test_install_and_uninstall(self):
        prof = SimProfiler()
        install_global_profiler(prof)
        assert get_global_profiler() is prof
        uninstall_global_profiler()
        assert get_global_profiler() is None

    def test_new_systems_pick_up_the_global(self):
        with profiled() as prof:
            system = FlepSystem(policy="hpf")
            assert system.prof is prof
            assert system.sim.prof is prof
        assert get_global_profiler() is None
        assert FlepSystem(policy="hpf").prof is NULL_PROFILER

    def test_mps_baseline_picks_up_the_global(self):
        with profiled() as prof:
            corun = MPSCoRun()
            corun.submit_at(0.0, "solo", "VA", "trivial")
            corun.run()
        assert prof.events_total == corun.sim.stats.processed
        assert prof.events_total > 0

    def test_explicit_profiler_beats_the_global(self):
        mine = SimProfiler()
        with profiled():
            system = FlepSystem(policy="hpf", profiler=mine)
            assert system.prof is mine

    def test_profiled_runs_the_wall_clock(self):
        with profiled() as prof:
            _three_kernel_run(None)  # picked up globally
        assert prof.wall_s > 0.0
        assert prof.num_sims == 1
        assert prof.events_per_sec > 0.0
