"""Observability-hub tests: bus hooks, the observed() window."""

import pytest

from repro.gpu.sim import Simulator
from repro.obs import Observability, observed
from repro.obs.bus import window


class FakeSim:
    """The firing simulator, as a bus hook sees it."""

    def __init__(self, now=0.0):
        self.now = now


class FakeEvent:
    def __init__(self, label):
        self.label = label


class FakeInv:
    """Just enough of a KernelInvocation for the lifecycle hooks."""

    class _Record:
        predicted_us = 100.0
        gpu_time_us = 90.0
        waited_us = 10.0
        turnaround_us = 110.0
        preemptions = 1

    class _KSpec:
        name = "NN"

    class _Inp:
        name = "large"

    def __init__(self, inv_id=1, process="p"):
        self.inv_id = inv_id
        self.process = process
        self.priority = 0
        self.record = self._Record()
        self.kspec = self._KSpec()
        self.inp = self._Inp()


class TestDeviceHooks:
    def test_sim_event_kind_collapsing(self):
        hub = Observability()
        sim = FakeSim()
        for label in ("NN__flep/ctx3/batch", "launch:NN", ""):
            hub.on_event(sim, FakeEvent(label))
        c = hub.m_sim_events
        assert c.value(kind="batch") == 1
        assert c.value(kind="launch") == 1
        assert c.value(kind="unlabelled") == 1

    def test_sm_residency_tracks_gauge_and_counter(self):
        hub = Observability()
        sim = FakeSim()
        hub.on_sm_admit(sim, 0, 1)
        hub.on_sm_admit(sim, 0, 2)
        hub.on_sm_release(sim, 0, 1)
        assert hub.m_cta_admissions.total == 2
        assert hub.m_sm_resident.value(sm="0") == 1
        ctas = [dict(s.values)["ctas"] for s in hub.tracer.counters]
        assert ctas == [1, 2, 1]

    def test_task_pulls_and_polls_batched(self):
        hub = Observability()
        hub.on_batch(FakeSim(), 64, 4)
        hub.on_batch(FakeSim(), 0, 0)  # a yield at a batch boundary
        assert hub.m_task_pulls.total == 64
        assert hub.m_flag_polls.total == 4


class TestInvocationLifecycle:
    def test_temporal_story_produces_spans_and_metrics(self):
        # the hub's own clock is never read: hooks stamp with the sim
        hub = Observability(clock=lambda: -1.0)
        sim = FakeSim()
        inv = FakeInv()
        hub.on_arrived(sim, inv)
        sim.now = 5.0
        hub.on_scheduled(sim, inv, False)
        sim.now = 50.0
        hub.on_preempt_requested(sim, inv, "temporal", 15)
        sim.now = 60.0
        hub.on_drained(sim, inv, 10.0)
        sim.now = 70.0
        hub.on_scheduled(sim, inv, True)
        sim.now = 200.0
        hub.on_finished(sim, inv)

        assert hub.m_preempt_req.value(kind="temporal") == 1
        assert hub.m_preempt_done.value(kind="temporal") == 1
        assert hub.m_drain.count() == 1 and hub.m_drain.sum() == 10.0
        assert hub.m_relaunches.value(reason="resume") == 1
        assert hub.m_pred_err.count() == 1
        assert hub.m_turnaround.count() == 1

        (outer,) = hub.tracer.spans_named("NN[large]")
        segments = [s.name for s in hub.tracer.spans_in(outer)]
        assert segments == ["wait", "execute", "drain", "wait", "resume"]
        assert not hub.tracer.open_spans()

    def test_spatial_story(self):
        hub = Observability()
        sim = FakeSim()
        inv = FakeInv()
        hub.on_arrived(sim, inv)
        hub.on_scheduled(sim, inv, False)
        hub.on_preempt_requested(sim, inv, "spatial", 5)
        hub.on_topped_up(sim, inv)
        hub.on_finished(sim, inv)
        assert hub.m_preempt_done.value(kind="spatial") == 1
        assert hub.m_relaunches.value(reason="top_up") == 1
        assert len(hub.tracer.spans_named("spatial_yield")) == 1
        assert not hub.tracer.open_spans()

    def test_finalize_closes_leftover_spans(self):
        hub = Observability()
        hub.on_arrived(FakeSim(3.0), FakeInv())
        assert hub.tracer.open_spans()
        hub.finalize(7.0)
        assert not hub.tracer.open_spans()
        assert {s.end_us for s in hub.tracer.spans} == {7.0}

    def test_bind_clock_rebinds_tracer(self):
        hub = Observability()
        hub.bind_clock(lambda: 42.0)
        assert hub.tracer.now == 42.0


class TestGlobalHub:
    def test_install_and_uninstall(self):
        assert window() == ()
        with observed() as hub:
            assert window() == (hub,)
            assert Simulator().bus.subscribers == [hub]
        assert window() == ()
        assert Simulator().bus.subscribers == []

    def test_observed_context_manager(self):
        with observed() as hub:
            sim = Simulator()
            sim.schedule(1.0, lambda: None, label="x")
            sim.run()
        assert hub.m_sim_events.value(kind="x") == 1

    def test_observed_accepts_existing_hub(self):
        mine = Observability()
        with observed(mine) as hub:
            assert hub is mine

    def test_observed_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with observed():
                raise RuntimeError("boom")
        assert window() == ()

    def test_nested_windows_restore_the_outer_one(self):
        with observed() as outer:
            with observed() as inner:
                both = Simulator()
            after = Simulator()
            assert window() == (outer,)
        assert both.bus.subscribers == [outer, inner]
        assert after.bus.subscribers == [outer]
        assert window() == ()

    def test_shared_hub_stamps_with_the_firing_simulator(self):
        """Two simulators on one hub: each record carries the time of
        the simulator that fired it, whichever was built last."""
        with observed() as hub:
            early, late = Simulator(), Simulator()
        late.clock.advance_to(500.0)
        early.schedule(10.0, lambda: None)
        early.run()
        late.bus.on_hw_queue[0](3)
        stamps = [(c.name, c.at_us) for c in hub.tracer.counters]
        assert stamps == [("hw_queue_depth", 500.0)]
        early.bus.on_hw_queue[0](1)
        assert hub.tracer.counters[-1].at_us == 10.0
