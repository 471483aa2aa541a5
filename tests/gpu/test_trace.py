"""Timeline-tracer tests."""

import pytest

from repro.errors import SimulationError
from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import LaunchConfig, TaskPool
from repro.gpu.sim import Simulator
from repro.gpu.trace import Interval, Timeline

LAUNCH = 50.0


class TestInterval:
    def test_duration_and_overlap(self):
        iv = Interval(0, 10.0, 30.0, "k")
        assert iv.duration_us == 20.0
        assert iv.overlaps(0.0, 15.0) == 5.0
        assert iv.overlaps(15.0, 25.0) == 10.0
        assert iv.overlaps(40.0, 50.0) == 0.0

    def test_backwards_interval_rejected(self):
        with pytest.raises(SimulationError):
            Interval(0, 10.0, 5.0, "k")

    def test_overlap_window_is_half_open(self):
        """[t0, t1): boundary-touching intervals contribute nothing, so
        adjacent windows tile a timeline without double-counting."""
        iv = Interval(0, 10.0, 30.0, "k")
        assert iv.overlaps(30.0, 40.0) == 0.0   # starts exactly at end
        assert iv.overlaps(0.0, 10.0) == 0.0    # ends exactly at start
        # tiling windows recover the full duration exactly once
        total = sum(
            iv.overlaps(t, t + 10.0) for t in (0.0, 10.0, 20.0, 30.0)
        )
        assert total == iv.duration_us

    def test_overlap_zero_length_interval(self):
        point = Interval(0, 20.0, 20.0, "k")
        assert point.duration_us == 0.0
        assert point.overlaps(10.0, 30.0) == 0.0
        assert point.overlaps(20.0, 20.0) == 0.0

    def test_overlap_never_negative(self):
        iv = Interval(0, 10.0, 30.0, "k")
        assert iv.overlaps(50.0, 40.0) == 0.0   # inverted window
        assert iv.overlaps(15.0, 15.0) == 0.0   # empty window inside


class TestTimelineRecording:
    def _run_one(self, make_kernel, tasks=8):
        sim = Simulator()
        gpu = SimulatedGPU(sim, small_test_gpu())
        tracer = Timeline()
        gpu.tracer = tracer  # the device-tracer spelling of subscribe
        k = make_kernel(task_us=10.0)
        gpu.launch(k, LaunchConfig.original(tasks))
        sim.run()
        tracer.close_open(sim.now)
        return sim, tracer

    def test_records_all_sm_time(self, make_kernel):
        sim, tracer = self._run_one(make_kernel, tasks=8)
        # 8 tasks x 10us = 80 SM-us of work exactly
        assert tracer.kernel_sm_time_us("k") == pytest.approx(80.0)
        assert len(tracer.kernels()) == 1

    def test_per_sm_split(self, make_kernel):
        sim, tracer = self._run_one(make_kernel, tasks=8)
        total = sum(tracer.sm_busy_us(sm) for sm in range(2))
        assert total == pytest.approx(80.0)

    def test_occupancy_series_sums(self, make_kernel):
        sim, tracer = self._run_one(make_kernel, tasks=8)
        series = tracer.occupancy_series(0, bucket_us=10.0)
        for shares in series:
            # 2 slots per SM: occupancy can reach 2.0
            assert sum(shares.values()) <= 2.0 + 1e-9

    def test_render_ascii_shape(self, make_kernel):
        sim, tracer = self._run_one(make_kernel, tasks=8)
        art = tracer.render_ascii(num_sms=2, bucket_us=10.0)
        lines = art.splitlines()
        assert lines[0].startswith("SM0 ")
        assert lines[1].startswith("SM1 ")
        assert "K=k" in art or "=k" in art

    def test_close_open_flushes_running_contexts(self, make_kernel):
        sim = Simulator()
        gpu = SimulatedGPU(sim, small_test_gpu())
        tracer = Timeline()
        sim.bus.subscribe(tracer)
        k = make_kernel(mode="persistent", task_us=10.0)
        gpu.launch(k, LaunchConfig.persistent(1000, 4), pool=TaskPool(1000),
                   flag=gpu.new_flag())
        sim.run(until=LAUNCH + 100.0)
        assert not tracer.intervals  # nothing retired yet
        tracer.close_open(sim.now)
        assert len(tracer.intervals) == 4

    def test_bad_bucket_rejected(self):
        with pytest.raises(SimulationError):
            Timeline().occupancy_series(0, 0.0)


class TestFig2:
    def test_fig2_report_shape(self):
        from repro.experiments import fig2

        report = fig2.run()
        by_mode = {r["mode"]: r for r in report.rows}
        # K1 finishes earlier under spatial (kept one SM busy)
        assert (
            by_mode["spatial"]["k1_finished_us"]
            < by_mode["temporal"]["k1_finished_us"]
        )
        # K2's turnaround is similar in both modes
        assert by_mode["spatial"]["k2_turnaround_us"] == pytest.approx(
            by_mode["temporal"]["k2_turnaround_us"], rel=0.5
        )
        # the Gantt art is embedded in the notes
        assert any("SM0" in n for n in report.notes)
