"""Event-engine tests: ordering, cancellation, determinism, limits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpu.sim import Simulator
from repro.obs.bus import SimHook


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(30.0, lambda: fired.append("c"))
        sim.schedule(10.0, lambda: fired.append("a"))
        sim.schedule(20.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self, sim):
        fired = []
        for name in "abcde":
            sim.schedule(5.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_priority_breaks_time_ties(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("low"), priority=1)
        sim.schedule(5.0, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(12.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [12.5]
        assert sim.now == 12.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(10.0, lambda: sim.schedule_at(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_call_soon_runs_at_current_time(self, sim):
        order = []

        def outer():
            sim.call_soon(lambda: order.append(("soon", sim.now)))
            order.append(("outer", sim.now))

        sim.schedule(7.0, outer)
        sim.run()
        assert order == [("outer", 7.0), ("soon", 7.0)]

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(2)))
        sim.run()
        assert fired == [2]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(10.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(10.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_not_counted_as_processed(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed_events == 1

    def test_peek_time_skips_cancelled(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 5.0


class TestRun:
    def test_run_until_stops_early(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.schedule(30.0, lambda: fired.append(2))
        end = sim.run(until=20.0)
        assert fired == [1]
        assert end == 20.0
        # remaining events still pending
        assert sim.pending() == 1
        sim.run()
        assert fired == [1, 2]

    def test_run_on_empty_queue_returns_now(self, sim):
        assert sim.run() == 0.0

    def test_run_is_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False

    def test_event_budget_enforced(self):
        sim = Simulator(max_events=10)

        def respawn():
            sim.schedule(1.0, respawn)

        sim.schedule(1.0, respawn)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_event_budget_exhaustion_carries_diagnostics(self):
        """A blown budget must name the culprit: the firing event, the
        backlog size, and the next queued labels."""
        sim = Simulator(max_events=3)
        for i in range(6):
            sim.schedule(float(i + 1), lambda: None, label=f"e{i}")
        with pytest.raises(SimulationError) as exc:
            sim.run()
        msg = str(exc.value)
        assert "event budget exceeded (3 events)" in msg
        assert "'e3'" in msg               # the event that blew the budget
        assert "t=4.000us" in msg          # clock had advanced to it
        assert "pending=2" in msg          # backlog size at failure
        assert "next events: [e4@5.000us, e5@6.000us]" in msg
        assert "runaway scheduling loop" in msg

    def test_max_events_is_adjustable_at_runtime(self):
        sim = Simulator(max_events=3)
        for _ in range(6):
            sim.schedule(1.0, lambda: None)
        sim.max_events = 10  # raise the cap before running
        sim.run()
        assert sim.processed_events == 6

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_events_rejects_nonpositive(self, sim, bad):
        with pytest.raises(SimulationError, match="positive"):
            sim.max_events = bad
        with pytest.raises(SimulationError, match="positive"):
            Simulator(max_events=bad)

    def test_trace_hook_sees_events(self, sim):
        seen = []

        class Labels(SimHook):
            def on_event(self, ev):
                seen.append(ev.label)

        sim.bus.subscribe(Labels())
        sim.schedule(1.0, lambda: None, label="x")
        sim.run()
        assert seen == ["x"]


class TestDeterminism:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_firing_order_is_sorted_and_stable(self, delays):
        sim = Simulator()
        fired = []
        for idx, d in enumerate(delays):
            sim.schedule(d, lambda i=idx, t=d: fired.append((t, i)))
        sim.run()
        assert fired == sorted(fired)  # by (time, insertion index)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_clock_is_monotone(self, delays):
        sim = Simulator()
        observed = []
        for d in delays:
            sim.schedule(d, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
