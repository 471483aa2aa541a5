"""Event-primitive unit tests: handles and lazy cancellation."""

from repro.gpu.events import Event, maybe_cancel
from repro.gpu.sim import Simulator


def make(time, seq=0, priority=0, label=""):
    return Event(time, seq, lambda: None, label=label, priority=priority)


class TestCancellation:
    def test_events_start_live(self):
        assert not make(1.0).cancelled

    def test_cancel_marks_dead(self):
        ev = make(1.0)
        ev.cancel()
        assert ev.cancelled


class TestHandle:
    """The :class:`Event` that scheduling returns is the caller's handle:
    there is no wrapper around it."""

    def test_handle_exposes_event_fields(self):
        sim = Simulator()
        ev = sim.schedule_at(4.0, lambda: None, "poll")
        assert type(ev) is Event
        assert ev.time == 4.0
        assert ev.label == "poll"
        assert not ev.cancelled

    def test_handle_cancel_reaches_event(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(4.0, lambda: fired.append(1))
        assert sim.pending() == 1
        ev.cancel()
        assert ev.cancelled
        assert sim.pending() == 0
        sim.run()
        assert fired == []

    def test_maybe_cancel_handles_none(self):
        maybe_cancel(None)  # must not raise

    def test_maybe_cancel_cancels_real_handle(self):
        ev = make(1.0)
        maybe_cancel(ev)
        assert ev.cancelled
