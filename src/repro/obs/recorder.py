"""The observability hub: one facade the instrumented layers talk to.

Instrumentation sites (simulator, device, SMs, CTA contexts, runtime
engine) never touch metric families or spans directly — they report
through their simulator's bus (:mod:`repro.obs.bus`), and an
:class:`Observability` hub is one subscriber on it, maintaining the
metrics catalog and the span model in one place. An unobserved run has
no hub on the bus and pays one guard per site (asserted <5% end-to-end
by ``benchmarks/test_obs_overhead.py``).

A hub shared by several simulators time-stamps each record with the
simulator that fired the hook. :func:`observed` subscribes a hub to
every simulator built inside its window, which is how ``flep stats``
aggregates metrics across every simulation an experiment runs without
threading a registry through the harness.

Span model (exported via ``tracer.chrome_trace()``):

* one ``invocation`` span per intercepted kernel invocation, on its own
  named track inside its submitting process;
* ``wait`` / ``execute`` / ``resume`` segments inside it, following the
  tracker's (Figure 5) state machine;
* a ``drain`` sub-span from each temporal preemption request to the
  drain completing, nested inside the running segment;
* a ``spatial_yield`` sub-span while the victim cedes SMs to a guest;
* instant markers for preemption requests and counter tracks for queue
  depth and CTA residency.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from .bus import SimHook, event_kind, subscribed
from .metrics import MetricsRegistry
from .tracer import Span, SpanTracer

#: Wider buckets (µs) for end-to-end invocation times.
TURNAROUND_US_BUCKETS: Tuple[float, ...] = (
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0, 50_000.0,
    100_000.0, 500_000.0, 1_000_000.0, 5_000_000.0,
)


class Observability(SimHook):
    """Live hub: a metrics registry plus a span tracer, subscribed to
    one or more simulators' buses."""

    takes_sim = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(clock if clock is not None else lambda: 0.0)
        self._register_catalog()
        #: per-invocation open spans: inv_id -> {"inv": .., "seg": ..,
        #: "drain": .., "spatial": ..}
        self._inv_spans: Dict[int, Dict[str, Span]] = {}
        self._resident_ctas = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the span tracer's own clock at a (new) simulation clock.

        Bus hooks time-stamp with the firing simulator; the clock serves
        what a front-end records directly (request spans) and the
        default of :meth:`finalize`."""
        self.tracer._clock = clock

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def _register_catalog(self) -> None:
        m = self.metrics
        self.m_sim_events = m.counter(
            "flep_sim_events_total",
            "discrete events executed by the simulator, by event kind",
            ("kind",),
        )
        self.m_launches = m.counter(
            "flep_kernel_launches_total",
            "kernel-launch commands sent to the device, by kernel image",
            ("kernel",),
        )
        self.m_relaunches = m.counter(
            "flep_kernel_relaunches_total",
            "grids relaunched by the runtime (resume after a temporal "
            "preemption, or top-up after a spatial guest left)",
            ("reason",),
        )
        self.m_cta_admissions = m.counter(
            "flep_cta_admissions_total",
            "CTA contexts admitted onto SMs",
        )
        self.m_sm_resident = m.gauge(
            "flep_sm_resident_ctas",
            "CTA contexts currently resident, per SM",
            ("sm",),
        )
        self.m_hw_queue = m.gauge(
            "flep_hw_queue_depth",
            "grids in the device-wide hardware FIFO",
        )
        self.m_task_pulls = m.counter(
            "flep_task_pulls_total",
            "tasks pulled from persistent-kernel task pools",
        )
        self.m_flag_polls = m.counter(
            "flep_flag_polls_total",
            "pinned-memory preemption-flag polls performed by CTAs",
        )
        self.m_preempt_req = m.counter(
            "flep_preemptions_requested_total",
            "preemption requests issued by the scheduler, by kind",
            ("kind",),
        )
        self.m_preempt_done = m.counter(
            "flep_preemptions_completed_total",
            "preemptions that finished (temporal: drained; spatial: "
            "victim topped back up), by kind",
            ("kind",),
        )
        self.m_drain = m.histogram(
            "flep_drain_latency_us",
            "request-to-fully-yielded drain latency of temporal "
            "preemptions (µs)",
        )
        self.m_pred_err = m.histogram(
            "flep_predictor_abs_error_us",
            "absolute error |T_e - measured GPU time| of the duration "
            "predictor at invocation completion (µs)",
        )
        self.m_invocations = m.counter(
            "flep_invocations_total",
            "kernel invocations intercepted by the runtime",
        )
        self.m_finished = m.counter(
            "flep_invocations_finished_total",
            "kernel invocations that ran to completion",
        )
        self.m_queue_depth = m.gauge(
            "flep_queue_depth",
            "invocations waiting in the scheduling policy's queues",
            ("policy",),
        )
        self.m_wait = m.histogram(
            "flep_invocation_wait_us",
            "accumulated scheduler wait T_w at completion (µs)",
            buckets=TURNAROUND_US_BUCKETS,
        )
        self.m_turnaround = m.histogram(
            "flep_invocation_turnaround_us",
            "arrival-to-completion turnaround (µs)",
            buckets=TURNAROUND_US_BUCKETS,
        )

    # ------------------------------------------------------------------
    # bus hooks (repro.obs.bus): the firing simulator comes first, and
    # every timestamp is read from it
    # ------------------------------------------------------------------
    def on_event(self, sim, ev) -> None:
        self.m_sim_events.inc(kind=event_kind(ev.label))

    def on_launch(self, sim, kernel_name: str) -> None:
        self.m_launches.inc(kernel=kernel_name)

    def kernel_relaunched(self, reason: str) -> None:
        self.m_relaunches.inc(reason=reason)

    def on_hw_queue(self, sim, depth: int) -> None:
        self.m_hw_queue.set(depth)
        self.tracer.counter_at(
            "hw_queue_depth", sim.now, process="device", grids=depth
        )

    def on_sm_admit(self, sim, sm_id: int, resident: int) -> None:
        self.m_cta_admissions.inc()
        self.m_sm_resident.set(resident, sm=str(sm_id))
        self._resident_ctas += 1
        self.tracer.counter_at(
            "resident_ctas", sim.now, process="device",
            ctas=self._resident_ctas,
        )

    def on_sm_release(self, sim, sm_id: int, resident: int) -> None:
        self.m_sm_resident.set(resident, sm=str(sm_id))
        self._resident_ctas -= 1
        self.tracer.counter_at(
            "resident_ctas", sim.now, process="device",
            ctas=self._resident_ctas,
        )

    def on_batch(self, sim, tasks: int, polls: int) -> None:
        self.m_task_pulls.inc(tasks)
        if polls:
            self.m_flag_polls.inc(polls)

    # -- invocation lifecycle -> spans + metrics ---------------------------
    def _state(self, inv_id: int) -> Dict[str, Span]:
        return self._inv_spans.setdefault(inv_id, {})

    def on_arrived(self, sim, inv) -> None:
        now = sim.now
        self.m_invocations.inc()
        state = self._state(inv.inv_id)
        label = f"{inv.kspec.name}[{inv.inp.name}]"
        self.tracer.name_track(
            inv.process, inv.inv_id, f"inv#{inv.inv_id} {label}"
        )
        state["inv"] = self.tracer.begin(
            label,
            cat="invocation",
            process=inv.process,
            track=inv.inv_id,
            at_us=now,
            priority=inv.priority,
            predicted_us=inv.record.predicted_us,
        )
        state["seg"] = self.tracer.begin(
            "wait", cat="segment", process=inv.process, track=inv.inv_id,
            at_us=now,
        )

    def on_scheduled(self, sim, inv, resumed: bool) -> None:
        now = sim.now
        state = self._state(inv.inv_id)
        self._end_segment(state, now)
        name = "resume" if resumed else "execute"
        state["seg"] = self.tracer.begin(
            name, cat="segment", process=inv.process, track=inv.inv_id,
            at_us=now,
        )
        if resumed:
            self.kernel_relaunched("resume")

    def on_preempt_requested(self, sim, inv, kind: str, yield_sms: int) -> None:
        now = sim.now
        self.m_preempt_req.inc(kind=kind)
        self.tracer.instant(
            f"preempt_{kind}",
            cat="preempt",
            process=inv.process,
            track=inv.inv_id,
            at_us=now,
            yield_sms=yield_sms,
        )
        state = self._state(inv.inv_id)
        if kind == "temporal":
            if "drain" not in state:
                state["drain"] = self.tracer.begin(
                    "drain",
                    cat="preempt",
                    process=inv.process,
                    track=inv.inv_id,
                    at_us=now,
                    yield_sms=yield_sms,
                )
        elif "spatial" not in state:
            state["spatial"] = self.tracer.begin(
                "spatial_yield",
                cat="preempt",
                process=inv.process,
                track=inv.inv_id,
                at_us=now,
                yield_sms=yield_sms,
            )

    def on_drained(self, sim, inv, latency_us: Optional[float]) -> None:
        now = sim.now
        self.m_preempt_done.inc(kind="temporal")
        if latency_us is not None:
            self.m_drain.observe(latency_us)
        state = self._state(inv.inv_id)
        drain = state.pop("drain", None)
        if drain is not None:
            self.tracer.end(drain, at_us=now, latency_us=latency_us)
        self._end_segment(state, now)
        state["seg"] = self.tracer.begin(
            "wait", cat="segment", process=inv.process, track=inv.inv_id,
            at_us=now,
        )

    def on_topped_up(self, sim, inv) -> None:
        """A spatial guest left; the victim reclaimed its SMs."""
        self.m_preempt_done.inc(kind="spatial")
        self.kernel_relaunched("top_up")
        state = self._state(inv.inv_id)
        spatial = state.pop("spatial", None)
        if spatial is not None:
            self.tracer.end(spatial, at_us=sim.now)

    def on_finished(self, sim, inv) -> None:
        now = sim.now
        self.m_finished.inc()
        record = inv.record
        err = abs(record.predicted_us - record.gpu_time_us)
        self.m_pred_err.observe(err)
        self.m_wait.observe(record.waited_us)
        if record.turnaround_us is not None:
            self.m_turnaround.observe(record.turnaround_us)
        state = self._inv_spans.pop(inv.inv_id, {})
        for key in ("drain", "spatial", "seg"):
            span = state.pop(key, None)
            if span is not None:
                self.tracer.end(span, at_us=now)
        outer = state.pop("inv", None)
        if outer is not None:
            self.tracer.end(
                outer,
                at_us=now,
                waited_us=record.waited_us,
                preemptions=record.preemptions,
                predictor_abs_error_us=err,
            )

    def on_queue_depth(self, sim, policy_name: str, depth: int) -> None:
        self.m_queue_depth.set(depth, policy=policy_name)
        self.tracer.counter_at(
            "policy_queue_depth", sim.now, process="scheduler",
            waiting=depth,
        )

    def _end_segment(self, state: Dict[str, Span], now: float) -> None:
        seg = state.pop("seg", None)
        if seg is not None:
            self.tracer.end(seg, at_us=now)

    # ------------------------------------------------------------------
    def finalize(self, at_us: Optional[float] = None) -> None:
        """Close any spans left open (end of a run / horizon cut) at
        ``at_us`` (default: the tracer's clock)."""
        self._inv_spans.clear()
        self.tracer.close_open(at_us)


def resolve_hub(sim, observability) -> Optional[Observability]:
    """The hub a front-end built on ``sim`` records into.

    An :class:`Observability` instance or ``True`` (a fresh hub) is
    bound to the simulator's clock and subscribed to its bus;
    ``None``/``False`` yields the hub the open window already subscribed
    (see :func:`observed`), if any."""
    if observability:
        hub = (
            observability if isinstance(observability, Observability)
            else Observability()
        )
        hub.bind_clock(lambda: sim.now)
        sim.bus.subscribe(hub)
        return hub
    return sim.bus.find(Observability)


@contextmanager
def observed(hub: Optional[Observability] = None):
    """Subscribe a hub to every simulator built inside the window
    (:func:`repro.obs.bus.subscribed`); nestable::

        with observed() as hub:
            EXPERIMENTS["fig8"].run()
        print(hub.metrics.format_summary())
    """
    hub = hub if hub is not None else Observability()
    with subscribed(hub):
        yield hub
