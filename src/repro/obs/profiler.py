"""Low-overhead self-profiler for the discrete-event hot path.

Where :mod:`repro.obs.recorder` answers "what did the *simulated system*
do?", this module answers "how fast is the *simulator itself*?" — the
instrument every performance optimisation of the event core is measured
with (see ROADMAP's speed-overhaul item and ``flep bench``).

A :class:`SimProfiler` hangs off the same guard pattern as the
observability hub: hot sites (the simulator event loop, SM admission,
the CTA batch loop, the runtime's preemption mechanics) check a single
``prof.enabled`` attribute and call typed hooks only when a live
profiler is installed. Uninstrumented runs share the module-level
:data:`NULL_PROFILER`, whose hooks are all no-ops, so the uninstalled
cost is one attribute check per site (asserted ~0% end to end by
``benchmarks/test_obs_overhead.py``).

Unlike the metrics registry, the profiler's counters are plain ints and
dicts — no label-key validation, no Prometheus families — so the
*installed* cost stays a couple of dict operations per event (<5% of a
co-run, also asserted by the overhead bench). What it records:

* events fired, by bounded-cardinality label class, via the simulator's
  own :class:`~repro.gpu.sim.EventLoopStats` (one shared counter — the
  ``max_events`` exhaustion diagnostics and the profiler never
  double-count);
* event-queue depth high-water mark plus a decimated depth timeline;
* per-SM occupancy samples and drain-stall spans (preemption request to
  fully yielded), exportable next to the span tracer's Chrome tracks;
* task-pull / flag-poll counts from the persistent-kernel hot loop;
* preemption-latency histograms per mechanism (temporal / spatial);
* wall time and simulated time, hence events/sec and simulated-seconds
  per wall-second — the two headline metrics of ``BENCH_*.json``.

Quick start::

    from repro.core.flep import FlepSystem
    from repro.obs.profiler import SimProfiler

    prof = SimProfiler()
    system = FlepSystem(policy="hpf", profiler=prof)
    with prof:                      # wall-clock window
        system.submit_at(0.0, "batch", "NN", "large", priority=0)
        system.submit_at(200.0, "rt", "SPMV", "small", priority=1)
        system.run()
    print(prof.format_summary())

A profiler can also be installed process-globally (the way ``flep run
--json`` aggregates an ``engine`` block across every simulator an
experiment builds)::

    with profiled() as prof:
        EXPERIMENTS["fig8"].run()
    print(prof.engine_block())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ObservabilityError

#: Fixed preemption-latency buckets (µs): FLEP drains span tens of µs
#: (trivial inputs) to tens of ms (Table 1's worst cases).
LATENCY_US_BUCKETS: Tuple[float, ...] = (
    10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0,
    10_000.0, 50_000.0, 100_000.0, 500_000.0,
)


class LatencyStat:
    """A tiny fixed-bucket histogram (no labels, no registry)."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self):
        self.bucket_counts = [0] * (len(LATENCY_US_BUCKETS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value_us: float) -> None:
        """Record one latency sample (µs)."""
        idx = len(LATENCY_US_BUCKETS)
        for i, bound in enumerate(LATENCY_US_BUCKETS):
            if value_us <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value_us
        if value_us < self.min:
            self.min = value_us
        if value_us > self.max:
            self.max = value_us

    @property
    def mean(self) -> float:
        """Mean of the recorded samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-data snapshot (buckets are upper bounds, +Inf last)."""
        return {
            "buckets_us": list(LATENCY_US_BUCKETS),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum_us": self.sum,
            "mean_us": self.mean,
            "min_us": self.min if self.count else 0.0,
            "max_us": self.max,
        }


class SimProfiler:
    """Hot-path profiler: one instance aggregates any number of runs.

    Attach it to a system (``FlepSystem(profiler=prof)``) or install it
    process-globally (:func:`install_global_profiler` /
    :func:`profiled`); every simulator built while it is installed
    registers itself via :meth:`attach`. Wall time accumulates between
    :meth:`start` and :meth:`stop` (or across ``with prof:`` blocks).
    """

    #: Hot paths check this before calling any hook.
    enabled = True

    def __init__(self, sample_every: int = 64, max_samples: int = 20_000):
        if sample_every <= 0:
            raise ObservabilityError("sample_every must be positive")
        self.sample_every = sample_every
        self.max_samples = max_samples
        #: (sim, processed/scheduled/cancelled baselines, now at attach)
        self._sims: List[Tuple[object, int, int, int, float]] = []
        self._clock: Callable[[], float] = lambda: 0.0
        # counters (plain ints/dicts: the installed hot cost). Events are
        # counted by *raw label* — one dict op on the hot path — and only
        # collapsed to bounded kind classes when read (events_by_kind).
        self._by_label: Dict[str, int] = {}
        self._until_sample = sample_every
        self.task_pulls = 0
        self.flag_polls = 0
        self.cta_admissions = 0
        #: batches retired inside macro-event fast-forward (no per-batch
        #: event fired for them); surfaced as the ``macro-batch`` kind
        self.batches_collapsed = 0
        self.preempt_requested: Dict[str, int] = {}
        self.preempt_completed: Dict[str, int] = {}
        # timelines (bounded; ``dropped_samples`` counts the overflow
        # so truncation is never silent)
        self.queue_samples: List[Tuple[float, int]] = []
        self.sm_samples: List[Tuple[float, int, int]] = []
        self.drain_stalls: List[Tuple[str, int, float, float]] = []
        self.dropped_samples = 0
        self._open_stalls: Dict[Tuple[str, int], float] = {}
        # latency histograms per preemption mechanism
        self.latency: Dict[str, LatencyStat] = {
            "temporal": LatencyStat(),
            "spatial": LatencyStat(),
        }
        # wall-clock accounting
        self._wall_s = 0.0
        self._wall_started: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Register a simulator; its event counters are read *shared*
        (no copy) from ``sim.stats``, baselined at attach time."""
        st = sim.stats
        self._sims.append(
            (sim, st.processed, st.scheduled, st.cancelled, sim.now)
        )
        self._clock = lambda: sim.now

    def start(self) -> None:
        """Open a wall-clock measurement window (idempotent)."""
        if self._wall_started is None:
            self._wall_started = time.perf_counter()

    def stop(self) -> None:
        """Close the wall-clock window, accumulating elapsed time."""
        if self._wall_started is not None:
            self._wall_s += time.perf_counter() - self._wall_started
            self._wall_started = None

    def __enter__(self) -> "SimProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # hot hooks (call sites guard with ``prof.enabled``)
    # ------------------------------------------------------------------
    def on_event(self, label: str, queue_depth: int) -> None:
        """One simulator event fired; ``queue_depth`` is the heap length
        after the pop. Totals come from the shared ``EventLoopStats`` —
        this hook only classifies, and is deliberately minimal: one dict
        increment plus a decimation countdown."""
        by_label = self._by_label
        by_label[label] = by_label.get(label, 0) + 1
        self._until_sample -= 1
        if self._until_sample <= 0:
            self._until_sample = self.sample_every
            if len(self.queue_samples) < self.max_samples:
                self.queue_samples.append((self._clock(), queue_depth))
            else:
                self.dropped_samples += 1

    def on_sm_admit(self, sm_id: int, resident: int) -> None:
        """A CTA context was admitted onto ``sm_id``."""
        self.cta_admissions += 1
        self._sm_sample(sm_id, resident)

    def on_sm_release(self, sm_id: int, resident: int) -> None:
        """A CTA context left ``sm_id``."""
        self._sm_sample(sm_id, resident)

    def on_tasks_pulled(self, n: int) -> None:
        """``n`` tasks were pulled from a persistent task pool."""
        self.task_pulls += n

    def on_flag_polls(self, n: int) -> None:
        """``n`` pinned-memory preemption-flag polls were performed."""
        self.flag_polls += n

    def on_batch(self, tasks: int, polls: int) -> None:
        """One persistent-kernel batch retired: ``tasks`` pulled,
        ``polls`` flag polls. The combined form the CTA batch loop calls
        (one hook invocation per batch instead of two)."""
        self.task_pulls += tasks
        self.flag_polls += polls

    def on_macro_collapse(self, batches: int) -> None:
        """``batches`` per-batch events were collapsed into a macro-event
        fast-forward flush (:mod:`repro.gpu.macro`). Their task/poll
        totals were already charged through :meth:`on_batch`; this only
        records how much per-batch eventing was avoided."""
        self.batches_collapsed += batches

    def on_preempt_requested(self, kind: str, inv_id: int) -> None:
        """A preemption was requested; opens the drain-stall span."""
        self.preempt_requested[kind] = self.preempt_requested.get(kind, 0) + 1
        self._open_stalls[(kind, inv_id)] = self._clock()

    def on_drained(self, inv_id: int) -> None:
        """A temporally preempted invocation is fully off the GPU."""
        self._close_stall("temporal", inv_id)

    def on_spatial_reclaimed(self, inv_id: int) -> None:
        """A spatial victim got its yielded SMs back (guest finished)."""
        self._close_stall("spatial", inv_id)

    def _close_stall(self, kind: str, inv_id: int) -> None:
        started = self._open_stalls.pop((kind, inv_id), None)
        if started is None:
            return
        now = self._clock()
        self.preempt_completed[kind] = self.preempt_completed.get(kind, 0) + 1
        self.latency[kind].observe(now - started)
        if len(self.drain_stalls) < self.max_samples:
            self.drain_stalls.append((kind, inv_id, started, now))
        else:
            self.dropped_samples += 1

    def _sm_sample(self, sm_id: int, resident: int) -> None:
        if len(self.sm_samples) < self.max_samples:
            self.sm_samples.append((self._clock(), sm_id, resident))
        else:
            self.dropped_samples += 1

    # ------------------------------------------------------------------
    # derived readings
    # ------------------------------------------------------------------
    @property
    def events_by_kind(self) -> Dict[str, int]:
        """Per-label counts collapsed to bounded kind classes (computed
        at read time; the hot path only bumps raw-label counters)."""
        out: Dict[str, int] = {}
        for label, n in self._by_label.items():
            kind = _event_kind(label)
            out[kind] = out.get(kind, 0) + n
        if self.batches_collapsed:
            out["macro-batch"] = (
                out.get("macro-batch", 0) + self.batches_collapsed
            )
        return out

    @property
    def events_total(self) -> int:
        """Events executed across every attached simulator, read from
        the engines' own counters (single source of truth)."""
        return sum(s.stats.processed - base for s, base, _, _, _ in self._sims)

    @property
    def events_scheduled(self) -> int:
        """Events pushed onto the heaps across attached simulators."""
        return sum(s.stats.scheduled - base for s, _, base, _, _ in self._sims)

    @property
    def events_cancelled(self) -> int:
        """Cancelled events dropped from the heaps across attached
        simulators (each counted when it reaches its heap's head)."""
        return sum(s.stats.cancelled - base for s, _, _, base, _ in self._sims)

    @property
    def peak_queue_depth(self) -> int:
        """Highest heap length seen by any attached simulator."""
        return max(
            (s.stats.peak_pending for s, _, _, _, _ in self._sims), default=0
        )

    @property
    def sim_elapsed_us(self) -> float:
        """Simulated µs advanced across attached simulators."""
        return sum(s.now - at for s, _, _, _, at in self._sims)

    @property
    def wall_s(self) -> float:
        """Accumulated wall seconds (a still-open window counts)."""
        open_s = (
            time.perf_counter() - self._wall_started
            if self._wall_started is not None
            else 0.0
        )
        return self._wall_s + open_s

    @property
    def events_per_sec(self) -> float:
        """Events/sec over the measured wall window (0 if unmeasured)."""
        wall = self.wall_s
        return self.events_total / wall if wall > 0 else 0.0

    @property
    def sim_us_per_wall_s(self) -> float:
        """Simulated µs advanced per wall second (0 if unmeasured)."""
        wall = self.wall_s
        return self.sim_elapsed_us / wall if wall > 0 else 0.0

    @property
    def num_sims(self) -> int:
        """How many simulators registered with this profiler."""
        return len(self._sims)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def engine_block(self) -> Dict[str, object]:
        """The compact ``engine`` dict that ``flep run --json`` and
        ``flep serve --json`` attach to every report."""
        return {
            "events": self.events_total,
            "events_per_sec": self.events_per_sec,
            "wall_s": self.wall_s,
            "peak_queue_depth": self.peak_queue_depth,
            "sim_us": self.sim_elapsed_us,
            "sim_us_per_wall_s": self.sim_us_per_wall_s,
            "sims": self.num_sims,
        }

    def snapshot(self) -> Dict[str, object]:
        """Full plain-data snapshot (the bench report's raw section)."""
        return {
            **self.engine_block(),
            "events_scheduled": self.events_scheduled,
            "events_cancelled": self.events_cancelled,
            "events_by_kind": dict(
                sorted(self.events_by_kind.items())
            ),
            "task_pulls": self.task_pulls,
            "flag_polls": self.flag_polls,
            "cta_admissions": self.cta_admissions,
            "batches_collapsed": self.batches_collapsed,
            "preempt_requested": dict(sorted(self.preempt_requested.items())),
            "preempt_completed": dict(sorted(self.preempt_completed.items())),
            "preempt_latency_us": {
                kind: stat.as_dict()
                for kind, stat in sorted(self.latency.items())
                if stat.count
            },
            "queue_samples": len(self.queue_samples),
            "sm_samples": len(self.sm_samples),
            "drain_stalls": len(self.drain_stalls),
            "dropped_samples": self.dropped_samples,
        }

    def format_summary(self) -> str:
        """Human-readable profiler report (``flep stats --profile``)."""
        lines = [
            "== simulator self-profile ==",
            f"events          {self.events_total}"
            f" ({self.events_per_sec:,.0f}/s over {self.wall_s:.3f}s wall,"
            f" {self.num_sims} sim(s))",
            f"simulated time  {self.sim_elapsed_us / 1e6:.6f}s"
            f" ({self.sim_us_per_wall_s / 1e6:.3f} sim-s per wall-s)",
            f"queue depth     peak {self.peak_queue_depth}"
            f" (scheduled {self.events_scheduled},"
            f" cancelled {self.events_cancelled})",
            f"hot loop        task_pulls={self.task_pulls}"
            f" flag_polls={self.flag_polls}"
            f" cta_admissions={self.cta_admissions}"
            f" batches_collapsed={self.batches_collapsed}",
        ]
        for kind in sorted(self.events_by_kind):
            lines.append(
                f"  event[{kind:<12s}] {self.events_by_kind[kind]}"
            )
        for kind, stat in sorted(self.latency.items()):
            if not stat.count:
                continue
            req = self.preempt_requested.get(kind, 0)
            lines.append(
                f"preempt[{kind}] requested={req} completed={stat.count} "
                f"latency mean={stat.mean:.0f}us "
                f"min={stat.min:.0f}us max={stat.max:.0f}us"
            )
        if self.dropped_samples:
            lines.append(
                f"(timelines truncated: {self.dropped_samples} samples "
                f"dropped beyond max_samples={self.max_samples})"
            )
        return "\n".join(lines)

    def export_to_tracer(self, tracer) -> int:
        """Render the profiler's timelines next to the span tracer's
        tracks (a ``profiler`` process in the Chrome trace): the event
        queue depth as a counter track, per-SM occupancy as counter
        tracks, drain stalls as retrospective spans. Returns the number
        of trace records added."""
        n = 0
        for at_us, depth in self.queue_samples:
            tracer.counter_at(
                "event_queue_depth", at_us, process="profiler", depth=depth
            )
            n += 1
        for at_us, sm_id, resident in self.sm_samples:
            tracer.counter_at(
                f"sm{sm_id}_resident", at_us, process="profiler",
                ctas=resident,
            )
            n += 1
        for kind, inv_id, start_us, end_us in self.drain_stalls:
            tracer.complete(
                f"{kind}_stall inv#{inv_id}",
                start_us,
                end_us,
                cat="profiler",
                process="profiler",
                track=0,
                latency_us=end_us - start_us,
            )
            n += 1
        return n


def _event_kind(label: str) -> str:
    """Collapse an event label to a bounded-cardinality class:
    ``"NN__flep/ctx3/batch" -> "batch"``, ``"launch:NN" -> "launch"``."""
    if not label:
        return "unlabelled"
    return label.rsplit("/", 1)[-1].split(":", 1)[0]


class NullSimProfiler(SimProfiler):
    """The default profiler: every hook is a no-op.

    Mirrors :class:`~repro.obs.recorder.NullObservability` — uninstalled
    hot paths pay one ``prof.enabled`` attribute check per site.
    """

    enabled = False

    def attach(self, sim):  # noqa: D102 - no-op hooks
        pass

    def on_event(self, label, queue_depth):
        pass

    def on_sm_admit(self, sm_id, resident):
        pass

    def on_sm_release(self, sm_id, resident):
        pass

    def on_tasks_pulled(self, n):
        pass

    def on_flag_polls(self, n):
        pass

    def on_batch(self, tasks, polls):
        pass

    def on_macro_collapse(self, batches):
        pass

    def on_preempt_requested(self, kind, inv_id):
        pass

    def on_drained(self, inv_id):
        pass

    def on_spatial_reclaimed(self, inv_id):
        pass

    def start(self):
        pass

    def stop(self):
        pass


#: Shared no-op profiler used as the default everywhere.
NULL_PROFILER = NullSimProfiler()

# ---------------------------------------------------------------------------
# process-global profiler (how `flep run/serve/bench` profile whole runs)
# ---------------------------------------------------------------------------
_GLOBAL_PROFILER: Optional[SimProfiler] = None


def install_global_profiler(prof: SimProfiler) -> SimProfiler:
    """Make ``prof`` the default profiler for new systems."""
    global _GLOBAL_PROFILER
    _GLOBAL_PROFILER = prof
    return prof


def uninstall_global_profiler() -> None:
    """Remove the process-global profiler (new systems go back to null)."""
    global _GLOBAL_PROFILER
    _GLOBAL_PROFILER = None


def get_global_profiler() -> Optional[SimProfiler]:
    """The currently installed process-global profiler, if any."""
    return _GLOBAL_PROFILER


@contextmanager
def profiled(prof: Optional[SimProfiler] = None):
    """Install a profiler globally (and run its wall clock) for the
    duration::

        with profiled() as prof:
            EXPERIMENTS["fig8"].run()
        print(prof.format_summary())
    """
    prof = prof if prof is not None else SimProfiler()
    install_global_profiler(prof)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
        uninstall_global_profiler()
