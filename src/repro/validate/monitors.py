"""Online invariant monitors.

A :class:`Monitor` re-checks one class of invariant after every simulated
event; a :class:`MonitorSet` owns a group of monitors and subscribes
each of them to a :class:`~repro.gpu.sim.Simulator`'s bus
(:mod:`repro.obs.bus`), next to whatever else listens there, so the
event loop calls every monitor's ``on_event`` directly. Monitors are
**zero-cost when not installed**: no hot path in the simulator, device
or runtime knows this module exists.

Installed, they are **O(live state) per event, never O(history)**: each
check walks only what is live — resident CTAs (through the device
queue's grids), unfinished task pools and invocations, the dispatcher's
FIFO, the flat per-SM occupancy arrays — so always-on checking keeps a
long run linear. A task pool gets a **final check when it completes**
(``done == total``, ``outstanding == 0``, no queued grid drawing on it)
and is then retired; end-of-run checks cover what is still live.

The invariant catalogue:

================  =====================================================
Monitor           Invariant
================  =====================================================
resource-budget   No SM ever exceeds its CTA-slot / thread / warp /
                  register / shared-memory budget; accounting never
                  goes negative.
work-conservation Every task pool satisfies
                  ``done + outstanding + remaining == total`` at every
                  event; ``done`` is monotone (a task commits exactly
                  once) and every pool drains (``outstanding == 0``) by
                  the end of the run.
monotonic-time    Event timestamps never decrease, and never lag the
                  simulated clock.
spatial-partition A persistent CTA resident on SM ``s`` while the
                  device-visible flag demands ``s < spa_P`` must leave
                  within one poll period (``L`` tasks + one pinned
                  read) — the ``%smid`` partition of Figure 4 (c).
hpf-contract      While a lower-priority kernel runs, no
                  higher-priority invocation stays in the wait queues
                  beyond the preemption-latency bound (Figure 6).
ffs-contract      Over any window in which every active class has
                  continuous backlog, each class's GPU-time share
                  matches its weight share within
                  ``max_overhead`` (+ one-epoch granularity slack).
================  =====================================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..errors import InvariantViolation, ValidationError
from ..gpu.kernel import KernelMode
from ..gpu.sim import Simulator
from ..obs.bus import SimHook
from ..runtime.tracker import InvocationState

__all__ = [
    "Monitor",
    "MonitorSet",
    "ResourceBudgetMonitor",
    "WorkConservationMonitor",
    "MonotonicTimeMonitor",
    "SpatialPartitionMonitor",
    "HPFContractMonitor",
    "FFSShareMonitor",
    "install_monitors",
    "install_invariant_checker",
    "off_by_one_spec",
]


class Monitor(SimHook):
    """One online invariant: a bus subscriber whose ``on_event`` (called
    just before each event fires, ``None`` from :meth:`MonitorSet.check_now`)
    inspects the system and raises on violation."""

    name = "abstract"

    def finalize(self, now: float) -> None:
        """End-of-run checks (quiescence, completeness, share errors)."""

    def fail(self, message: str, **context) -> None:
        raise InvariantViolation(message, monitor=self.name, **context)


class MonitorSet:
    """A group of monitors subscribed to one simulator's bus. Sets are
    independent: installing or uninstalling one, in any order, leaves
    every other subscriber as it was."""

    def __init__(self, sim: Simulator, monitors: List[Monitor]):
        self.sim = sim
        self.monitors = list(monitors)
        self._installed = False

    def install(self) -> "MonitorSet":
        """Subscribe every monitor to the simulator's bus."""
        if self._installed:
            raise ValidationError("monitor set already installed")
        self.sim.bus.subscribe(*self.monitors)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.sim.bus.unsubscribe(*self.monitors)
            self._installed = False

    def finalize(self) -> None:
        """Run end-of-run checks. Call after the simulation drains."""
        now = self.sim.now
        for m in self.monitors:
            m.finalize(now)

    def check_now(self) -> None:
        """Run every per-event check once, outside the event loop."""
        for m in self.monitors:
            m.on_event(None)

    def __enter__(self) -> "MonitorSet":
        if not self._installed:
            self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()
        if exc_type is None:
            self.finalize()

    def __iter__(self):
        return iter(self.monitors)


# ---------------------------------------------------------------------------
# device-level monitors
# ---------------------------------------------------------------------------
def off_by_one_spec(spec):
    """A copy of ``spec`` with every per-SM budget reduced by one — the
    canonical *planted violation* for self-testing the monitors: any SM
    packed to a real budget limit trips the tightened one."""
    return replace(
        spec,
        max_ctas_per_sm=spec.max_ctas_per_sm - 1,
        max_threads_per_sm=spec.max_threads_per_sm - 1,
        max_warps_per_sm=spec.max_warps_per_sm - 1,
        registers_per_sm=spec.registers_per_sm - 1,
        shared_mem_per_sm=spec.shared_mem_per_sm - 1,
    )


class ResourceBudgetMonitor(Monitor):
    """Per-SM budgets are never exceeded; accounting never goes negative.

    ``spec`` defaults to the device's own spec; passing a different one
    (e.g. :func:`off_by_one_spec`) plants a violation for self-tests.
    """

    name = "resource-budget"

    def __init__(self, gpu, spec=None):
        self.gpu = gpu
        self.spec = spec if spec is not None else gpu.spec
        self._residents = [sm.resident for sm in gpu.sms]

    def on_event(self, ev) -> None:
        # C-level max/min over the device's flat occupancy arrays; the
        # per-SM walk only runs to name the SM once something is wrong
        spec = self.spec
        bank = self.gpu.bank
        threads, warps, regs, smem = (
            bank.threads, bank.warps, bank.regs, bank.smem
        )
        if (
            max(map(len, self._residents)) > spec.max_ctas_per_sm
            or max(threads) > spec.max_threads_per_sm
            or max(warps) > spec.max_warps_per_sm
            or max(regs) > spec.registers_per_sm
            or max(smem) > spec.shared_mem_per_sm
            or min(min(threads), min(warps), min(regs), min(smem)) < 0
        ):
            self.check_every_sm()

    def check_every_sm(self) -> None:
        """Walk the SMs in id order and fail on the first bad one."""
        spec = self.spec
        for sm in self.gpu.sms:
            if len(sm.resident) > spec.max_ctas_per_sm:
                self.fail(
                    "SM CTA-slot budget exceeded", sm=sm.sm_id,
                    resident=len(sm.resident), budget=spec.max_ctas_per_sm,
                )
            if sm.used_threads > spec.max_threads_per_sm:
                self.fail(
                    "SM thread budget exceeded", sm=sm.sm_id,
                    used=sm.used_threads, budget=spec.max_threads_per_sm,
                )
            if sm.used_warps > spec.max_warps_per_sm:
                self.fail(
                    "SM warp budget exceeded", sm=sm.sm_id,
                    used=sm.used_warps, budget=spec.max_warps_per_sm,
                )
            if sm.used_regs > spec.registers_per_sm:
                self.fail(
                    "SM register budget exceeded", sm=sm.sm_id,
                    used=sm.used_regs, budget=spec.registers_per_sm,
                )
            if sm.used_smem > spec.shared_mem_per_sm:
                self.fail(
                    "SM shared-memory budget exceeded", sm=sm.sm_id,
                    used=sm.used_smem, budget=spec.shared_mem_per_sm,
                )
            if min(sm.used_threads, sm.used_warps,
                   sm.used_regs, sm.used_smem) < 0:
                self.fail(
                    "SM resource accounting went negative", sm=sm.sm_id,
                    threads=sm.used_threads, warps=sm.used_warps,
                    regs=sm.used_regs, smem=sm.used_smem,
                )


class WorkConservationMonitor(Monitor):
    """Task conservation: a launched task is executed at least once and
    committed exactly once.

    Per event, for every live pool: ``done + outstanding + remaining ==
    total``, all components non-negative, and ``done`` is monotone
    non-decreasing (re-execution after preemption returns tasks to
    ``remaining`` — it never double-commits). At finalize, every pool
    must be quiescent (``outstanding == 0``) and, when
    ``require_complete``, fully committed (``done == total``).

    A pool is live from discovery until the event at which it is found
    complete (``done == total``, ``outstanding == 0``) with no grid of
    the device queue still drawing on it: that check is its final one,
    and the pool is retired. Only a queued grid's contexts can touch a
    pool again, and a grid that reaches the queue later re-discovers
    it, so a retired pool cannot change unobserved. Discovery is
    incremental — the device queue plus a cursor into the runtime's
    invocation list — so an event costs work in proportion to live
    pools and queued grids, never to everything the run has seen.
    """

    name = "work-conservation"

    def __init__(self, gpu=None, runtime=None, require_complete=False):
        self.gpu = gpu
        self.runtime = runtime
        self.require_complete = require_complete
        #: id(pool) -> [pool, label, highest done seen], live pools only
        self._pools: Dict[int, list] = {}
        self._invocations_seen = 0

    def track(self, pool, label: str = "") -> None:
        key = id(pool)
        if key not in self._pools:
            self._pools[key] = [pool, label or repr(pool), pool.done]

    def _discover(self) -> None:
        if self.gpu is not None:
            # a grid is enqueued by one event and completes in a later
            # one, so it is queued at some check in between
            for grid in self.gpu._queue:
                self.track(grid.pool, grid.kernel.name)
        runtime = self.runtime
        if runtime is not None:
            invocations = runtime.invocations
            if len(invocations) > self._invocations_seen:
                for inv in invocations[self._invocations_seen:]:
                    self.track(
                        inv.pool, f"inv#{inv.inv_id}:{inv.kspec.name}"
                    )
                self._invocations_seen = len(invocations)

    def on_event(self, ev) -> None:
        self._discover()
        finished = []
        for key, entry in self._pools.items():
            pool, label, last_done = entry
            # each property syncs the pool's macro cohort: read once
            done = pool.done
            outstanding = pool.outstanding
            remaining = pool.remaining
            total = pool.total
            if min(done, outstanding, remaining) < 0:
                self.fail(
                    "task pool accounting went negative", pool=label,
                    done=done, outstanding=outstanding, remaining=remaining,
                )
            if done + outstanding + remaining != total:
                self.fail(
                    "task conservation broken", pool=label,
                    done=done, outstanding=outstanding,
                    remaining=remaining, total=total,
                )
            if done < last_done:
                self.fail(
                    "committed tasks decreased (double commit/rollback)",
                    pool=label, done=done, previously=last_done,
                )
            if done > last_done:
                entry[2] = done
            if done == total and outstanding == 0:
                finished.append(key)
        if finished:
            self._retire(finished)

    def _retire(self, finished: List[int]) -> None:
        """Drop complete pools no queued grid can still touch."""
        drawn = (
            {id(grid.pool) for grid in self.gpu._queue}
            if self.gpu is not None else ()
        )
        for key in finished:
            if key not in drawn:
                del self._pools[key]

    def finalize(self, now: float) -> None:
        # retired pools were complete and quiescent at their final check
        self._discover()
        for pool, label, _ in self._pools.values():
            if pool.outstanding != 0:
                self.fail(
                    "tasks still outstanding after the run drained",
                    pool=label, outstanding=pool.outstanding, at=now,
                )
            if self.require_complete and not pool.complete:
                self.fail(
                    "pool did not commit every task (work lost)",
                    pool=label, done=pool.done, total=pool.total, at=now,
                )


class MonotonicTimeMonitor(Monitor):
    """Event timestamps are non-decreasing and never behind the clock."""

    name = "monotonic-time"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._last: Optional[float] = None

    def on_event(self, ev) -> None:
        if ev is None:
            return
        if self._last is not None and ev.time < self._last:
            self.fail(
                "event time went backwards",
                event=ev.label, at=ev.time, previously=self._last,
            )
        if ev.time < self.sim.now - 1e-9:
            self.fail(
                "event fired behind the simulated clock",
                event=ev.label, at=ev.time, clock=self.sim.now,
            )
        self._last = ev.time


class SpatialPartitionMonitor(Monitor):
    """Spatial preemption's ``%smid`` partition (Figure 4 (c)).

    When the device-visible flag value ``v`` of a persistent grid
    demands that SM ``s`` yield (``s < v``, or any ``v > 0`` for
    temporal-only kernels), every CTA of that grid still resident on
    ``s`` must leave within one poll period — ``L`` tasks plus the
    pinned reads — of the demand becoming visible. A CTA overstaying
    that bound is a stuck worker the runtime would wait on forever.
    """

    name = "spatial-partition"

    def __init__(self, gpu, slack_us: float = 2.0):
        self.gpu = gpu
        self.slack_us = slack_us
        #: ctx -> time by which it must have left its SM
        self._deadlines: Dict[object, float] = {}

    def on_event(self, ev) -> None:
        # Only a queued grid can have resident CTAs, and only a grid
        # whose flag demands a yield both host-side and device-side
        # (the host check skips the clear-in-flight window) has any to
        # watch: walk those grids, not every SM's resident set.
        now = self.gpu.sim.now
        deadlines = self._deadlines
        live = {}
        for grid in self.gpu._queue:
            flag = grid.flag
            if flag is None or grid.kernel.mode is not KernelMode.PERSISTENT:
                continue
            host = flag.last_written
            if host <= 0:
                continue
            device = flag.device_read(now)
            if device <= 0:
                continue
            contexts = grid.contexts
            if grid.kernel.supports_spatial:
                # %smid partition: only SMs below spa_P must yield
                limit = min(host, device)
                contexts = [c for c in contexts if c.sm.sm_id < limit]
            for ctx in contexts:
                deadline = deadlines.get(ctx)
                if deadline is None:
                    deadline = now + self.poll_period(ctx)
                elif now > deadline + 1e-9:
                    self.fail(
                        "CTA overstayed on a yielding SM",
                        kernel=grid.kernel.name, sm=ctx.sm.sm_id,
                        ctx=ctx.ctx_id, deadline=deadline, now=now,
                        flag=host,
                    )
                live[ctx] = deadline
        self._deadlines = live

    def poll_period(self, ctx) -> float:
        """One full poll period: ``L`` tasks (at this context's jittered
        rate) plus the reads around the boundary."""
        return (
            ctx._amortize * ctx._per_task
            + 2.0 * ctx._poll_cost
            + self.gpu.spec.costs.preempt_signal_us
            + self.slack_us
        )

    def finalize(self, now: float) -> None:
        for ctx, deadline in self._deadlines.items():
            if now > deadline + 1e-9:
                self.fail(
                    "CTA still resident on a yielding SM at end of run",
                    kernel=ctx.grid.kernel.name, sm=ctx.sm.sm_id,
                    ctx=ctx.ctx_id, deadline=deadline, now=now,
                )


# ---------------------------------------------------------------------------
# policy-contract monitors
# ---------------------------------------------------------------------------
class HPFContractMonitor(Monitor):
    """HPF's contract (§5.2.1): higher-priority work never waits behind a
    lower-priority kernel beyond the preemption-latency bound.

    HPF preempts synchronously inside the arrival event, so a waiting
    invocation with priority above the running kernel's may only be
    observed transiently (same-timestamp event cascades). The monitor
    tracks how long each such pair persists in *simulated* time and
    fails once it outlives ``bound_us``.
    """

    name = "hpf-contract"

    def __init__(self, runtime, bound_us: Optional[float] = None):
        self.runtime = runtime
        if bound_us is None:
            # the decision is same-event; the bound only needs to absorb
            # flag-signal latency plus scheduling cascades at one stamp
            bound_us = runtime.device.costs.preempt_signal_us + 1.0
        self.bound_us = bound_us
        self._pending: Dict[Tuple[int, int], float] = {}

    def on_event(self, ev) -> None:
        rt = self.runtime
        running = rt.running
        if running is None:
            self._pending.clear()
            return
        now = rt.sim.now
        on_gpu = {running.inv_id} | {g.inv_id for g in rt.guests}
        live = {}
        # finished invocations are never WAITING: the live set suffices
        for inv in rt._live.values():
            if (
                inv.inv_id in on_gpu
                or inv.record.state is not InvocationState.WAITING
                or inv.priority <= running.priority
            ):
                continue
            key = (inv.inv_id, running.inv_id)
            first = self._pending.get(key, now)
            if now - first > self.bound_us:
                self.fail(
                    "lower-priority kernel kept running while "
                    "higher-priority work waited past the bound",
                    waiting=repr(inv), running=repr(running),
                    waited_us=now - first, bound_us=self.bound_us,
                )
            live[key] = first
        self._pending = live


class FFSShareMonitor(Monitor):
    """FFS's contract (§5.2.2): weighted fair shares within the overhead
    budget.

    Fair shares are only defined while every class has backlog, so the
    check runs at finalize over the union of windows in which **all**
    observed priority classes had at least one unfinished invocation.
    Within that window each class's GPU time share must match its weight
    share within ``max_overhead`` plus one epoch of scheduling
    granularity. Runs whose overlap window is shorter than
    ``min_window_epochs`` quanta are vacuous (the monitor passes).
    """

    name = "ffs-contract"

    def __init__(self, runtime, policy, tolerance: float = 0.10,
                 min_window_epochs: float = 4.0):
        self.runtime = runtime
        self.policy = policy
        self.tolerance = tolerance
        self.min_window_epochs = min_window_epochs

    # -- interval helpers ----------------------------------------------
    @staticmethod
    def _merge(intervals: List[Tuple[float, float]]):
        merged: List[Tuple[float, float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    @staticmethod
    def _intersect(a, b):
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return out

    def finalize(self, now: float) -> None:
        rt = self.runtime
        backlog: Dict[int, List[Tuple[float, float]]] = {}
        for inv in rt.invocations:
            end = inv.record.finished_at
            end = now if end is None else end
            backlog.setdefault(inv.priority, []).append(
                (inv.record.arrived_at, end)
            )
        if len(backlog) < 2:
            return  # one class: trivially fair
        classes = sorted(backlog)
        window = self._merge(backlog[classes[0]])
        for cls in classes[1:]:
            window = self._intersect(window, self._merge(backlog[cls]))
        length = sum(hi - lo for lo, hi in window)
        # Estimate one full rotation the way FFS sizes its epochs at run
        # time (the policy's own quantum_us() sees an *empty* active set
        # here and would report the floor, not the quantum the run used).
        total_overhead = sum(
            rt.preemption_overhead_us(i) for i in rt.invocations
        )
        total_weight = sum(
            self.policy.weight_of_class(i.priority) for i in rt.invocations
        ) or 1.0
        quantum = max(
            self.policy.min_quantum_us,
            total_overhead / (self.policy.max_overhead * total_weight),
        )
        epoch = quantum * sum(
            self.policy.weight_of_class(c) for c in classes
        )
        if length < self.min_window_epochs * epoch:
            return  # too short for shares to be meaningful
        gpu_time = {c: 0.0 for c in classes}
        for inv in rt.invocations:
            for start, end in inv.record.run_segments:
                for lo, hi in window:
                    gpu_time[inv.priority] += max(
                        0.0, min(end, hi) - max(start, lo)
                    )
        total = sum(gpu_time.values())
        if total <= 0.0:
            return
        weight_total = sum(self.policy.weight_of_class(c) for c in classes)
        slack = self.policy.max_overhead + self.tolerance + epoch / length
        for cls in classes:
            share = gpu_time[cls] / total
            expected = self.policy.weight_of_class(cls) / weight_total
            if abs(share - expected) > slack:
                self.fail(
                    "FFS share error outside the overhead budget",
                    cls=cls, share=round(share, 4),
                    expected=round(expected, 4), slack=round(slack, 4),
                    window_us=round(length, 1),
                )


# ---------------------------------------------------------------------------
# installers
# ---------------------------------------------------------------------------
def _default_monitors(sim, gpu=None, runtime=None, policy=None,
                      spec=None, require_complete=False) -> List[Monitor]:
    monitors: List[Monitor] = [MonotonicTimeMonitor(sim)]
    if gpu is not None:
        monitors.append(ResourceBudgetMonitor(gpu, spec=spec))
        monitors.append(
            WorkConservationMonitor(
                gpu=gpu, runtime=runtime, require_complete=require_complete
            )
        )
        monitors.append(SpatialPartitionMonitor(gpu))
    if runtime is not None and policy is not None:
        name = getattr(policy, "name", "")
        if name == "hpf":
            monitors.append(HPFContractMonitor(runtime))
        elif name == "ffs":
            monitors.append(FFSShareMonitor(runtime, policy))
    return monitors


def install_monitors(target, monitors: Optional[List[Monitor]] = None,
                     spec=None, require_complete=False) -> MonitorSet:
    """Install invariant monitors on ``target`` and return the set.

    ``target`` may be a :class:`~repro.core.flep.FlepSystem`, a
    :class:`~repro.runtime.engine.FlepRuntime`, a
    :class:`~repro.gpu.gpu.SimulatedGPU`, a baseline
    :class:`~repro.baselines.mps_corun.MPSCoRun` /
    :class:`~repro.serving.server.ServingSystem`, a multi-GPU
    :class:`~repro.fleet.dispatcher.FleetSystem` (returns a
    :class:`~repro.validate.fleet.FleetMonitorBundle`: per-node monitor
    sets plus the fleet conformance hook; ``require_complete`` doubles
    as its full-drain conservation check), or a bare
    :class:`~repro.gpu.sim.Simulator`. The default monitor set adapts to
    what the target exposes (device-level checks need a GPU, policy
    contracts need a runtime). ``spec`` overrides the budget spec of the
    resource monitor (used to plant violations in self-tests);
    ``require_complete`` makes finalize demand fully-committed pools.

    Call ``set.finalize()`` (or use it as a context manager) after the
    run to execute end-of-run checks.
    """
    if hasattr(target, "nodes") and hasattr(target, "hooks"):
        # FleetSystem: one MonitorSet per node backend plus the
        # fleet-level conformance hook (steal safety, conservation).
        from .fleet import FleetMonitorBundle

        return FleetMonitorBundle(target, full_drain=require_complete)
    sim = getattr(target, "sim", None)
    if isinstance(target, Simulator):
        sim, gpu, runtime, policy = target, None, None, None
    elif hasattr(target, "runtime"):           # FlepSystem / ServingSystem
        system = getattr(target, "system", target)
        system = target if system is None else system
        runtime = getattr(system, "runtime", None)
        gpu = getattr(system, "gpu", None)
        policy = getattr(system, "policy", None)
        sim = system.sim if sim is None else sim
    elif hasattr(target, "invocations") and hasattr(target, "gpu"):
        runtime, gpu, policy = target, target.gpu, target.policy  # FlepRuntime
    elif hasattr(target, "gpu"):               # MPSCoRun / Stream-ish
        runtime, gpu, policy = None, target.gpu, None
    elif hasattr(target, "sms"):               # SimulatedGPU
        runtime, gpu, policy = None, target, None
    else:
        raise ValidationError(
            f"cannot install monitors on {type(target).__name__}"
        )
    if sim is None:
        raise ValidationError(
            f"{type(target).__name__} exposes no simulator to hook"
        )
    if monitors is None:
        monitors = _default_monitors(
            sim, gpu=gpu, runtime=runtime, policy=policy,
            spec=spec, require_complete=require_complete,
        )
    return MonitorSet(sim, monitors).install()


def install_invariant_checker(sim: Simulator, gpu, spec=None) -> MonitorSet:
    """The promoted form of the old test-local helper: attach the
    device-level monitors (budgets, conservation, monotonicity, spatial
    partition) to a bare simulator + GPU pair."""
    monitors = _default_monitors(sim, gpu=gpu, spec=spec)
    return MonitorSet(sim, monitors).install()
