"""CTA execution contexts.

A :class:`CTAContext` is one resident CTA slot executing a grid's tasks.
Original kernels and FLEP persistent kernels run through the same context
machinery (see :mod:`repro.gpu.kernel`); the differences are:

========================  =================  ==========================
                          ORIGINAL           PERSISTENT (FLEP)
========================  =================  ==========================
task pull cost            0 (hardware)       ``task_pull_us`` (atomic)
flag poll                 never              every ``L`` tasks
preemption                impossible         at the next poll boundary
========================  =================  ==========================

To keep event counts low the context claims a *batch* of tasks and
schedules a single completion event. When the host writes the preemption
flag, the context re-plans: it computes the first poll boundary at which
the device-visible flag value demands a yield, finishes exactly the tasks
processed by then, returns the rest to the pool, and releases its SM.
This reproduces Figure 4's semantics exactly while staying
``O(contexts x preemption epochs)`` in events.

Performance note: the batch loop is the simulator's hottest path. All
per-batch constants (task time, poll cost, amortizing factor, event
labels) are frozen into plain attributes at context creation — kernel,
cost model and task multiplier never change over a context's lifetime —
and re-plans of the in-flight batch (:func:`~repro.gpu.kernel.batch_plan`)
are memoized keyed on ``(batch, since_poll)``. The flag
fast path (:attr:`PinnedFlag._demanding`) lets ``replan`` skip the
yield-poll search entirely while no host write demands a yield.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, TYPE_CHECKING

from ..errors import SchedulingError, SimulationError
from .events import Event, maybe_cancel
from .kernel import KernelMode, batch_plan
from .memory import should_yield

if TYPE_CHECKING:  # pragma: no cover
    from .grid import Grid
    from .sm import SM

_EPS = 1e-9


class CTAState(enum.Enum):
    """Lifecycle of one resident CTA slot."""

    RUNNING = "running"
    YIELDED = "yielded"      # quit due to a preemption flag
    FINISHED = "finished"    # pool exhausted


class CTAContext:
    """One resident CTA slot processing batches of tasks."""

    __slots__ = (
        "grid", "ctx_id", "sm", "state", "tasks_done", "started_at",
        "ended_at", "_bus", "task_mult", "_is_persistent",
        "_task_time", "_per_task", "_poll_cost", "_amortize", "_spatial",
        "_batch_label", "_yield_label", "_plan_cache", "_batch_start",
        "_batch_size", "_completion", "_yield_event", "_started",
        "_since_poll",
    )

    def __init__(self, grid: "Grid", ctx_id: int, sm: "SM"):
        self.grid = grid
        self.ctx_id = ctx_id
        self.sm = sm
        self.state = CTAState.RUNNING
        self.tasks_done = 0
        self.started_at = grid.sim.now
        self.ended_at: Optional[float] = None
        # the simulator's bus, cached: the batch loop is the hottest path
        self._bus = grid.sim.bus
        # Per-batch constants, frozen once (kernel/cost model/multiplier
        # are immutable for the context's lifetime).
        kernel = grid.kernel
        persistent = kernel.mode is KernelMode.PERSISTENT
        self._is_persistent = persistent
        # per-context task-time multiplier (input irregularity)
        self.task_mult = kernel.task_model.sample_multiplier(grid.rng)
        self._task_time = kernel.task_model.mean_task_us * self.task_mult
        if persistent:
            self._per_task = self._task_time + grid.costs.task_pull_us
            self._poll_cost = grid.costs.pinned_poll_us
            self._amortize = kernel.amortize_l
        else:
            self._per_task = self._task_time
            self._poll_cost = 0.0
            self._amortize = 1
        self._spatial = kernel.supports_spatial
        self._batch_label = f"{kernel.name}/ctx{ctx_id}/batch"
        self._yield_label = f"{kernel.name}/ctx{ctx_id}/yield"
        #: memoized re-plans of the in-flight batch:
        #: (batch, since_poll) -> (polls, duration_us)
        self._plan_cache = {}

        # current batch
        self._batch_start = 0.0
        self._batch_size = 0
        self._completion: Optional[Event] = None
        self._yield_event: Optional[Event] = None
        self._started = False
        #: tasks processed since the last flag poll, in [0, L). Polls
        #: happen exactly every L tasks *across* batch boundaries, so a
        #: sub-L tail batch does not cost an extra poll.
        self._since_poll = 0

    def start(self) -> None:
        """Begin execution. Called by the device *after* SM admission, so
        that resource accounting is consistent even if the context
        finishes instantly (empty pool)."""
        if self._started:
            raise SchedulingError(f"context {self!r} started twice")
        self._started = True
        self.grid.pool.worker_joined(self.grid)
        self._begin_next_batch()

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def _first_poll_index(self) -> int:
        """Task index within the current batch at which the first poll
        fires: 0 if the batch starts on a poll boundary, else the task
        that completes the current L-group."""
        L = self._amortize
        return (L - self._since_poll) % L

    def _plan(self, batch: int) -> tuple:
        """``(polls, duration_us)`` of a ``batch``-task run from the
        current poll offset; memoized — contexts re-plan the same
        ``(batch, since_poll)`` pair many times over a kernel's
        lifetime."""
        since = self._since_poll
        key = (batch, since)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._plan_cache[key] = batch_plan(
                since, batch, self._amortize, self._poll_cost, self._per_task
            )
        return plan

    def _poll_read_start(self, m: int) -> float:
        """Time the m-th in-batch poll (m >= 0) begins reading the flag:
        all earlier polls plus all earlier tasks have completed."""
        j = self._first_poll_index() + m * self._amortize
        return self._batch_start + m * self._poll_cost + j * self._per_task

    def _poll_task_index(self, m: int) -> int:
        """Tasks of this batch completed when the m-th poll fires."""
        return self._first_poll_index() + m * self._amortize

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def _begin_next_batch(self) -> None:
        """If on a poll boundary, poll the flag; then claim and run the
        next batch. Between boundaries the flag is never observed."""
        grid = self.grid
        sim = grid.sim
        now = sim.clock._now
        if self._is_persistent and self._since_poll == 0:
            flag = grid.flag
            # _demanding empty => every visible value is 0 => no yield;
            # skip the read entirely (the poll itself is only *charged*
            # when it demands a yield or as part of a batch plan)
            if flag is not None and flag._demanding:
                # newest write already visible => it is what a read
                # observes; bisect only while the write is in flight
                last = flag._history[-1]
                value = last[1] if last[0] <= now else flag.device_read(now)
                if should_yield(self.sm.sm_id, value, self._spatial):
                    # the boundary poll itself still costs one pinned read
                    self._schedule_yield(
                        now + self._poll_cost, finished_in_batch=0
                    )
                    return

        pool = grid.pool
        remaining = pool._remaining
        if remaining <= 0:
            self._finish(now)
            return
        # Macro fast-forward: in steady state (flags steady, every pool
        # worker accounted for) the whole remaining batch chain is
        # precomputed and this context's claim is absorbed into the
        # cohort — see repro.gpu.macro. Non-persistent chains qualify
        # too: no polls, no flag response, same guided claims. A cohort
        # still reachable here is open: this is a later placement of the
        # dispatch burst that formed it (any other join dissolved it).
        macro = grid._macro
        if macro is not None:
            macro.join(self, now)
            return
        if not sim.use_reference_loop and grid.try_macro(self, now):
            return
        # plan lookup inlined from Grid.next_batch_size (memo-hit path)
        width = grid._parallel_width
        workers = pool._workers
        if workers > width:
            width = workers
        batch = grid._batch_plans.get((remaining, width))
        if batch is None:
            batch = grid.next_batch_size()
        # claim inlined from TaskPool.take: the planner clamps batch to
        # [1, remaining], so the claim never truncates or goes negative
        pool._remaining = remaining - batch
        pool._outstanding += batch
        self._batch_start = now
        self._batch_size = batch
        # a fresh claim rarely repeats a (batch, since_poll) pair, so the
        # plan is computed directly; replan() memoizes through _plan
        duration = batch_plan(
            self._since_poll, batch, self._amortize, self._poll_cost,
            self._per_task,
        )[1]
        self._completion = sim.schedule_event(
            now + duration,
            self._on_batch_complete,
            self._batch_label,
        )
        if self._is_persistent:
            flag = grid.flag
            # a flag written before this batch started may bite
            # mid-batch. No demanding write ever — or the newest write a
            # visible clear — means replan would be a no-op (fresh
            # completion, no yield event), so skip the call.
            if flag is not None and flag._demanding:
                last = flag._history[-1]
                if last[1] != 0 or last[0] > now:
                    self.replan()

    def _on_batch_complete(self) -> None:
        self._completion = None
        batch = self._batch_size
        self.tasks_done += batch
        grid = self.grid
        # inlined from TaskPool.finish: this batch was claimed whole at
        # _begin_next_batch, so batch <= outstanding by construction
        pool = grid.pool
        pool._outstanding -= batch
        pool._done += batch
        if self._is_persistent:
            hooks = self._bus.on_batch
            if hooks:
                # charged at batch granularity so the instrumented hot
                # path stays O(batches), not O(tasks)
                polls = self._plan(batch)[0]
                for fn in hooks:
                    fn(batch, polls)
            self._since_poll = (self._since_poll + batch) % self._amortize
        self._batch_size = 0
        grid.notify_progress()
        self._begin_next_batch()

    def _finish(self, now: float) -> None:
        if self.state is not CTAState.RUNNING:
            raise SchedulingError("context finished twice")
        self.state = CTAState.FINISHED
        self.ended_at = now
        self._teardown_events()
        self.grid.context_done(self)

    # ------------------------------------------------------------------
    # preemption
    # ------------------------------------------------------------------
    def replan(self) -> None:
        """Recompute this context's fate after a flag write.

        Scans the flag's (short) demanding-write index for the first
        poll boundary of the current batch at which the device-visible
        value demands a yield; schedules/cancels the yield event
        accordingly.
        """
        if self.state is not CTAState.RUNNING or not self._is_persistent:
            return
        grid = self.grid
        flag = grid.flag
        if flag is None or self._batch_size == 0:
            return

        if not flag._demanding:
            yield_m = None
        else:
            # Cleared-flag fast path: when the newest write is a clear
            # already visible at (or before) the batch start, every poll
            # of this batch observes 0 — _first_yield_poll would scan
            # the whole demanding index just to reject each candidate.
            last = flag._history[-1]
            if last[1] == 0 and last[0] <= self._batch_start:
                yield_m = None
            else:
                yield_m = self._first_yield_poll()
        if yield_m is None:
            # no mid-batch yield; restore the completion event if a
            # previously-planned yield was cancelled by a flag clear
            maybe_cancel(self._yield_event)
            self._yield_event = None
            if self._completion is None or self._completion.cancelled:
                tc = self._batch_start + self._plan(self._batch_size)[1]
                now = grid.sim.clock._now
                self._completion = grid.sim.schedule_event(
                    tc if tc > now else now,
                    self._on_batch_complete,
                    self._batch_label,
                )
            return

        finished = min(self._poll_task_index(yield_m), self._batch_size)
        yield_at = self._poll_read_start(yield_m) + self._poll_cost
        maybe_cancel(self._completion)
        self._completion = None
        maybe_cancel(self._yield_event)
        now = grid.sim.clock._now
        self._yield_event = grid.sim.schedule_event(
            yield_at if yield_at > now else now,
            lambda: self._do_yield(finished),
            self._yield_label,
        )

    def _first_yield_poll(self) -> Optional[int]:
        """Ordinal ``m`` of the first *mid-batch* poll that observes a
        yield-demanding flag value, or ``None``.

        The poll at the very start of the batch (task index 0, only when
        the batch begins on a boundary) already ran synchronously in
        ``_begin_next_batch``, so it is excluded. Walks the flag's
        (short) index of demanding writes, solving for the first poll
        ordinal in each demanding interval — O(demanding writes), not
        O(batch/L).
        """
        grid = self.grid
        n_polls = batch_plan(
            self._since_poll, self._batch_size, self._amortize,
            self._poll_cost, self._per_task,
        )[0]
        if n_polls <= 0:
            return None
        # the m=0 poll is mid-batch unless it sits at task index 0
        m_lo = 1 if self._first_poll_index() == 0 else 0
        if m_lo >= n_polls:
            return None
        period = self._poll_cost + self._amortize * self._per_task
        flag = grid.flag
        spatial = self._spatial
        sm_id = self.sm.sm_id
        base = self._poll_read_start(0)
        best: Optional[int] = None
        checked: set = set()
        # only writes with value > 0 can demand a yield; zero writes
        # matter solely through the observed-value re-check below. Old
        # demanding writes all collapse onto the same candidate poll, so
        # each candidate ordinal is evaluated once.
        for visible_at, value in flag._demanding:
            if not should_yield(sm_id, value, spatial):
                continue
            # smallest m with poll_read_start(m) >= visible_at
            if visible_at <= base + _EPS:
                m = 0
            else:
                m = math.ceil((visible_at - base) / period - _EPS)
            if m < m_lo:
                m = m_lo
            if m >= n_polls or (best is not None and m >= best):
                continue
            if m in checked:
                continue
            checked.add(m)
            # the value actually observed at that poll must still demand
            # a yield (a later write may have cleared it)
            observed = flag.device_read(self._poll_read_start(m) + _EPS)
            if not should_yield(sm_id, observed, spatial):
                continue
            best = m
        return best

    def _schedule_yield(self, at: float, finished_in_batch: int) -> None:
        sim = self.grid.sim
        now = sim.clock._now
        self._yield_event = sim.schedule_event(
            at if at > now else now,
            lambda: self._do_yield(finished_in_batch),
            self._yield_label,
        )

    def _do_yield(self, finished_in_batch: int) -> None:
        if self.state is not CTAState.RUNNING:
            return
        self._yield_event = None
        pool = self.grid.pool
        hooks = self._bus.on_batch
        if hooks:
            # the polls performed up to (and including) the yielding poll
            polled = 1
            if self._batch_size:
                polled += self._plan(
                    min(finished_in_batch, self._batch_size)
                )[0]
            for fn in hooks:
                fn(finished_in_batch, polled)
        if self._batch_size:
            if finished_in_batch > self._batch_size:
                raise SimulationError("yield finished more tasks than batch")
            pool.finish(finished_in_batch)
            pool.give_back(self._batch_size - finished_in_batch)
            self.tasks_done += finished_in_batch
            self._batch_size = 0
        self.state = CTAState.YIELDED
        self.ended_at = self.grid.sim.now
        self._teardown_events()
        self.grid.context_yielded(self)

    # ------------------------------------------------------------------
    def _teardown_events(self) -> None:
        if self._started:
            self.grid.pool.worker_left(self.grid)
            self._started = False
        maybe_cancel(self._completion)
        maybe_cancel(self._yield_event)
        self._completion = None
        self._yield_event = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CTAContext({self.grid.kernel.name}#{self.ctx_id}, "
            f"sm={self.sm.sm_id}, {self.state.value}, done={self.tasks_done})"
        )
