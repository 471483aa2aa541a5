"""Macro-event fast-forward for persistent-grid batch chains.

The per-batch event loop (one ``batch`` event per claimed batch, ~98% of
all events in the bench profile) is the simulator's ceiling. When a
persistent grid reaches steady state — the preemption flag quiescent,
the task pool drained only by this grid's contexts — the entire
remaining claim/complete interleaving is a *closed* deterministic
system: batch sizes depend only on ``(remaining, width)`` at each claim
instant, completion times are ``t + polls*poll_cost + batch*per_task``
chains, and the global event loop would simply replay that interleaving
one heap pop at a time.

:class:`MacroCohort` replays it eagerly instead, on a private mini-heap
ordered exactly like the engine's ``(time, seq)`` heap, and converts the
whole chain into

* a list of *steps* — (complete previous batch, claim next batch) pairs
  with precomputed times and running pool/accounting totals — committed
  **lazily** to the real pool as simulated time passes them, and
* one real wake-up event per context at its *final* batch completion
  (the first externally visible consequence: the context observes the
  empty pool, finishes, and releases its SM).

A cohort forms at the *first* placement of a dispatch burst (or at a
batch boundary of a running chain). Every later placement of the same
burst joins it as a zero-task trigger at the burst instant; the chunked
replay starts when the dispatcher ends the burst.

Identity contract (DESIGN.md §15): kernel-level timelines, preemption
points and completion orders stay bit-identical to the per-batch
reference loop. Three rules make that hold:

1. **One planner.** Claim sizes come from
   :func:`~repro.gpu.kernel.guided_batch` and batch poll counts and
   durations from :func:`~repro.gpu.kernel.batch_plan`, the same
   functions the per-batch loop calls; completion times are the same
   ``t + dur`` additions the reference loop performs.
2. **Sync before observation.** The real pool lags behind the
   precomputed plan; any external read of pool state
   (:class:`~repro.gpu.kernel.TaskPool` properties) first commits the
   running totals of the last step with ``step_time <= now``. Context
   fields are written only when the context itself is observed: at its
   final completion (from its replay record) or at dissolve. Step times
   never exceed the pool's virtual-exhaustion time, which never exceeds
   any final-completion wake-up, so wake-ups always observe fully-synced
   state.
3. **Dissolve on interference.** A host flag write, an external pool
   mutation, a foreign worker joining the pool, a join that would
   change a grid's claim width, or any placement after the burst
   dissolves the cohort *at host-write time* — strictly before the
   write's device visibility — reconstructing each context's in-flight
   batch with a real completion event. Every poll boundary the
   reference loop observes after the write therefore also happens here,
   so no flag write is ever skipped (tested by a hypothesis property).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List

from .events import maybe_cancel
from .kernel import batch_plan, guided_batch

if TYPE_CHECKING:  # pragma: no cover
    from .cta import CTAContext
    from .grid import Grid


#: First replay chunk (in claims); each continuation grows it 4x, so a
#: quiescent chain converges to full fast-forward in a handful of
#: continuation events while an interference-heavy one wastes at most a
#: few tens of virtual claims per absorb/dissolve cycle.
_CHUNK0 = 32

_INF = math.inf


class MacroCohort:
    """One pool's fast-forwarded batch chain (see module docstring).

    A cohort spans *every* grid draining the pool — a spatially-degraded
    grid's survivors plus its resume/top-up grids claim interleaved from
    one pool, and that interleaving is just as closed as the single-grid
    case once each flag is steady."""

    __slots__ = (
        "grids", "pool", "sim", "_bus", "_charged",
        "_wcap", "_steps", "_idx", "_due", "_absorbed", "_members",
        "_open", "_dissolved", "_heap", "_v_rem", "_vseq", "_chunk",
        "_cont",
    )

    def __init__(self, grid: "Grid", trigger: "CTAContext"):
        #: every grid draining the pool when the cohort formed
        self.grids: List["Grid"] = list(grid.pool._grids)
        self.pool = grid.pool
        self.sim = grid.sim
        self._bus = trigger._bus
        #: the reference loop charges on_batch pulls and polls for
        #: persistent batches only (a cohort never mixes kernel modes)
        self._charged = trigger._is_persistent
        #: a join keeps every grid's claim width only while the pool's
        #: worker count stays at or below each grid's parallel width
        self._wcap = min(g._parallel_width for g in self.grids)
        #: per step, in global event order: (time, ctx, since_poll,
        #: claim, ctx_tasks_done, remaining, done, polls) — the pool's
        #: remaining count after the claim, then running totals of the
        #: tasks done and polls performed over every step so far
        self._steps: List[tuple] = []
        #: first not-yet-committed step, and its time (inf if none):
        #: the one-compare test every pool read makes
        self._idx = 0
        self._due = _INF
        #: ctx -> (completion time, engine seq) of the batch it had in
        #: flight when absorbed
        self._absorbed: Dict["CTAContext", tuple] = {}
        #: every context whose chain the cohort owns
        self._members: List["CTAContext"] = []
        #: formed inside a dispatch burst that has not ended yet
        self._open = False
        self._dissolved = False
        #: private replay heap of pending completions, one flat record
        #: per context: (time, order, ctx, since_poll, batch, polls,
        #: width, L, poll_cost, per_task, tasks_done) for its in-flight
        #: batch, so the hot loop reads no context attributes.
        #: (time, order) is unique, so the heap never compares the
        #: trailing fields.
        self._heap: List[tuple] = []
        self._v_rem = 0
        self._vseq = 0
        #: size of the latest continuation burst (grows 4x per burst)
        self._chunk = _CHUNK0
        #: pending continuation event while the replay is paused
        self._cont = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def absorb(cls, grid: "Grid", trigger: "CTAContext", now: float) -> bool:
        """Take over the pool's batch chain from ``trigger``'s claim at
        ``now``. Returns False (changing nothing) if any precondition
        fails; on True the trigger must not claim a batch itself.

        Preconditions checked by the caller (:meth:`Grid.try_macro`):
        every flag steady, every pool worker a context of a pool grid of
        one kernel mode, ``pool._remaining > 0``. Inside a dispatch burst
        the cohort stays open for the burst's later placements
        (:meth:`join`) and the dispatcher starts its replay
        (:meth:`close`) when the burst ends.
        """
        sim = grid.sim
        pool = grid.pool
        cohort = cls(grid, trigger)
        absorbed = cohort._absorbed
        members = cohort._members

        # Absorbed mini-heap entries keep their real engine seq as the
        # order key; virtual pushes use a strictly larger counter —
        # exactly how the engine would order events scheduled later.
        heap: List[tuple] = []
        workers = pool._workers
        for g in cohort.grids:
            # each grid claims with its own guided width (the larger of
            # its expected concurrency and the pool-wide worker count,
            # as in Grid.next_batch_size), constant while the cohort
            # lives: a join that would change it dissolves the cohort
            width = g._parallel_width
            if workers > width:
                width = workers
            for ctx in g.contexts:
                if ctx is trigger:
                    continue
                ev = ctx._completion
                if ev is None or ctx._yield_event is not None:
                    return False
                batch = ctx._batch_size
                # the context's L is also its grid's claim clamp (1 for
                # original kernels, whose contexts never poll)
                heap.append((
                    ev.time, ev.seq, ctx, ctx._since_poll, batch,
                    ctx._plan(batch)[0], width, ctx._amortize,
                    ctx._poll_cost, ctx._per_task, ctx.tasks_done,
                ))
                absorbed[ctx] = (ev.time, ev.seq)
                members.append(ctx)
        if trigger._yield_event is not None:
            return False
        heapq.heapify(heap)
        for ctx in members:
            ctx._completion.cancel()
            ctx._completion = None

        cohort._heap = heap
        cohort._v_rem = pool._remaining
        cohort._vseq = sim._seq  # larger than every absorbed seq
        for g in cohort.grids:
            g._macro = cohort
        pool._cohort = cohort
        cohort.join(trigger, now)
        device = grid.device
        if device is not None and device._dispatching:
            cohort._open = True
            device._opened.append(cohort)
        else:
            cohort._advance(_CHUNK0)
        return True

    def admits(self, grid: "Grid") -> bool:
        """May a CTA of ``grid`` placed now join instead of dissolving
        the cohort? Only inside the burst that formed it, only for a
        grid the cohort already spans, and only while the join leaves
        every grid's claim width unchanged."""
        return (
            self._open
            and grid in self.grids
            and self.pool._workers < self._wcap
        )

    def join(self, ctx: "CTAContext", now: float) -> None:
        """Claim ``ctx``'s first batch at ``now`` through the replay step
        and commit it at once, so the dispatcher's next
        ``unplaced_contexts`` read sees it. ``ctx`` enters as a zero-task
        completion with order 0: it claims inside the current event,
        before any pool event still pending at this instant (engine seqs
        start at 1), and it is the only such entry on the heap."""
        width = ctx.grid._parallel_width
        workers = self.pool._workers
        if workers > width:
            width = workers
        self._members.append(ctx)
        heapq.heappush(self._heap, (
            now, 0, ctx, ctx._since_poll, 0, 0, width, ctx._amortize,
            ctx._poll_cost, ctx._per_task, ctx.tasks_done,
        ))
        self._replay(1)
        # commit the claim at once; it retires no batch, so only the
        # claimed tasks move (every earlier step is already committed)
        steps = self._steps
        rem = steps[-1][5]
        pool = self.pool
        pool._outstanding += pool._remaining - rem
        pool._remaining = rem
        self._idx = len(steps)

    def close(self) -> None:
        """The dispatch burst that formed the cohort ended: start the
        chunked replay."""
        self._open = False
        if not self._dissolved:
            self._advance(self._chunk)

    # ------------------------------------------------------------------
    # chunked virtual replay
    # ------------------------------------------------------------------
    def _replay(self, budget: int) -> None:
        """Fast-forward up to ``budget`` more claims on the private heap;
        once the virtual pool runs dry, turn every pending completion
        into its context's real final wake-up."""
        heap = self._heap
        steps = self._steps
        append = steps.append
        v_rem = self._v_rem
        vseq = self._vseq
        sum_done = sum_polls = 0
        if steps:
            sum_done, sum_polls = steps[-1][6:]
        replace = heapq.heapreplace
        guided = guided_batch
        plan_of = batch_plan

        # v_rem > 0 on entry: a cohort forms only on a non-empty pool,
        # and the replay stops at exhaustion
        for _ in range(budget):
            # complete the in-flight batch, then claim the next one with
            # the shared planners. No plan memo here: replay keys rarely
            # repeat, and keeping every plan alive adds garbage-collector
            # work (DESIGN.md §15).
            t, _, ctx, since, done_b, polls, width, L, poll_cost, \
                per_task, done = heap[0]
            since = (since + done_b) % L
            b = guided(v_rem, width, L)
            next_polls, dur = plan_of(since, b, L, poll_cost, per_task)
            v_rem -= b
            done += done_b
            sum_done += done_b
            sum_polls += polls
            append((t, ctx, since, b, done, v_rem, sum_done, sum_polls))
            vseq += 1
            replace(heap, (
                t + dur, vseq, ctx, since, b, next_polls, width, L,
                poll_cost, per_task, done,
            ))
            if v_rem <= 0:
                break
        self._v_rem = v_rem
        self._vseq = vseq
        if v_rem <= 0:
            # final batches: each context will observe the empty pool at
            # this completion and finish — externally visible (SM
            # release), so each stays a real event. Pops arrive in
            # (time, claim-order), matching the seq order the reference
            # loop would assign.
            sim = self.sim
            while heap:
                rec = heapq.heappop(heap)
                ctx = rec[2]
                ctx._completion = sim.schedule_event(
                    rec[0], self._make_final(rec), ctx._batch_label
                )

    def _advance(self, budget: int) -> None:
        """Replay up to ``budget`` claims, then pause: schedule one real
        continuation at the next virtual completion instant (purely
        internal — the plan extension is invisible until a step or a
        final commits). A host flag write dissolves the cohort and throws
        the unreached plan away, so preemption-heavy workloads never pay
        the full O(remaining batches) replay; the chunk grows 4x per
        burst, so quiescent chains still collapse with only O(log)
        continuation events."""
        if self._v_rem <= 0:
            return  # the triggers' claims drained the pool
        self._replay(budget)
        steps = self._steps
        if self._idx < len(steps):
            self._due = steps[self._idx][0]
        heap = self._heap
        if heap:
            self._cont = self.sim.schedule_event(
                heap[0][0], self._continue, "macro-cont"
            )

    def _continue(self) -> None:
        self._cont = None
        self._chunk *= 4
        self._advance(self._chunk)

    def _make_final(self, rec: tuple):
        def fire() -> None:
            # every step precedes every final completion (steps stop at
            # pool exhaustion), so this sync commits the whole plan; the
            # record holds the context's state at its final claim
            self.sync(self.sim.clock._now)
            ctx = rec[2]
            ctx._since_poll = rec[3]
            ctx._batch_size = rec[4]
            ctx.tasks_done = rec[10]
            ctx._on_batch_complete()
        return fire

    # ------------------------------------------------------------------
    # lazy commit
    # ------------------------------------------------------------------
    def sync(self, now: float) -> None:
        """Commit every precomputed step with ``time <= now`` to the real
        pool and the obs/profiler counters. Idempotent; called by
        wake-ups, by TaskPool property reads, and by :meth:`dissolve`.
        Hot callers test ``_due <= now`` inline first."""
        if self._due > now:
            return
        steps = self._steps
        i = self._idx
        # the first step later than ``now``: a 1-tuple probe sorts
        # before every step of equal time, so ties never compare the
        # context field
        k = bisect_left(steps, (math.nextafter(now, _INF),), i)
        # Charge the difference of the running totals at steps k and i:
        # every counter is purely additive (TaskPool.finish/take, every
        # on_batch subscriber), so one charge of the sums equals the
        # reference loop's per-batch charges.
        _, _, _, _, _, rem, done, polls = steps[k - 1]
        if i:
            _, _, _, _, _, _, done0, polls0 = steps[i - 1]
            done -= done0
            polls -= polls0
        self._idx = k
        self._due = steps[k][0] if k < len(steps) else _INF
        pool = self.pool
        pool._remaining = rem
        pool._done += done
        # conservation: done + outstanding + remaining == total
        pool._outstanding = pool.total - rem - pool._done
        bus = self._bus
        if self._charged and (done or polls):
            hooks = bus.on_batch
            if hooks:
                for fn in hooks:
                    fn(done, polls)
        # join commits each trigger's claim itself, so every step
        # committed here retires one batch
        hooks = bus.on_macro_collapse
        if hooks:
            for fn in hooks:
                fn(k - i)

    # ------------------------------------------------------------------
    # dissolution
    # ------------------------------------------------------------------
    def dissolve(self, now: float) -> None:
        """Return the grid to per-batch eventing: commit history up to
        ``now``, drop the unreached plan, and rebuild each context's
        in-flight batch with a real completion event.

        Called at host flag-write time — strictly before the write's
        device visibility — and on any external pool interference, so
        the reference loop and the macro loop observe every subsequent
        poll boundary identically.
        """
        if self._dissolved:
            return
        self.sync(now)
        self._dissolved = True
        maybe_cancel(self._cont)
        self._cont = None
        for g in self.grids:
            if g._macro is self:
                g._macro = None
        if self.pool._cohort is self:
            self.pool._cohort = None
        # Each live context's state at ``now`` is its latest committed
        # step; walk back from ``now`` until every context is found.
        # One without a committed step still runs the batch it had in
        # flight when absorbed.
        live = [c for c in self._members if c._started]
        want = set(live)
        latest: Dict["CTAContext", int] = {}
        steps = self._steps
        j = self._idx
        while j and want:
            j -= 1
            ctx = steps[j][1]
            if ctx in want:
                want.discard(ctx)
                latest[ctx] = j
        absorbed = self._absorbed
        pending = []
        for ctx in live:
            j = latest.get(ctx)
            if j is None:
                t, seq = absorbed[ctx]
                pending.append(((0, seq), t, ctx))
                continue
            t, _, since, b, done, _, _, _ = steps[j]
            ctx._since_poll = since
            ctx._batch_start = t
            ctx._batch_size = b
            ctx.tasks_done = done
            # the completion time the replay computed: the same
            # ``t + duration`` addition, from the same planner
            pending.append(((1, j), t + ctx._plan(b)[1], ctx))
        # A context whose chain reached exhaustion holds its *final*-
        # completion event; one still mid-plan (paused replay) holds
        # none. Replace/install a completion for each context's current
        # in-flight batch. Scheduling order decides event seq numbers,
        # and the reference loop assigns them at claim time — so
        # reschedule in claim order (absorbed batches by engine seq,
        # committed claims by step index), keeping same-instant
        # completions firing exactly as they would there.
        pending.sort(key=lambda p: p[0])
        sim = self.sim
        for _, t, ctx in pending:
            maybe_cancel(ctx._completion)
            ctx._completion = sim.schedule_event(
                t if t > now else now,
                ctx._on_batch_complete,
                ctx._batch_label,
            )
