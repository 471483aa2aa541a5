"""Macro-event fast-forward for persistent-grid batch chains.

The per-batch event loop (one ``batch`` event per claimed batch, ~98% of
all events in the bench profile) is the simulator's ceiling. When a
persistent grid reaches steady state — every CTA placed, the preemption
flag quiescent, the task pool drained only by this grid's contexts — the
entire remaining claim/complete interleaving is a *closed* deterministic
system: batch sizes depend only on ``(remaining, width)`` at each claim
instant, completion times are ``t + polls*poll_cost + batch*per_task``
chains, and the global event loop would simply replay that interleaving
one heap pop at a time.

:class:`MacroCohort` replays it eagerly instead, on a private mini-heap
ordered exactly like the engine's ``(time, seq)`` heap, and converts the
whole chain into

* a list of *steps* — (complete previous batch, claim next batch) pairs
  with precomputed times — committed **lazily** to the real pool and
  contexts as simulated time passes them, and
* one real wake-up event per context at its *final* batch completion
  (the first externally visible consequence: the context observes the
  empty pool, finishes, and releases its SM).

Identity contract (DESIGN.md §15): kernel-level timelines, preemption
points and completion orders stay bit-identical to the per-batch
reference loop. Three rules make that hold:

1. **One planner.** Claim sizes come from
   :func:`~repro.gpu.kernel.guided_batch` and batch poll counts and
   durations from :func:`~repro.gpu.kernel.batch_plan`, the same
   functions the per-batch loop calls; completion times are the same
   ``t + dur`` additions the reference loop performs.
2. **Sync before observation.** The real pool/contexts lag behind the
   precomputed plan; any external read of pool state
   (:class:`~repro.gpu.kernel.TaskPool` properties) first applies every
   step with ``step_time <= now``. Step times never exceed the pool's
   virtual-exhaustion time, which never exceeds any final-completion
   wake-up, so wake-ups always observe fully-synced state.
3. **Dissolve on interference.** A host flag write, an external pool
   mutation, or a foreign worker joining the pool dissolves the cohort
   *at host-write time* — strictly before the write's device visibility
   — reconstructing each context's in-flight batch with a real
   completion event. Every poll boundary the reference loop observes
   after the write therefore also happens here, so no flag write is
   ever skipped (tested by a hypothesis property).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional

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


class MacroCohort:
    """One pool's fast-forwarded batch chain (see module docstring).

    A cohort spans *every* grid draining the pool — a spatially-degraded
    grid's survivors plus its resume/top-up grids claim interleaved from
    one pool, and that interleaving is just as closed as the single-grid
    case once each grid is fully placed and each flag steady."""

    __slots__ = (
        "grid", "grids", "pool", "sim",
        "_steps", "_idx", "_cur_complete", "_claim_order", "_dissolved",
        "_heap", "_v_rem", "_vseq", "_chunk", "_cont",
    )

    def __init__(self, grid: "Grid"):
        self.grid = grid
        #: every grid whose contexts the cohort absorbed
        self.grids: List["Grid"] = []
        self.pool = grid.pool
        self.sim = grid.sim
        #: precomputed (t, ctx, done_batch, polls, post_since, claim,
        #: t_next) tuples, in global event order; applied lazily
        self._steps: List[tuple] = []
        #: first not-yet-applied step
        self._idx = 0
        #: ctx -> completion time of its currently in-flight batch, as
        #: of the last applied step (dissolve reconstructs from this)
        self._cur_complete: Dict["CTAContext", float] = {}
        #: ctx -> global claim order of its in-flight batch: (0, seq)
        #: for batches absorbed mid-flight, (1, step idx) once a virtual
        #: claim is applied. Dissolve reschedules completions in this
        #: order — the reference loop assigns event seqs at claim time,
        #: so same-instant completions fire in claim order there.
        self._claim_order: Dict["CTAContext", tuple] = {}
        self._dissolved = False
        #: private replay heap of (time, order, ctx, state) pending
        #: completions; ``state`` is the context's mutable replay record
        #: [since_poll, batch, polls, width, L, poll_cost, per_task] for
        #: its in-flight batch, carried with the entry so the hot loop
        #: reads no context attributes. (time, order) is unique, so the
        #: heap never compares the trailing fields.
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
        every grid draining the pool persistent and fully placed, every
        flag steady, every pool worker one of those grids' contexts,
        ``pool._remaining > 0``.
        """
        sim = grid.sim
        pool = grid.pool
        cohort = cls(grid)
        cur_complete = cohort._cur_complete

        # Mini-heap entries are (time, order, ctx, state). Absorbed
        # sibling events keep their real engine seq as the order key;
        # virtual pushes use a strictly larger counter — exactly how
        # the engine would order events scheduled later. The trigger
        # enters as a zero-task completion at ``now`` with order 0: it
        # claims inside the current event, before any sibling event
        # still pending at this instant (engine seqs start at 1).
        heap: List[tuple] = []
        absorbed = []
        workers = pool._workers
        grids = cohort.grids
        for g in pool._grids:
            grids.append(g)
            # each grid claims with its own guided width (the larger of
            # its expected concurrency and the pool-wide worker count,
            # as in Grid.next_batch_size), constant while the cohort
            # lives: any join/leave dissolves it first
            width = g._parallel_width
            if workers > width:
                width = workers
            for ctx in g.contexts:
                # the context's L is also its grid's claim clamp (1 for
                # original kernels, whose contexts never poll)
                state = [
                    ctx._since_poll, 0, 0, width, ctx._amortize,
                    ctx._poll_cost, ctx._per_task,
                ]
                if ctx is trigger:
                    heap.append((now, 0, ctx, state))
                    continue
                ev = ctx._completion
                if ev is None or ctx._yield_event is not None:
                    return False
                state[1] = ctx._batch_size
                state[2] = ctx._plan(ctx._batch_size)[0]
                heap.append((ev.time, ev.seq, ctx, state))
                cur_complete[ctx] = ev.time
                cohort._claim_order[ctx] = (0, ev.seq)
                absorbed.append((ctx, ev))
        if trigger._yield_event is not None:
            return False
        heapq.heapify(heap)
        for ctx, ev in absorbed:
            ev.cancel()
            ctx._completion = None

        cohort._heap = heap
        cohort._v_rem = pool._remaining
        cohort._vseq = sim._seq  # larger than every absorbed seq
        # the first burst covers the trigger's claim plus one chunk
        cohort._replay(_CHUNK0 + 1)
        for g in grids:
            g._macro = cohort
        pool._cohort = cohort
        return True

    # ------------------------------------------------------------------
    # chunked virtual replay
    # ------------------------------------------------------------------
    def _replay(self, budget: int) -> None:
        """Fast-forward up to ``budget`` more claims on the private heap.

        The replay pauses (scheduling one real continuation event at the
        next virtual completion instant) rather than running the whole
        chain eagerly: a host flag write dissolves the cohort and throws
        the unreached plan away, so preemption-heavy workloads would pay
        the full O(remaining batches) replay only to discard it. The
        chunk grows 4x per burst, so quiescent chains still collapse
        with only O(log) continuation events.
        """
        sim = self.sim
        heap = self._heap
        steps = self._steps
        v_rem = self._v_rem
        vseq = self._vseq
        self._cont = None
        push = heapq.heappush
        pop = heapq.heappop
        append = steps.append
        guided = guided_batch
        plan_of = batch_plan

        while heap:
            if budget <= 0 and v_rem > 0:
                # pause: resume at the next completion instant (purely
                # internal — the plan extension is invisible until a
                # step or final actually commits)
                self._cont = sim.schedule_event(
                    heap[0][0], self._continue, "macro-cont"
                )
                break
            t, _, ctx, st = pop(heap)
            if v_rem <= 0:
                # final batch: the context will observe the empty pool
                # at this completion and finish — externally visible
                # (SM release), so it stays a real event. Pops after
                # exhaustion arrive in (time, claim-order), matching
                # the seq order the reference loop would assign.
                ctx._completion = sim.schedule_event(
                    t, self._make_final(ctx), ctx._batch_label
                )
                continue
            # complete the in-flight batch, then claim the next one with
            # the shared planners. No plan memo here: replay keys rarely
            # repeat, and keeping every plan alive adds garbage-collector
            # work (DESIGN.md §15).
            since, done_b, polls, width, L, poll_cost, per_task = st
            since = (since + done_b) % L
            b = guided(v_rem, width, L)
            next_polls, dur = plan_of(since, b, L, poll_cost, per_task)
            t_next = t + dur
            append((t, ctx, done_b, polls, since, b, t_next))
            v_rem -= b
            st[0] = since
            st[1] = b
            st[2] = next_polls
            vseq += 1
            push(heap, (t_next, vseq, ctx, st))
            budget -= 1

        self._v_rem = v_rem
        self._vseq = vseq

    def _continue(self) -> None:
        if not self._dissolved:
            self._chunk *= 4
            self._replay(self._chunk)

    def _make_final(self, ctx: "CTAContext"):
        def fire() -> None:
            # every step precedes every final completion (steps stop at
            # pool exhaustion), so this sync commits the whole plan
            if not self._dissolved:
                self.sync(self.sim.clock._now)
            ctx._on_batch_complete()
        return fire

    # ------------------------------------------------------------------
    # lazy commit
    # ------------------------------------------------------------------
    def sync(self, now: float) -> None:
        """Apply every precomputed step with ``time <= now`` to the real
        pool and contexts. Idempotent; called by wake-ups, by TaskPool
        property reads, and by :meth:`dissolve`."""
        steps = self._steps
        i = self._idx
        n = len(steps)
        if i >= n or steps[i][0] > now:
            return
        pool = self.pool
        cur_complete = self._cur_complete
        claim_order = self._claim_order
        # aggregate over the committed range: every counter below is
        # purely additive (TaskPool.finish/take, the Observability
        # counters, SimProfiler.on_batch), so charging the sums once is
        # exactly equal to the reference loop's per-batch charges.
        # Batches of original (non-persistent) contexts: the reference
        # loop charges no obs/prof for those (and never moves their poll
        # offset), so they contribute to pool accounting only.
        sum_b = sum_done = collapsed = 0
        chg_done = chg_polls = 0
        obs = prof = aprof = None
        while i < n and steps[i][0] <= now:
            t, ctx, done_b, polls, post, b, t_next = steps[i]
            claim_order[ctx] = (1, i)
            i += 1
            if done_b:
                sum_done += done_b
                collapsed += 1
                ctx.tasks_done += done_b
                aprof = ctx._prof
                if ctx._is_persistent:
                    chg_done += done_b
                    chg_polls += polls
                    ctx._since_poll = post
                    obs = ctx._obs
                    prof = ctx._prof
            sum_b += b
            ctx._batch_start = t
            ctx._batch_size = b
            cur_complete[ctx] = t_next
        self._idx = i
        # inlined TaskPool.finish + TaskPool.take, summed
        pool._remaining -= sum_b
        pool._outstanding += sum_b - sum_done
        pool._done += sum_done
        if collapsed:
            if chg_done or chg_polls:
                if obs.enabled:
                    obs.tasks_pulled(chg_done)
                    obs.flag_polled(chg_polls)
                if prof.enabled:
                    prof.on_batch(chg_done, chg_polls)
            if aprof.enabled:
                aprof.on_macro_collapse(collapsed)

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
        sim = self.sim
        cur_complete = self._cur_complete
        claim_order = self._claim_order
        # A context whose chain reached exhaustion holds its *final*-
        # completion event; one still mid-plan (paused replay) holds
        # none. Replace/install a completion for each context's current
        # in-flight batch. Scheduling order decides event seq numbers,
        # and the reference loop assigns them at claim time — so
        # reschedule in claim order, keeping same-instant completions
        # firing exactly as they would there.
        # a context placed after absorb (partially-placed grid: its
        # start is what triggered this dissolve) was never absorbed and
        # has no in-flight batch to reconstruct — skip it
        live = [
            c for g in self.grids for c in g.contexts if c in claim_order
        ]
        live.sort(key=claim_order.__getitem__)
        for ctx in live:
            t = cur_complete[ctx]
            maybe_cancel(ctx._completion)
            ctx._completion = sim.schedule_event(
                t if t > now else now,
                ctx._on_batch_complete,
                ctx._batch_label,
            )
