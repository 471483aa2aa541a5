"""Full-scan reference monitors: the differential oracle for the
incremental ones in :mod:`repro.validate.monitors`.

Each class re-checks its invariant the direct way on every event —
every SM, every pool ever seen, every invocation ever submitted — and
inherits everything else (constructor, messages, ``finalize`` where it
is unchanged) from the incremental monitor it shadows. The cost is
O(history) per event, which is why it lives here and not in ``src/``.
Swapping :data:`REFERENCE` into the monitors module lets the same run
be checked both ways and the verdicts compared.
"""

from __future__ import annotations

from repro.gpu.kernel import KernelMode
from repro.gpu.memory import should_yield
from repro.runtime.tracker import InvocationState
from repro.validate import monitors as incremental


class FullScanResourceBudgetMonitor(incremental.ResourceBudgetMonitor):
    """Walks every SM on every event."""

    def on_event(self, ev) -> None:
        self.check_every_sm()


class FullScanWorkConservationMonitor(incremental.WorkConservationMonitor):
    """Rediscovers and re-checks every pool ever seen, on every event."""

    def track(self, pool, label: str = "") -> None:
        key = id(pool)
        if key not in self._pools:
            self._pools[key] = (pool, label or repr(pool), pool.done)

    def _discover(self) -> None:
        if self.gpu is not None:
            for grid in self.gpu._queue:
                self.track(grid.pool, grid.kernel.name)
            for grid in self.gpu.completed_grids:
                self.track(grid.pool, grid.kernel.name)
        if self.runtime is not None:
            for inv in self.runtime.invocations:
                self.track(inv.pool, f"inv#{inv.inv_id}:{inv.kspec.name}")

    def on_event(self, ev) -> None:
        self._discover()
        for key, (pool, label, last_done) in self._pools.items():
            if min(pool.done, pool.outstanding, pool.remaining) < 0:
                self.fail(
                    "task pool accounting went negative", pool=label,
                    done=pool.done, outstanding=pool.outstanding,
                    remaining=pool.remaining,
                )
            if pool.done + pool.outstanding + pool.remaining != pool.total:
                self.fail(
                    "task conservation broken", pool=label,
                    done=pool.done, outstanding=pool.outstanding,
                    remaining=pool.remaining, total=pool.total,
                )
            if pool.done < last_done:
                self.fail(
                    "committed tasks decreased (double commit/rollback)",
                    pool=label, done=pool.done, previously=last_done,
                )
            if pool.done > last_done:
                self._pools[key] = (pool, label, pool.done)


class FullScanSpatialPartitionMonitor(incremental.SpatialPartitionMonitor):
    """Tests every resident CTA on every SM against its grid's flag."""

    def _demands(self, grid, sm_id: int, now: float) -> bool:
        spatial = grid.kernel.supports_spatial
        return should_yield(
            sm_id, grid.flag.device_read(now), spatial
        ) and should_yield(sm_id, grid.flag.last_written, spatial)

    def on_event(self, ev) -> None:
        now = self.gpu.sim.now
        live = {}
        for sm in self.gpu.sms:
            for ctx in sm.resident:
                grid = ctx.grid
                if (
                    grid.kernel.mode is not KernelMode.PERSISTENT
                    or grid.flag is None
                ):
                    continue
                if not self._demands(grid, sm.sm_id, now):
                    continue
                deadline = self._deadlines.get(ctx)
                if deadline is None:
                    deadline = now + self.poll_period(ctx)
                elif now > deadline + 1e-9:
                    self.fail(
                        "CTA overstayed on a yielding SM",
                        kernel=grid.kernel.name, sm=sm.sm_id,
                        ctx=ctx.ctx_id, deadline=deadline, now=now,
                        flag=grid.flag.last_written,
                    )
                live[ctx] = deadline
        self._deadlines = live


class FullScanHPFContractMonitor(incremental.HPFContractMonitor):
    """Walks every invocation ever submitted, finished ones included."""

    def on_event(self, ev) -> None:
        rt = self.runtime
        running = rt.running
        if running is None:
            self._pending.clear()
            return
        now = rt.sim.now
        on_gpu = {running.inv_id} | {g.inv_id for g in rt.guests}
        live = {}
        for inv in rt.invocations:
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


#: incremental monitor name in :mod:`repro.validate.monitors` -> its
#: full-scan reference; patching these names into that module makes
#: every installer (``install_monitors``, fleet bundles, the fuzzer)
#: build the reference set instead
REFERENCE = {
    "ResourceBudgetMonitor": FullScanResourceBudgetMonitor,
    "WorkConservationMonitor": FullScanWorkConservationMonitor,
    "SpatialPartitionMonitor": FullScanSpatialPartitionMonitor,
    "HPFContractMonitor": FullScanHPFContractMonitor,
}
