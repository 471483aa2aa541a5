"""Fleet-level conformance: steal safety, conservation, fault accounting.

The :class:`FleetConformanceMonitor` is a
:class:`~repro.fleet.dispatcher.FleetHook` — it watches the dispatcher's
own event stream instead of a simulator trace (fleet invariants live
above any single node's event loop). It enforces:

* **steal safety** — a migrated request was never dispatched into a
  backend runtime without having completed there first, and it left in
  the ``routed`` (post-``take``) state. The node's ``take`` API already
  refuses non-queued requests; this monitor re-derives the same fact
  from the dispatch/resolve history, so a bug in the node's state
  machine cannot silently excuse itself. Crash re-routes obey the same
  contract (:meth:`~FleetConformanceMonitor.on_reroute`).
* **single dispatch** — a request enters a backend at most once (a
  steal after dispatch would double-run the kernel);
* **single resolution** — exactly one terminal event per request, and
  the terminal state is one of ``done`` / ``shed`` / ``lost``;
* **clock monotonicity** — the dispatcher's control points never move
  fleet time backwards (faults included);
* **conservation** (at finalize) — every routed request resolved: no
  request is still queued, held, or inflight after the fleet drained
  with no horizon cut, *even across crashes, drains and rejoins*
  (``full_drain=False`` skips this for bounded ``run(until=...)``
  windows). A lost request counts as resolved — loss is accounted,
  not silent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import InvariantViolation
from ..fleet.dispatcher import FleetHook


class FleetConformanceMonitor(FleetHook):
    """Online checker for the dispatcher/steal/fault contract."""

    name = "fleet-conformance"

    def __init__(self, full_drain: bool = True):
        self.full_drain = full_drain
        self._routed: Set[int] = set()
        #: req_id -> node it was dispatched on (backend owns it)
        self._dispatched: Dict[int, int] = {}
        self._resolved: Dict[int, str] = {}
        self._last_advance = 0.0
        self.steals_seen = 0
        self.reroutes_seen = 0
        self.losses_seen = 0
        self.faults_seen = 0

    def fail(self, message: str, **context) -> None:
        raise InvariantViolation(message, monitor=self.name, **context)

    # ------------------------------------------------------------------
    def on_advance(self, now: float) -> None:
        if now < self._last_advance:
            self.fail(
                "fleet time moved backwards",
                now=now, last=self._last_advance,
            )
        self._last_advance = now

    def on_route(self, req, node: int) -> None:
        self._routed.add(req.req_id)

    def _check_migration(self, req, src: int, dst: int, what: str) -> None:
        if req.req_id in self._dispatched and req.req_id not in self._resolved:
            self.fail(
                f"a dispatched (running) request was {what}",
                req=req.req_id, src=src, dst=dst,
                dispatched_on=self._dispatched[req.req_id],
            )
        if req.req_id in self._resolved:
            self.fail(
                f"a resolved request was {what}",
                req=req.req_id, src=src, dst=dst,
                outcome=self._resolved[req.req_id],
            )
        if req.state != "routed":
            self.fail(
                f"{what} request left its source in a non-routed state",
                req=req.req_id, state=req.state, src=src, dst=dst,
            )

    def on_steal(self, req, src: int, dst: int) -> None:
        self.steals_seen += 1
        self._check_migration(req, src, dst, "migrated")
        if src == dst:
            self.fail("steal with src == dst", req=req.req_id, node=src)

    def on_reroute(self, req, src: int, dst: int) -> None:
        self.reroutes_seen += 1
        self._check_migration(req, src, dst, "re-routed")
        if src == dst:
            self.fail(
                "request re-routed back to the node that crashed",
                req=req.req_id, node=src,
            )

    def on_fault(self, event, node: int) -> None:
        self.faults_seen += 1

    def on_lost(self, req, node: int) -> None:
        self.losses_seen += 1
        if req.state != "lost":
            self.fail(
                "on_lost fired for a request not in the lost state",
                req=req.req_id, state=req.state, node=node,
            )

    def on_dispatch(self, req, node: int) -> None:
        if req.req_id in self._dispatched:
            self.fail(
                "request dispatched twice",
                req=req.req_id, first=self._dispatched[req.req_id],
                again=node,
            )
        if req.req_id in self._resolved:
            self.fail(
                "resolved request dispatched",
                req=req.req_id, outcome=self._resolved[req.req_id],
            )
        self._dispatched[req.req_id] = node

    def on_resolve(self, req, node: int) -> None:
        if req.req_id in self._resolved:
            self.fail(
                "request resolved twice",
                req=req.req_id, first=self._resolved[req.req_id],
                again=req.state,
            )
        if req.state not in ("done", "shed", "lost"):
            self.fail(
                "request resolved in a non-terminal state",
                req=req.req_id, state=req.state, node=node,
            )
        self._resolved[req.req_id] = req.state

    def finalize(self, fleet) -> None:
        if not self.full_drain:
            return
        for node in fleet.nodes:
            if node.inflight:
                self.fail(
                    "requests still inflight after the fleet drained",
                    node=node.index, state=node.state,
                    inflight=sorted(node.inflight),
                )
            if node.queue:
                self.fail(
                    "requests still queued after the fleet drained",
                    node=node.index, state=node.state,
                    queued=len(node.queue),
                )
            if node.held:
                self.fail(
                    "requests still held after the fleet drained",
                    node=node.index, state=node.state,
                    held=sorted(node.held),
                )
        unresolved = self._routed - set(self._resolved)
        if unresolved:
            self.fail(
                "routed requests never resolved (work lost)",
                count=len(unresolved),
                sample=sorted(unresolved)[:5],
            )


def install_fleet_monitor(fleet, full_drain: bool = True):
    """Attach a :class:`FleetConformanceMonitor` to a fleet's hook list
    (before ``run()``) and return it."""
    monitor = FleetConformanceMonitor(full_drain=full_drain)
    fleet.hooks.append(monitor)
    return monitor


class _BundleFaultHook(FleetHook):
    """Keeps a :class:`FleetMonitorBundle`'s node monitor sets in sync
    with the node lifecycle: a crash retires the dead backend's set
    (its pools will never quiesce — the run was cut mid-flight), a
    rejoin installs a fresh set on the rebuilt backend."""

    def __init__(self, bundle: "FleetMonitorBundle"):
        self.bundle = bundle

    def on_fault(self, event, node: int) -> None:
        if event.kind == "crash":
            self.bundle.retire_node(node)
        elif event.kind == "rejoin":
            self.bundle.watch_node(node)


class FleetMonitorBundle:
    """Every monitor a fleet run wants, installed in one call.

    One node-level :class:`~repro.validate.monitors.MonitorSet` per GPU
    (resource budgets, conservation, time monotonicity, policy
    contracts — whatever each node's backend exposes) plus the
    fleet-level :class:`FleetConformanceMonitor` on the dispatcher's
    hook list. Fault-aware: a crashed node's set is retired un-finalized
    (the backend died mid-flight; node-level conservation cannot hold on
    a corpse — the *fleet-level* monitor still accounts its requests),
    and a rejoining node's rebuilt backend gets a fresh set. Every node
    set inherits ``full_drain`` as its ``require_complete``: after a
    full drain each surviving node's pools must be fully committed.
    Usable as a context manager, like a ``MonitorSet``: exiting without
    error finalizes the surviving node sets (the fleet monitor's
    ``finalize`` is invoked by ``FleetSystem.run`` itself).
    """

    def __init__(self, fleet, full_drain: bool = True):
        from .monitors import install_monitors

        self._install = install_monitors
        self.fleet = fleet
        self.full_drain = full_drain
        self.node_sets: List[Optional[object]] = [
            install_monitors(n.backend, require_complete=full_drain)
            for n in fleet.nodes
        ]
        self.fleet_monitor = install_fleet_monitor(fleet, full_drain)
        self._fault_hook = _BundleFaultHook(self)
        fleet.hooks.append(self._fault_hook)

    # ------------------------------------------------------------------
    def retire_node(self, index: int) -> None:
        """Drop the monitor set of a crashed node without finalizing."""
        ms = self.node_sets[index]
        if ms is not None:
            ms.uninstall()
        self.node_sets[index] = None

    def watch_node(self, index: int) -> None:
        """Install a fresh monitor set on a rejoined node's backend."""
        self.node_sets[index] = self._install(
            self.fleet.nodes[index].backend, require_complete=self.full_drain
        )

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Run every live node set's end-of-run checks (after ``run``)."""
        for ms in self.node_sets:
            if ms is not None:
                ms.finalize()

    def uninstall(self) -> None:
        for ms in self.node_sets:
            if ms is not None:
                ms.uninstall()
        for hook in (self.fleet_monitor, self._fault_hook):
            if hook in self.fleet.hooks:
                self.fleet.hooks.remove(hook)

    def __enter__(self) -> "FleetMonitorBundle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()
        if exc_type is None:
            self.finalize()

    def __iter__(self):
        return iter(ms for ms in self.node_sets if ms is not None)
