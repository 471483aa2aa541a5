"""The simulator's instrumentation bus: one subscriber list per simulator.

Every instrumented site in the engine — the event loop, the device
dispatcher, SM admission, the CTA batch loop, macro cohorts and the
runtime's invocation lifecycle — reports through the bus of the
:class:`~repro.gpu.sim.Simulator` it runs on. The observability hub,
the self-profiler, the conformance monitors and the CTA timeline are all
just subscribers (:class:`SimHook` subclasses overriding the hooks they
watch).

The bus keeps one tuple of callables per hook, holding only the
subscribers that *implement* that hook; sites cache the bus once at
construction and test one guard per site::

    hooks = bus.on_sm_admit
    if hooks:
        for fn in hooks:
            fn(sm_id, resident)

so a hook no subscriber implements costs one attribute check, and a
monitors-only run calls each monitor's ``on_event`` straight from the
event loop. Subscriptions made mid-run take effect at the next hook.

Subscribers shared by several simulators (the hub and the profiler
aggregate whole experiments) set :attr:`SimHook.takes_sim`: the bus then
binds the firing simulator as every hook's first argument, so whatever
a subscriber time-stamps comes from the simulator that fired the hook.

One process-global window, :func:`subscribed`, lists subscribers every
*new* simulator joins; :func:`repro.obs.observed` and
:func:`repro.obs.profiled` are thin wrappers over it.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Optional, Tuple, Type, TypeVar

T = TypeVar("T")


class SimHook:
    """Typed no-op base of a bus subscriber: override what you watch.

    Hooks marked *(sim)* are time-stamped by the subscribers that watch
    them; with :attr:`takes_sim` set every hook receives the firing
    simulator first, ahead of the arguments listed here.
    """

    #: Bind the firing simulator as every hook's first argument.
    takes_sim = False

    def attach(self, sim) -> None:
        """Called once when this subscriber joins ``sim``'s bus."""

    # -- event loop ------------------------------------------------------
    def on_event(self, ev) -> None:
        """``ev`` is about to fire; the clock already reads ``ev.time``
        (sim)."""

    # -- device ------------------------------------------------------------
    def on_launch(self, kernel_name: str) -> None:
        """A kernel-launch command was sent to the device."""

    def on_hw_queue(self, depth: int) -> None:
        """The device-wide hardware FIFO now holds ``depth`` grids (sim)."""

    def on_sm_admit(self, sm_id: int, resident: int) -> None:
        """A CTA context was admitted onto ``sm_id`` (sim)."""

    def on_sm_release(self, sm_id: int, resident: int) -> None:
        """A CTA context left ``sm_id`` (sim)."""

    def on_batch(self, tasks: int, polls: int) -> None:
        """A persistent context retired ``tasks`` tasks and performed
        ``polls`` flag polls (one batch, a yield, or a macro commit)."""

    def on_macro_collapse(self, batches: int) -> None:
        """``batches`` per-batch events were replayed by a macro cohort
        instead of fired (their tasks/polls went through on_batch)."""

    def context_placed(self, ctx, grid) -> None:
        """CTA context ``ctx`` of ``grid`` was placed on an SM."""

    def context_retired(self, ctx, now: float) -> None:
        """``ctx`` finished or yielded at ``now``."""

    # -- runtime: invocation lifecycle -----------------------------------
    def on_arrived(self, inv) -> None:
        """The runtime intercepted invocation ``inv`` (sim)."""

    def on_scheduled(self, inv, resumed: bool) -> None:
        """``inv`` was launched, or relaunched after a preemption (sim)."""

    def on_preempt_requested(self, inv, kind: str, yield_sms: int) -> None:
        """The runtime asked ``inv`` to yield ``yield_sms`` SMs;
        ``kind`` is ``"temporal"`` or ``"spatial"`` (sim)."""

    def on_drained(self, inv, latency_us: Optional[float]) -> None:
        """A temporally preempted ``inv`` is fully off the GPU (sim)."""

    def on_topped_up(self, inv) -> None:
        """A spatial guest left; victim ``inv`` reclaims its SMs (sim)."""

    def on_finished(self, inv) -> None:
        """``inv`` ran to completion (sim)."""

    def on_queue_depth(self, policy_name: str, depth: int) -> None:
        """``depth`` invocations wait in the policy's queues (sim)."""


#: Every hook, in declaration order; a :class:`SimBus` slot each.
HOOKS: Tuple[str, ...] = (
    "on_event", "on_launch", "on_hw_queue", "on_sm_admit", "on_sm_release",
    "on_batch", "on_macro_collapse", "context_placed", "context_retired",
    "on_arrived", "on_scheduled", "on_preempt_requested", "on_drained",
    "on_topped_up", "on_finished", "on_queue_depth",
)


def _hook(sub, name: str):
    """``sub``'s implementation of hook ``name``, or None when it only
    inherits the no-op (duck-typed subscribers implement what they
    define)."""
    fn = getattr(sub, name, None)
    if fn is None or getattr(type(sub), name, None) is getattr(SimHook, name):
        return None
    return fn


class SimBus:
    """One simulator's subscriber list, flattened per hook.

    A simulator's bus joins the subscribers of the open window; a
    detached bus (``sim=None``, standalone SMs in unit tests) starts
    empty."""

    __slots__ = ("sim", "subscribers") + HOOKS

    def __init__(self, sim):
        self.sim = sim
        self.subscribers: list = []
        for name in HOOKS:
            setattr(self, name, ())
        if sim is not None and _WINDOW:
            self.subscribe(*_WINDOW)

    def subscribe(self, *subs) -> None:
        """Add subscribers (one already on the bus is left as is)."""
        for sub in subs:
            if not any(s is sub for s in self.subscribers):
                self.subscribers.append(sub)
                attach = getattr(sub, "attach", None)
                if attach is not None:
                    attach(self.sim)
        self._rebuild()

    def unsubscribe(self, *subs) -> None:
        """Remove subscribers; the others keep their hooks."""
        self.subscribers = [
            s for s in self.subscribers if not any(s is sub for sub in subs)
        ]
        self._rebuild()

    def find(self, cls: Type[T]) -> Optional[T]:
        """The first subscriber that is a ``cls``, if any."""
        for sub in self.subscribers:
            if isinstance(sub, cls):
                return sub
        return None

    def _rebuild(self) -> None:
        sim = self.sim
        for name in HOOKS:
            fns = []
            for sub in self.subscribers:
                fn = _hook(sub, name)
                if fn is not None:
                    if getattr(sub, "takes_sim", False):
                        fn = partial(fn, sim)
                    fns.append(fn)
            setattr(self, name, tuple(fns))


# ---------------------------------------------------------------------------
# the one process-global window
# ---------------------------------------------------------------------------
_WINDOW: tuple = ()


@contextmanager
def subscribed(*subs):
    """Subscribe ``subs`` to every simulator built inside the window.

    Windows nest: an inner window adds to the enclosing one, and leaving
    it restores exactly the enclosing window. Simulators built earlier
    are unaffected."""
    global _WINDOW
    outer = _WINDOW
    _WINDOW = outer + subs
    try:
        yield
    finally:
        _WINDOW = outer


def window() -> tuple:
    """The subscribers a simulator built now would join, outermost
    window first."""
    return _WINDOW


def event_kind(label: str) -> str:
    """Collapse an event label to a bounded-cardinality class:
    ``"NN__flep/ctx3/batch" -> "batch"``, ``"launch:NN" -> "launch"``."""
    if not label:
        return "unlabelled"
    return label.rsplit("/", 1)[-1].split(":", 1)[0]
