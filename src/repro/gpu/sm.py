"""Streaming multiprocessor resource accounting.

An SM tracks the CTA contexts currently resident on it; the resource
charges themselves live in a flat :class:`SMBank` — parallel int lists
(free CTA slots, threads, warps, registers, shared memory; one entry per
SM) owned by the device. The hardware dispatcher's hottest scan
(:meth:`repro.gpu.gpu.SimulatedGPU._pick_sm`) walks those lists with
plain integer compares and indexing, no per-SM attribute chasing;
spatial preemption uses the SM *id* (the paper reads it from the
``%smid`` register) to decide which CTAs must yield.

Footprints are pure functions of ``(usage, spec)`` — both frozen
dataclasses — computed once per pair and cached process-wide
(:func:`repro.gpu.occupancy.cta_footprint`, shared with the occupancy
calculator so admission and reporting can never disagree): the
dispatcher admits and releases thousands of identical CTAs per run, and
re-doing the ceil/div math each time dominated the admission path.
"""

from __future__ import annotations

from typing import List, Set

from ..errors import ResourceError
from ..obs.bus import SimBus
from .device import GPUDeviceSpec
from .kernel import ResourceUsage
from .occupancy import cta_footprint

__all__ = ["SM", "SMBank", "cta_footprint"]


class SMBank:
    """Array-of-int occupancy state for all SMs of one device.

    One entry per SM in each parallel list; the limits are scalars (all
    SMs of a device are identical). The admission scan reads the lists
    directly; :class:`SM` methods write through to them.
    """

    __slots__ = (
        "n", "free", "threads", "warps", "regs", "smem",
        "max_ctas", "max_threads", "max_warps", "max_regs", "max_smem",
    )

    def __init__(self, spec: GPUDeviceSpec, n: int):
        self.n = n
        self.max_ctas = spec.max_ctas_per_sm
        self.max_threads = spec.max_threads_per_sm
        self.max_warps = spec.max_warps_per_sm
        self.max_regs = spec.registers_per_sm
        self.max_smem = spec.shared_mem_per_sm
        #: free CTA slots per SM (``max_ctas - len(resident)``)
        self.free: List[int] = [self.max_ctas] * n
        self.threads: List[int] = [0] * n
        self.warps: List[int] = [0] * n
        self.regs: List[int] = [0] * n
        self.smem: List[int] = [0] * n


class SM:
    """One streaming multiprocessor: its resident set plus a view into
    the device's :class:`SMBank` slot."""

    __slots__ = ("sm_id", "spec", "resident", "bank", "bus")

    def __init__(
        self, sm_id: int, spec: GPUDeviceSpec, bank: SMBank = None,
        bus: SimBus = None,
    ):
        self.sm_id = sm_id
        self.spec = spec
        self.resident: Set[object] = set()   # CTA contexts (opaque here)
        #: shared device-wide occupancy arrays; a standalone SM (unit
        #: tests) gets a private single-entry bank, indexed by sm_id = 0
        #: — device-built SMs are indexed by their sm_id
        self.bank = bank if bank is not None else SMBank(spec, sm_id + 1)
        #: the owning device's simulator bus (a standalone SM gets a
        #: private, empty one)
        self.bus = bus if bus is not None else SimBus(None)

    # -- bank views (diagnostics/monitors; the hot path reads the bank) --
    @property
    def used_threads(self) -> int:
        return self.bank.threads[self.sm_id]

    @property
    def used_warps(self) -> int:
        return self.bank.warps[self.sm_id]

    @property
    def used_regs(self) -> int:
        return self.bank.regs[self.sm_id]

    @property
    def used_smem(self) -> int:
        return self.bank.smem[self.sm_id]

    # -- footprint math --------------------------------------------------
    def _footprint(self, usage: ResourceUsage):
        return cta_footprint(usage, self.spec)

    def can_host(self, usage: ResourceUsage) -> bool:
        """Would one more CTA of this footprint fit right now?"""
        warps, regs, smem = cta_footprint(usage, self.spec)
        return self.can_host_fp(usage.threads_per_cta, warps, regs, smem)

    def can_host_fp(self, threads: int, warps: int, regs: int, smem: int) -> bool:
        """``can_host`` with a precomputed footprint — the same flat-array
        screen the dispatcher's scan applies, one SM at a time."""
        bank = self.bank
        i = self.sm_id
        return (
            bank.free[i] > 0
            and bank.threads[i] + threads <= bank.max_threads
            and bank.warps[i] + warps <= bank.max_warps
            and bank.regs[i] + regs <= bank.max_regs
            and bank.smem[i] + smem <= bank.max_smem
        )

    def admit(self, context, usage: ResourceUsage) -> None:
        """Place a CTA context on this SM, charging its resources."""
        if not self.can_host(usage):
            raise ResourceError(
                f"SM {self.sm_id} cannot host CTA {usage} "
                f"(resident={len(self.resident)})"
            )
        warps, regs, smem = cta_footprint(usage, self.spec)
        self.admit_fp(context, usage.threads_per_cta, warps, regs, smem)

    def admit_fp(
        self, context, threads: int, warps: int, regs: int, smem: int
    ) -> None:
        """``admit`` with a precomputed footprint; the caller (the
        dispatcher) has already verified ``can_host_fp``."""
        resident = self.resident
        if context in resident:
            raise ResourceError(f"context already resident on SM {self.sm_id}")
        resident.add(context)
        bank = self.bank
        i = self.sm_id
        bank.free[i] -= 1
        bank.threads[i] += threads
        bank.warps[i] += warps
        bank.regs[i] += regs
        bank.smem[i] += smem
        hooks = self.bus.on_sm_admit
        if hooks:
            for fn in hooks:
                fn(i, len(resident))

    def release(self, context, usage: ResourceUsage) -> None:
        """Remove a CTA context, returning its resources."""
        warps, regs, smem = cta_footprint(usage, self.spec)
        self.release_fp(context, usage.threads_per_cta, warps, regs, smem)

    def release_fp(
        self, context, threads: int, warps: int, regs: int, smem: int
    ) -> None:
        """``release`` with a precomputed footprint."""
        resident = self.resident
        if context not in resident:
            raise ResourceError(f"context not resident on SM {self.sm_id}")
        resident.remove(context)
        bank = self.bank
        i = self.sm_id
        bank.free[i] += 1
        bank.threads[i] -= threads
        bank.warps[i] -= warps
        bank.regs[i] -= regs
        bank.smem[i] -= smem
        if min(bank.threads[i], bank.warps[i], bank.regs[i], bank.smem[i]) < 0:
            raise ResourceError(
                f"SM {self.sm_id} resource accounting went negative"
            )
        hooks = self.bus.on_sm_release
        if hooks:
            for fn in hooks:
                fn(i, len(resident))

    @property
    def idle(self) -> bool:
        return not self.resident

    def free_cta_slots(self) -> int:
        return self.bank.free[self.sm_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SM(id={self.sm_id}, resident={len(self.resident)}, "
            f"threads={self.used_threads})"
        )
