"""Differential oracles: two independent executions that must agree.

1. **Temporal identity** — a FLEP co-run whose preemption flag is never
   raised must be *timeline-identical* (same CTA residency intervals, to
   the microsecond, on the same SMs) to driving the same persistent
   images through the raw device with no runtime at all. The FLEP engine
   adds machinery (flag allocation, tracking, policy callbacks) but no
   simulated time when nothing preempts — any drift is a scheduling bug.

2. **HPF order** — on small instances with zero-overhead math, Figure 6
   (preemptive priority + shortest-remaining-time within a priority) is
   simple enough to brute-force in a few lines. The real HPF run must
   complete its invocations in the same order, up to pairs the reference
   itself cannot separate (completions closer than the accumulated
   launch/drain overheads of the real system).

Both raise :class:`~repro.errors.OracleMismatch` on disagreement and
return a :class:`DifferentialReport` for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.flep import FlepSystem
from ..errors import OracleMismatch, ValidationError
from ..gpu.device import GPUDeviceSpec, tesla_k40
from ..gpu.gpu import SimulatedGPU
from ..gpu.kernel import LaunchConfig, TaskPool
from ..gpu.occupancy import active_slots
from ..gpu.sim import Simulator
from ..gpu.trace import Timeline
from ..runtime.engine import RuntimeConfig
from ..workloads.benchmarks import BenchmarkSuite, standard_suite

__all__ = [
    "DifferentialReport",
    "temporal_differential",
    "assert_temporal_matches_baseline",
    "hpf_reference_order",
    "hpf_differential",
    "assert_hpf_matches_brute_force",
]

#: (sm_id, start_us, end_us, kernel) — one CTA residency interval.
IntervalKey = Tuple[int, float, float, str]


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison."""

    oracle: str
    matches: bool
    baseline: List = field(default_factory=list)
    candidate: List = field(default_factory=list)
    detail: str = ""

    def raise_on_mismatch(self) -> "DifferentialReport":
        if not self.matches:
            raise OracleMismatch(f"{self.oracle}: {self.detail}")
        return self


# ---------------------------------------------------------------------------
# oracle 1: never-preempted temporal FLEP == persistent-thread baseline
# ---------------------------------------------------------------------------
def _interval_keys(timeline: Timeline, digits: int = 6) -> List[IntervalKey]:
    return sorted(
        (iv.sm_id, round(iv.start_us, digits), round(iv.end_us, digits),
         iv.kernel)
        for iv in timeline.intervals
    )


class _PersistentBaseline:
    """FIFO run-to-completion of persistent images on the raw device.

    Mirrors exactly what the FLEP runtime does for an untouched flag —
    same images, same ``min(tasks, active_slots)`` grid clamp, same
    launch overhead — but with no runtime in the loop at all.
    """

    def __init__(self, device: GPUDeviceSpec, suite: BenchmarkSuite):
        self.device = device
        self.suite = suite
        self.sim = Simulator()
        self.gpu = SimulatedGPU(self.sim, device)
        self.timeline = Timeline()
        self.sim.bus.subscribe(self.timeline)
        self._queue: List[Tuple[str, str]] = []
        self._busy = False

    def submit_at(self, at_us: float, kernel: str, input_name: str) -> None:
        self.sim.schedule_at(
            at_us,
            lambda: self._arrive(kernel, input_name),
            label=f"baseline-submit:{kernel}",
        )

    def _arrive(self, kernel: str, input_name: str) -> None:
        self._queue.append((kernel, input_name))
        if not self._busy:
            self._launch_next()

    def _launch_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        kernel, input_name = self._queue.pop(0)
        kspec = self.suite[kernel]
        inp = kspec.input(input_name)
        image = kspec.flep_image(inp, self.suite.amortize_l(kernel))
        pool = TaskPool(inp.tasks)
        grid_ctas = min(inp.tasks, active_slots(self.device, kspec.resources))
        self.gpu.launch(
            image,
            LaunchConfig(total_tasks=max(pool.total, grid_ctas),
                         grid_ctas=grid_ctas),
            pool=pool,
            flag=self.gpu.new_flag(),  # allocated, never written
            on_complete=lambda g: self._launch_next(),
        )

    def run(self) -> Timeline:
        self.sim.run()
        self.timeline.close_open(self.sim.now)
        return self.timeline


def temporal_differential(
    jobs: Sequence[Tuple[float, str, str]],
    device: Optional[GPUDeviceSpec] = None,
    suite: Optional[BenchmarkSuite] = None,
) -> DifferentialReport:
    """Compare never-preempted temporal FLEP against the raw baseline.

    ``jobs`` is a list of ``(arrival_us, kernel, input_name)``. The FLEP
    side runs them under the FIFO policy (run-to-completion, the flag is
    never written); the baseline drives the same persistent images
    through the bare device. The two CTA-residency timelines must be
    identical.
    """
    if not jobs:
        raise ValidationError("temporal differential needs at least one job")
    device = device or tesla_k40()
    suite = suite or standard_suite(device)

    baseline = _PersistentBaseline(device, suite)
    for at_us, kernel, input_name in jobs:
        baseline.submit_at(at_us, kernel, input_name)
    base_tl = baseline.run()

    system = FlepSystem(
        policy="fifo", device=device, suite=suite,
        config=RuntimeConfig(oracle_model=True), trace=True,
    )
    for i, (at_us, kernel, input_name) in enumerate(jobs):
        system.submit_at(at_us, f"job{i}", kernel, input_name)
    result = system.run()
    if not result.all_finished:
        return DifferentialReport(
            oracle="temporal-identity", matches=False,
            detail="FLEP side did not finish every invocation",
        )
    for inv in system.runtime.invocations:
        if inv.record.preemptions or inv.flag.last_written != 0:
            return DifferentialReport(
                oracle="temporal-identity", matches=False,
                detail=f"{inv!r} was preempted — the oracle only applies "
                       "to never-preempted runs",
            )

    base_keys = _interval_keys(base_tl)
    flep_keys = _interval_keys(system.timeline)
    if base_keys == flep_keys:
        return DifferentialReport(
            oracle="temporal-identity", matches=True,
            baseline=base_keys, candidate=flep_keys,
            detail=f"{len(base_keys)} intervals identical",
        )
    diverging = next(
        (i for i, (a, b) in enumerate(zip(base_keys, flep_keys)) if a != b),
        min(len(base_keys), len(flep_keys)),
    )
    a = base_keys[diverging] if diverging < len(base_keys) else None
    b = flep_keys[diverging] if diverging < len(flep_keys) else None
    return DifferentialReport(
        oracle="temporal-identity", matches=False,
        baseline=base_keys, candidate=flep_keys,
        detail=(
            f"timelines diverge at interval {diverging}: "
            f"baseline={a}, flep={b} "
            f"({len(base_keys)} vs {len(flep_keys)} intervals)"
        ),
    )


def assert_temporal_matches_baseline(
    jobs: Sequence[Tuple[float, str, str]],
    device: Optional[GPUDeviceSpec] = None,
    suite: Optional[BenchmarkSuite] = None,
) -> DifferentialReport:
    """:func:`temporal_differential`, raising :class:`OracleMismatch` on
    disagreement."""
    return temporal_differential(jobs, device, suite).raise_on_mismatch()


# ---------------------------------------------------------------------------
# oracle 2: HPF completion order vs a brute-force reference schedule
# ---------------------------------------------------------------------------
def hpf_reference_order(
    jobs: Sequence[Tuple[float, int, float]],
) -> List[Tuple[int, float]]:
    """Zero-overhead preemptive-priority + SRT schedule of ``jobs``.

    ``jobs`` is a list of ``(arrival_us, priority, duration_us)``.
    Returns ``(job_index, completion_us)`` in completion order. Higher
    priority always wins the processor; within a priority, the job with
    the shortest remaining time runs (ties: earlier arrival, then lower
    index — matching the real queue's stable order).
    """
    if not jobs:
        return []
    remaining = [float(d) for _, _, d in jobs]
    if any(d <= 0 for d in remaining):
        raise ValidationError("reference schedule needs positive durations")
    done: List[Tuple[int, float]] = []
    finished = [False] * len(jobs)
    t = min(a for a, _, _ in jobs)
    guard = 0
    while len(done) < len(jobs):
        guard += 1
        if guard > 10 * len(jobs) * len(jobs) + 100:
            raise ValidationError("reference schedule failed to converge")
        active = [
            i for i, (a, _, _) in enumerate(jobs)
            if not finished[i] and a <= t + 1e-9
        ]
        future = [a for i, (a, _, _) in enumerate(jobs)
                  if not finished[i] and a > t + 1e-9]
        if not active:
            t = min(future)
            continue
        run = min(
            active,
            key=lambda i: (-jobs[i][1], remaining[i], jobs[i][0], i),
        )
        horizon = t + remaining[run]
        next_arrival = min(future, default=None)
        if next_arrival is not None and next_arrival < horizon - 1e-9:
            remaining[run] -= next_arrival - t
            t = next_arrival
        else:
            t = horizon
            remaining[run] = 0.0
            finished[run] = True
            done.append((run, t))
    return done


def hpf_differential(
    jobs: Sequence[Tuple[float, int, str, str]],
    device: Optional[GPUDeviceSpec] = None,
    suite: Optional[BenchmarkSuite] = None,
    slack_us: Optional[float] = None,
) -> DifferentialReport:
    """Compare a real (temporal-only, oracle-model) HPF run against the
    brute-force reference on a small instance.

    ``jobs`` is a list of ``(arrival_us, priority, kernel, input_name)``.
    The real system pays launch/signal/drain overheads the zero-overhead
    reference does not, so completions the reference separates by less
    than ``slack_us`` are treated as unordered; the default slack budgets
    a few launch overheads per preemption-capable job.
    """
    if not jobs:
        raise ValidationError("HPF differential needs at least one job")
    device = device or tesla_k40()
    suite = suite or standard_suite(device)
    if slack_us is None:
        slack_us = 6.0 * device.costs.kernel_launch_us * len(jobs)

    system = FlepSystem(
        policy="hpf", device=device, suite=suite,
        config=RuntimeConfig(oracle_model=True, spatial_enabled=False),
    )
    for i, (at_us, priority, kernel, input_name) in enumerate(jobs):
        system.submit_at(at_us, f"job{i}", kernel, input_name,
                         priority=priority)
    result = system.run()
    if not result.all_finished:
        return DifferentialReport(
            oracle="hpf-order", matches=False,
            detail="HPF run did not finish every invocation",
        )
    by_process = {inv.process: inv for inv in system.runtime.invocations}
    actual = sorted(
        range(len(jobs)),
        key=lambda i: (by_process[f"job{i}"].record.finished_at, i),
    )
    actual_pos = {job: pos for pos, job in enumerate(actual)}

    ref_jobs = [
        (at_us, priority, system.predicted_us(kernel, input_name))
        for at_us, priority, kernel, input_name in jobs
    ]
    reference = hpf_reference_order(ref_jobs)
    ref_time = dict(reference)

    for a, (job_a, t_a) in enumerate(reference):
        for job_b, t_b in reference[a + 1:]:
            if t_b - t_a <= slack_us:
                continue  # too close for the reference to call
            if actual_pos[job_a] > actual_pos[job_b]:
                return DifferentialReport(
                    oracle="hpf-order", matches=False,
                    baseline=reference,
                    candidate=[(i, by_process[f"job{i}"].record.finished_at)
                               for i in actual],
                    detail=(
                        f"job{job_a} must finish before job{job_b} "
                        f"(reference: {t_a:.0f}us vs {t_b:.0f}us, "
                        f"slack={slack_us:.0f}us) but the HPF run "
                        "completed them in the opposite order"
                    ),
                )
    return DifferentialReport(
        oracle="hpf-order", matches=True,
        baseline=reference,
        candidate=[(i, by_process[f"job{i}"].record.finished_at)
                   for i in actual],
        detail=f"completion order agrees on {len(jobs)} jobs",
    )


def assert_hpf_matches_brute_force(
    jobs: Sequence[Tuple[float, int, str, str]],
    device: Optional[GPUDeviceSpec] = None,
    suite: Optional[BenchmarkSuite] = None,
    slack_us: Optional[float] = None,
) -> DifferentialReport:
    """:func:`hpf_differential`, raising :class:`OracleMismatch` on
    disagreement."""
    return hpf_differential(jobs, device, suite, slack_us).raise_on_mismatch()
