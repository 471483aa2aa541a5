"""The benchmark's four workloads: seeded input generation, execution
through the simulator's public entry points, and the output check.

Every workload splits into two phases:

* ``generate(seed, scale)`` draws all inputs from the seed — arrival
  traces, fault plans, co-run pairs and offsets. It runs outside the
  timed window, and the program sees only what it returns.
* ``execute(inputs)`` builds the system(s) from those inputs, runs them
  to completion and returns an :class:`Outcome`. This is the timed work.

Arrivals are open-loop in simulated time. Nothing is paced in host time,
so a slow host runs the same schedule more slowly and never changes it.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import FlepSystem, RuntimeConfig
from repro.fleet import (
    FaultEvent,
    FaultPlan,
    FleetConfig,
    FleetHook,
    FleetSystem,
)
from repro.gpu.cta import CTAState
from repro.gpu.trace import collected_schedule_hashes, combined_schedule_hash
from repro.serving import Tenant, TenantSet
from repro.validate import install_monitors
from repro.workloads.synthetic import Arrival, ArrivalTrace

#: SLO of the highest-priority tier, in simulated µs. It matches the
#: default ``flep fleet --slo``, so all four workloads judge their top
#: tier against the same limit.
HIGH_SLO_US = 4_000.0

#: Fleet workloads: the per-tenant kernel mix of the ROADMAP scale trace.
FLEET_KERNELS = ("SPMV", "MM", "PL")

#: The eight Table-1 kernels.
TABLE1_KERNELS = ("CFD", "NN", "PF", "PL", "MD", "SPMV", "MM", "VA")


@dataclass
class Outcome:
    """What one execution of a workload produced, read from the
    program's public reports after the run."""

    #: requests the benchmark submitted
    requests: int
    #: requests that completed (the rest were shed, rate-limited, lost
    #: or never accounted for)
    served: int
    #: True when every submitted request ended in exactly one terminal
    #: bucket and none is pending
    ledger_closed: bool
    #: crc32 over the kernel-level timeline of every device built
    schedule_hash: str
    #: arrival-to-completion times of the highest-priority requests
    high_latencies_us: List[float] = field(default_factory=list)
    #: SLO-carrying requests, and how many met their SLO (misses
    #: include sheds and losses)
    slo_total: int = 0
    slo_met: int = 0
    #: preemption-request-to-drained time of every kernel a preemption
    #: drained, and CTA residency against SM capacity (both filled only
    #: by a probed execution, see :class:`DeviceProbe`)
    drain_latencies_us: List[float] = field(default_factory=list)
    cta_residency_us: float = 0.0
    sm_capacity_us: float = 0.0
    #: layer ledger counts (routes, steals, reroutes, lost, admitted,
    #: shed, invocations)
    counts: Counter = field(default_factory=Counter)
    #: (host seconds, requests, simulated µs) of every separately timed
    #: part of the execution (one fleet episode, or one whole system)
    parts: List[tuple] = field(default_factory=list)


def check(outcome: Outcome, reference_hash: str) -> List[str]:
    """The output check: the problems found, empty when the run is
    correct. The ledger must close and the schedule hash must equal the
    reference loop's hash on the same inputs."""
    problems = []
    if not outcome.ledger_closed:
        problems.append("conservation ledger does not close")
    if outcome.schedule_hash != reference_hash:
        problems.append(
            f"schedule hash {outcome.schedule_hash} != reference "
            f"{reference_hash}"
        )
    return problems


class DeviceProbe:
    """A device tracer (the ``SimulatedGPU.tracer`` hook) that records
    what the untraced run does not: every CTA's residency, and for each
    kernel a preemption drained, the time from the preemption request
    until its last CTA yielded. Attached only outside the timed window."""

    def __init__(self, gpu):
        self.sim = gpu.sim
        self.start_us = gpu.sim.now
        self.num_sms = gpu.spec.num_sms
        self.residency_us = 0.0
        #: grid -> request-to-last-yield time
        self.drains_us: Dict[object, float] = {}
        gpu.tracer = self

    def context_placed(self, ctx, grid) -> None:
        pass

    def context_retired(self, ctx, now: float) -> None:
        self.residency_us += now - ctx.started_at
        if ctx.state is CTAState.YIELDED:
            self.drains_us[ctx.grid] = now - ctx.grid.preempt_requested_at


class _RejoinProbe(FleetHook):
    """Probes the fresh device a rejoining node comes back with."""

    def __init__(self, fleet: FleetSystem, probes: List[DeviceProbe]):
        self.fleet = fleet
        self.probes = probes

    def on_fault(self, event, node: int) -> None:
        if event.kind == "rejoin":
            self.probes.append(
                DeviceProbe(self.fleet.nodes[node].backend.gpu)
            )


def _probe_into(out: "Outcome", probes: List[DeviceProbe]) -> None:
    for p in probes:
        out.drain_latencies_us += p.drains_us.values()
        out.cta_residency_us += p.residency_us
        out.sm_capacity_us += p.num_sms * (p.sim.now - p.start_us)


# ---------------------------------------------------------------------------
# fleet workloads
# ---------------------------------------------------------------------------
def _tier_tenants(tiers: Sequence[str]) -> TenantSet:
    """One tenant per entry of ``tiers``: ``web`` (priority 2, tight
    SLO), ``analytics`` (priority 1, loose SLO) or ``batch`` (best
    effort) — the tiers of ``flep fleet``'s tenant mix."""
    tenants = []
    for i, tier in enumerate(tiers):
        if tier == "web":
            tenants.append(Tenant(f"web{i}", priority=2, slo_us=HIGH_SLO_US))
        elif tier == "analytics":
            tenants.append(
                Tenant(f"analytics{i}", priority=1, slo_us=5 * HIGH_SLO_US)
            )
        else:
            tenants.append(Tenant(f"batch{i}", priority=0))
    return TenantSet(tenants)


#: ``flep fleet --tenants 6``: the three tiers in turn
FLEET_TIERS = ("web", "analytics", "batch") * 2


@dataclass
class Episode:
    """One fleet run: its arrival traces and fault plan."""

    seed: int
    traces: List[ArrivalTrace]
    faults: Optional[FaultPlan] = None

    @property
    def requests(self) -> int:
        return sum(len(t.arrivals) for t in self.traces)


@dataclass
class FleetInputs:
    """A fleet configuration and the episodes it runs, one after another."""

    node_modes: Sequence[str]
    routing: str
    admission: Optional[bool]
    tenants: TenantSet
    episodes: List[Episode]

    @property
    def requests(self) -> int:
        return sum(e.requests for e in self.episodes)


def _poisson_traces(
    rng: random.Random, tenants: TenantSet, rate_per_ms: float,
    duration_ms: float,
) -> List[ArrivalTrace]:
    """One open-loop Poisson trace per tenant, conditioned on its mean
    count: ``rate × duration`` arrivals placed uniformly at random, which
    is how a Poisson process spreads a given number of arrivals. Fixing
    the count, and drawing kernels in balanced seeded rounds, keeps the
    amount and mix of work, and with it every figure, steady from seed
    to seed; only the arrival pattern changes."""
    horizon = duration_ms * 1000.0
    count = max(1, round(rate_per_ms * duration_ms))
    traces = []
    for t in tenants:
        times = sorted(rng.uniform(0.0, horizon) for _ in range(count))
        kernels = _rounds(rng, FLEET_KERNELS, count)
        traces.append(ArrivalTrace(arrivals=[
            Arrival(at, kernel, "small", priority=t.priority, tenant=t.name)
            for at, kernel in zip(times, kernels)
        ]))
    return traces


def _rounds(rng: random.Random, items: Sequence, n: int) -> List:
    """``n`` items taken from back-to-back seeded shuffles of ``items``:
    each appears equally often, so the mix stays the same from seed to
    seed."""
    out: List = []
    while len(out) < n:
        batch = list(items)
        rng.shuffle(batch)
        out += batch
    return out[:n]


def generate_fleet_scale(seed: int, scale: float = 1.0) -> FleetInputs:
    """The ROADMAP scale trace: four flep-spatial GPUs, six tenants at
    0.2 requests/ms each, deadline routing, EDF, stealing, no faults —
    one long run, so costs that grow with run length show."""
    rng = random.Random(seed)
    tenants = _tier_tenants(FLEET_TIERS)
    return FleetInputs(
        node_modes=("flep-spatial",) * 4,
        routing="deadline",
        admission=None,
        tenants=tenants,
        episodes=[Episode(
            seed, _poisson_traces(rng, tenants, 0.2, 160.0 * scale)
        )],
    )


#: the fleet: node 1 crashes and rejoins, node 2 drains, node 3 stalls
CHAOS_NODES = ("flep-spatial", "flep-temporal", "mps", "flep-spatial")
#: web-heavy, so the top-tier percentiles rest on many requests
CHAOS_TIERS = ("web", "web", "analytics", "web", "batch", "web")
#: background Poisson rate per tenant (requests/ms)
CHAOS_RATE = 0.8
CHAOS_EPISODES = 4
CHAOS_EPISODE_MS = 10.0
#: requests in the flash crowd that precedes the crash
CHAOS_BURST = 24


def _chaos_episode(
    rng: random.Random, tenants: TenantSet, duration_ms: float
) -> Episode:
    """Poisson load below capacity, a stall, a flash crowd of analytics
    and batch work with a crash right behind it, a rejoin, and a drain.

    Round-robin routing hands a quarter of the flash crowd to the
    flep-temporal node on top of its running work, more than its
    dispatch window of four holds, so the crash that follows within
    100 µs catches queued work, which the dispatcher must re-route. The
    crowd pushes the offered load past capacity, so admission sheds and
    the stealer rebalances.
    """
    horizon = duration_ms * 1000.0
    top = max(t.priority for t in tenants)
    traces = _poisson_traces(rng, tenants, CHAOS_RATE, duration_ms)
    burst_at = rng.uniform(0.35, 0.40) * horizon
    bulk = [t for t in tenants if t.priority < top]
    crowd = [t for t in bulk for _ in range(CHAOS_BURST // len(bulk))]
    kernels = _rounds(rng, FLEET_KERNELS, len(crowd))
    traces.append(ArrivalTrace(arrivals=[
        Arrival(burst_at + rng.uniform(0.0, 20.0), kernel, "small",
                priority=t.priority, tenant=t.name)
        for t, kernel in zip(crowd, kernels)
    ]))
    crash_at = burst_at + rng.uniform(40.0, 100.0)
    faults = FaultPlan((
        FaultEvent(
            "stall", 3, rng.uniform(0.10, 0.15) * horizon,
            duration_us=rng.uniform(0.06, 0.08) * horizon,
        ),
        FaultEvent("crash", 1, crash_at),
        FaultEvent(
            "rejoin", 1, crash_at + rng.uniform(0.18, 0.22) * horizon
        ),
        FaultEvent(
            "drain", 2, rng.uniform(0.65, 0.70) * horizon,
            deadline_us=rng.uniform(0.06, 0.08) * horizon,
        ),
    ))
    return Episode(rng.randrange(2 ** 31), traces, faults)


def generate_fleet_chaos(seed: int, scale: float = 1.0) -> FleetInputs:
    """A heterogeneous fleet (flep-spatial, flep-temporal, mps,
    flep-spatial) with admission on, hit by a seeded fault plan, run as
    several independent episodes. One overloaded run's tail latencies
    hinge on a handful of requests; pooling independent episodes keeps
    the figures close from seed to seed."""
    rng = random.Random(seed)
    tenants = _tier_tenants(CHAOS_TIERS)
    return FleetInputs(
        node_modes=CHAOS_NODES,
        routing="round-robin",
        admission=True,
        tenants=tenants,
        episodes=[
            _chaos_episode(rng, tenants, CHAOS_EPISODE_MS * scale)
            for _ in range(CHAOS_EPISODES)
        ],
    )


def build_fleet(inputs: FleetInputs, episode: Episode,
                monitors: bool = True):
    """One episode's fleet and its monitors, wired exactly as
    ``flep fleet`` wires them."""
    fleet = FleetSystem(inputs.tenants, FleetConfig(
        node_modes=inputs.node_modes,
        routing=inputs.routing,
        policy="edf",
        admission=inputs.admission,
        seed=episode.seed,
        faults=episode.faults,
    ))
    bundle = (
        install_monitors(fleet, require_complete=True) if monitors else None
    )
    for trace in episode.traces:
        fleet.add_trace(trace)
    return fleet, bundle


class _Ticker(FleetHook):
    """Calls ``tick`` at every co-simulation control point."""

    def __init__(self, tick: Callable[[], None]):
        self.on_advance = lambda now: tick()


def execute_fleet(
    inputs: FleetInputs, probe: bool = False, monitors: bool = True,
    tick: Optional[Callable[[], None]] = None,
) -> Outcome:
    """Run every episode; ``tick`` (a :class:`calibrate.HostClock`'s)
    is called at every control point so a long run can sample the host
    speed from inside."""
    top = max(t.priority for t in inputs.tenants)
    high = {t.name for t in inputs.tenants if t.priority == top}
    out = Outcome(requests=0, served=0, ledger_closed=True,
                  schedule_hash="")
    digests = []
    for episode in inputs.episodes:
        t0 = time.perf_counter()
        # the window spans construction too: a rejoin builds a fresh
        # device mid-run, and its digest belongs in the hash
        with collected_schedule_hashes() as scheds:
            fleet, bundle = build_fleet(inputs, episode, monitors)
            if tick is not None:
                fleet.hooks.append(_Ticker(tick))
            probes: List[DeviceProbe] = []
            if probe:
                fleet.hooks.append(_RejoinProbe(fleet, probes))
                probes += [DeviceProbe(n.backend.gpu) for n in fleet.nodes]
            report = fleet.run()
        if bundle is not None:
            bundle.finalize()
        out.parts.append((time.perf_counter() - t0, episode.requests,
                          sum(n.makespan_us for n in report.nodes)))
        digests += [s.hexdigest for s in scheds]
        logs = fleet.tracker.requests
        cons = report.conservation
        out.requests += episode.requests
        out.served += cons["completed"]
        out.ledger_closed &= (
            bool(cons["accounted"]) and cons["opened"] == episode.requests
        )
        out.high_latencies_us += [
            log.latency_us for log in logs
            if log.tenant in high and log.latency_us is not None
        ]
        slo_logs = [log for log in logs if log.slo_us is not None]
        out.slo_total += len(slo_logs)
        out.slo_met += sum(1 for log in slo_logs if log.slo_met)
        _probe_into(out, probes)
        out.counts.update({
            "routes": sum(n.routed for n in report.nodes),
            "steals": len(report.steals),
            "reroutes": len(report.reroutes),
            "lost": report.lost,
            "admitted": cons["opened"] - cons["shed"] - cons["rate_limited"],
            "shed": cons["shed"] + cons["rate_limited"],
            "invocations": sum(n.stats.dispatched for n in fleet.nodes),
        })
    out.schedule_hash = combined_schedule_hash(digests)
    return out


def prepare_fleet(inputs: FleetInputs):
    return build_fleet(inputs, inputs.episodes[0])


# ---------------------------------------------------------------------------
# single-GPU workloads
# ---------------------------------------------------------------------------
@dataclass
class FlepInputs:
    """Arrivals for one FlepSystem, the process submitting each, and
    whether the runtime may preempt spatially."""

    arrivals: List[Arrival]
    processes: List[str]
    spatial_enabled: bool = True

    @property
    def requests(self) -> int:
        return len(self.arrivals)


def _predictor() -> Callable[[str, str], float]:
    return FlepSystem(policy="hpf").predicted_us


def generate_fig8_chains(seed: int, scale: float = 1.0) -> FlepInputs:
    """Figure-8 HPF co-run pairs on one GPU, one after another: a large
    low-priority kernel, then a small high-priority follower at a seeded
    offset into it. The 56 ordered pairs of distinct Table-1 kernels
    each run twice; the seed chooses their order and every follower's
    offset. Covering every pair keeps the statistics close across seeds.
    Pairs are spaced so one finishes well before the next arrives, which
    keeps every co-run a clean pair while one runtime (one trained
    model) serves them all."""
    rng = random.Random(seed)
    predict = _predictor()
    pairs = [(lo, hi) for lo in TABLE1_KERNELS for hi in TABLE1_KERNELS
             if lo != hi]
    order: List[tuple] = []
    for _ in range(2):
        rng.shuffle(pairs)
        order += pairs
    arrivals: List[Arrival] = []
    processes: List[str] = []
    at = 0.0
    for i, (low, high) in enumerate(order[:max(1, round(len(order) * scale))]):
        low_us = predict(low, "large")
        offset = rng.uniform(0.10, 0.60) * low_us
        arrivals.append(Arrival(at, low, "large", priority=0))
        arrivals.append(Arrival(at + offset, high, "small", priority=1))
        processes += [f"low{i}", f"high{i}"]
        at += 2.0 * (low_us + predict(high, "small")) + 1_000.0
    return FlepInputs(arrivals=arrivals, processes=processes)


def generate_preempt_storm(seed: int, scale: float = 1.0) -> FlepInputs:
    """Back-to-back long low-priority kernels under temporal-only HPF,
    hit by a trivial high-priority arrival every ~2.5 ms for as long as
    the batch queue lasts. Preemptions grow with the number of batch
    kernels, so the storm scales with the run."""
    rng = random.Random(seed)
    predict = _predictor()
    batch = ("NN", "VA", "MD", "CFD")
    arrivals: List[Arrival] = []
    processes: List[str] = []
    horizon = 0.0
    for kernel in _rounds(rng, batch, max(1, round(24 * scale))):
        arrivals.append(Arrival(0.0, kernel, "large", priority=0))
        processes.append("batch")
        horizon += predict(kernel, "large")
    # one arrival per 2.5 ms slot, jittered by up to half a millisecond
    slots = max(1, int((horizon - 200.0) // 2_500.0))
    for i, kernel in enumerate(_rounds(rng, FLEET_KERNELS, slots)):
        at = 200.0 + 2_500.0 * i + rng.uniform(0.0, 500.0)
        arrivals.append(Arrival(at, kernel, "trivial", priority=1))
        processes.append(f"rt{i}")
    return FlepInputs(
        arrivals=arrivals, processes=processes, spatial_enabled=False
    )


def build_flep(inputs: FlepInputs) -> FlepSystem:
    system = FlepSystem(
        policy="hpf",
        config=RuntimeConfig(spatial_enabled=inputs.spatial_enabled),
    )
    for a, proc in zip(inputs.arrivals, inputs.processes):
        system.submit_at(a.at_us, proc, a.kernel_name, a.input_name,
                         priority=a.priority)
    return system


def execute_flep(
    inputs: FlepInputs, probe: bool = False, monitors: bool = True,
    tick: Optional[Callable[[], None]] = None,
) -> Outcome:
    """``monitors`` and ``tick`` are accepted for a uniform signature:
    the single-GPU workloads run without monitors, and take about a
    second, short enough for the samples around them."""
    t0 = time.perf_counter()
    with collected_schedule_hashes() as scheds:
        system = build_flep(inputs)
        probes = [DeviceProbe(system.gpu)] if probe else []
        result = system.run()
    wall = time.perf_counter() - t0
    invs = result.invocations
    done = [inv for inv in invs if inv.finished]
    top = max(a.priority for a in inputs.arrivals)
    high = [
        inv.record.finished_at - inv.record.arrived_at
        for inv in done if inv.priority == top
    ]
    out = Outcome(
        requests=inputs.requests,
        served=len(done),
        ledger_closed=len(invs) == inputs.requests
        and len(done) == len(invs),
        schedule_hash=combined_schedule_hash([s.hexdigest for s in scheds]),
        high_latencies_us=high,
        slo_total=sum(1 for a in inputs.arrivals if a.priority == top),
        slo_met=sum(1 for lat in high if lat <= HIGH_SLO_US),
        counts=Counter(invocations=len(invs)),
        parts=[(wall, inputs.requests, result.makespan_us)],
    )
    _probe_into(out, probes)
    return out


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[..., object]
    execute: Callable[..., Outcome]
    #: builds the first system without running it (the set-up probe)
    prepare: Callable[[object], object]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet_scale", generate_fleet_scale, execute_fleet,
                 prepare_fleet),
        Workload("fleet_chaos", generate_fleet_chaos, execute_fleet,
                 prepare_fleet),
        Workload("fig8_chains", generate_fig8_chains, execute_flep,
                 build_flep),
        Workload("preempt_storm", generate_preempt_storm, execute_flep,
                 build_flep),
    )
}
