"""Conformance subsystem: machine-checked correctness for the FLEP stack.

Three layers, each usable on its own:

* **Online invariant monitors** (:mod:`.monitors`) — attachable to any
  :class:`~repro.gpu.sim.Simulator` / :class:`~repro.gpu.gpu.SimulatedGPU`
  / :class:`~repro.runtime.engine.FlepRuntime` /
  :class:`~repro.core.flep.FlepSystem` as subscribers on the simulator's
  bus (:mod:`repro.obs.bus`). They re-check SM resource budgets, task
  conservation, event-time monotonicity, spatial ``%smid`` partitioning
  and the HPF/FFS policy contracts after every simulated event, raising
  :class:`~repro.errors.InvariantViolation` the moment a state is illegal.
  Nothing is installed by default: an unmonitored run pays zero cost.
  Installed, an event costs work in proportion to live state (resident
  CTAs, unfinished pools, the device queue), never to run history: a
  task pool is retired after its final check at completion.

* **Differential oracles** (:mod:`.oracles`) — two independent executions
  that must agree: never-preempted temporal FLEP vs the raw
  persistent-thread baseline (timeline-identical), and oracle-model HPF
  vs a brute-force preemptive-priority/SRT schedule on small instances
  (completion-order-identical). Disagreement raises
  :class:`~repro.errors.OracleMismatch`.

* **A seed-minimizing workload fuzzer** (:mod:`.fuzz`, CLI ``flep
  fuzz``) — generates seeded random kernel mixes / arrival traces /
  preemption-inducing priorities across ``mps | flep-temporal |
  flep-spatial`` and all policies, runs each case under the monitors and
  (where applicable) the oracles, and shrinks any failure to a minimal
  reproducer replayable with a one-line ``flep fuzz --replay TOKEN``.
"""

from ..errors import InvariantViolation, OracleMismatch, ValidationError
from .fleet import (
    FleetConformanceMonitor,
    FleetMonitorBundle,
    install_fleet_monitor,
)
from .fuzz import (
    FleetFuzzCase,
    FuzzCase,
    FuzzFailure,
    FuzzJob,
    FuzzReport,
    FuzzResult,
    decode_case,
    encode_case,
    fuzz,
    generate_case,
    generate_fleet_case,
    run_case,
    shrink,
)
from .monitors import (
    FFSShareMonitor,
    HPFContractMonitor,
    Monitor,
    MonitorSet,
    MonotonicTimeMonitor,
    ResourceBudgetMonitor,
    SpatialPartitionMonitor,
    WorkConservationMonitor,
    install_invariant_checker,
    install_monitors,
)
from .oracles import (
    DifferentialReport,
    assert_hpf_matches_brute_force,
    assert_temporal_matches_baseline,
    hpf_differential,
    hpf_reference_order,
    temporal_differential,
)

__all__ = [
    "ValidationError",
    "InvariantViolation",
    "OracleMismatch",
    # monitors
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
    # fleet
    "FleetConformanceMonitor",
    "FleetMonitorBundle",
    "install_fleet_monitor",
    # oracles
    "DifferentialReport",
    "temporal_differential",
    "assert_temporal_matches_baseline",
    "hpf_reference_order",
    "hpf_differential",
    "assert_hpf_matches_brute_force",
    # fuzz
    "FuzzJob",
    "FuzzCase",
    "FleetFuzzCase",
    "FuzzResult",
    "FuzzFailure",
    "FuzzReport",
    "generate_case",
    "generate_fleet_case",
    "run_case",
    "shrink",
    "fuzz",
    "encode_case",
    "decode_case",
]
