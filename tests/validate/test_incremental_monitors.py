"""Incremental monitors vs the full-scan reference.

Every run below executes twice — once under the monitors ``src/``
ships, once with the full-scan reference classes of
:mod:`tests.validate.full_scan_monitors` swapped in — and both must
reach the same verdict: the same monitor raising the same message, or
both clean. The runs cover the fleet (plain and faulted), the fuzzer's
seed-42 regression, bare-device and MPS runs (grids discovered across
the launch -> enqueue gap), and two planted defects.
"""

import pytest

from repro.baselines.mps_corun import MPSCoRun
from repro.core.flep import FlepSystem
from repro.errors import InvariantViolation
from repro.fleet import FleetConfig, FleetSystem, parse_fault_spec
from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import (
    KernelImage,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from repro.gpu.sim import Simulator
from repro.runtime.engine import RuntimeConfig
from repro.serving import PoissonLoadGen, Tenant
from repro.validate import generate_case, install_monitors, run_case
from repro.validate import monitors as incremental
from repro.validate.monitors import off_by_one_spec

from .full_scan_monitors import REFERENCE

TENANTS = [
    Tenant("web", priority=2, slo_us=3_000.0),
    Tenant("analytics", priority=1, slo_us=25_000.0),
    Tenant("batch", priority=0),
]


def _verdict(run):
    """``None`` for a clean run, else ``(monitor, message)``."""
    try:
        run()
    except InvariantViolation as exc:
        return exc.context.get("monitor"), str(exc).split(" [")[0]
    return None


def _both_ways(monkeypatch, run):
    """The verdict of ``run`` under the incremental monitors, then under
    the full-scan reference."""
    incremental_verdict = _verdict(run)
    with monkeypatch.context() as patched:
        for name, reference in REFERENCE.items():
            patched.setattr(incremental, name, reference)
        reference_verdict = _verdict(run)
    return incremental_verdict, reference_verdict


def _fleet_run(suite, modes, faults=None, duration_ms=20.0):
    def run():
        fleet = FleetSystem(
            TENANTS,
            FleetConfig(node_modes=modes, routing="deadline", seed=5,
                        oracle_model=True, faults=faults),
            device=suite.device, suite=suite,
        )
        bundle = install_monitors(fleet, require_complete=True)
        fleet.add_generator(PoissonLoadGen(
            tenant="web", kernels=("SPMV", "MM", "PL"), rate_per_ms=1.5,
            duration_ms=duration_ms, seed=5, input_names=("trivial",),
            priority=2,
        ))
        fleet.add_generator(PoissonLoadGen(
            tenant="batch", kernels=("VA", "NN"), rate_per_ms=0.1,
            duration_ms=duration_ms, seed=7, input_names=("large",),
            priority=0,
        ))
        fleet.run()
        bundle.finalize()
        bundle.uninstall()
    return run


def light(name="k", task_us=10.0, threads=64):
    return KernelImage(name, ResourceUsage(threads, 8, 0), TaskModel(task_us))


class TestDifferential:
    def test_small_spatial_fleet(self, suite, monkeypatch):
        run = _fleet_run(suite, ("flep-spatial",) * 3)
        assert _both_ways(monkeypatch, run) == (None, None)

    def test_faulted_fleet_crash_rejoin_drain(self, suite, monkeypatch):
        plan = parse_fault_spec(
            "crash@4000:n0,drain@6000:n1+4000,rejoin@9000:n0"
        )
        run = _fleet_run(
            suite, ("flep-spatial", "flep-temporal", "mps"), faults=plan,
        )
        assert _both_ways(monkeypatch, run) == (None, None)

    def test_fuzz_seed_42(self, monkeypatch):
        def run():
            result = run_case(generate_case(42))
            assert result.ok, result.error

        assert _both_ways(monkeypatch, run) == (None, None)

    def test_bare_gpu_discovers_grids_across_the_launch_gap(
        self, monkeypatch
    ):
        """Grids reach the device queue one launch overhead after
        ``launch()``; several are launched mid-run from inside events."""

        def run():
            sim = Simulator()
            gpu = SimulatedGPU(sim, small_test_gpu())
            with install_monitors(gpu, require_complete=True):
                for i in range(4):
                    sim.schedule(
                        15.0 * i,
                        lambda i=i: gpu.launch(
                            light(f"k{i}"), LaunchConfig.original(6 + i)
                        ),
                    )
                sim.run()

        assert _both_ways(monkeypatch, run) == (None, None)

    def test_mps_corun(self, suite, monkeypatch):
        def run():
            corun = MPSCoRun(device=suite.device, suite=suite)
            with install_monitors(corun, require_complete=True):
                corun.submit_at(0.0, "a", "NN", "small")
                corun.submit_at(50.0, "b", "SPMV", "trivial")
                corun.submit_at(120.0, "a", "VA", "small")
                corun.run()

        assert _both_ways(monkeypatch, run) == (None, None)

    def test_planted_off_by_one_spec(self, suite, monkeypatch):
        def run():
            system = FlepSystem(
                policy="hpf", device=suite.device, suite=suite,
                config=RuntimeConfig(oracle_model=True),
            )
            with install_monitors(
                system, spec=off_by_one_spec(suite.device)
            ):
                system.submit_at(0.0, "low", "NN", "small", priority=0)
                system.submit_at(100.0, "high", "SPMV", "trivial",
                                 priority=1)
                system.run()

        verdicts = _both_ways(monkeypatch, run)
        assert verdicts[0] is not None
        assert verdicts[0][0] == "resource-budget"
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize("plant, message", [
        ("phantom", "task conservation broken"),
        ("rollback", "committed tasks decreased (double commit/rollback)"),
    ])
    def test_planted_conservation_break(self, monkeypatch, plant, message):
        """Corrupt a hand-tracked pool mid-run: both monitor sets must
        name the same broken invariant."""

        def run():
            sim = Simulator()
            gpu = SimulatedGPU(sim, small_test_gpu())
            pool = TaskPool(40)
            monitors = install_monitors(gpu)
            wc = next(
                m for m in monitors
                if isinstance(m, incremental.WorkConservationMonitor)
            )
            wc.track(pool, "planted")
            gpu.launch(light(), LaunchConfig.original(40), pool=pool)

            def corrupt():
                assert 0 < pool.done < pool.total
                if plant == "phantom":
                    pool._remaining += 1
                else:
                    pool._done -= 1
                    pool._remaining += 1

            sim.schedule(120.0, corrupt)
            # observed at the same instant, before more tasks commit
            sim.schedule(120.0, lambda: None)
            try:
                sim.run()
            finally:
                monitors.uninstall()

        verdicts = _both_ways(monkeypatch, run)
        assert verdicts[0] == ("work-conservation", message)
        assert verdicts[0] == verdicts[1]


def _scale_fleet_pool_counts(duration_ms):
    """Run the scale trace (4 spatial GPUs, 6 tiered tenants) for
    ``duration_ms`` under the fleet's monitors. Returns the most pools
    any one conservation monitor checked in a single event, and how
    many all of them still tracked at finalize."""
    tenants = [
        Tenant(f"web{i}", priority=2, slo_us=4_000.0) if i % 3 == 0 else
        Tenant(f"analytics{i}", priority=1, slo_us=20_000.0) if i % 3 == 1
        else Tenant(f"batch{i}", priority=0)
        for i in range(6)
    ]
    fleet = FleetSystem(
        tenants, FleetConfig(node_modes=["flep-spatial"] * 4, seed=11),
    )
    bundle = install_monitors(fleet, require_complete=True)
    conservation = [
        m for node_set in bundle for m in node_set
        if isinstance(m, incremental.WorkConservationMonitor)
    ]
    peak = [0]
    for m in conservation:
        # every pool tracked once discovery is done is checked this event
        def discover(m=m, original=m._discover):
            original()
            peak[0] = max(peak[0], len(m._pools))
        m._discover = discover
    for i, t in enumerate(tenants):
        fleet.add_generator(PoissonLoadGen(
            tenant=t.name, kernels=("SPMV", "MM", "PL"), rate_per_ms=0.2,
            duration_ms=duration_ms, seed=11 + i, input_names=("small",),
            priority=t.priority,
        ))
    report = fleet.run()
    bundle.finalize()
    requests = sum(t.requests for t in report.serving.tenants)
    return requests, peak[0], sum(len(m._pools) for m in conservation)


class TestLiveStateBound:
    def test_pools_checked_do_not_grow_with_run_length(self):
        """Per-event checking is O(live state): doubling the trace must
        not grow the pools checked per event or left at finalize (a
        monitor that keeps every pool it has seen grows both linearly)."""
        n, peak_n, left_n = _scale_fleet_pool_counts(50.0)
        n2, peak_2n, left_2n = _scale_fleet_pool_counts(100.0)
        assert n2 >= 1.8 * n
        assert peak_2n <= peak_n + 2, (peak_n, peak_2n)
        assert left_2n <= left_n + 2, (left_n, left_2n)
