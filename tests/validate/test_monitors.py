"""Online invariant monitor tests.

The acceptance case for the whole layer is the *planted* defect: run a
correct workload against a spec whose budgets are one unit too small and
the resource monitor must fire at the first over-full event."""

import pytest

from repro.core.flep import FlepSystem
from repro.core.policies.edf import EDFPolicy
from repro.core.policies.hpf import HPFPolicy
from repro.errors import InvariantViolation, ValidationError
from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import (
    KernelImage,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from repro.runtime.engine import RuntimeConfig
from repro.validate import (
    MonitorSet,
    MonotonicTimeMonitor,
    ResourceBudgetMonitor,
    WorkConservationMonitor,
    install_invariant_checker,
    install_monitors,
)
from repro.validate.monitors import off_by_one_spec


def light(name="k", task_us=10.0, threads=64):
    return KernelImage(name, ResourceUsage(threads, 8, 0), TaskModel(task_us))


class TestMonitorSet:
    def test_install_chains_previous_trace_hook(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        seen = []
        sim.set_trace(lambda ev: seen.append(ev.label))
        monitors = install_monitors(gpu)
        gpu.launch(light(), LaunchConfig.original(2))
        sim.run()
        monitors.finalize()
        assert seen  # the pre-existing hook still fires under monitoring

    def test_uninstall_restores_previous_hook(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        previous = lambda ev: None  # noqa: E731
        sim.set_trace(previous)
        install_monitors(gpu).uninstall()
        assert sim._trace is previous

    def test_context_manager_finalizes_and_uninstalls(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        with install_monitors(gpu):
            gpu.launch(light(), LaunchConfig.original(2))
            sim.run()
        assert sim._trace is None

    def test_unmonitored_sim_has_no_trace_hook(self, sim):
        """Zero-cost contract: nothing is installed by default."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        gpu.launch(light(), LaunchConfig.original(2))
        sim.run()
        assert sim._trace is None

    def test_install_monitors_rejects_unknown_target(self):
        with pytest.raises(ValidationError):
            install_monitors(object())


class TestResourceBudget:
    def test_clean_run_passes(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        with install_monitors(gpu):
            gpu.launch(light(), LaunchConfig.original(8))
            sim.run()

    def test_planted_off_by_one_slot_budget_is_caught(self, sim):
        """The canonical plant: audit a correct 2-CTA-per-SM placement
        against a spec allowing only 1 slot. The monitor must fire at the
        event where the second CTA becomes resident, naming the SM."""
        spec = small_test_gpu()
        gpu = SimulatedGPU(sim, spec)
        monitors = MonitorSet(
            sim, [ResourceBudgetMonitor(gpu, spec=off_by_one_spec(spec))]
        ).install()
        gpu.launch(light(), LaunchConfig.original(4))  # 2 CTAs per SM
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert "monitor=resource-budget" in str(exc.value)
        assert "sm=" in str(exc.value)
        monitors.uninstall()

    def test_off_by_one_spec_shaves_every_budget(self):
        spec = small_test_gpu()
        tight = off_by_one_spec(spec)
        assert tight.max_ctas_per_sm == spec.max_ctas_per_sm - 1
        assert tight.max_threads_per_sm == spec.max_threads_per_sm - 1
        assert tight.max_warps_per_sm == spec.max_warps_per_sm - 1
        assert tight.registers_per_sm == spec.registers_per_sm - 1
        assert tight.shared_mem_per_sm == spec.shared_mem_per_sm - 1


class TestWorkConservation:
    def test_tracked_pool_checked_per_event(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        monitor = WorkConservationMonitor(gpu=gpu)
        pool = TaskPool(6)
        monitor.track(pool, "manual")
        MonitorSet(sim, [monitor]).install()
        gpu.launch(light(), LaunchConfig.original(6), pool=pool)
        sim.run()
        monitor.finalize(sim.now)
        assert pool.complete

    def test_require_complete_flags_unfinished_work(self, sim):
        monitor = WorkConservationMonitor(require_complete=True)
        pool = TaskPool(6)
        pool.take(3)  # outstanding work, never finished
        monitor.track(pool, "stuck")
        with pytest.raises(InvariantViolation):
            monitor.finalize(0.0)


class TestFleetBundle:
    """Fleet node sets honour ``require_complete`` (the full drain)."""

    @staticmethod
    def _fleet_with_stuck_pool(suite, require_complete):
        from repro.fleet import FleetConfig, FleetSystem
        from repro.serving import Tenant

        fleet = FleetSystem(
            [Tenant("web", priority=1, slo_us=3_000.0)],
            FleetConfig(node_modes=["flep-spatial"] * 2, oracle_model=True),
            device=suite.device, suite=suite,
        )
        bundle = install_monitors(fleet, require_complete=require_complete)
        conservation = next(
            m for m in bundle.node_sets[0]
            if isinstance(m, WorkConservationMonitor)
        )
        conservation.track(TaskPool(6), "never-run")
        fleet.submit_at(0.0, "web", "SPMV", "trivial")
        fleet.run()
        return bundle

    def test_full_drain_flags_a_never_completed_node_pool(self, suite):
        bundle = self._fleet_with_stuck_pool(suite, require_complete=True)
        with pytest.raises(InvariantViolation, match="work lost"):
            bundle.finalize()

    def test_bounded_window_does_not_demand_completion(self, suite):
        bundle = self._fleet_with_stuck_pool(suite, require_complete=False)
        bundle.finalize()


class TestMonotonicTime:
    def test_normal_run_is_monotone(self, sim):
        MonitorSet(sim, [MonotonicTimeMonitor(sim)]).install()
        for d in (5.0, 1.0, 3.0):
            sim.schedule(d, lambda: None)
        sim.run()  # no violation


class TestInvariantViolationContext:
    def test_context_is_formatted_into_the_message(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        spec = off_by_one_spec(gpu.spec)
        MonitorSet(sim, [ResourceBudgetMonitor(gpu, spec=spec)]).install()
        gpu.launch(light(), LaunchConfig.original(4))
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        err = exc.value
        assert err.context["monitor"] == "resource-budget"
        assert "[" in str(err) and "]" in str(err)


class TestPromotedChecker:
    def test_install_invariant_checker_signature_is_preserved(self, sim):
        """The shim promoted out of tests/gpu keeps its (sim, gpu) call
        shape and now returns the installed MonitorSet."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        monitors = install_invariant_checker(sim, gpu)
        assert isinstance(monitors, MonitorSet)
        assert any(isinstance(m, ResourceBudgetMonitor) for m in monitors)
        gpu.launch(light(), LaunchConfig.original(4))
        sim.run()
        monitors.finalize()


class TestEndToEnd:
    def test_flep_system_run_under_full_monitor_stack(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True),
        )
        monitors = install_monitors(system, require_complete=True)
        system.submit_at(0.0, "low", "NN", "small", priority=0)
        system.submit_at(100.0, "high", "SPMV", "trivial", priority=1)
        result = system.run()
        monitors.finalize()
        assert result.all_finished


class TestDrainCompletionRegression:
    """A temporally-preempted victim whose yield boundary lands on its
    final task completes *while still enqueued as a victim*. The policy
    must drop it from the wait queue instead of re-dispatching a finished
    invocation (found by ``flep fuzz`` seed 42)."""

    class _Inv:
        def __init__(self, priority=0):
            import types

            self.priority = priority
            self.deadline_us = None
            self.record = types.SimpleNamespace(
                remaining_us=10.0, arrived_at=0.0
            )

    def test_hpf_drops_finished_victim_from_queue(self):
        policy = HPFPolicy()
        inv = self._Inv()
        policy.queues.enqueue(inv)
        policy.on_kernel_finished(inv)  # must not touch rt (still None)
        assert inv not in policy.queues
        assert policy.waiting_count() == 0

    def test_edf_drops_finished_victim_from_queue(self):
        policy = EDFPolicy()
        inv = self._Inv(priority=1)
        policy._enqueue(inv)
        policy.on_kernel_finished(inv)
        assert policy.waiting_count() == 0

    def test_fuzz_seed_42_replays_clean(self):
        """The original end-to-end trigger: spatial HPF where a high
        priority arrival temporally preempts MD right at its tail."""
        from repro.validate import generate_case, run_case

        case = generate_case(42)
        result = run_case(case)
        assert result.ok, result.error
