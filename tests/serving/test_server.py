"""ServingSystem integration tests: the one front-end over the MPS and
FLEP backends, admission wiring, closed loops, determinism."""

import pytest

from repro.errors import ServingError
from repro.serving import (
    ClosedLoopClient,
    PoissonLoadGen,
    ServingConfig,
    ServingSystem,
    Tenant,
    TenantSet,
)

SLO_US = 2_000.0


def two_tenants(**interactive_kwargs):
    kwargs = dict(priority=1, slo_us=SLO_US)
    kwargs.update(interactive_kwargs)
    return TenantSet([
        Tenant("batch", priority=0),
        Tenant("interactive", **kwargs),
    ])


def cloud_server(suite, mode, tenants=None, **config_kwargs):
    """The §2.2 scenario: one long batch job + a query stream."""
    server = ServingSystem(
        tenants or two_tenants(),
        ServingConfig(mode=mode, seed=7, **config_kwargs),
        device=suite.device,
        suite=suite,
    )
    server.submit_at(0.0, "batch", "VA", "large")
    server.add_generator(PoissonLoadGen(
        tenant="interactive", kernels=["SPMV", "MM", "PL"],
        rate_per_ms=0.2, duration_ms=25.0, seed=7,
        input_names=("trivial",), priority=1,
    ))
    return server


class TestModes:
    def test_mps_head_of_line_blocking_destroys_attainment(self, suite):
        report = cloud_server(suite, "mps").run()
        row = report.tenant("interactive")
        assert row.requests > 0
        assert row.attainment == 0.0          # everything waits ~30 ms
        assert row.p50_us > 10_000.0

    def test_flep_spatial_beats_mps(self, suite):
        """The acceptance-criteria comparison at one load point."""
        mps = cloud_server(suite, "mps").run().tenant("interactive")
        flep = cloud_server(
            suite, "flep-spatial"
        ).run().tenant("interactive")
        assert flep.attainment > mps.attainment
        assert flep.attainment == 1.0
        assert flep.p99_us < SLO_US

    def test_flep_temporal_also_meets_slo(self, suite):
        row = cloud_server(suite, "flep-temporal").run().tenant("interactive")
        assert row.attainment == 1.0

    def test_deterministic_per_seed(self, suite):
        a = cloud_server(suite, "flep-spatial").run().as_dict()
        b = cloud_server(suite, "flep-spatial").run().as_dict()
        assert a == b

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServingError, match="unknown serving mode"):
            ServingConfig(mode="bare-metal")


class TestAdmission:
    def test_accept_path_under_light_load(self, suite):
        """A trivially-satisfiable query is admitted, not shed."""
        server = cloud_server(suite, "flep-spatial")
        report = server.run()
        row = report.tenant("interactive")
        assert row.shed == 0
        assert row.completed == row.requests

    def test_shed_path_when_prediction_exceeds_budget(self, suite):
        """A 31 ms kernel can never meet a 100 µs SLO: admission must
        shed it rather than serve a guaranteed-late answer."""
        tenants = two_tenants(slo_us=100.0)
        server = ServingSystem(
            tenants,
            ServingConfig(mode="flep-spatial", seed=7),
            device=suite.device, suite=suite,
        )
        server.submit_at(100.0, "interactive", "VA", "large")
        report = server.run()
        row = report.tenant("interactive")
        assert row.requests == 1
        assert row.shed == 1
        assert row.completed == 0
        assert row.attainment == 0.0

    def test_admission_off_serves_everything(self, suite):
        """With admission disabled the same doomed request is served."""
        tenants = two_tenants(slo_us=100.0)
        server = ServingSystem(
            tenants,
            ServingConfig(mode="flep-spatial", seed=7, admission=False),
            device=suite.device, suite=suite,
        )
        server.submit_at(100.0, "interactive", "VA", "large")
        row = server.run().tenant("interactive")
        assert row.shed == 0
        assert row.completed == 1
        assert row.attainment == 0.0          # served, but late

    def test_mps_defaults_to_no_admission(self, suite):
        assert not ServingConfig(mode="mps").admission_enabled
        assert ServingConfig(mode="mps", admission=True).admission_enabled
        assert ServingConfig(mode="flep-spatial").admission_enabled

    def test_rate_limit_sheds_excess(self, suite):
        """A tiny token bucket clips a hot stream; drops are reported
        as rate_limited, not as SLO sheds."""
        tenants = two_tenants(rate_limit_rps=100.0, burst=1)
        server = ServingSystem(
            tenants,
            ServingConfig(mode="flep-spatial", seed=7),
            device=suite.device, suite=suite,
        )
        server.add_generator(PoissonLoadGen(
            tenant="interactive", kernels=["SPMV"],
            rate_per_ms=1.0, duration_ms=10.0, seed=3,
            input_names=("trivial",), priority=1,
        ))
        row = server.run().tenant("interactive")
        assert row.rate_limited > 0
        assert row.shed == 0
        assert row.completed + row.rate_limited == row.requests


class TestWiring:
    def test_unknown_tenant_in_trace_rejected(self, suite):
        server = ServingSystem(
            two_tenants(), ServingConfig(mode="flep-spatial"),
            device=suite.device, suite=suite,
        )
        with pytest.raises(ServingError, match="unknown tenant"):
            server.submit_at(0.0, "nobody", "VA", "large")

    def test_run_requires_workload(self, suite):
        server = ServingSystem(
            two_tenants(), ServingConfig(mode="flep-spatial"),
            device=suite.device, suite=suite,
        )
        with pytest.raises(ServingError, match="nothing to serve"):
            server.run()

    def test_runs_once(self, suite):
        server = cloud_server(suite, "flep-spatial")
        server.run()
        with pytest.raises(ServingError, match="runs once"):
            server.run()

    def test_closed_loop_issues_all_requests(self, suite):
        server = ServingSystem(
            two_tenants(), ServingConfig(mode="flep-spatial", seed=1),
            device=suite.device, suite=suite,
        )
        server.add_closed_loop(ClosedLoopClient(
            tenant="interactive", kernel="SPMV", input_name="trivial",
            concurrency=2, think_us=50.0, max_requests=6,
        ))
        row = server.run().tenant("interactive")
        assert row.requests == 6
        assert row.completed == 6
        assert row.attainment == 1.0

    def test_closed_loop_unknown_tenant_rejected(self, suite):
        server = ServingSystem(
            two_tenants(), ServingConfig(mode="flep-spatial"),
            device=suite.device, suite=suite,
        )
        with pytest.raises(ServingError, match="unknown tenant"):
            server.add_closed_loop(ClosedLoopClient("nobody", "SPMV"))


class TestObservability:
    def test_serving_metrics_exported(self, suite):
        from repro.obs import Observability

        hub = Observability()
        server = ServingSystem(
            two_tenants(), ServingConfig(mode="flep-spatial", seed=7),
            device=suite.device, suite=suite, observability=hub,
        )
        server.submit_at(0.0, "interactive", "SPMV", "trivial")
        server.run()
        text = hub.metrics.render_prometheus()
        assert 'flep_serving_requests_total{tenant="interactive",outcome="completed"} 1' in text
        assert "flep_serving_goodput_rps" in text

    @pytest.mark.parametrize("mode", ["mps", "flep-spatial"])
    def test_device_metrics_recorded_in_every_mode(self, suite, mode):
        """The hub reaches the backend's simulator whichever backend
        serves: events, CTA admissions and launches are all counted."""
        server = ServingSystem(
            two_tenants(), ServingConfig(mode=mode, seed=7),
            device=suite.device, suite=suite, observability=True,
        )
        server.submit_at(0.0, "batch", "MM", "small")
        server.submit_at(50.0, "interactive", "SPMV", "trivial")
        server.run()
        hub = server.obs
        assert server.sim.bus.find(type(hub)) is hub
        assert hub.m_sim_events.total > 0
        assert hub.m_cta_admissions.total > 0
        assert hub.m_launches.total >= 2
