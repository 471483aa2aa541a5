"""SLO tracker and report tests (including the obs metrics mirror)."""

import pytest

from repro.errors import ServingError
from repro.obs import Observability
from repro.serving import RequestLog, SLOTracker, Tenant, TenantSet


def tenants():
    return TenantSet([
        Tenant("batch", priority=0),
        Tenant("q", priority=1, slo_us=1_000.0),
    ])


class TestRequestLog:
    def test_latency_and_slo_met(self):
        log = RequestLog(1, "q", arrived_us=100.0, kernel="SPMV",
                         input_name="small", slo_us=1_000.0)
        assert log.latency_us is None
        assert log.slo_met is False   # unfinished = missed
        log.finished_us = 600.0
        assert log.latency_us == 500.0
        assert log.slo_met is True
        log.finished_us = 1_200.0
        assert log.slo_met is False

    def test_no_slo_means_none(self):
        log = RequestLog(1, "batch", 0.0, "VA", "large")
        log.finished_us = 5.0
        assert log.slo_met is None

    def test_deadline_missed(self):
        log = RequestLog(1, "q", 0.0, "SPMV", "small", deadline_us=500.0)
        assert not log.deadline_missed      # unfinished: no miss recorded
        log.finished_us = 400.0
        assert not log.deadline_missed
        log.finished_us = 600.0
        assert log.deadline_missed


class TestTracker:
    def test_attainment_counts_sheds_as_misses(self):
        tracker = SLOTracker(tenants())
        # two good, one late, one shed -> attainment 2/4
        for req_id, fin in [(1, 500.0), (2, 900.0), (3, 2_000.0)]:
            tracker.open_request(req_id, "q", 0.0, "SPMV", "small", 100.0)
            tracker.mark_completed(req_id, fin)
        tracker.open_request(4, "q", 0.0, "SPMV", "small", 100.0)
        tracker.mark_shed(4)
        report = tracker.report(horizon_us=1e6)
        row = report.tenant("q")
        assert row.requests == 4
        assert row.completed == 3
        assert row.shed == 1
        assert row.attainment == pytest.approx(0.5)
        assert row.goodput_rps == pytest.approx(2.0)  # 2 good in 1 s

    def test_percentiles_from_shared_helper(self):
        tracker = SLOTracker(tenants())
        for i, latency in enumerate([100.0, 200.0, 300.0, 400.0], start=1):
            tracker.open_request(i, "q", 0.0, "SPMV", "small", 0.0)
            tracker.mark_completed(i, latency)
        row = tracker.report(horizon_us=1e6).tenant("q")
        assert row.p50_us == pytest.approx(250.0)
        assert row.p95_us == pytest.approx(385.0)
        assert row.mean_us == pytest.approx(250.0)

    def test_best_effort_attainment_is_none(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "batch", 0.0, "VA", "large", 0.0)
        tracker.mark_completed(1, 5_000.0)
        row = tracker.report(horizon_us=1e6).tenant("batch")
        assert row.attainment is None
        assert row.goodput_rps == pytest.approx(1.0)  # completions count

    def test_deadline_stamped_from_tenant_slo(self):
        tracker = SLOTracker(tenants())
        log = tracker.open_request(1, "q", arrived_us=250.0, kernel="SPMV",
                                   input_name="small", predicted_us=0.0)
        assert log.deadline_us == 1_250.0
        tracker.mark_completed(1, 2_000.0)
        assert tracker.report(1e6).tenant("q").deadline_misses == 1

    def test_double_open_rejected(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)
        with pytest.raises(ServingError, match="opened twice"):
            tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)

    def test_complete_after_shed_rejected(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)
        tracker.mark_shed(1)
        with pytest.raises(ServingError, match="already resolved"):
            tracker.mark_completed(1, 100.0)

    def test_rate_limited_counted_separately(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)
        tracker.mark_shed(1, rate_limited=True)
        tracker.open_request(2, "q", 0.0, "SPMV", "small", 0.0)
        tracker.mark_shed(2)
        row = tracker.report(1e6).tenant("q")
        assert row.rate_limited == 1
        assert row.shed == 1

    def test_report_format_and_dict(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)
        tracker.mark_completed(1, 400.0)
        report = tracker.report(horizon_us=10_000.0)
        text = report.format()
        assert "tenant" in text and "q" in text and "attain" in text
        data = report.as_dict()
        assert data["horizon_us"] == 10_000.0
        assert {t["tenant"] for t in data["tenants"]} == {"batch", "q"}
        with pytest.raises(ServingError):
            report.tenant("nope")


class TestPercentileEdgeCases:
    """Degenerate latency populations must report cleanly, not crash."""

    def test_tenant_with_zero_requests_still_has_a_row(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "batch", 0.0, "VA", "large", 0.0)
        tracker.mark_completed(1, 100.0)
        row = tracker.report(horizon_us=1e6).tenant("q")   # untouched tenant
        assert row.requests == 0
        assert row.completed == 0 and row.shed == 0
        assert row.p50_us is None and row.p95_us is None and row.p99_us is None
        assert row.mean_us is None
        assert row.attainment is None       # 0/0 is "no data", not 0%
        assert row.goodput_rps == pytest.approx(0.0)

    def test_single_sample_percentiles_collapse(self):
        tracker = SLOTracker(tenants())
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)
        tracker.mark_completed(1, 640.0)
        row = tracker.report(horizon_us=1e6).tenant("q")
        assert row.p50_us == pytest.approx(640.0)
        assert row.p95_us == pytest.approx(640.0)
        assert row.p99_us == pytest.approx(640.0)
        assert row.mean_us == pytest.approx(640.0)
        assert row.attainment == pytest.approx(1.0)

    def test_all_shed_tenant(self):
        tracker = SLOTracker(tenants())
        for req_id in (1, 2, 3):
            tracker.open_request(req_id, "q", 0.0, "SPMV", "small", 0.0)
            tracker.mark_shed(req_id)
        row = tracker.report(horizon_us=1e6).tenant("q")
        assert row.requests == 3
        assert row.completed == 0 and row.shed == 3
        assert row.p50_us is None           # no latencies to rank
        assert row.attainment == pytest.approx(0.0)   # sheds are misses
        assert row.goodput_rps == pytest.approx(0.0)

    def test_empty_report_formats_and_serializes(self):
        report = SLOTracker(tenants()).report(horizon_us=1_000.0)
        text = report.format()
        assert "batch" in text and "q" in text
        data = report.as_dict()
        assert all(t["p50_us"] is None for t in data["tenants"])


class TestObsMirror:
    def test_metrics_registered_and_counted(self):
        hub = Observability()
        tracker = SLOTracker(tenants(), obs=hub)
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 50.0)
        tracker.mark_completed(1, 400.0)
        tracker.open_request(2, "q", 0.0, "SPMV", "small", 50.0)
        tracker.mark_delayed(2)
        tracker.mark_shed(2)
        tracker.report(horizon_us=1e6)
        text = hub.metrics.render_prometheus()
        assert 'flep_serving_requests_total{tenant="q",outcome="completed"} 1' in text
        assert 'flep_serving_requests_total{tenant="q",outcome="shed"} 1' in text
        assert 'flep_serving_delayed_total{tenant="q"} 1' in text
        assert "flep_serving_slo_attainment_ratio" in text
        assert "flep_serving_latency_us" in text

    def test_no_hub_records_nothing_but_still_reports(self):
        tracker = SLOTracker(tenants())   # no hub
        tracker.open_request(1, "q", 0.0, "SPMV", "small", 0.0)
        tracker.mark_completed(1, 100.0)
        assert tracker.report(1e6).tenant("q").completed == 1
