"""Unified observability layer: the simulator bus, metrics registry, span
tracer, self-profiler, exporters.

See DESIGN.md's "Observability" section for the metric catalog and the
span model, and :mod:`repro.obs.bus` for the one instrumentation channel
every subscriber (hub, profiler, monitors, timeline) listens on. Quick
start::

    from repro import FlepSystem
    from repro.obs import Observability

    system = FlepSystem(policy="hpf", observability=True)
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    system.submit_at(10.0, "rt", "SPMV", "small", priority=1)
    system.run()
    print(system.obs.metrics.format_summary())
    system.obs.tracer.write_chrome_trace("trace.json")   # chrome://tracing
"""

from .bench import (
    BENCH_SCHEMA,
    BUDGETS,
    BenchReport,
    BenchScenario,
    CompareResult,
    SCENARIOS,
    compare_reports,
    default_bench_filename,
    load_bench_report,
    run_bench,
)
from .bus import SimBus, SimHook, subscribed
from .metrics import (
    Counter,
    DEFAULT_US_BUCKETS,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    parse_prometheus,
)
from .profiler import LatencyStat, SimProfiler, profiled
from .recorder import Observability, observed
from .tracer import CounterSample, InstantEvent, Span, SpanTracer

__all__ = [
    "BENCH_SCHEMA",
    "BUDGETS",
    "BenchReport",
    "BenchScenario",
    "CompareResult",
    "Counter",
    "CounterSample",
    "DEFAULT_US_BUCKETS",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "LatencyStat",
    "MetricsError",
    "MetricsRegistry",
    "Observability",
    "SCENARIOS",
    "SimBus",
    "SimHook",
    "SimProfiler",
    "Span",
    "SpanTracer",
    "compare_reports",
    "default_bench_filename",
    "load_bench_report",
    "observed",
    "parse_prometheus",
    "profiled",
    "run_bench",
    "subscribed",
]
