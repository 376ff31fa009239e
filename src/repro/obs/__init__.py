"""``repro.obs`` — the unified telemetry layer.

Pure-stdlib observability substrate shared by the LRGP core, both
runtimes and the event simulator (see docs/observability.md):

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms;
* typed trace events + sinks (:class:`MemorySink`, :class:`JsonlSink`,
  :class:`CsvSink`) behind the :class:`TraceSink` protocol;
* :class:`Telemetry` — the registry+sink bundle instrumented code takes
  as one optional dependency, defaulting to the allocation-free
  :data:`NULL_TELEMETRY`;
* :class:`ConvergenceDiagnostics` — oscillation counts, constraint
  residuals, utility-gap-to-bound and time-to-tolerance from a captured
  event stream;
* causal tracing (runtime span context, ``CausalGraph`` critical-path /
  blame analysis) — import it from :mod:`repro.obs.causal`, which
  ``import repro`` does not load;
* deterministic trace replay (:mod:`repro.obs.replay`) — re-materialize
  the deployed state at any event index of a schema-v2 JSONL capture;
* benchmark trajectory + regression watchdog with phase-level blame
  (:mod:`repro.obs.bench`);
* hierarchical phase profiling with flamegraph / speedscope export
  (:mod:`repro.obs.profile`), off by default via :data:`NULL_PROFILER` —
  the only wall-clock instrument, mirrored into a registry as
  ``profile.phase.*`` metrics by :func:`register_phase_metrics`;
* Prometheus-text and JSON snapshot exporters.

This package imports nothing from ``repro.core`` / ``repro.runtime`` /
``repro.events`` — it is the layer those packages sit on.
"""

from repro.obs.bench import (
    BenchComparison,
    MetricDelta,
    PhaseBlame,
    compare_snapshots,
    consolidate,
    render_comparison,
)
from repro.obs.diagnostics import (
    ConvergenceDiagnostics,
    DiagnosticsReport,
    ResourceDiagnostics,
    count_oscillations,
    diagnostics_to_dict,
    render_diagnostics,
)
from repro.obs.events import (
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    AdmissionEvent,
    AgentExchangeEvent,
    AgentRestartedEvent,
    FaultInjectedEvent,
    GammaStepEvent,
    IterationEvent,
    MessageEvent,
    PriceUpdateEvent,
    TraceEvent,
    TraceEventError,
    event_from_dict,
    now_ns,
)
from repro.obs.export import (
    render_metrics,
    sanitize_metric_name,
    snapshot_from_dict,
    snapshot_to_dict,
    to_json,
    to_prometheus_text,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    PhaseStat,
    ProfileReport,
    merge_reports,
    register_phase_metrics,
    render_report,
    report_from_dict,
    to_collapsed,
    to_collapsed_diff,
    to_speedscope,
)
from repro.obs.registry import (
    DEFAULT_VALUE_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
)
from repro.obs.replay import ReplayEngine, ReplayError, ReplayState, render_state
from repro.obs.sinks import (
    NULL_SINK,
    CsvSink,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceSink,
    format_cell,
    open_trace,
    read_jsonl,
    render_csv,
)
from repro.obs.telemetry import NULL_TELEMETRY, PriceProbe, Telemetry

__all__ = [
    "EVENT_TYPES",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_SINK",
    "NULL_TELEMETRY",
    "DEFAULT_VALUE_BUCKETS",
    "TRACE_SCHEMA_VERSION",
    "AdmissionEvent",
    "AgentExchangeEvent",
    "AgentRestartedEvent",
    "BenchComparison",
    "ConvergenceDiagnostics",
    "Counter",
    "CsvSink",
    "DiagnosticsReport",
    "FaultInjectedEvent",
    "Gauge",
    "GammaStepEvent",
    "Histogram",
    "HistogramSnapshot",
    "IterationEvent",
    "JsonlSink",
    "MemorySink",
    "MessageEvent",
    "MetricDelta",
    "MetricsError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullProfiler",
    "NullRegistry",
    "NullSink",
    "PhaseBlame",
    "PhaseProfiler",
    "PhaseStat",
    "PriceProbe",
    "PriceUpdateEvent",
    "ProfileReport",
    "ReplayEngine",
    "ReplayError",
    "ReplayState",
    "ResourceDiagnostics",
    "Telemetry",
    "TraceEvent",
    "TraceEventError",
    "TraceSink",
    "compare_snapshots",
    "consolidate",
    "count_oscillations",
    "diagnostics_to_dict",
    "event_from_dict",
    "format_cell",
    "merge_reports",
    "now_ns",
    "open_trace",
    "read_jsonl",
    "register_phase_metrics",
    "render_csv",
    "render_diagnostics",
    "render_metrics",
    "render_report",
    "render_state",
    "report_from_dict",
    "sanitize_metric_name",
    "snapshot_from_dict",
    "snapshot_to_dict",
    "to_collapsed",
    "to_collapsed_diff",
    "to_json",
    "to_prometheus_text",
    "to_speedscope",
]
