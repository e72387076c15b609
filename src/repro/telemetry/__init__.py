"""Structured campaign telemetry: spans, metrics and event logs.

Dependency-light observability for the measurement pipeline — the same
shape (trace spans + named counters + a structured event log) that
profiler-driven GPU modeling methodology relies on, applied to the
campaign itself:

* a :class:`Tracer` produces the span tree — campaign → phase (one
  GPU's sweep or dataset build) → work unit → attempt → instrument
  operation (meter windows, profiler passes, VBIOS reconfigurations);
* a :class:`Metrics` registry holds named counters (cache hits,
  retries, injected faults, exclusions — deterministic at any
  ``--jobs`` value), gauges and wall-time histograms;
* the aggregated ``metrics.json`` campaign artifact isolates
  wall-clock values in clearly-marked timing fields so the
  deterministic counter section composes with the
  byte-identical-manifest guarantees of the execution engine.

Every event file rides on one sink: an :class:`EventBus` multiplexes
spans, metrics, journal records, breaker transitions and governor
decisions into the versioned ``repro.events`` NDJSON protocol — the
trace log, the live stream (tailable while the run executes) and the
crash ring a :class:`FlightRecorder` dumps on
watchdog/breaker/pool/SIGTERM incidents are all this one format.  One
reader (:class:`TailReader`, :func:`read_stream`) serves every
consumer: a :class:`ProgressEngine` folds the stream into per-phase
progress with bench-seeded ETAs, the summarizer tabulates its spans,
and ``repro trace export`` converts it into a Perfetto-loadable Chrome
trace.

See docs/OBSERVABILITY.md for the span model, the metric-name
catalogue, the event schema and the live-stream protocol.
"""

from repro.telemetry.bus import (
    EVENT_KINDS,
    EVENTS_FORMAT,
    EVENTS_VERSION,
    EventBus,
    FlightRecorder,
    LiveEventWriter,
    Subscription,
    TailReader,
    read_stream,
)
from repro.telemetry.export import (
    export_trace,
    trace_events_document,
    validate_trace_document,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NullMetrics,
)
from repro.telemetry.runtime import (
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    using_telemetry,
)
from repro.telemetry.sinks import (
    MemorySink,
    METRICS_FORMAT,
    Sink,
    metrics_document,
    write_metrics_json,
)
from repro.telemetry.progress import (
    EtaEstimator,
    PhaseProgress,
    ProgressEngine,
    bench_unit_seconds,
    discover_bench_prior,
    follow_into,
    render_progress,
)
from repro.telemetry.spans import Span, Tracer
from repro.telemetry.timing import (
    ROBUST_FIELDS,
    STREAMING_FIELDS,
    TimingSummary,
    streaming_document,
)
from repro.telemetry.summarize import (
    SpanAggregate,
    TraceSummary,
    render_summary,
    summarize_events,
    summarize_file,
)

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "EVENTS_FORMAT",
    "EVENTS_VERSION",
    "EtaEstimator",
    "EventBus",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LiveEventWriter",
    "METRICS_FORMAT",
    "MemorySink",
    "Metrics",
    "NULL_TELEMETRY",
    "NullMetrics",
    "PhaseProgress",
    "ProgressEngine",
    "ROBUST_FIELDS",
    "STREAMING_FIELDS",
    "Sink",
    "Span",
    "SpanAggregate",
    "Subscription",
    "TailReader",
    "Telemetry",
    "TimingSummary",
    "TraceSummary",
    "Tracer",
    "bench_unit_seconds",
    "current_telemetry",
    "discover_bench_prior",
    "export_trace",
    "follow_into",
    "metrics_document",
    "read_stream",
    "render_progress",
    "render_summary",
    "streaming_document",
    "summarize_events",
    "summarize_file",
    "trace_events_document",
    "using_telemetry",
    "validate_trace_document",
    "write_metrics_json",
]
