"""Structured observability: spans, metrics, exporters, dashboard.

The unified instrumentation layer over synthesis, the trace-replay
runtime, and the reconfiguration control plane.  It subsumes the
:mod:`repro.perf` counters (which stay as the zero-dependency hot-path
accumulator; :meth:`MetricsRegistry.absorb_perf` lifts them into the
registry) and adds what they cannot express: *where* time went
(hierarchical spans, cross-process), *how values distribute*
(histograms), and *how a run looked* (dashboard, Perfetto traces).

Determinism contract: span identity and ordering never touch the wall
clock, every exporter orders its output canonically, and timing fields
can be dropped at export (``timing=False``) — so byte-identical runs
export byte-identical event sequences, which the bench harness gates.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".dashboard": (
            "cache_lines",
            "counter_lines",
            "island_gantt_lines",
            "phase_breakdown_lines",
            "recovery_timeline_lines",
            "render_dashboard",
            "render_html",
        ),
        ".live": ("LiveRenderer", "LiveStatus", "follow_render", "status_lines"),
        ".export": (
            "chrome_trace_events",
            "chrome_trace_json",
            "prometheus_text",
            "span_log_lines",
            "telemetry_log_lines",
            "write_lines",
        ),
        ".metrics": (
            "DEFAULT_MS_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "publish_metrics",
            "record_cache_hit_rates",
            "record_cache_metrics",
            "record_control_metrics",
            "record_runtime_metrics",
        ),
        ".spans": (
            "SpanRecord",
            "SpanRecorder",
            "active_tracer",
            "set_tracer",
            "span",
            "stable_span_id",
            "tracing",
        ),
        ".stream": (
            "EVENT_KINDS",
            "CallbackSink",
            "EventBus",
            "JsonlSink",
            "MemorySink",
            "ObsEvent",
            "active_bus",
            "canonical_events",
            "emit",
            "event_from_record",
            "event_lines",
            "event_record",
            "follow_events",
            "read_events",
            "set_bus",
            "streaming",
        ),
    },
)
