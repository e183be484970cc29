"""Structured observability: the readers of a :class:`~repro.perf.Recorder`.

The recorder in :mod:`repro.perf` does the recording — counters, spans
and the event feed, one global, one install scope.  This package holds
only what reads a finished or live recorder: the exporters (Chrome /
Perfetto traces, JSON lines, Prometheus text), the metrics projection
and registry, the terminal/HTML dashboard, the event sinks, the feed
readers and the live view behind ``--live`` and ``--follow``.

Determinism contract: span identity and ordering never touch the wall
clock, every exporter orders its output canonically, and timing fields
can be dropped at export (``timing=False``) — so byte-identical runs
export byte-identical event sequences.
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
            "telemetry_log_lines",
            "write_lines",
        ),
        ".metrics": (
            "DEFAULT_MS_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "record_cache_hit_rates",
            "record_cache_metrics",
            "record_control_metrics",
            "record_perf_metrics",
            "record_runtime_metrics",
        ),
        ".stream": (
            "CallbackSink",
            "JsonlSink",
            "MemorySink",
            "canonical_events",
            "event_from_record",
            "event_lines",
            "event_record",
            "follow_events",
            "read_events",
        ),
    },
)
