"""Instrumentation: one recorder for counters, spans and the event feed.

Counters flushed once per allocation attempt, spans around each
Algorithm 1 stage, and events handed to sinks, all through
:class:`Recorder`, with near-zero cost when no recorder is installed.
:mod:`repro.obs` reads a finished or live recorder (exporters, metrics,
dashboard, sinks); see ``docs/observability.md``.
"""

from .instrument import (
    ObsEvent,
    Outbox,
    Recorder,
    SpanRecord,
    active_recorder,
    recording,
    span,
    stable_span_id,
    worker_recording,
)

__all__ = [
    "ObsEvent",
    "Outbox",
    "Recorder",
    "SpanRecord",
    "active_recorder",
    "recording",
    "span",
    "stable_span_id",
    "worker_recording",
]
