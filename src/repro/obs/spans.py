"""Hierarchical span tracing with near-zero disabled overhead.

The tracing analogue of :mod:`repro.perf.instrument`: a module-level
active tracer that instrumented code consults through the free
function :func:`span`.  When no tracer is installed (the default),
``span(...)`` returns a shared null context manager — no allocation,
no timer syscalls, no dict traffic — so the instrumentation can stay
in hot-adjacent paths permanently.

Determinism is a design contract, not an accident:

* span **identity** (``span_id``) derives from the span's *path* (the
  ``/``-joined names of its ancestors) and its *sequence number* (the
  start-order index within the process stream) — never from
  ``time.time()`` or object ids — so byte-identical reruns produce
  byte-identical span streams modulo the measured durations;
* spans are reported in **start order** (monotonic ``seq``), which is
  deterministic whenever the traced code is;
* wall-clock enters only through ``start_s`` / ``duration_s``, which
  the exporters can drop (``timing=False``) for byte-comparison.

Cross-process merging: a worker process records into its own
:class:`SpanRecorder` and ships :meth:`SpanRecorder.snapshot` home;
the parent folds it in with :meth:`SpanRecorder.merge` under a
distinct process label, keeping every stream's ids and ordering
intact (ids are unique per ``(process, seq)``).

Usage::

    from repro.obs import SpanRecorder, span, tracing

    with tracing() as tracer:
        with span("synthesis", spec="d26"):
            with span("allocate", k_mid=1):
                ...
    print(tracer.snapshot())
"""

from __future__ import annotations

import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .stream import active_bus as _active_bus

#: The installed tracer, or ``None`` (tracing disabled).
_ACTIVE: Optional["SpanRecorder"] = None


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, position, timing and attributes."""

    #: Stable id: CRC-32 of ``path#seq`` — reproducible across reruns,
    #: unique within one process stream.
    span_id: str
    #: The enclosing span's id, or ``None`` for a root span.
    parent_id: Optional[str]
    #: Leaf name (``allocate``).
    name: str
    #: ``/``-joined ancestry (``synthesis/allocate``).
    path: str
    #: Start-order index within the process stream (monotonic).
    seq: int
    #: Nesting depth (0 for roots).
    depth: int
    #: Process label the span was recorded under (``main`` by default;
    #: merged worker streams carry the label the parent assigned).
    process: str
    #: Seconds from the recorder's timebase to span start.
    start_s: float
    #: Measured wall-clock duration in seconds.
    duration_s: float
    #: JSON-safe key/value annotations.
    attrs: Mapping[str, object] = field(default_factory=dict)


def stable_span_id(path: str, seq: int) -> str:
    """Deterministic span id from path + sequence (no wall clock)."""
    return "%08x" % zlib.crc32(("%s#%d" % (path, seq)).encode("utf-8"))


class _NullSpan:
    """Shared do-nothing context manager for the disabled case."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """A span between ``__enter__`` and ``__exit__``.

    Yielded by the ``with`` statement so instrumented code can attach
    result attributes before the span closes::

        with span("control.route_around", flow=str(key)) as s:
            found = ...
            if s is not None:
                s.set(found=found is not None)
    """

    __slots__ = (
        "_rec", "span_id", "parent_id", "name", "path",
        "seq", "depth", "attrs", "_start",
    )

    def __init__(self, rec: "SpanRecorder", name: str, attrs: Dict[str, object]):
        self._rec = rec
        self.name = name
        self.attrs = attrs
        parent = rec._stack[-1] if rec._stack else None
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = parent.depth + 1 if parent is not None else 0
        self.path = "%s/%s" % (parent.path, name) if parent is not None else name
        self.seq = rec._seq
        rec._seq += 1
        self.span_id = stable_span_id(self.path, self.seq)
        self._start = 0.0

    def set(self, **attrs: object) -> "_OpenSpan":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_OpenSpan":
        self._rec._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        rec = self._rec
        if rec._stack and rec._stack[-1] is self:
            rec._stack.pop()
        rec.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                path=self.path,
                seq=self.seq,
                depth=self.depth,
                process=rec.process,
                start_s=self._start - rec._t0,
                duration_s=end - self._start,
                attrs=self.attrs,
            )
        )
        # Streaming hook: a finished span becomes one event on the
        # active bus.  Completion order is deterministic whenever the
        # traced code is; the wall-clock fields ride in ``timing`` so
        # ``timing=False`` exports stay byte-comparable.  The process
        # label lives on the event envelope, not the payload — the
        # parent relabels merged worker streams there.
        bus = _active_bus()
        if bus is not None:
            bus.emit(
                "span",
                self.path,
                attrs={
                    "span_id": self.span_id,
                    "parent_id": self.parent_id,
                    "name": self.name,
                    "path": self.path,
                    "span_seq": self.seq,
                    "depth": self.depth,
                    "attrs": dict(self.attrs),
                },
                timing={
                    "start_s": self._start - rec._t0,
                    "duration_s": end - self._start,
                },
            )
        return False


class SpanRecorder:
    """Accumulates a process's span stream (plus merged worker streams).

    ``spans`` holds finished spans in *completion* order; use
    :meth:`ordered` (or :meth:`snapshot`) for the canonical start-order
    view.  ``process_meta`` maps each process label present in the
    trace to the OS pid that recorded it — the cross-process merge
    check in the bench harness reads it; exporters do not.
    """

    def __init__(self, process: str = "main") -> None:
        self.process = process
        self.spans: List[SpanRecord] = []
        self.process_meta: Dict[str, int] = {process: os.getpid()}
        self._stack: List[_OpenSpan] = []
        self._seq = 0
        self._t0 = time.perf_counter()

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: object) -> _OpenSpan:
        """Open a child span of whatever span is currently active."""
        return _OpenSpan(self, name, dict(attrs))

    # -- views ---------------------------------------------------------

    def ordered(self) -> List[SpanRecord]:
        """All finished spans in canonical (process, seq) order."""
        return sorted(self.spans, key=lambda s: (s.process, s.seq))

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of the stream (canonical order).

        The ``pid`` field is metadata for cross-process bookkeeping;
        it never enters span identity or the exported event sequences.
        """
        return {
            "process": self.process,
            "pid": os.getpid(),
            "spans": [
                {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "path": s.path,
                    "seq": s.seq,
                    "depth": s.depth,
                    "process": s.process,
                    "start_s": s.start_s,
                    "duration_s": s.duration_s,
                    "attrs": dict(s.attrs),
                }
                for s in self.ordered()
            ],
        }

    # -- cross-process merge -------------------------------------------

    def merge(
        self, snapshot: Mapping[str, object], process: Optional[str] = None
    ) -> int:
        """Fold a worker's :meth:`snapshot` into this trace.

        ``process`` relabels the merged stream (e.g. ``task3``) so the
        parent's trace stays deterministic even though worker pids are
        not; the worker's pid is kept in :attr:`process_meta` under the
        new label.  Returns the number of spans merged.
        """
        label = process if process is not None else str(snapshot.get("process", "worker"))
        pid = snapshot.get("pid")
        if isinstance(pid, int):
            self.process_meta[label] = pid
        merged = 0
        for s in snapshot.get("spans", ()):  # type: ignore[union-attr]
            self.spans.append(
                SpanRecord(
                    span_id=str(s["span_id"]),
                    parent_id=s.get("parent_id"),
                    name=str(s["name"]),
                    path=str(s["path"]),
                    seq=int(s["seq"]),
                    depth=int(s["depth"]),
                    process=label,
                    start_s=float(s["start_s"]),
                    duration_s=float(s["duration_s"]),
                    attrs=dict(s.get("attrs", {})),
                )
            )
            merged += 1
        return merged

    # -- aggregation ---------------------------------------------------

    def totals_by_path(self) -> Dict[str, Tuple[int, float]]:
        """``path -> (count, total seconds)`` over every stream."""
        out: Dict[str, Tuple[int, float]] = {}
        for s in self.spans:
            count, total = out.get(s.path, (0, 0.0))
            out[s.path] = (count + 1, total + s.duration_s)
        return out


# ----------------------------------------------------------------------
# Module-level active tracer (the repro.perf.active_recorder pattern)
# ----------------------------------------------------------------------


def active_tracer() -> Optional[SpanRecorder]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def set_tracer(tracer: Optional[SpanRecorder]) -> Optional[SpanRecorder]:
    """Install ``tracer`` globally; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[SpanRecorder] = None) -> Iterator[SpanRecorder]:
    """Install a tracer for a ``with`` block (nests safely)."""
    t = tracer if tracer is not None else SpanRecorder()
    previous = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(previous)


def span(name: str, **attrs: object):
    """Open a span on the active tracer; a shared no-op when disabled.

    The disabled path does one global read and returns a singleton —
    cheap enough to leave in per-candidate (not per-edge) code
    permanently, mirroring :func:`repro.perf.instrument.maybe_phase`.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)
