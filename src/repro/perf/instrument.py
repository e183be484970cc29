"""One instrumentation recorder: counters, spans and an event feed.

Everything that observes a run goes through one :class:`Recorder`:

* hot loops accumulate plain local integers and flush them *once* per
  allocation attempt with :meth:`Recorder.count`;
* coarse stages wrap themselves in :func:`span`; a stage's time is the
  total of its spans by name (:meth:`Recorder.seconds_by_name`);
* :meth:`Recorder.emit` hands events (span closes, controller
  telemetry, sweep progress, worker heartbeats) to the recorder's
  sinks, and builds none when it has no sinks;
* :meth:`Recorder.snapshot` and :meth:`Recorder.merge` carry a forked
  worker's share of the run home under a deterministic ``task<i>`` or
  ``chunk<i>`` label.

When no recorder is installed (the default), :func:`active_recorder`
and :func:`span` cost one global read each, and no record or event is
built, so the instrumentation stays in per-candidate code permanently.

Determinism is a design contract, not an accident:

* span **identity** (``span_id``) derives from the span's *path* (the
  ``/``-joined names of its ancestors) and its *sequence number* (the
  start-order index within the process stream) — never from
  ``time.time()`` or object ids — so byte-identical reruns produce
  byte-identical span streams modulo the measured durations;
* spans are reported in **start order** (monotonic ``seq``) and events
  carry a monotone per-process ``seq`` assigned at emit time;
* wall-clock enters only through ``start_s`` / ``duration_s`` and an
  event's ``t_s`` / ``timing``, which exporters drop under
  ``timing=False`` for byte-comparison.

Sinks (:mod:`repro.obs.stream`) and exporters (:mod:`repro.obs`) read a
recorder; this module imports neither, so synthesis loads no
``repro.obs`` module.

Usage::

    from repro.perf import recording, span

    with recording() as rec:
        synthesize(spec)
    print(rec.counters, rec.totals_by_path())
"""

from __future__ import annotations

import dataclasses
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

#: The installed recorder, or ``None`` (instrumentation off).
_ACTIVE: Optional["Recorder"] = None


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


@dataclass(frozen=True)
class ObsEvent:
    """One observation on the feed: identity, payload, timing.

    ``(process, seq)`` is the event's identity and canonical position;
    ``attrs`` holds only deterministic values, while wall-clock numbers
    live in ``t_s`` (seconds from the recorder's timebase) and
    ``timing`` (named extras such as a span's ``duration_s``) so
    exports can drop them for byte-comparison.
    """

    #: Process label the event was emitted under (relabelled on merge).
    process: str
    #: Monotone emit-order index within the process stream.
    seq: int
    #: Event kind: ``span``, ``telemetry``, ``progress`` or ``heartbeat``.
    kind: str
    #: Subject name: a span path, telemetry kind, progress step, ...
    name: str
    #: JSON-safe deterministic payload.
    attrs: Mapping[str, object] = field(default_factory=dict)
    #: Seconds from the emitting recorder's timebase (wall clock; droppable).
    t_s: Optional[float] = None
    #: Named wall-clock extras (e.g. ``duration_s``; droppable).
    timing: Mapping[str, float] = field(default_factory=dict)


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

    def __init__(self, rec: "Recorder", name: str, attrs: Dict[str, object]):
        self._rec = rec
        self.name = name
        self.attrs = attrs
        parent = rec._stack[-1] if rec._stack else None
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = parent.depth + 1 if parent is not None else 0
        self.path = "%s/%s" % (parent.path, name) if parent is not None else name
        self.seq = rec._span_seq
        rec._span_seq += 1
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
        start_s = self._start - rec._t0
        rec.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                path=self.path,
                seq=self.seq,
                depth=self.depth,
                process=rec.process,
                start_s=start_s,
                duration_s=end - self._start,
                attrs=self.attrs,
            )
        )
        # A finished span becomes one ``span`` event.  Completion order
        # is deterministic whenever the traced code is; the wall-clock
        # fields ride in ``timing``.  The process label lives on the
        # event envelope, where a merge relabels it.
        if rec.sinks:
            rec.emit(
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
                timing={"start_s": start_s, "duration_s": end - self._start},
            )
        return False


class Outbox(list):
    """Sink that keeps its events for :meth:`Recorder.snapshot` to ship.

    A sweep worker records each task under
    ``Recorder("worker", sinks=[Outbox()])``, so the task's heartbeats
    and span events travel home inside the snapshot.
    """

    def on_event(self, event: ObsEvent) -> None:
        self.append(event)

    def close(self) -> None:
        pass


class Recorder:
    """Counters, spans and an event feed for one process (plus merges).

    ``counters`` maps names to integer sums.  ``spans`` holds finished
    spans in *completion* order; :meth:`ordered` gives the canonical
    start-order view.  ``process_meta`` maps each process label in the
    trace to the OS pid that recorded it — bookkeeping that never
    enters span identity or an export.  ``sinks`` are objects with
    ``on_event(event)`` and ``close()`` (see :mod:`repro.obs.stream`);
    :func:`recording` closes them when its scope ends.
    """

    def __init__(self, process: str = "main", sinks: Iterable[object] = ()) -> None:
        self.process = process
        self.sinks: List[object] = list(sinks)
        self.counters: Dict[str, int] = {}
        self.spans: List[SpanRecord] = []
        self.process_meta: Dict[str, int] = {process: os.getpid()}
        self._stack: List[_OpenSpan] = []
        self._span_seq = 0
        self._event_seq = 0
        self._t0 = time.perf_counter()

    # -- recording -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, **attrs: object) -> _OpenSpan:
        """Open a child span of whatever span is currently open."""
        return _OpenSpan(self, name, attrs)

    def emit(
        self,
        kind: str,
        name: str,
        attrs: Optional[Mapping[str, object]] = None,
        timing: Optional[Mapping[str, float]] = None,
    ) -> Optional[ObsEvent]:
        """Hand one event to every sink; ``None`` (nothing built) without sinks."""
        if not self.sinks:
            return None
        event = ObsEvent(
            process=self.process,
            seq=self._event_seq,
            kind=kind,
            name=name,
            attrs=dict(attrs or {}),
            t_s=time.perf_counter() - self._t0,
            timing=dict(timing or {}),
        )
        self._event_seq += 1
        for sink in self.sinks:
            sink.on_event(event)  # type: ignore[attr-defined]
        return event

    # -- views ---------------------------------------------------------

    def ordered(self) -> List[SpanRecord]:
        """All finished spans in canonical (process, seq) order."""
        return sorted(self.spans, key=lambda s: (s.process, s.seq))

    def totals_by_path(self) -> Dict[str, Tuple[int, float]]:
        """``path -> (count, total seconds)`` over every stream."""
        out: Dict[str, Tuple[int, float]] = {}
        for s in self.spans:
            count, total = out.get(s.path, (0, 0.0))
            out[s.path] = (count + 1, total + s.duration_s)
        return out

    def seconds_by_name(self) -> Dict[str, float]:
        """Total span seconds per span name (``allocate``, ...): phase time."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration_s
        return out

    # -- cross-process merge -------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """What a worker sends home: pid, counters, spans, outbox events."""
        return {
            "pid": os.getpid(),
            "counters": dict(self.counters),
            "spans": self.ordered(),
            "events": [e for s in self.sinks if isinstance(s, Outbox) for e in s],
        }

    def merge(self, snapshot: Mapping[str, object], process: str) -> None:
        """Fold a worker's :meth:`snapshot` in under the label ``process``.

        Counters sum.  Spans and events keep their own sequence numbers
        and are relabelled ``process`` (e.g. ``task3``), so the merged
        trace stays deterministic even though worker pids and
        scheduling are not; the worker's pid goes to
        :attr:`process_meta`.  The events go to this recorder's sinks
        now, in their emit order.
        """
        for name, n in snapshot["counters"].items():  # type: ignore[union-attr]
            self.count(name, n)
        self.process_meta[process] = snapshot["pid"]  # type: ignore[assignment]
        for s in snapshot["spans"]:  # type: ignore[union-attr]
            self.spans.append(dataclasses.replace(s, process=process))
        for event in snapshot["events"]:  # type: ignore[union-attr]
            event = dataclasses.replace(event, process=process)
            for sink in self.sinks:
                sink.on_event(event)  # type: ignore[attr-defined]


def active_recorder() -> Optional[Recorder]:
    """The installed recorder, or ``None`` when instrumentation is off."""
    return _ACTIVE


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Install a recorder for a ``with`` block; close its sinks on exit.

    Yields the recorder (a fresh one when none is given) and restores
    the previously installed recorder on exit, so scopes nest safely.
    """
    global _ACTIVE
    rec = recorder if recorder is not None else Recorder()
    previous, _ACTIVE = _ACTIVE, rec
    try:
        yield rec
    finally:
        _ACTIVE = previous
        for sink in rec.sinks:
            sink.close()  # type: ignore[attr-defined]


@contextmanager
def worker_recording(payload: Dict[str, object]) -> Iterator[Recorder]:
    """Record a worker process's share of a run; ship it in ``payload["obs"]``.

    Installs a fresh ``Recorder("worker", sinks=[Outbox()])`` for the
    block and puts its :meth:`~Recorder.snapshot` in ``payload`` when the
    block ends, so the snapshot carries exactly that share's counters,
    spans and events.  Sweep-task and synthesis-chunk workers both record
    through it; the parent merges the snapshot under a deterministic
    label (``task<i>``, ``chunk<i>``) with :meth:`Recorder.merge`.
    """
    with recording(Recorder("worker", sinks=[Outbox()])) as rec:
        yield rec
    payload["obs"] = rec.snapshot()


def span(name: str, **attrs: object):
    """Open a span on the active recorder; a shared no-op when off.

    The disabled path does one global read and returns a singleton —
    cheap enough for per-candidate (not per-edge) code.
    """
    rec = _ACTIVE
    if rec is None:
        return _NULL_SPAN
    return _OpenSpan(rec, name, attrs)
