"""Event sinks and feed readers: the consumer side of the event feed.

A :class:`~repro.perf.Recorder` hands every event it emits (span
closes, controller telemetry, sweep progress, worker heartbeats) to
its sinks; this module holds the sinks and the readers of a feed one
of them wrote.

Determinism is the contract the rest of :mod:`repro.obs` keeps:

* every event carries a **monotone per-process sequence number**
  assigned at emit time — never a wall-clock timestamp — so two
  byte-identical runs emit byte-identical event feeds;
* wall-clock enters only through the optional ``t_s`` field and the
  per-event ``timing`` mapping, both of which :func:`event_record`
  drops under ``timing=False``;
* cross-process feeds merge in **canonical** ``(process, seq)``
  order (:func:`canonical_events`), so a live view assembled from
  worker batches and a post-hoc export of the same run serialize
  identically.

Sinks:

* :class:`MemorySink` — in-memory capture, optionally bounded, with
  its own drop count (the post-hoc view of a live run);
* :class:`CallbackSink` — hand each event to a callable (renderers,
  tests);
* :class:`JsonlSink` — write canonical JSON lines to a file it
  truncates on open, flushed per line so another process can tail it
  (``repro-noc obs --follow``); byte-deterministic under
  ``timing=False``.

Usage::

    from repro.obs import MemorySink, canonical_events, event_lines
    from repro.perf import Recorder, recording

    capture = MemorySink()
    with recording(Recorder(sinks=[capture])):
        run_the_sweep()
    lines = event_lines(canonical_events(capture.events), timing=False)
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
)

from ..exceptions import SpecError
from ..perf.instrument import ObsEvent


def _dumps(obj: object) -> str:
    """Canonical single-line JSON (sorted keys, minimal separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def event_record(event: ObsEvent, timing: bool = True) -> Dict[str, object]:
    """JSON-ready dict of one event; ``timing=False`` strips wall clock."""
    record: Dict[str, object] = {
        "type": event.kind,
        "process": event.process,
        "seq": event.seq,
        "name": event.name,
        "attrs": dict(event.attrs),
    }
    if timing:
        if event.t_s is not None:
            record["t_s"] = round(event.t_s, 6)
        if event.timing:
            record["timing"] = {
                k: round(float(v), 6) for k, v in sorted(event.timing.items())
            }
    return record


def event_from_record(record: Mapping[str, object]) -> ObsEvent:
    """Rebuild an :class:`ObsEvent` from :func:`event_record` output."""
    t_s = record.get("t_s")
    return ObsEvent(
        process=str(record.get("process", "main")),
        seq=int(record.get("seq", 0)),  # type: ignore[arg-type]
        kind=str(record.get("type", "event")),
        name=str(record.get("name", "")),
        attrs=dict(record.get("attrs", {})),  # type: ignore[arg-type]
        t_s=float(t_s) if isinstance(t_s, (int, float)) else None,
        timing=dict(record.get("timing", {})),  # type: ignore[arg-type]
    )


def event_lines(events: Iterable[ObsEvent], timing: bool = True) -> List[str]:
    """Events as canonical JSON lines (order preserved from input)."""
    return [_dumps(event_record(e, timing=timing)) for e in events]


def canonical_events(events: Iterable[ObsEvent]) -> List[ObsEvent]:
    """The canonical merged view: sorted by ``(process, seq)``.

    This is the order in which a live stream assembled from several
    process batches and a post-hoc export of the same run agree —
    within a process, ``seq`` is emit order; across processes, the
    label sorts (``main`` before ``task0`` before ``task1``...).
    """
    return sorted(events, key=lambda e: (e.process, e.seq))


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class MemorySink:
    """Bounded in-memory capture with explicit drop accounting.

    ``max_events=0`` means unbounded (the post-hoc capture mode the
    determinism gates use); otherwise the oldest events are evicted
    and counted in :attr:`dropped`.
    """

    def __init__(self, max_events: int = 0) -> None:
        if max_events < 0:
            raise SpecError("max_events must be >= 0, got %r" % max_events)
        self._ring: Deque[ObsEvent] = deque(
            maxlen=max_events if max_events > 0 else None
        )
        self.max_events = max_events
        self.dropped = 0

    @property
    def events(self) -> List[ObsEvent]:
        return list(self._ring)

    def on_event(self, event: ObsEvent) -> None:
        if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)

    def close(self) -> None:
        pass


class CallbackSink:
    """Forward every event to a callable (renderers, tests).

    A raising callback must not take the instrumented run down with
    it: errors are counted in :attr:`errors` and swallowed.
    """

    def __init__(self, fn: Callable[[ObsEvent], object]) -> None:
        self.fn = fn
        self.errors = 0

    def on_event(self, event: ObsEvent) -> None:
        try:
            self.fn(event)
        except Exception:
            self.errors += 1

    def close(self) -> None:
        pass


class JsonlSink:
    """Tail-able JSON-lines file sink (one event per line, line-flushed).

    Opening the sink truncates ``path``.  Every line is flushed as it
    is written so another process can follow the file while the run is
    live (:func:`follow_events`).  With ``timing=False`` the output is
    byte-deterministic across reruns of deterministic code.
    """

    def __init__(self, path: str, timing: bool = True) -> None:
        self.path = path
        self.timing = timing
        self.lines_written = 0
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def on_event(self, event: ObsEvent) -> None:
        fh = self._fh
        if fh is None:
            return
        fh.write(_dumps(event_record(event, timing=self.timing)))
        fh.write("\n")
        fh.flush()
        self.lines_written += 1

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


# ----------------------------------------------------------------------
# Reading a feed back: whole files and live tails
# ----------------------------------------------------------------------


def read_events(path: str) -> List[ObsEvent]:
    """Parse a JSONL event feed; a trailing partial line is ignored.

    Mid-write feeds are normal (the writer flushes per line but the
    reader can race the final line), so an unterminated or undecodable
    *last* line is skipped silently; a corrupt line elsewhere raises
    :class:`~repro.exceptions.SpecError`.
    """
    events: List[ObsEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    complete, tail = lines[:-1], lines[-1]
    for i, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            events.append(event_from_record(json.loads(line)))
        except (ValueError, TypeError):
            raise SpecError(
                "corrupt event line %d in %s: %r" % (i + 1, path, line[:80])
            )
    if tail.strip():
        # Unterminated final line: the writer is (or was) mid-write.
        try:
            events.append(event_from_record(json.loads(tail)))
        except (ValueError, TypeError):
            pass
    return events


def follow_events(
    path: str,
    poll_s: float = 0.2,
    idle_timeout_s: Optional[float] = 5.0,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[ObsEvent]:
    """Tail a JSONL event feed from another (possibly live) process.

    Yields events as complete lines appear, buffering partial writes
    until their terminating newline arrives — a half-written line is
    *held*, never mis-parsed or dropped.  Stops when ``stop()`` goes
    true or no new bytes arrive for ``idle_timeout_s`` seconds
    (``None`` follows forever).  The file may not exist yet; the
    follower waits for it under the same idle budget.
    """
    buffer = ""
    offset = 0
    last_data = time.monotonic()
    while True:
        if stop is not None and stop():
            return
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                raw = fh.read()
        except OSError:
            raw = b""
        if raw:
            offset += len(raw)
            chunk = raw.decode("utf-8", errors="replace")
            buffer += chunk
            last_data = time.monotonic()
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if not line.strip():
                    continue
                try:
                    yield event_from_record(json.loads(line))
                except (ValueError, TypeError):
                    # A corrupt interior line in a live feed: skip it
                    # rather than kill the follower mid-run.
                    continue
            continue
        if (
            idle_timeout_s is not None
            and time.monotonic() - last_data >= idle_timeout_s
        ):
            return
        time.sleep(poll_s)
