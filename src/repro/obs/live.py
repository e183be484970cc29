"""Live terminal rendering of an observability event feed.

A reader of the recorder's event feed: a :class:`LiveStatus`
aggregate that folds the event stream into the numbers an operator
watches (sweep progress, feasibility, cache hit/miss deltas, per-phase
span activity, worker heartbeats), a :class:`LiveRenderer` sink that
repaints those numbers in place as events arrive, and
:func:`follow_render`, the driver behind ``repro-noc obs --follow``
that tails a JSONL feed written by another process.

Stall detection is deliberately *renderer-side*: it compares the
wall-clock **arrival** time of each process's latest event against a
threshold, so liveness judgments never enter the event stream itself —
the stream stays byte-deterministic while the view on top of it is
free to consult the clock.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, IO, List, Optional

from ..perf.instrument import ObsEvent
from .stream import follow_events


class LiveStatus:
    """Aggregate view of a live run, folded event by event.

    Every field derives from the deterministic event payloads except
    :attr:`last_seen`, which records renderer-side arrival times
    (``time.monotonic``) for stall detection only.
    """

    def __init__(self) -> None:
        self.events = 0
        self.by_kind: Dict[str, int] = {}
        self.tasks_total = 0
        self.tasks_done = 0
        self.feasible = 0
        self.design_points = 0
        self.workers = 0
        self.done = False
        self.cache_hits = 0
        self.cache_misses = 0
        #: span path -> (count, total seconds) over the whole feed.
        self.span_counts: Dict[str, int] = {}
        self.span_seconds: Dict[str, float] = {}
        self.telemetry_counts: Dict[str, int] = {}
        self.telemetry_last: Optional[str] = None
        #: process label -> wall-clock arrival time of its latest event.
        self.last_seen: Dict[str, float] = {}
        #: process label -> latest heartbeat phase (``start`` / ``end``).
        self.phase_by_process: Dict[str, str] = {}

    def apply(self, event: ObsEvent, now: Optional[float] = None) -> None:
        """Fold one event into the aggregate."""
        self.events += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        self.last_seen[event.process] = (
            now if now is not None else time.monotonic()
        )
        attrs = event.attrs
        if event.kind == "progress":
            if event.name == "sweep.start":
                self.tasks_total = int(attrs.get("tasks", 0))  # type: ignore[arg-type]
                self.workers = int(attrs.get("workers", 0))  # type: ignore[arg-type]
            elif event.name == "sweep.task":
                self.tasks_done += 1
                if attrs.get("feasible"):
                    self.feasible += 1
                self.design_points += int(attrs.get("design_points", 0))  # type: ignore[arg-type]
                self.cache_hits += int(attrs.get("cache_hits", 0))  # type: ignore[arg-type]
                self.cache_misses += int(attrs.get("cache_misses", 0))  # type: ignore[arg-type]
            elif event.name == "sweep.done":
                self.done = True
        elif event.kind == "heartbeat":
            phase = attrs.get("phase")
            if isinstance(phase, str):
                self.phase_by_process[event.process] = phase
        elif event.kind == "span":
            self.span_counts[event.name] = self.span_counts.get(event.name, 0) + 1
            duration = event.timing.get("duration_s")
            if isinstance(duration, (int, float)):
                self.span_seconds[event.name] = (
                    self.span_seconds.get(event.name, 0.0) + float(duration)
                )
        elif event.kind == "telemetry":
            self.telemetry_counts[event.name] = (
                self.telemetry_counts.get(event.name, 0) + 1
            )
            scenario = attrs.get("scenario")
            self.telemetry_last = (
                "%s %s" % (event.name, scenario) if scenario else event.name
            )

    def stalled(
        self, threshold_s: float, now: Optional[float] = None
    ) -> List[str]:
        """Processes whose latest event arrived over ``threshold_s`` ago.

        Only processes still mid-task (no ``end`` heartbeat) count —
        a worker that finished its batch is idle, not stuck.
        """
        t = now if now is not None else time.monotonic()
        out = []
        for process in sorted(self.last_seen):
            if self.phase_by_process.get(process) == "end":
                continue
            if t - self.last_seen[process] >= threshold_s:
                out.append(process)
        return out


def status_lines(
    status: LiveStatus,
    stall_s: float = 5.0,
    top: int = 4,
    now: Optional[float] = None,
) -> List[str]:
    """Render the aggregate as the lines the live view repaints."""
    lines: List[str] = []
    total = "%d" % status.tasks_total if status.tasks_total else "?"
    head = "sweep %d/%s tasks | %d feasible | %d design points" % (
        status.tasks_done, total, status.feasible, status.design_points,
    )
    if status.workers:
        head += " | workers %d" % status.workers
    if status.done:
        head += " | done"
    lines.append(head)
    kinds = ", ".join(
        "%s %d" % (k, status.by_kind[k]) for k in sorted(status.by_kind)
    )
    line = "events %d (%s)" % (status.events, kinds or "none")
    if status.cache_hits or status.cache_misses:
        line += " | cache %d hits / %d misses" % (
            status.cache_hits, status.cache_misses,
        )
    lines.append(line)
    if status.span_counts:
        busiest = sorted(
            status.span_counts,
            key=lambda p: (-status.span_seconds.get(p, 0.0), p),
        )[:top]
        lines.append(
            "spans: " + " | ".join(
                "%s x%d %.2fs" % (
                    path,
                    status.span_counts[path],
                    status.span_seconds.get(path, 0.0),
                )
                for path in busiest
            )
        )
    if status.telemetry_counts:
        lines.append(
            "control: %d events (last: %s)" % (
                sum(status.telemetry_counts.values()),
                status.telemetry_last or "-",
            )
        )
    workers = [p for p in sorted(status.phase_by_process) if p != "main"]
    if workers:
        stalled = set(status.stalled(stall_s, now=now))
        lines.append(
            "workers: " + " | ".join(
                "%s %s%s" % (
                    p,
                    status.phase_by_process[p],
                    " STALLED" if p in stalled else "",
                )
                for p in workers
            )
        )
    return lines


class LiveRenderer:
    """Event sink that repaints a status block as events arrive.

    On a TTY the block rewrites itself in place (ANSI cursor-up);
    elsewhere it prints the headline whenever the task count moves, so
    piped output stays a readable log instead of a control-code soup.
    Pass it to :class:`~repro.perf.Recorder` as a sink.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        interval_s: float = 0.1,
        stall_s: float = 5.0,
        top: int = 4,
    ) -> None:
        self.status = LiveStatus()
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self.stall_s = stall_s
        self.top = top
        self._painted = 0
        self._last_paint = 0.0
        self._last_logged = -1
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def on_event(self, event: ObsEvent) -> None:
        self.status.apply(event)
        now = time.monotonic()
        if now - self._last_paint >= self.interval_s:
            self.paint(now=now)

    def paint(self, now: Optional[float] = None) -> None:
        """Repaint immediately (the sink normally rate-limits this)."""
        t = now if now is not None else time.monotonic()
        self._last_paint = t
        lines = status_lines(
            self.status, stall_s=self.stall_s, top=self.top, now=t
        )
        if self._tty:
            out = ""
            if self._painted:
                out += "\x1b[%dA\x1b[J" % self._painted
            out += "\n".join(lines) + "\n"
            self.stream.write(out)
            self._painted = len(lines)
        else:
            if self.status.tasks_done != self._last_logged or self.status.done:
                self.stream.write(lines[0] + "\n")
                self._last_logged = self.status.tasks_done
        try:
            self.stream.flush()
        except Exception:
            pass

    def close(self) -> None:
        """Final repaint so the last event's state is always visible."""
        self.paint()


def follow_render(
    path: str,
    stream: Optional[IO[str]] = None,
    poll_s: float = 0.2,
    idle_timeout_s: Optional[float] = 5.0,
    stall_s: float = 5.0,
    stop: Optional[Callable[[], bool]] = None,
) -> LiveStatus:
    """Tail a JSONL event feed and render it live; returns the final state.

    The driver behind ``repro-noc obs --follow``: the feed may still be
    growing (another process holds the writer), may not exist yet, or
    may end mid-line — :func:`~repro.obs.stream.follow_events` handles
    all three, and the follower exits once no new bytes arrive for
    ``idle_timeout_s`` seconds.
    """
    renderer = LiveRenderer(stream=stream, stall_s=stall_s)
    for event in follow_events(
        path, poll_s=poll_s, idle_timeout_s=idle_timeout_s, stop=stop
    ):
        renderer.on_event(event)
    renderer.close()
    return renderer.status
