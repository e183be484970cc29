"""Host-speed sampling, so timings survive a host whose speed drifts.

On a shared machine the same CPU-bound work can take 1.8 times as long
from one second to the next, with CPU time equal to wall time: the core
itself runs slower, so neither medians over a run nor CPU clocks remove
it.  While an operation runs, :class:`Sampling` interrupts the timing
thread every :data:`INTERVAL_S` with ``SIGALRM`` and runs a short
pure-Python probe (:func:`probe`), measured in thread CPU time; the
probe's speed relative to :data:`REFERENCE_PROBE_S` is the host's speed
at that moment.  One more probe runs at each end, so every operation
has at least two samples.

An operation's *normalized* time is its wall time less the probes',
times its mean relative speed: the seconds it would take on a host
where the probe takes :data:`REFERENCE_PROBE_S`.  The probe is fixed
benchmark code and never calls the program, so a change to the program
moves normalized times as it would move wall times on a steady host.
Probes take about 1% of the sampled thread.

Work done in forked worker processes (the program's process pool) runs
on other cores than the waiting parent.  After :func:`sample_children`,
every process this one forks probes itself on the same schedule and
appends ``<time.monotonic()> <speed>`` lines to a file of its own, and
a :class:`Sampling` given that directory averages in the children's
samples from its own time window.

Each measured process also reports its own :func:`peak_rss_mb`.

Standard library only.  Signal handlers run in the main thread, so
sample from the thread that does the work.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import sys
import time
from typing import Callable, List, Optional

#: Seconds between probes.
INTERVAL_S = 0.1
#: Thread CPU seconds one probe takes on the reference host; normalized
#: times are in seconds of that host.
REFERENCE_PROBE_S = 0.001

_NODES = 120
_RNG = random.Random(20090726)
_GRAPH = [[(_RNG.randrange(_NODES), _RNG.random()) for _ in range(6)] for _ in range(_NODES)]


def _shortest_paths(source: int) -> int:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, 1e18):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done)


def probe() -> float:
    """Thread CPU seconds of a fixed heap-and-dict workload (like routing)."""
    start = time.thread_time()
    for source in range(4):
        _shortest_paths(source)
    return time.thread_time() - start


def speed() -> float:
    """The host's speed now, relative to the reference host."""
    cpu = probe()
    return REFERENCE_PROBE_S / cpu if cpu > 0 else 1.0


def normalized(wall_s: float, probe_wall_s: float, speeds: List[float]) -> float:
    """Reference-host seconds of an operation that took ``wall_s``."""
    return (wall_s - probe_wall_s) * sum(speeds) / len(speeds)


def sample_children(directory: str) -> None:
    """Make every process forked from now on sample itself into ``directory``."""

    def start_in_child() -> None:
        out = open(os.path.join(directory, "%d.speeds" % os.getpid()), "a", buffering=1)

        def sample(*_signal) -> None:
            out.write("%r %r\n" % (time.monotonic(), speed()))

        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    os.register_at_fork(after_in_child=start_in_child)


def child_speeds(directory: str, start: float, end: float) -> List[float]:
    """Speeds sampled by forked children between two ``time.monotonic()`` stamps."""
    speeds = []
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 2 and start <= float(fields[0]) <= end:
                    speeds.append(float(fields[1]))
    return speeds


class Sampling:
    """Samples host speed from ``start()`` to ``stop()``.

    Also a context manager that times its body::

        with Sampling() as sampled:
            operation()
        sampled.wall_s, sampled.normalized_s

    With ``children`` (a :func:`sample_children` directory) the forked
    children's samples from the same window count too.  ``on_probe(start,
    end)`` gets the ``time.perf_counter()`` span of every probe, so a
    tracer can keep probes out of the layers it times.
    """

    def __init__(
        self,
        children: Optional[str] = None,
        on_probe: Optional[Callable[[float, float], None]] = None,
    ) -> None:
        self.children = children
        self.on_probe = on_probe
        self.speeds: List[float] = []
        self.probe_wall_s = 0.0
        self.wall_s = 0.0
        self._previous = None
        self._window = 0.0

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.speeds.append(speed())
        end = time.perf_counter()
        self.probe_wall_s += end - start
        if self.on_probe is not None:
            self.on_probe(start, end)

    def start(self) -> "Sampling":
        self._window = time.monotonic()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> "Sampling":
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        if self.children is not None:
            self.speeds.extend(child_speeds(self.children, self._window, time.monotonic()))
        return self

    @property
    def normalized_s(self) -> float:
        return normalized(self.wall_s, self.probe_wall_s, self.speeds)

    def __enter__(self) -> "Sampling":
        self._clock = time.perf_counter()
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
        self.wall_s = time.perf_counter() - self._clock


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and the children it has waited for, in MB."""
    import resource

    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def ready(sampling: Sampling) -> None:
    """Stop ``sampling`` and tell the parent the inputs are ready.

    Prints ``READY <time.monotonic()> <numpy version or -> <probe wall
    seconds> <mean speed>``; the parent times process start to this
    stamp and normalizes it with the last two fields.
    """
    sampling.stop()
    numpy = sys.modules.get("numpy")
    print("READY %r %s %r %r" % (
        time.monotonic(),
        getattr(numpy, "__version__", "-"),
        sampling.probe_wall_s,
        sum(sampling.speeds) / len(sampling.speeds),
    ), flush=True)
