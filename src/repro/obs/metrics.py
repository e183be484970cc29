"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

The second leg of the observability layer: where spans answer *where
did the time go inside this run*, metrics answer *how much / how often
/ how distributed* across runs, islands and flows.  Three metric
kinds, deliberately Prometheus-shaped so the text exporter is a
straight serialization:

* **counter** — monotone accumulation (``inc``);
* **gauge** — last-written value (``set``);
* **histogram** — observations bucketed into *fixed* edges chosen at
  registration (``observe``); re-registering a histogram under other
  edges raises.

Every metric takes optional labels (``registry.counter("x").inc(1,
island=3, state="on")``); samples are keyed by the sorted label set so
export order — and therefore every exported byte — is deterministic.

A finished :class:`~repro.perf.Recorder` is projected into the
registry at export (:func:`record_perf_metrics`): its counters become
``perf.counters.<name>`` counters and its span totals by name become
the ``perf.phase_seconds`` counter labelled by phase (span name).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import SpecError

#: Label sets are stored as sorted ``(key, value)`` tuples — hashable,
#: order-free, deterministic to serialize.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default bucket edges for millisecond-scale latency histograms
#: (detection, failover, wake stalls).  A trailing +Inf bucket is
#: implicit in every histogram.
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone accumulator (float-valued so phase seconds fit too)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.samples: Dict[LabelKey, float] = {}

    def inc(self, amount: Union[int, float] = 1, **labels: object) -> None:
        if amount < 0:
            raise SpecError(
                "counter %r cannot decrease (inc %r)" % (self.name, amount)
            )
        key = _label_key(labels)
        self.samples[key] = self.samples.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self.samples.get(_label_key(labels), 0.0)


class Gauge:
    """Last-written value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.samples: Dict[LabelKey, float] = {}

    def set(self, value: Union[int, float], **labels: object) -> None:
        self.samples[_label_key(labels)] = float(value)

    def value(self, **labels: object) -> Optional[float]:
        return self.samples.get(_label_key(labels))


class Histogram:
    """Fixed-bucket histogram (Prometheus cumulative-on-export shape).

    ``buckets`` are the finite upper edges, strictly increasing; the
    +Inf bucket is implicit.  Internally counts are stored
    *per-bucket* (not cumulative); the exporters cumulate.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
        help: str = "",
    ) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise SpecError(
                "histogram %r needs strictly increasing bucket edges, got %r"
                % (name, buckets)
            )
        self.name = name
        self.help = help
        self.buckets = edges
        #: label key -> (per-bucket counts incl. +Inf, sum, count)
        self.samples: Dict[LabelKey, Tuple[List[int], float, int]] = {}

    def observe(self, value: Union[int, float], **labels: object) -> None:
        key = _label_key(labels)
        entry = self.samples.get(key)
        if entry is None:
            entry = ([0] * (len(self.buckets) + 1), 0.0, 0)
        counts, total, n = entry
        counts[bisect_left(self.buckets, float(value))] += 1
        self.samples[key] = (counts, total + float(value), n + 1)

    def count(self, **labels: object) -> int:
        entry = self.samples.get(_label_key(labels))
        return entry[2] if entry is not None else 0

    def sum(self, **labels: object) -> float:
        entry = self.samples.get(_label_key(labels))
        return entry[1] if entry is not None else 0.0


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named, typed metrics with get-or-create registration.

    Re-registering a name with the same kind returns the existing
    metric; a kind clash (or histogram edge clash) raises
    :class:`~repro.exceptions.SpecError` — silent shadowing would make
    two call sites disagree about what a series means.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: str) -> Optional[Metric]:
        existing = self._metrics.get(name)
        if existing is not None and existing.kind != kind:
            raise SpecError(
                "metric %r already registered as %s, not %s"
                % (name, existing.kind, kind)
            )
        return existing

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get(name, "counter")
        if metric is None:
            metric = Counter(name, help)
            self._metrics[name] = metric
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get(name, "gauge")
        if metric is None:
            metric = Gauge(name, help)
            self._metrics[name] = metric
        return metric  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        metric = self._get(name, "histogram")
        if metric is None:
            metric = Histogram(name, buckets, help)
            self._metrics[name] = metric
        elif tuple(float(b) for b in buckets) != metric.buckets:  # type: ignore[union-attr]
            raise SpecError(
                "histogram %r already registered with edges %r"
                % (name, metric.buckets)  # type: ignore[union-attr]
            )
        return metric  # type: ignore[return-value]

    def __iter__(self):
        """Metrics in deterministic (name) order."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)


# ----------------------------------------------------------------------
# Standard metric builders over a recorder and the runtime / control reports
# ----------------------------------------------------------------------


def record_perf_metrics(registry: MetricsRegistry, recorder) -> None:
    """Project a :class:`~repro.perf.Recorder` into metrics.

    Counters land as ``perf.counters.<name>``; span totals by name as
    the ``perf.phase_seconds`` counter labelled ``phase=<span name>``.
    """
    for name, value in sorted(recorder.counters.items()):
        registry.counter(
            "perf.counters.%s" % name, "synthesis hot-path counter"
        ).inc(value)
    phases = registry.counter(
        "perf.phase_seconds", "cumulative synthesis phase wall-clock"
    )
    for name, seconds in sorted(recorder.seconds_by_name().items()):
        phases.inc(round(seconds, 6), phase=name)


def record_runtime_metrics(registry: MetricsRegistry, report) -> None:
    """Project a :class:`~repro.runtime.report.RuntimeReport` into metrics.

    Emits the per-island ON/OFF/WAKING residency gauges, gating event
    counters, per-flow wake-stall histogram and the energy-by-source
    gauges the dashboard's top-line tiles read.
    """
    residency = registry.gauge(
        "runtime.island.residency_ms", "time per power state over the trace"
    )
    events = registry.counter(
        "runtime.island.events", "gate/wake transitions per island"
    )
    for isl in sorted(report.per_island):
        r = report.per_island[isl]
        residency.set(r.on_ms, island=isl, state="on")
        residency.set(r.off_ms, island=isl, state="off")
        residency.set(r.waking_ms, island=isl, state="waking")
        events.inc(r.gate_events, island=isl, kind="gate")
        events.inc(r.wake_events, island=isl, kind="wake")
    stalls = registry.histogram(
        "runtime.wake_stall_ms", help="worst wake stall per active flow"
    )
    for key in sorted(report.flow_stall_ms):
        stalls.observe(report.flow_stall_ms[key])
    energy = registry.gauge(
        "runtime.energy_mj", "trace energy decomposed by source"
    )
    energy.set(report.core_dynamic_mj, source="core_dynamic")
    energy.set(report.noc_traffic_mj, source="noc_traffic")
    energy.set(report.islands_on_mj, source="islands_on")
    energy.set(report.islands_off_mj, source="islands_off")
    energy.set(report.always_on_mj, source="always_on")
    energy.set(report.wake_energy_mj, source="wake_events")
    energy.set(report.fault_delta_mj, source="fault_delta")
    energy.set(report.total_mj, source="total")
    registry.gauge("runtime.stalled_ms", "island-ms waiting on wakes").set(
        report.stalled_ms
    )
    registry.counter("runtime.violations", "routability violations").inc(
        len(report.violations)
    )


def record_control_metrics(registry: MetricsRegistry, report) -> None:
    """Project the controller's recovery timelines into metrics.

    Detection / failover (recovery) latency histograms, per-action flow
    counters, lost-traffic and degraded-window gauges — empty when the
    report carries no recoveries.
    """
    detect = registry.histogram(
        "control.detection_ms", help="fault-to-observation latency"
    )
    recover = registry.histogram(
        "control.recovery_ms", help="fault-to-installed-routing latency"
    )
    flows = registry.counter("control.flow_actions", "flow fates per recovery")
    lost = registry.gauge("control.lost_traffic_mbits", "undelivered traffic")
    degraded = registry.gauge(
        "control.degraded_window_ms", "time on alternate routing"
    )
    audits = registry.counter("control.deadlock_audits", "install-time audits")
    total_lost = 0.0
    total_degraded = 0.0
    for rec in report.recoveries:
        detect.observe(rec.detection_ms, scenario=rec.scenario)
        recover.observe(rec.failover_ms, scenario=rec.scenario)
        for f in rec.flows:
            flows.inc(1, action=f.action)
        audits.inc(
            1,
            verdict="pass"
            if rec.deadlock_free and rec.restore_deadlock_free
            else "fail",
        )
        total_lost += rec.lost_traffic_mbits
        total_degraded += rec.degraded_window_ms
    lost.set(total_lost)
    degraded.set(total_degraded)


def record_cache_metrics(registry: MetricsRegistry, stats) -> None:
    """Project :class:`~repro.cache.store.CacheStats` into metrics.

    Emits the ``cache.*`` counter family the dashboard's top-counters
    panel shows: hits labeled by storage tier and entry kind, misses by
    kind, evictions, bytes moved, corruption/verification events.
    ``stats`` may be a :class:`~repro.cache.store.CacheStore`, a
    :class:`~repro.cache.store.CacheStats` or a raw counter mapping
    (a worker's shipped delta).
    """
    counters = getattr(stats, "stats", stats)
    counters = getattr(counters, "counters", counters)
    hits = registry.counter("cache.hits", "cache hits by tier and kind")
    misses = registry.counter("cache.misses", "cache misses by kind")
    evictions = registry.counter("cache.evictions", "LRU evictions by tier")
    bytes_written = registry.counter(
        "cache.bytes_written", "bytes persisted to the disk tier"
    )
    bytes_read = registry.counter("cache.bytes_read", "bytes read by tier")
    corrupt = registry.counter(
        "cache.corrupt_entries", "entries dropped as corrupt"
    )
    stale = registry.counter(
        "cache.stale_entries", "entries dropped as stale (another schema or key)"
    )
    verify = registry.counter(
        "cache.verify", "verify_on_hit recomputes by outcome"
    )
    key_errors = registry.counter(
        "cache.key_errors", "values that refused canonicalization"
    )
    for name in sorted(counters):
        value = counters[name]
        parts = name.split(".")
        event = parts[0]
        if event == "hits" and len(parts) == 3:
            hits.inc(value, tier=parts[1], kind=parts[2])
        elif event == "misses" and len(parts) == 2:
            misses.inc(value, kind=parts[1])
        elif event == "evictions":
            evictions.inc(value, tier=parts[1] if len(parts) > 1 else "memory")
        elif event == "bytes_written":
            bytes_written.inc(value)
        elif event == "bytes_read":
            bytes_read.inc(value, tier=parts[1] if len(parts) > 1 else "disk")
        elif event == "corrupt":
            corrupt.inc(value, where=parts[1] if len(parts) > 1 else "disk")
        elif event == "stale":
            stale.inc(value)
        elif event == "verify_runs":
            verify.inc(value, outcome="run")
        elif event == "verify_mismatches":
            verify.inc(value, outcome="mismatch")
        elif event == "key_errors":
            key_errors.inc(value)
    record_cache_hit_rates(registry)


def record_cache_hit_rates(registry: MetricsRegistry) -> Dict[str, float]:
    """Derive the ``cache.hit_rate`` gauge from the raw counters.

    ``hits / (hits + misses)`` per storage tier (a miss means the
    lookup fell through *every* tier, so each tier's rate shares the
    total-lookup denominator) plus the ``overall`` rate the dashboard
    headline shows.  Recomputed from the counters' current state, so a
    repeated call after more lookups stays correct.
    Returns the rates that were set (empty when no lookups recorded).
    """
    hits = registry.get("cache.hits")
    misses = registry.get("cache.misses")
    total_hits = sum(hits.samples.values()) if hits is not None else 0.0
    total_misses = sum(misses.samples.values()) if misses is not None else 0.0
    lookups = total_hits + total_misses
    if lookups <= 0:
        return {}
    rate = registry.gauge(
        "cache.hit_rate", "hits / (hits + misses) per storage tier"
    )
    by_tier: Dict[str, float] = {}
    if hits is not None:
        for key, value in hits.samples.items():
            tier = dict(key).get("tier", "memory")
            by_tier[tier] = by_tier.get(tier, 0.0) + value
    out: Dict[str, float] = {}
    for tier in sorted(by_tier):
        out[tier] = by_tier[tier] / lookups
        rate.set(out[tier], tier=tier)
    out["overall"] = total_hits / lookups
    rate.set(out["overall"], tier="overall")
    return out
