"""Telemetry stream and recovery timelines of the control plane.

Everything the controller observes or does is recorded as
:class:`TelemetryEvent` s — a flat, time-ordered stream a dashboard
(or the ``repro-noc control`` CLI) can consume — and rolled up per
fault into a :class:`FaultRecovery` timeline: when the fault was
raised, when the controller saw it, when the new routing was
installed, and when the repaired primary was restored.

The stream is deterministic by construction: events are emitted in a
fixed order per fault and sorted by ``(t_ms, kind rank, flow)``, so
two replays of the same trace serialize byte-identically (pinned by
the control-plane tests and the ``control_plane`` bench section).
``math.inf`` timestamps mean "never happened inside the trace" (e.g.
a fault that is never repaired); the JSON summaries map them to
``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..arch.topology import FlowKey
from ..perf.instrument import active_recorder

#: Telemetry event kinds, in per-timestamp presentation order.
TELEMETRY_KINDS: Tuple[str, ...] = (
    "fault_raised",
    "fault_detected",
    "spare_activated",
    "reroute_computed",
    "flow_lost",
    "routing_installed",
    "deadlock_audit",
    "repair_observed",
    "primary_restored",
)

_KIND_RANK = {kind: i for i, kind in enumerate(TELEMETRY_KINDS)}

#: Flow recovery actions.
ACTION_SPARE = "spare"
ACTION_REROUTE = "reroute"
ACTION_LOST = "lost"


@dataclass(frozen=True)
class TelemetryEvent:
    """One observation or action of the controller, timestamped."""

    t_ms: float
    kind: str
    scenario: str
    flow: Optional[FlowKey] = None
    detail: str = ""

    def describe(self) -> str:
        flow = " %s->%s" % self.flow if self.flow else ""
        detail = " (%s)" % self.detail if self.detail else ""
        return "[%10.4f ms] %-17s %s%s%s" % (
            self.t_ms,
            self.kind,
            self.scenario,
            flow,
            detail,
        )


def publish_telemetry(event: TelemetryEvent) -> bool:
    """Emit ``event`` on the active recorder, if it has sinks.

    The controller calls this as it emits — live observers see the
    stream in *emission* order (per fault, deterministic), while the
    post-hoc report keeps the canonical :func:`sort_telemetry` order.
    ``t_ms`` is simulated trace time, fully deterministic, so it rides
    in ``attrs`` rather than the droppable ``timing`` block.  Returns
    whether an event was published.
    """
    rec = active_recorder()
    if rec is None or not rec.sinks:
        return False
    rec.emit(
        "telemetry",
        event.kind,
        attrs={
            "t_ms": round(event.t_ms, 6) if math.isfinite(event.t_ms) else None,
            "kind": event.kind,
            "scenario": event.scenario,
            "flow": "%s->%s" % event.flow if event.flow else None,
            "detail": event.detail,
        },
    )
    return True


def sort_telemetry(events: Sequence[TelemetryEvent]) -> Tuple[TelemetryEvent, ...]:
    """Canonical stream order: time, then kind rank, then flow."""
    return tuple(
        sorted(
            events,
            key=lambda e: (
                e.t_ms,
                _KIND_RANK.get(e.kind, len(TELEMETRY_KINDS)),
                e.scenario,
                e.flow or ("", ""),
            ),
        )
    )


@dataclass(frozen=True)
class FlowRecovery:
    """One affected flow's path through a fault's repair stages."""

    flow: FlowKey
    #: ``spare`` (pre-provisioned backup), ``reroute`` (freshly computed
    #: on surviving hardware) or ``lost`` (no routing answer).
    action: str
    #: Index into the spare plan's backup tuple (``spare`` only).
    backup_index: int = -1
    #: Zero-load latency penalty of the alternate route (cycles).
    added_cycles: int = 0
    #: Active time with no service before the alternate was installed.
    outage_ms: float = 0.0
    #: Active time served on the alternate route.
    degraded_ms: float = 0.0
    #: Traffic the flow could not deliver while down (Mbit).
    lost_mbits: float = 0.0
    #: Failover stall charged to the flow (= its active outage).
    stall_ms: float = 0.0

    @property
    def recovered(self) -> bool:
        return self.action in (ACTION_SPARE, ACTION_REROUTE)


@dataclass(frozen=True)
class FaultRecovery:
    """Per-fault recovery timeline through the staged repair loop.

    Stage timestamps are absolute trace times (ms); ``math.inf`` means
    the stage never happened inside the trace (an unrepaired fault has
    ``repaired_ms == restored_ms == inf``).  Windows (``*_window_ms``)
    are clamped to the trace, so they sum into the energy accounting.
    """

    event_index: int
    scenario: str
    kind: str
    #: Fault raised (failed stage).
    fault_ms: float
    #: Controller observed the fault (detected stage).
    detected_ms: float
    #: New routing installed — degraded service begins (rerouted stage).
    installed_ms: float
    #: Physical repair of the component (end of the fault window).
    repaired_ms: float
    #: Controller restored primaries (repaired stage complete).
    restored_ms: float
    #: Degraded-mode window inside the trace: installed -> restored.
    degraded_window_ms: float
    flows: Tuple[FlowRecovery, ...]
    #: Install-time channel-dependency audit of the degraded routing.
    deadlock_free: bool = True
    #: Audit of the restored (primary) routing.
    restore_deadlock_free: bool = True
    #: Recovered flows demoted to lost by the deadlock audit.
    demoted_flows: Tuple[FlowKey, ...] = ()

    @property
    def detection_ms(self) -> float:
        """Fault-to-observation latency."""
        return self.detected_ms - self.fault_ms

    @property
    def failover_ms(self) -> float:
        """Fault-to-installed latency (the service-impact window)."""
        return self.installed_ms - self.fault_ms

    @property
    def lost_traffic_mbits(self) -> float:
        return sum(f.lost_mbits for f in self.flows)

    @property
    def recovered_flows(self) -> int:
        return sum(1 for f in self.flows if f.recovered)

    @property
    def lost_flows(self) -> int:
        return sum(1 for f in self.flows if f.action == ACTION_LOST)

    @property
    def repaired(self) -> bool:
        return math.isfinite(self.restored_ms)


def _finite(value: float) -> Optional[float]:
    return round(value, 6) if math.isfinite(value) else None


def recovery_rows(recoveries: Sequence[FaultRecovery]) -> List[Dict[str, object]]:
    """Per-fault table rows for :func:`repro.io.report.format_table`."""
    rows: List[Dict[str, object]] = []
    for rec in recoveries:
        rows.append(
            {
                "scenario": rec.scenario,
                "fault_ms": round(rec.fault_ms, 4),
                "detect_ms": round(rec.detection_ms, 4),
                "failover_ms": round(rec.failover_ms, 4),
                "degraded_ms": round(rec.degraded_window_ms, 4),
                "restored_ms": _finite(rec.restored_ms) or "-",
                "recovered": rec.recovered_flows,
                "lost": rec.lost_flows,
                "lost_mbits": round(rec.lost_traffic_mbits, 4),
                "deadlock_free": rec.deadlock_free
                and rec.restore_deadlock_free,
            }
        )
    return rows


def recovery_summary(rec: FaultRecovery) -> Dict[str, Any]:
    """Flat, deterministic JSON summary of one recovery timeline."""
    return {
        "event_index": rec.event_index,
        "scenario": rec.scenario,
        "kind": rec.kind,
        "fault_ms": round(rec.fault_ms, 6),
        "detected_ms": round(rec.detected_ms, 6),
        "installed_ms": round(rec.installed_ms, 6),
        "repaired_ms": _finite(rec.repaired_ms),
        "restored_ms": _finite(rec.restored_ms),
        "detection_ms": round(rec.detection_ms, 6),
        "failover_ms": round(rec.failover_ms, 6),
        "degraded_window_ms": round(rec.degraded_window_ms, 6),
        "lost_traffic_mbits": round(rec.lost_traffic_mbits, 6),
        "deadlock_free": rec.deadlock_free,
        "restore_deadlock_free": rec.restore_deadlock_free,
        "demoted_flows": ["%s->%s" % f for f in rec.demoted_flows],
        "flows": [
            {
                "flow": "%s->%s" % f.flow,
                "action": f.action,
                "backup_index": f.backup_index,
                "added_cycles": f.added_cycles,
                "outage_ms": round(f.outage_ms, 6),
                "degraded_ms": round(f.degraded_ms, 6),
                "lost_mbits": round(f.lost_mbits, 6),
                "stall_ms": round(f.stall_ms, 6),
            }
            for f in rec.flows
        ],
    }


def telemetry_summary(
    events: Sequence[TelemetryEvent],
) -> List[Dict[str, Any]]:
    """JSON-safe dump of a telemetry stream (already canonical order)."""
    return [
        {
            "t_ms": round(e.t_ms, 6),
            "kind": e.kind,
            "scenario": e.scenario,
            "flow": "%s->%s" % e.flow if e.flow else None,
            "detail": e.detail,
        }
        for e in events
    ]
