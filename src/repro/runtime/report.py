"""Runtime simulation results: energy over a trace, per policy.

A :class:`RuntimeReport` is the trace-driven analogue of the static
:class:`~repro.power.leakage.ShutdownReport`: instead of a weighted
average over ``time_fraction`` s it integrates actual mW over actual
milliseconds, charges every off/on cycle its event energy, and records
the dynamic safety evidence — wake stalls and routability violations —
that the static analysis cannot see.

Units: powers are mW, times ms, energies mJ (mW x ms = µJ; fields are
stored in mJ so a 1 s trace of a 1 W SoC reads as 1000 mJ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from ..arch.topology import FlowKey
from .states import StateInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..control.telemetry import FaultRecovery, TelemetryEvent


@dataclass(frozen=True)
class RoutabilityViolation:
    """An active flow whose path crossed a gated (or waking) island.

    The paper's synthesis guarantee — no flow routes through a third
    island — exists precisely so this never happens; the runtime
    simulator verifies it dynamically.  ``island`` is the third-party
    island the route crosses while the policy holds it OFF/WAKING.
    """

    segment_index: int
    use_case: str
    flow: FlowKey
    island: int

    def describe(self) -> str:
        return "segment %d (%s): flow %s->%s crosses gated island %d" % (
            self.segment_index,
            self.use_case,
            self.flow[0],
            self.flow[1],
            self.island,
        )


@dataclass(frozen=True)
class FaultImpact:
    """One flow's fate under one injected fault event.

    Recorded once per (event, flow) at the first trace segment where
    the flow is active inside the fault window: either the flow failed
    over to a spare route (``fate == "rerouted"``, with the zero-load
    latency penalty and the one-time switchover stall), or no backup
    survived and the flow is down for the rest of the window
    (``fate == "lost"``).
    """

    event_index: int
    scenario: str
    segment_index: int
    use_case: str
    flow: FlowKey
    fate: str  # "rerouted" | "lost"
    backup_index: int = -1
    added_cycles: int = 0
    stall_ms: float = 0.0

    def describe(self) -> str:
        if self.fate == "rerouted":
            return (
                "fault %s: flow %s->%s failed over to backup %d "
                "(+%d cycles, %.3f ms stall)"
                % (
                    self.scenario,
                    self.flow[0],
                    self.flow[1],
                    self.backup_index,
                    self.added_cycles,
                    self.stall_ms,
                )
            )
        return "fault %s: flow %s->%s lost (no surviving backup)" % (
            self.scenario,
            self.flow[0],
            self.flow[1],
        )


@dataclass(frozen=True)
class IslandRuntime:
    """One island's runtime statistics over a trace."""

    island: int
    on_ms: float
    off_ms: float
    waking_ms: float
    gate_events: int
    wake_events: int
    #: The island's break-even idle time under the simulator economics.
    break_even_ms: float
    #: Static power saved per ms while gated.
    saved_mw: float
    #: Longest single wake stall the island imposed on a needed segment.
    max_stall_ms: float = 0.0
    #: Full ON/OFF/WAKING state timeline over the trace — the island's
    #: Gantt row in the observability dashboard.  Empty on reports
    #: built before the timeline was recorded.
    timeline: Tuple[StateInterval, ...] = ()

    @property
    def off_fraction(self) -> float:
        total = self.on_ms + self.off_ms + self.waking_ms
        return self.off_ms / total if total > 0 else 0.0


@dataclass(frozen=True)
class RuntimeReport:
    """Energy-over-time accounting of one policy on one trace."""

    trace_name: str
    policy: str
    total_ms: float
    num_segments: int
    #: Active-core dynamic energy (policy-independent).
    core_dynamic_mj: float
    #: NoC traffic energy of the active flows (policy-independent).
    noc_traffic_mj: float
    #: Static energy of gateable islands while ON or WAKING.
    islands_on_mj: float
    #: Residual static energy of gateable islands while OFF.
    islands_off_mj: float
    #: Static energy of never-gated parts (the intermediate NoC island).
    always_on_mj: float
    #: Off/on cycle energy over all gating events.
    wake_energy_mj: float
    gate_events: int
    wake_events: int
    #: Island-milliseconds spent waiting for wake-ups in needed intervals.
    stalled_ms: float
    #: Active flows that had to wait on a waking (src/dst) island.
    stalled_flows: int
    violations: Tuple[RoutabilityViolation, ...]
    per_island: Mapping[int, IslandRuntime]
    #: Worst-case wake stall each active flow ever saw (ms); the wake
    #: latency the QoS objective checks against per-flow deadlines.
    #: Populated by the routability pass (empty when it is skipped).
    flow_stall_ms: Mapping[FlowKey, float] = field(default_factory=dict)
    #: Per-flow fates under injected fault events (see
    #: :class:`FaultImpact`); empty when no faults were injected.
    fault_impacts: Tuple[FaultImpact, ...] = ()
    #: Traffic-energy delta of degraded-mode operation: rerouted flows
    #: pay their (usually longer) backup path, lost flows stop paying
    #: at all — so the delta can be negative while service is down.
    fault_delta_mj: float = 0.0
    #: Total one-time failover (detect + switchover) stall time.
    fault_stall_ms: float = 0.0
    #: Per-fault recovery timelines when a reconfiguration controller
    #: drove the replay (see
    #: :class:`repro.control.telemetry.FaultRecovery`); empty under
    #: the legacy omniscient fault model.
    recoveries: Tuple["FaultRecovery", ...] = ()
    #: The controller's telemetry stream, in canonical order.
    telemetry: Tuple["TelemetryEvent", ...] = ()

    @property
    def total_mj(self) -> float:
        """Total trace energy (including degraded-mode traffic delta)."""
        return (
            self.core_dynamic_mj
            + self.noc_traffic_mj
            + self.islands_on_mj
            + self.islands_off_mj
            + self.always_on_mj
            + self.wake_energy_mj
            + self.fault_delta_mj
        )

    @property
    def rerouted_flow_events(self) -> int:
        """(event, flow) pairs that failed over to a spare route."""
        return sum(1 for i in self.fault_impacts if i.fate == "rerouted")

    @property
    def lost_flow_events(self) -> int:
        """(event, flow) pairs with no surviving backup."""
        return sum(1 for i in self.fault_impacts if i.fate == "lost")

    @property
    def degraded(self) -> bool:
        """True when any injected fault touched an active flow."""
        return bool(self.fault_impacts)

    @property
    def controlled(self) -> bool:
        """True when a reconfiguration controller drove the faults."""
        return bool(self.recoveries)

    @property
    def worst_recovery_ms(self) -> float:
        """Largest fault-to-installed window over all recoveries."""
        return max((r.failover_ms for r in self.recoveries), default=0.0)

    @property
    def recoveries_deadlock_free(self) -> bool:
        """True when every installed routing passed its CDG audit."""
        return all(
            r.deadlock_free and r.restore_deadlock_free
            for r in self.recoveries
        )

    @property
    def lost_traffic_mbits(self) -> float:
        """Undelivered traffic over every fault's outage window."""
        return sum(r.lost_traffic_mbits for r in self.recoveries)

    @property
    def static_mj(self) -> float:
        """Static (leakage + idle clock) energy, the gating-sensitive part."""
        return self.islands_on_mj + self.islands_off_mj + self.always_on_mj

    @property
    def average_power_mw(self) -> float:
        """Trace-average power draw (mJ / ms = W; reported in mW)."""
        if self.total_ms <= 0:
            return 0.0
        return self.total_mj / self.total_ms * 1000.0

    @property
    def routable(self) -> bool:
        """True when no active flow ever crossed a gated island."""
        return not self.violations

    def savings_vs(self, other: "RuntimeReport") -> float:
        """Fractional energy saved relative to another report."""
        if other.total_mj <= 0:
            return 0.0
        return (other.total_mj - self.total_mj) / other.total_mj

    def island_rows(self) -> List[Dict[str, object]]:
        """Per-island table rows for :func:`repro.io.report.format_table`."""
        rows = []
        for isl in sorted(self.per_island):
            r = self.per_island[isl]
            rows.append(
                {
                    "island": r.island,
                    "on_ms": round(r.on_ms, 2),
                    "off_ms": round(r.off_ms, 2),
                    "waking_ms": round(r.waking_ms, 3),
                    "off_time": "%.1f%%" % (100.0 * r.off_fraction),
                    "gate_events": r.gate_events,
                    "wake_events": r.wake_events,
                    "break_even_us": round(r.break_even_ms * 1000.0, 2)
                    if r.break_even_ms != float("inf")
                    else "inf",
                }
            )
        return rows


def policy_comparison_rows(
    reports: Sequence[RuntimeReport],
) -> List[Dict[str, object]]:
    """One table row per policy; savings are relative to ``never``.

    Feasible only when all reports come from the same trace; rows keep
    the input order.
    """
    baseline = next((r for r in reports if r.policy == "never"), None)
    rows = []
    for r in reports:
        row: Dict[str, object] = {
            "policy": r.policy,
            "energy_mj": round(r.total_mj, 4),
            "avg_power_mw": round(r.average_power_mw, 2),
            "static_mj": round(r.static_mj, 4),
            "wake_mj": round(r.wake_energy_mj, 5),
            "gate_events": r.gate_events,
            "stalled_ms": round(r.stalled_ms, 3),
            "violations": len(r.violations),
        }
        if baseline is not None and baseline.total_mj > 0:
            row["savings"] = "%.1f%%" % (100.0 * r.savings_vs(baseline))
        rows.append(row)
    return rows
