"""The SDN-style reconfiguration controller: observe, decide, install.

:class:`ReconfigurationController` closes the loop the runtime
simulator was missing: instead of replaying faults as omniscient
same-tick energy deltas, each injected
:class:`~repro.resilience.faults.FaultEvent` now walks the staged
repair pipeline

    failed -> detected -> rerouted (degraded) -> repaired (restored)

under the deterministic :class:`~repro.control.latency.ControlLatencyModel`:

* **observe** — the fault raised at ``t0`` is seen at
  ``t0 + detection_ms(scenario)`` through the modeled telemetry
  channel; until then every affected flow runs into the dead
  component and delivers nothing (the outage window).
* **decide** — for every affected routed flow, in sorted key order:
  activate the first surviving backup of the PR-5
  :class:`~repro.resilience.spare_paths.SparePlan` (``spare``); when
  no spare covers the fault, compute a fresh reroute on the surviving
  hardware via :meth:`repro.core.paths.PathAllocator.route_around`
  (``reroute`` — new links cannot be fabbed at runtime, so
  ``allow_open=False``); when neither works the flow is declared
  ``lost`` until repair.
* **install** — the new routing state takes effect at
  ``detected + install_ms(#migrated)`` and is audited for deadlock
  freedom on the *installed* route map
  (:func:`repro.arch.routing.find_cdg_cycle` with ``routes=``);
  if the activated alternates close a channel-dependency cycle, the
  smallest-keyed contributing flows are deterministically demoted to
  ``lost`` until the installed routing is acyclic — a correct
  controller never installs a deadlockable state.
* **repair** — when the fault window ends, the repair is observed
  (lazier detection), primaries are re-installed, and the restored
  routing is audited again.

Every stage's window feeds the trace energy/stall accounting in
:func:`repro.runtime.simulate.simulate_trace` (pass the controller via
``controller=``), and the whole episode is recorded as a
:class:`~repro.control.telemetry.FaultRecovery` timeline plus a
:class:`~repro.control.telemetry.TelemetryEvent` stream on the
:class:`~repro.runtime.report.RuntimeReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch.routing import find_cdg_cycle, is_deadlock_free
from ..arch.topology import FlowKey, Route, Topology
from ..core.paths import PathAllocator
from ..exceptions import SpecError
from ..perf.instrument import span
from ..power.noc_power import route_traffic_power_mw
from ..resilience.faults import (
    FaultEvent,
    FaultScenario,
    endpoint_failed,
    route_affected,
)
from ..resilience.spare_paths import SparePlan
from ..runtime.report import FaultImpact
from ..sim.zero_load import route_latency_cycles
from .latency import ControlLatencyModel
from .telemetry import (
    ACTION_LOST,
    ACTION_REROUTE,
    ACTION_SPARE,
    FaultRecovery,
    FlowRecovery,
    TelemetryEvent,
    publish_telemetry,
    sort_telemetry,
)


@dataclass(frozen=True)
class FlowDecision:
    """The controller's routing answer for one affected flow."""

    flow: FlowKey
    action: str  # ACTION_SPARE | ACTION_REROUTE | ACTION_LOST
    backup_index: int = -1
    route: Optional[Route] = None
    added_cycles: int = 0


@dataclass(frozen=True)
class ControlDecision:
    """The full decision for one fault scenario (pure in the scenario).

    ``installed_routes`` is the route map the controller installs:
    primaries for unaffected flows, activated alternates for recovered
    flows, lost flows dropped — the map the deadlock audit ran on.
    """

    scenario: FaultScenario
    actions: Tuple[FlowDecision, ...]
    installed_routes: Mapping[FlowKey, Route]
    deadlock_free: bool
    demoted: Tuple[FlowKey, ...] = ()

    @property
    def migrated(self) -> int:
        return sum(1 for a in self.actions if a.action != ACTION_LOST)


@dataclass(frozen=True)
class ControlOutcome:
    """What the controller did over one trace replay.

    Merged into the :class:`~repro.runtime.report.RuntimeReport` by
    :func:`~repro.runtime.simulate.simulate_trace`; energies are µJ
    (mW x ms) at this level, converted to mJ by the simulator.
    """

    impacts: Tuple[FaultImpact, ...]
    recoveries: Tuple[FaultRecovery, ...]
    telemetry: Tuple[TelemetryEvent, ...]
    delta_uj: float
    stall_ms: float
    flow_stall_ms: Mapping[FlowKey, float]


def _overlap(lo: float, hi: float, start: float, end: float) -> float:
    return max(0.0, min(hi, end) - max(lo, start))


class ReconfigurationController:
    """Closed-loop fault recovery over one protected topology.

    ``spare_plan`` is the PR-5 plan whose backups the controller
    activates first; without one every affected flow goes straight to
    the online reroute (or is lost).  Decisions are memoized per
    scenario — they are pure in (topology, plan, scenario).
    """

    def __init__(
        self,
        topology: Topology,
        spare_plan: Optional[SparePlan] = None,
        latency: Optional[ControlLatencyModel] = None,
        allocator: Optional[PathAllocator] = None,
    ) -> None:
        self.topology = topology
        self.spare_plan = spare_plan
        self.latency = latency or ControlLatencyModel()
        self._allocator = allocator
        self._decisions: Dict[FaultScenario, ControlDecision] = {}
        self._primary_deadlock_free: Optional[bool] = None

    # -- decide ---------------------------------------------------------

    def _alloc(self) -> PathAllocator:
        if self._allocator is None:
            self._allocator = PathAllocator.for_topology(self.topology)
        return self._allocator

    def _primary_cycles(self, key: FlowKey) -> int:
        if self.spare_plan is not None:
            cached = self.spare_plan.primary_cycles.get(key)
            if cached is not None:
                return cached
        return route_latency_cycles(self.topology, key)

    def decide(self, scenario: FaultScenario) -> ControlDecision:
        """Routing answer for one scenario, with the deadlock audit."""
        memo = self._decisions.get(scenario)
        if memo is not None:
            return memo
        with span("control.decide", scenario=scenario.name) as s:
            out = self._decide(scenario)
            if s is not None:
                s.set(
                    deadlock_free=out.deadlock_free,
                    lost=sum(1 for a in out.actions if a.action == ACTION_LOST),
                )
            return out

    def _decide(self, scenario: FaultScenario) -> ControlDecision:
        topo = self.topology
        plan = self.spare_plan
        actions: List[FlowDecision] = []
        for key, route in sorted(topo.routes.items()):
            dead_end = endpoint_failed(scenario, topo, key)
            if not dead_end and not route_affected(scenario, topo, route):
                continue
            decision = None
            if not dead_end and plan is not None:
                for idx, backup in enumerate(plan.backups_for(key)):
                    if not route_affected(scenario, topo, backup):
                        decision = FlowDecision(
                            flow=key,
                            action=ACTION_SPARE,
                            backup_index=idx,
                            route=backup,
                            added_cycles=plan.backup_cycles[key][idx]
                            - self._primary_cycles(key),
                        )
                        break
            if decision is None and not dead_end:
                found = self._alloc().route_around(
                    topo,
                    key,
                    forbidden_links=scenario.failed_links,
                    blocked_switches=scenario.failed_switches,
                    reserved=plan.reserved_mbps if plan is not None else None,
                )
                if found is not None:
                    alt, cycles = found
                    decision = FlowDecision(
                        flow=key,
                        action=ACTION_REROUTE,
                        route=alt,
                        added_cycles=cycles - self._primary_cycles(key),
                    )
            if decision is None:
                decision = FlowDecision(flow=key, action=ACTION_LOST)
            actions.append(decision)

        installed: Dict[FlowKey, Route] = dict(topo.routes)
        for a in actions:
            if a.action == ACTION_LOST:
                installed.pop(a.flow, None)
            else:
                installed[a.flow] = a.route

        # Never install a deadlockable routing: while the installed map
        # has a channel-dependency cycle, demote the smallest-keyed
        # recovered flow whose alternate touches the cycle.
        demoted: List[FlowKey] = []
        deadlock_free = True
        for _ in range(len(actions) + 1):
            cycle = find_cdg_cycle(topo, routes=installed)
            if cycle is None:
                break
            on_cycle = set(cycle)
            candidates = sorted(
                a.flow
                for a in actions
                if a.action != ACTION_LOST
                and a.flow not in demoted
                and any(lid in on_cycle for lid in installed[a.flow].links)
            )
            if not candidates:
                deadlock_free = False  # cycle not closed by an alternate
                break
            victim = candidates[0]
            demoted.append(victim)
            installed.pop(victim, None)
        else:  # pragma: no cover - bounded by construction
            deadlock_free = find_cdg_cycle(topo, routes=installed) is None
        if demoted:
            dem = set(demoted)
            actions = [
                FlowDecision(flow=a.flow, action=ACTION_LOST)
                if a.flow in dem
                else a
                for a in actions
            ]
        out = ControlDecision(
            scenario=scenario,
            actions=tuple(actions),
            installed_routes=installed,
            deadlock_free=deadlock_free,
            demoted=tuple(demoted),
        )
        self._decisions[scenario] = out
        return out

    # -- run ------------------------------------------------------------

    def _restore_deadlock_free(self) -> bool:
        if self._primary_deadlock_free is None:
            self._primary_deadlock_free = is_deadlock_free(self.topology)
        return self._primary_deadlock_free

    def run(
        self,
        events: Sequence[FaultEvent],
        boundaries: Sequence[Tuple[float, float, object]],
        profiles: Mapping[str, object],
        seg_wake: Mapping[Tuple[int, FlowKey], float],
        total_ms: float,
    ) -> ControlOutcome:
        """Drive the control loop over canonical fault events.

        Called by :func:`repro.runtime.simulate.simulate_trace` with
        its own segment ``boundaries``, per-use-case ``profiles`` and
        the per-(segment, flow) wake-stall map ``seg_wake`` — failover
        stalls run concurrent with wake ramps, so only the increment
        beyond the wake stall is charged to the fault.
        """
        with span("control.run", events=len(events)) as s:
            outcome = self._run(events, boundaries, profiles, seg_wake, total_ms)
            if s is not None:
                s.set(recoveries=len(outcome.recoveries))
            return outcome

    def _run(
        self,
        events: Sequence[FaultEvent],
        boundaries: Sequence[Tuple[float, float, object]],
        profiles: Mapping[str, object],
        seg_wake: Mapping[Tuple[int, FlowKey], float],
        total_ms: float,
    ) -> ControlOutcome:
        lat = self.latency
        topo = self.topology
        spec = topo.spec
        active_by_case = {
            name: frozenset(key for key, _ in prof.flow_islands)
            for name, prof in profiles.items()
        }
        impacts: List[FaultImpact] = []
        recoveries: List[FaultRecovery] = []
        telemetry: List[TelemetryEvent] = []
        delta_uj = 0.0
        stall_total = 0.0
        flow_stall: Dict[FlowKey, float] = {}

        def emit(t_ms: float, kind: str, flow=None, detail: str = "") -> None:
            if t_ms <= total_ms + 1e-12:
                event = TelemetryEvent(
                    t_ms=t_ms,
                    kind=kind,
                    scenario=sc.name,
                    flow=flow,
                    detail=detail,
                )
                telemetry.append(event)
                publish_telemetry(event)

        for ev_idx, event in enumerate(events):
            sc = event.scenario
            dec = self.decide(sc)
            n_migrated = dec.migrated
            t0 = event.start_ms
            t_detect = t0 + lat.detection_ms(sc)
            t_install = t_detect + lat.install_ms(n_migrated)
            if math.isfinite(event.end_ms):
                t_repair = event.end_ms
                t_restore = (
                    t_repair
                    + lat.repair_detection_ms(sc)
                    + lat.install_ms(n_migrated)
                )
                # A repair observed before the failover completed:
                # restore rides the same install transaction.
                t_restore = max(t_restore, t_install)
            else:
                t_repair = t_restore = math.inf
            restore_ok = (
                self._restore_deadlock_free()
                if math.isfinite(t_restore)
                else True
            )

            emit(t0, "fault_raised", detail=sc.kind)
            emit(
                t_detect,
                "fault_detected",
                detail="%d flows affected" % len(dec.actions),
            )
            for a in dec.actions:
                if a.action == ACTION_SPARE:
                    emit(
                        t_detect,
                        "spare_activated",
                        a.flow,
                        "backup %d, +%d cycles" % (a.backup_index, a.added_cycles),
                    )
                elif a.action == ACTION_REROUTE:
                    emit(
                        t_detect,
                        "reroute_computed",
                        a.flow,
                        "+%d cycles on existing links" % a.added_cycles,
                    )
                else:
                    emit(
                        t_detect,
                        "flow_lost",
                        a.flow,
                        "demoted by deadlock audit"
                        if a.flow in dec.demoted
                        else "no surviving route",
                    )
            emit(
                t_install,
                "routing_installed",
                detail="%d flows migrated" % n_migrated,
            )
            emit(
                t_install,
                "deadlock_audit",
                detail="pass"
                if dec.deadlock_free and not dec.demoted
                else (
                    "pass after demoting %d flow(s)" % len(dec.demoted)
                    if dec.deadlock_free
                    else "FAIL"
                ),
            )
            if math.isfinite(t_repair):
                emit(
                    t_repair + lat.repair_detection_ms(sc),
                    "repair_observed",
                    detail="component repaired at %.4f ms" % t_repair,
                )
                emit(
                    t_restore,
                    "primary_restored",
                    detail="audit %s" % ("pass" if restore_ok else "FAIL"),
                )

            # --- per-flow energy / stall / lost-traffic accounting ----
            flow_recs: List[FlowRecovery] = []
            for a in dec.actions:
                bw = spec.flow(*a.flow).bandwidth_mbps
                primary = topo.routes[a.flow]
                down_mw = -route_traffic_power_mw(
                    topo, bw, primary.links, include_ni=True
                )
                if a.action != ACTION_LOST:
                    deg_mw = route_traffic_power_mw(
                        topo, bw, a.route.links
                    ) - route_traffic_power_mw(topo, bw, primary.links)
                    down_hi = t_install
                else:
                    deg_mw = 0.0
                    down_hi = t_restore  # lost until primaries return
                outage = degraded = 0.0
                first_seg = -1
                for idx, (start, end, seg) in enumerate(boundaries):
                    if a.flow not in active_by_case[seg.use_case]:
                        continue
                    d = _overlap(t0, down_hi, start, end)
                    if d > 1e-12:
                        outage += d
                        delta_uj += down_mw * d
                        if first_seg < 0:
                            first_seg = idx
                        if a.action != ACTION_LOST:
                            wake = seg_wake.get((idx, a.flow), 0.0)
                            stall_total += max(0.0, d - wake)
                    if a.action != ACTION_LOST:
                        g = _overlap(t_install, t_restore, start, end)
                        if g > 1e-12:
                            degraded += g
                            delta_uj += deg_mw * g
                            if first_seg < 0:
                                first_seg = idx
                stall_ms = outage if a.action != ACTION_LOST else 0.0
                if stall_ms > 1e-12:
                    flow_stall[a.flow] = max(
                        flow_stall.get(a.flow, 0.0), stall_ms
                    )
                flow_recs.append(
                    FlowRecovery(
                        flow=a.flow,
                        action=a.action,
                        backup_index=a.backup_index,
                        added_cycles=a.added_cycles,
                        outage_ms=outage,
                        degraded_ms=degraded,
                        lost_mbits=bw * outage * 1e-3,
                        stall_ms=stall_ms,
                    )
                )
                if first_seg >= 0:
                    seg_obj = boundaries[first_seg][2]
                    impacts.append(
                        FaultImpact(
                            event_index=ev_idx,
                            scenario=sc.name,
                            segment_index=first_seg,
                            use_case=seg_obj.use_case,
                            flow=a.flow,
                            fate="rerouted"
                            if a.action != ACTION_LOST
                            else "lost",
                            backup_index=a.backup_index,
                            added_cycles=a.added_cycles,
                            stall_ms=stall_ms,
                        )
                    )

            recoveries.append(
                FaultRecovery(
                    event_index=ev_idx,
                    scenario=sc.name,
                    kind=sc.kind,
                    fault_ms=t0,
                    detected_ms=t_detect,
                    installed_ms=t_install,
                    repaired_ms=t_repair,
                    restored_ms=t_restore,
                    degraded_window_ms=max(
                        0.0, min(t_restore, total_ms) - min(t_install, total_ms)
                    ),
                    flows=tuple(flow_recs),
                    deadlock_free=dec.deadlock_free,
                    restore_deadlock_free=restore_ok,
                    demoted_flows=dec.demoted,
                )
            )

        return ControlOutcome(
            impacts=tuple(impacts),
            recoveries=tuple(recoveries),
            telemetry=sort_telemetry(telemetry),
            delta_uj=delta_uj,
            stall_ms=stall_total,
            flow_stall_ms=flow_stall,
        )


def controlled_simulation_check(
    topology: Topology,
    controller: ReconfigurationController,
    scenarios: Sequence[FaultScenario],
) -> bool:
    """True when every scenario's installed routing is deadlock-free.

    A pre-flight audit over a whole scenario set: decisions are
    memoized on the controller, so a subsequent trace replay reuses
    them for free.
    """
    if controller.topology is not topology:
        raise SpecError("controller was built for a different topology")
    return all(controller.decide(sc).deadlock_free for sc in scenarios)
