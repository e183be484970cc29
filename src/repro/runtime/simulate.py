"""Trace-driven runtime shutdown simulation.

Replays a :class:`~repro.runtime.trace.UseCaseTrace` against a
synthesized topology under a gating policy:

1. derive each gateable island's :class:`IslandEconomics` — static
   power while on (leakage + idle clock) vs. gated (residual leakage),
   plus the off/on cycle energy and wake latency from
   :func:`repro.power.gating.island_gating_cost`;
2. drive one :class:`IslandStateMachine` per island through the trace:
   islands hosting active cores of the current segment are needed (and
   woken when gated); idle intervals are handed to the policy;
3. integrate energy over the state timelines — active-core dynamic and
   NoC traffic power per segment, per-island static power per state,
   one event charge per gating cycle;
4. check routability: any active flow whose route crosses a
   still-OFF/WAKING *third-party* island (one the power controller has
   no reason to wake) is recorded as a
   :class:`~repro.runtime.report.RoutabilityViolation`.  VI-aware
   topologies produce none, by the paper's construction; the
   VI-oblivious baseline does — the same contrast as the static
   checker, now verified against an actual mode sequence.

The per-island decomposition charges each island its own leakage and
idle power (converter idle power goes to the receiving island), so the
model is separable: policy choices on one island never change another
island's bill.  That separability is what makes the break-even oracle
exactly optimal per idle interval — and the bench invariant
``break_even <= min(never, always_off)`` a theorem, not a tendency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..arch.topology import INTERMEDIATE_ISLAND, FlowKey, Topology
from ..exceptions import SpecError
from ..perf.instrument import span
from ..power.gating import GatingModel, island_gating_cost
from ..power.leakage import statically_pinned_islands
from ..power.noc_power import compute_noc_power, route_traffic_power_mw
from ..sim.scenarios import UseCase
from .policies import GatingPolicy, IslandEconomics, default_policies
from .report import FaultImpact, IslandRuntime, RoutabilityViolation, RuntimeReport
from .states import IslandState, IslandStateMachine
from .trace import UseCaseTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..control.controller import ReconfigurationController
    from ..resilience.faults import FaultEvent
    from ..resilience.spare_paths import SparePlan

#: mW * ms -> mJ.
UJ_TO_MJ = 1e-3
#: nJ -> mJ.
NJ_TO_MJ = 1e-6


def island_economics(
    topology: Topology, model: Optional[GatingModel] = None
) -> Dict[int, IslandEconomics]:
    """Per-island on/off power split and gating event cost.

    Static-on power = core leakage + the island's NoC leakage + the
    island's NoC idle (clock) power, taken from one zero-traffic
    :func:`~repro.power.noc_power.compute_noc_power` evaluation so the
    split is consistent with the rest of the power stack.  Gated power
    retains the residual-leakage fraction of the leakage part only (the
    clock tree is off).  The intermediate NoC island is excluded: it is
    never gated, by construction.
    """
    idle = compute_noc_power(topology, active_flows=[])
    return _economics_from_idle(topology, idle, model)


def _economics_from_idle(
    topology: Topology, idle, model: Optional[GatingModel]
) -> Dict[int, IslandEconomics]:
    """:func:`island_economics` from a precomputed zero-traffic rollup."""
    m = model or GatingModel()
    spec = topology.spec
    out: Dict[int, IslandEconomics] = {}
    for island in spec.islands:
        core_leak = sum(
            spec.core(c).leakage_power_mw for c in spec.cores_in_island(island)
        )
        noc_leak = idle.leakage_by_island.get(island, 0.0)
        noc_idle = idle.dynamic_by_island.get(island, 0.0)
        cost = island_gating_cost(topology, island, m)
        leak = core_leak + noc_leak
        out[island] = IslandEconomics(
            island=island,
            on_static_mw=leak + noc_idle,
            off_static_mw=leak * m.residual_leakage_fraction,
            event_energy_nj=cost.event_energy_nj,
            wakeup_latency_ms=cost.wakeup_latency_us * 1e-3,
        )
    return out


def _always_on_from_idle(idle) -> float:
    return idle.dynamic_by_island.get(
        INTERMEDIATE_ISLAND, 0.0
    ) + idle.leakage_by_island.get(INTERMEDIATE_ISLAND, 0.0)


@dataclass(frozen=True)
class _CaseProfile:
    """Per-use-case quantities the segment loop keeps re-reading."""

    needed_islands: frozenset
    core_dynamic_mw: float
    traffic_mw: float
    #: Routed active flows with their touched islands (minus the
    #: intermediate island, which is never gated).
    flow_islands: Tuple[Tuple[FlowKey, Tuple[int, ...]], ...]


def _profile_case(topology: Topology, case: UseCase) -> _CaseProfile:
    spec = topology.spec
    case.validate_against(spec)
    needed = frozenset(spec.island_of(c) for c in case.active_cores)
    core_dyn = sum(spec.core(c).dynamic_power_mw for c in case.active_cores)
    keys = [f.key for f in case.active_flows(spec)]
    power = compute_noc_power(topology, active_flows=keys)
    traffic = (
        power.switch_traffic_mw
        + power.ni_traffic_mw
        + power.link_traffic_mw
        + power.fifo_traffic_mw
    )
    flow_islands = tuple(
        (
            key,
            tuple(
                sorted(
                    isl
                    for isl in topology.islands_touched(key)
                    if isl != INTERMEDIATE_ISLAND
                )
            ),
        )
        for key in keys
        if key in topology.routes
    )
    return _CaseProfile(
        needed_islands=needed,
        core_dynamic_mw=core_dyn,
        traffic_mw=traffic,
        flow_islands=flow_islands,
    )


@dataclass(frozen=True)
class _TraceContext:
    """Policy-independent state shared across a policy comparison.

    Everything here depends only on (topology, trace, model) — one
    zero-traffic power rollup plus one profile per use case — so a
    multi-policy comparison derives it once instead of once per policy.
    """

    economics: Dict[int, IslandEconomics]
    always_on_mw: float
    profiles: Dict[str, _CaseProfile]
    boundaries: List[Tuple[float, float, object]]
    total_ms: float


def _build_context(
    topology: Topology, trace: UseCaseTrace, model: Optional[GatingModel]
) -> _TraceContext:
    trace.validate_against(topology.spec)
    idle = compute_noc_power(topology, active_flows=[])
    economics = _economics_from_idle(topology, idle, model)
    profiles = {u.name: _profile_case(topology, u) for u in trace.use_cases}
    for prof in profiles.values():
        unknown = prof.needed_islands - set(economics)
        if unknown:
            raise SpecError(
                "trace %r: active cores in unknown islands %s"
                % (trace.name, sorted(unknown))
            )
    return _TraceContext(
        economics=economics,
        always_on_mw=_always_on_from_idle(idle),
        profiles=profiles,
        boundaries=trace.boundaries(),
        total_ms=trace.total_ms,
    )


def _island_spans(
    boundaries: Sequence[Tuple[float, float, object]],
    profiles: Mapping[str, _CaseProfile],
    island: int,
) -> List[Tuple[float, float, bool]]:
    """Merged ``(start, end, needed)`` spans of one island over a trace."""
    spans: List[Tuple[float, float, bool]] = []
    for start, end, seg in boundaries:
        needed = island in profiles[seg.use_case].needed_islands
        if spans and spans[-1][2] == needed:
            spans[-1] = (spans[-1][0], end, needed)
        else:
            spans.append((start, end, needed))
    return spans


def canonical_fault_events(
    events: Sequence["FaultEvent"],
) -> List["FaultEvent"]:
    """Deterministic, deduplicated form of a fault-event list.

    Events sort by ``(start, end, scenario name, stall)`` — so the
    caller's list order never leaks into the accounting — and
    same-scenario windows that overlap (or touch) merge into one
    event spanning their union, keeping the larger switchover stall.
    Exact duplicates collapse to one event.  A component cannot fail
    *again* while it is already failed: without the merge, duplicate
    or overlapping injections double-charged the energy delta and
    recorded two impacts for one physical fault.  ``event_index`` on
    :class:`~repro.runtime.report.FaultImpact` refers to this
    canonical list.
    """
    from ..resilience.faults import FaultEvent  # deferred: layering

    ordered = sorted(
        events,
        key=lambda e: (e.start_ms, e.end_ms, e.scenario.name, e.reroute_stall_ms),
    )
    out: List[FaultEvent] = []
    last_of: Dict[object, int] = {}
    for ev in ordered:
        j = last_of.get(ev.scenario)
        if j is not None and ev.start_ms <= out[j].end_ms + 1e-12:
            prev = out[j]
            if (
                ev.end_ms > prev.end_ms
                or ev.reroute_stall_ms > prev.reroute_stall_ms
            ):
                out[j] = FaultEvent(
                    scenario=prev.scenario,
                    start_ms=prev.start_ms,
                    end_ms=max(prev.end_ms, ev.end_ms),
                    reroute_stall_ms=max(
                        prev.reroute_stall_ms, ev.reroute_stall_ms
                    ),
                )
        else:
            last_of[ev.scenario] = len(out)
            out.append(ev)
    return out


def simulate_trace(
    topology: Topology,
    trace: UseCaseTrace,
    policy: GatingPolicy,
    model: Optional[GatingModel] = None,
    check_routability: bool = True,
    pinned_islands: Optional[Iterable[int]] = None,
    fault_events: Optional[Sequence["FaultEvent"]] = None,
    spare_plan: Optional["SparePlan"] = None,
    controller: Optional["ReconfigurationController"] = None,
    _context: Optional[_TraceContext] = None,
) -> RuntimeReport:
    """Integrate energy (and verify routability) of a trace under a policy.

    ``pinned_islands`` are held ON for the whole trace regardless of
    the policy — pass
    :func:`repro.power.leakage.statically_pinned_islands` to model a
    *certifiable* controller on a VI-oblivious topology (islands whose
    switches carry third-party traffic can never be signed off for
    gating); VI-aware topologies pin nothing.  The
    :func:`certified_policy_comparison` helper wires this up.
    ``_context`` lets :func:`compare_policies` share the
    policy-independent preprocessing across policies.

    ``fault_events`` injects component failures
    (:class:`repro.resilience.faults.FaultEvent`) into the replay:
    while an event's window overlaps a segment, each active flow whose
    primary route uses a failed component either fails over to its
    first surviving backup from ``spare_plan`` (paying the backup
    path's traffic energy and a one-time switchover stall folded into
    the per-flow wake-stall accounting) or — with no surviving backup —
    is lost for the window (its traffic energy stops, recorded as a
    ``lost`` :class:`~repro.runtime.report.FaultImpact`).  The
    topology must be the *protected* one the plan's backup routes
    reference.  Events are canonicalized first
    (:func:`canonical_fault_events`): order-independent, duplicates
    collapsed, overlapping same-scenario windows merged.  Failover
    stalls run concurrent with any wake ramp the flow is already
    waiting out, so only the increment beyond the wake stall adds to
    ``fault_stall_ms``.

    ``controller`` replaces the omniscient same-tick fault model with
    the closed-loop control plane
    (:class:`repro.control.controller.ReconfigurationController`,
    built for this same topology): faults walk the staged repair
    pipeline (detected after a modeled latency, alternates installed
    after an install latency, primaries restored after repair), the
    report gains per-fault :attr:`~RuntimeReport.recoveries` timelines
    and the :attr:`~RuntimeReport.telemetry` stream, and every
    installed routing is audited for deadlock freedom.  When the
    controller carries its own spare plan, ``spare_plan`` may be
    omitted.
    """
    with span(
        "runtime.simulate",
        trace=trace.name,
        policy=policy.name,
        controlled=controller is not None,
    ) as s:
        report = _simulate_trace(
            topology,
            trace,
            policy,
            model=model,
            check_routability=check_routability,
            pinned_islands=pinned_islands,
            fault_events=fault_events,
            spare_plan=spare_plan,
            controller=controller,
            _context=_context,
        )
        if s is not None:
            s.set(violations=len(report.violations), recoveries=len(report.recoveries))
        return report


def _simulate_trace(
    topology: Topology,
    trace: UseCaseTrace,
    policy: GatingPolicy,
    model: Optional[GatingModel] = None,
    check_routability: bool = True,
    pinned_islands: Optional[Iterable[int]] = None,
    fault_events: Optional[Sequence["FaultEvent"]] = None,
    spare_plan: Optional["SparePlan"] = None,
    controller: Optional["ReconfigurationController"] = None,
    _context: Optional[_TraceContext] = None,
) -> RuntimeReport:
    """:func:`simulate_trace` body (root span opened by the wrapper)."""
    pinned = frozenset(pinned_islands or ())
    ctx = _context or _build_context(topology, trace, model)
    economics = ctx.economics
    boundaries = ctx.boundaries
    profiles = ctx.profiles
    total_ms = ctx.total_ms

    # --- drive one state machine per gateable island -------------------
    policy.reset()
    machines: Dict[int, IslandStateMachine] = {}
    stalled_ms = 0.0
    island_stall_ms: Dict[int, float] = {}
    for island, econ in economics.items():
        machine = IslandStateMachine(island, econ.wakeup_latency_ms)
        ready = 0.0
        for start, end, needed in _island_spans(boundaries, profiles, island):
            if needed:
                if machine.state is IslandState.OFF:
                    ready = machine.request_wake(start)
                if ready > start:
                    stall = min(ready, end) - start
                    stalled_ms += stall
                    island_stall_ms[island] = max(
                        island_stall_ms.get(island, 0.0), stall
                    )
            elif island not in pinned:
                # A wake still ramping cannot be interrupted, so the
                # interval handed to the policy starts when gating
                # becomes possible — the oracle must judge the *owned*
                # OFF window, or a wake spilling into the interval
                # would shrink the realized savings behind its back.
                effective_start = max(start, ready)
                if effective_start >= end - 1e-12:
                    continue
                gate = policy.gate_time(effective_start, end, econ)
                if gate is not None and gate < end - 1e-12:
                    machine.gate_off(max(gate, effective_start))
        machine.finalize(total_ms)
        machines[island] = machine

    # --- energy integration -------------------------------------------
    core_dyn_uj = traffic_uj = 0.0
    for start, end, seg in boundaries:
        prof = profiles[seg.use_case]
        dwell = end - start
        core_dyn_uj += prof.core_dynamic_mw * dwell
        traffic_uj += prof.traffic_mw * dwell

    on_uj = off_uj = wake_uj = 0.0
    gate_events = wake_events = 0
    per_island: Dict[int, IslandRuntime] = {}
    for island, machine in machines.items():
        econ = economics[island]
        times = machine.time_in()
        on_ms = times[IslandState.ON]
        off_ms = times[IslandState.OFF]
        waking_ms = times[IslandState.WAKING]
        on_uj += (on_ms + waking_ms) * econ.on_static_mw
        off_uj += off_ms * econ.off_static_mw
        wake_uj += machine.gate_events * econ.event_energy_nj * 1e-3
        gate_events += machine.gate_events
        wake_events += machine.wake_events
        per_island[island] = IslandRuntime(
            island=island,
            on_ms=on_ms,
            off_ms=off_ms,
            waking_ms=waking_ms,
            gate_events=machine.gate_events,
            wake_events=machine.wake_events,
            break_even_ms=econ.break_even_ms,
            saved_mw=econ.saved_mw,
            max_stall_ms=island_stall_ms.get(island, 0.0),
            timeline=tuple(machine.timeline),
        )
    always_on_uj = ctx.always_on_mw * total_ms

    # --- dynamic routability and per-flow wake-stall check ------------
    violations: List[RoutabilityViolation] = []
    flow_stall_ms: Dict[FlowKey, float] = {}
    #: Wake stall per (segment, flow) — kept only when faults are
    #: injected, so failover stalls can be charged *concurrent* with
    #: the wake ramp the flow is already waiting out.
    seg_wake: Dict[Tuple[int, FlowKey], float] = {}
    stalled_flows = 0
    if check_routability:
        for idx, (start, end, seg) in enumerate(boundaries):
            prof = profiles[seg.use_case]
            for key, touched in prof.flow_islands:
                seg_stall = 0.0
                for island in touched:
                    machine = machines[island]
                    if island in prof.needed_islands:
                        # Source/destination island still ramping: the
                        # flow waits out the wake — a latency penalty,
                        # not a safety violation.  The waking overlap
                        # *is* the wait (wakes are requested at segment
                        # start), and the flow's wait is the slowest of
                        # its islands' concurrent ramps.
                        seg_stall = max(
                            seg_stall, machine.waking_overlap_ms(start, end)
                        )
                        continue
                    if (
                        machine.off_overlap_ms(start, end) > 1e-12
                        or machine.waking_overlap_ms(start, end) > 1e-12
                    ):
                        violations.append(
                            RoutabilityViolation(
                                segment_index=idx,
                                use_case=seg.use_case,
                                flow=key,
                                island=island,
                            )
                        )
                if seg_stall > 1e-12:
                    stalled_flows += 1
                    if fault_events:
                        seg_wake[(idx, key)] = seg_stall
                flow_stall_ms[key] = max(flow_stall_ms.get(key, 0.0), seg_stall)

    # --- injected fault events: degraded-mode energy and stalls -------
    fault_impacts: List[FaultImpact] = []
    fault_delta_uj = 0.0
    fault_stall_total = 0.0
    recoveries: tuple = ()
    telemetry: tuple = ()
    if fault_events and controller is not None:
        if controller.topology is not topology:
            raise SpecError(
                "controller was built for a different topology than the "
                "one being simulated"
            )
        events = canonical_fault_events(fault_events)
        outcome = controller.run(
            events, boundaries, profiles, seg_wake, total_ms
        )
        fault_impacts = list(outcome.impacts)
        fault_delta_uj = outcome.delta_uj
        fault_stall_total = outcome.stall_ms
        for key, stall in outcome.flow_stall_ms.items():
            flow_stall_ms[key] = max(flow_stall_ms.get(key, 0.0), stall)
        recoveries = outcome.recoveries
        telemetry = outcome.telemetry
    elif fault_events:
        # Deferred import: the resilience package sits above runtime in
        # the layering (its coverage module pulls in the objective
        # layer, which imports this module).
        from ..resilience.coverage import LOST, REROUTED, UNAFFECTED, _classify

        events = canonical_fault_events(fault_events)

        # (event index, use case) -> affected active flows with their
        # fate, power delta and failover latency; classification is
        # pure in those two inputs.
        fate_memo: Dict[Tuple[int, str], List[tuple]] = {}

        def classify(ev_idx: int, use_case: str) -> List[tuple]:
            entries = fate_memo.get((ev_idx, use_case))
            if entries is not None:
                return entries
            scenario = events[ev_idx].scenario
            entries = []
            for key, _islands in profiles[use_case].flow_islands:
                route = topology.routes[key]
                impact = _classify(scenario, topology, key, route, spare_plan)
                if impact.fate == UNAFFECTED:
                    continue
                bw = topology.spec.flow(*key).bandwidth_mbps
                if impact.fate == REROUTED:
                    backup = spare_plan.backups[key][impact.backup_index]
                    delta_mw = route_traffic_power_mw(
                        topology, bw, backup.links
                    ) - route_traffic_power_mw(topology, bw, route.links)
                    entries.append(
                        (key, REROUTED, impact.backup_index, delta_mw, impact.added_cycles)
                    )
                else:
                    # Service down (a lost flow or a failed endpoint): the
                    # flow's traffic energy stops (NI endpoints included)
                    # for the fault window.
                    delta_mw = -route_traffic_power_mw(
                        topology, bw, route.links, include_ni=True
                    )
                    entries.append((key, LOST, -1, delta_mw, 0))
            fate_memo[(ev_idx, use_case)] = entries
            return entries

        seen: Set[Tuple[int, FlowKey]] = set()
        for idx, (start, end, seg) in enumerate(boundaries):
            for ev_idx, event in enumerate(events):
                overlap = event.overlap_ms(start, end)
                if overlap <= 1e-12:
                    continue
                for key, fate, backup_idx, delta_mw, added in classify(
                    ev_idx, seg.use_case
                ):
                    fault_delta_uj += delta_mw * overlap
                    if (ev_idx, key) in seen:
                        continue
                    seen.add((ev_idx, key))
                    stall = event.reroute_stall_ms if fate == REROUTED else 0.0
                    if stall > 0.0:
                        # The failover switchover runs concurrent with
                        # any wake ramp the flow is already waiting
                        # out in this segment: the flow's wait is the
                        # max of the two, so only the increment beyond
                        # the wake stall is charged to the fault.
                        fault_stall_total += max(
                            0.0, stall - seg_wake.get((idx, key), 0.0)
                        )
                        flow_stall_ms[key] = max(
                            flow_stall_ms.get(key, 0.0), stall
                        )
                    fault_impacts.append(
                        FaultImpact(
                            event_index=ev_idx,
                            scenario=event.scenario.name,
                            segment_index=idx,
                            use_case=seg.use_case,
                            flow=key,
                            fate=fate,
                            backup_index=backup_idx,
                            added_cycles=added,
                            stall_ms=stall,
                        )
                    )

    return RuntimeReport(
        trace_name=trace.name,
        policy=policy.describe(),
        total_ms=total_ms,
        num_segments=len(trace.segments),
        core_dynamic_mj=core_dyn_uj * UJ_TO_MJ,
        noc_traffic_mj=traffic_uj * UJ_TO_MJ,
        islands_on_mj=on_uj * UJ_TO_MJ,
        islands_off_mj=off_uj * UJ_TO_MJ,
        always_on_mj=always_on_uj * UJ_TO_MJ,
        wake_energy_mj=wake_uj * UJ_TO_MJ,
        gate_events=gate_events,
        wake_events=wake_events,
        stalled_ms=stalled_ms,
        stalled_flows=stalled_flows,
        violations=tuple(violations),
        per_island=per_island,
        flow_stall_ms=flow_stall_ms,
        fault_impacts=tuple(fault_impacts),
        fault_delta_mj=fault_delta_uj * UJ_TO_MJ,
        fault_stall_ms=fault_stall_total,
        recoveries=recoveries,
        telemetry=telemetry,
    )


def compare_policies(
    topology: Topology,
    trace: UseCaseTrace,
    policies: Optional[Sequence[GatingPolicy]] = None,
    model: Optional[GatingModel] = None,
    check_routability: bool = True,
    pinned_islands: Optional[Iterable[int]] = None,
) -> Dict[str, RuntimeReport]:
    """Simulate the same trace under several policies.

    Returns reports keyed by policy name in input order (insertion
    order is preserved); defaults to the four standard policies.  The
    policy-independent preprocessing (power rollups, use-case profiles)
    is computed once and shared across the policies.
    """
    pinned = frozenset(pinned_islands or ())
    context = _build_context(topology, trace, model)
    reports: Dict[str, RuntimeReport] = {}
    for policy in policies if policies is not None else default_policies():
        if policy.name in reports:
            raise SpecError("duplicate policy %r in comparison" % policy.name)
        reports[policy.name] = simulate_trace(
            topology,
            trace,
            policy,
            model=model,
            check_routability=check_routability,
            pinned_islands=pinned,
            _context=context,
        )
    return reports


def certified_policy_comparison(
    topology: Topology,
    trace: UseCaseTrace,
    policies: Optional[Sequence[GatingPolicy]] = None,
    model: Optional[GatingModel] = None,
) -> Dict[str, RuntimeReport]:
    """Policy comparison under a sign-off-certifiable controller.

    Islands whose switches carry third-party traffic
    (:func:`~repro.power.leakage.statically_pinned_islands`) are held
    ON for the whole trace: without route analysis of the momentary
    traffic, no sign-off flow can guarantee their shutdown is safe
    (Section 2 of the paper).  On a VI-aware topology the pinned set is
    empty and this is identical to :func:`compare_policies`; on the
    VI-oblivious baseline it quantifies exactly how much runtime
    savings the topology forfeits.
    """
    return compare_policies(
        topology,
        trace,
        policies=policies,
        model=model,
        pinned_islands=statically_pinned_islands(topology),
    )
