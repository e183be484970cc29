"""k-disjoint spare-path allocation on top of a routed topology.

For every routed flow, allocate up to ``k`` backup routes that are
pairwise edge-disjoint (on physical inter-switch links) from the
primary route and from each other, so that any failure killing the
primary leaves at least one live alternative.  The Ogras/Marculescu
observation — long-range spare channels can be grafted onto an
existing topology cheaply — meets the paper's VI constraint here:
backup routes obey the *same* shutdown-safety transition rule as
primaries (only source, destination and intermediate islands), so the
protected design stays island-gateable.

Mechanics
---------

* Flows are processed in the primary allocator's deterministic order
  (decreasing bandwidth, latency, key), so two allocations on equal
  topologies are byte-identical.
* Each backup search runs the PR-2 int-indexed Dijkstra
  (:meth:`repro.core.paths.PathAllocator.route_backup`) with the
  flow's primary links — and its earlier backups — forbidden; the
  search may reuse existing links with headroom or open new ones
  (including parallel links: a parallel physical link is a valid
  single-link-failure backup because only one physical link fails at
  a time), charged against the same cost model as primary routing.
* Backups are **cold standby**: they carry no traffic until a fault
  activates them, so their bandwidth is *reserved*
  (:attr:`SparePlan.reserved_mbps`) rather than charged to the links.
  Reservations are mutually exclusive across all flows' backups, so in
  any single-fault scenario every rerouted flow finds its reserved
  headroom next to all surviving primaries.
* Flows whose endpoints share one switch have no inter-switch links to
  lose — they are recorded as trivially safe and get no backups.

``allocate_spare_paths`` mutates the given topology (it opens links);
callers protecting a shared design point go through
:func:`protect_design_point`, which works on a clone and re-runs
floorplanning and power so the overhead of protection is measured,
not guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

from ..arch.topology import FlowKey, Link, Route, Switch, Topology, ni_id
from ..core.paths import PathAllocator, PathCostConfig, _OPEN
from ..exceptions import SynthesisError
from ..floorplan.placer import Floorplan, FloorplanConfig, place
from ..floorplan.wires import WireReport, assign_wire_lengths
from ..perf.instrument import active_recorder
from ..power.noc_power import NocPower, compute_noc_power
from ..power.soc_power import SocPower, compute_soc_power
from ..sim.zero_load import LatencyReport, evaluate_latency, route_latency_cycles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.design_point import DesignPoint


@dataclass(frozen=True)
class SparePathConfig:
    """Knobs of backup-route allocation."""

    #: Backup routes per flow; k backups survive any k link failures
    #: that each kill at most one of the flow's k+1 disjoint routes.
    k: int = 1
    #: Also forbid the primary's intermediate *switches* (not just its
    #: links) so backups survive switch failures of transit switches.
    node_disjoint: bool = False
    #: Degraded-mode latency slack: a backup route must meet
    #: ``flow.latency_cycles * latency_stretch`` or the flow stays
    #: unprotected (the default enforces the same hard budget primary
    #: routing does; ``math.inf`` accepts any detour).
    latency_stretch: float = 1.0
    #: Cost knobs for the backup searches (default: primary's).
    cost_config: Optional[PathCostConfig] = None


@dataclass(frozen=True)
class SparePlan:
    """The backup routes of one protected topology."""

    k: int
    node_disjoint: bool
    #: Per flow, up to ``k`` backup routes in allocation order.
    backups: Mapping[FlowKey, Tuple[Route, ...]]
    #: Zero-load latency (cycles) of each backup route, aligned with
    #: :attr:`backups`.
    backup_cycles: Mapping[FlowKey, Tuple[int, ...]]
    #: Zero-load latency of each protected flow's primary route.
    primary_cycles: Mapping[FlowKey, int]
    #: Flows with no inter-switch links (nothing to protect).
    trivially_safe: Tuple[FlowKey, ...]
    #: Flows that received fewer than ``k`` backups.
    unprotected: Tuple[FlowKey, ...]
    #: Links opened for spares, in opening order.
    opened_links: Tuple[int, ...]
    #: Cold-standby bandwidth reserved per link id.
    reserved_mbps: Mapping[int, float]

    @property
    def links_opened(self) -> int:
        return len(self.opened_links)

    @property
    def protected_flows(self) -> int:
        return len(self.backups)

    def backups_for(self, flow: FlowKey) -> Tuple[Route, ...]:
        """The backup routes of one flow (empty for trivially safe)."""
        return self.backups.get(flow, ())


def _sw2sw_links(route: Route, topology: Topology) -> List[int]:
    return [
        lid for lid in route.links if topology.links[lid].kind == "sw2sw"
    ]


def allocate_spare_paths(
    topology: Topology,
    k: Optional[int] = None,
    config: Optional[SparePathConfig] = None,
    allocator: Optional[PathAllocator] = None,
) -> SparePlan:
    """Allocate up to ``k`` disjoint backup routes per routed flow.

    ``k`` overrides ``config.k`` when given (``None`` defers to the
    config, default 1).  Mutates ``topology`` (new links may open); the
    routes themselves live only in the returned :class:`SparePlan` —
    ``topology.routes`` keeps the primaries, so power/validation of the
    protected design sees the spare hardware as idle capacity, which is
    exactly what cold standby is.
    """
    cfg = config or SparePathConfig()
    if k is not None and k != cfg.k:
        cfg = replace(cfg, k=k)
    if cfg.k < 0:
        raise SynthesisError("spare-path k must be >= 0, got %r" % cfg.k)
    alloc = allocator or PathAllocator.for_topology(topology, cfg.cost_config)

    sw_list: List[Switch] = list(topology.switches.values())
    n = len(sw_list)
    idx_of = {sw.id: i for i, sw in enumerate(sw_list)}
    # Existing sw2sw links per directed pair, in link-id order —
    # prepopulated from the routed topology (primary allocation starts
    # from an empty map; spares start from the finished design).
    pair_links: Dict[int, List[Link]] = {}
    for link in topology.links.values():
        if link.kind != "sw2sw":
            continue
        key = idx_of[link.src] * n + idx_of[link.dst]
        pair_links.setdefault(key, []).append(link)
    for links in pair_links.values():
        links.sort(key=lambda l: l.id)

    backups: Dict[FlowKey, Tuple[Route, ...]] = {}
    backup_cycles: Dict[FlowKey, Tuple[int, ...]] = {}
    primary_cycles: Dict[FlowKey, int] = {}
    trivially_safe: List[FlowKey] = []
    unprotected: List[FlowKey] = []
    opened: List[int] = []
    reserved: Dict[int, float] = {}

    for flow in alloc._ordered_flows:
        key = flow.key
        route = topology.routes.get(key)
        if route is None:
            continue  # unrouted flows are a validation problem, not ours
        primary_sw_links = _sw2sw_links(route, topology)
        if not primary_sw_links:
            trivially_safe.append(key)
            continue
        src_i = idx_of[topology.switch_of_core(flow.src).id]
        dst_i = idx_of[topology.switch_of_core(flow.dst).id]
        ni_src_lid = route.links[0]
        ni_dst_lid = route.links[-1]
        forbidden: Set[int] = set(primary_sw_links)
        blocked: Optional[Set[int]] = None
        if cfg.node_disjoint:
            blocked = {
                idx_of[comp]
                for comp in route.components[1:-1]
                if comp in idx_of
            } - {src_i, dst_i}
        flow_routes: List[Route] = []
        flow_cycles: List[int] = []
        lat_budget = flow.latency_cycles * cfg.latency_stretch
        for _ in range(cfg.k):
            found = alloc.route_backup(
                topology,
                sw_list,
                pair_links,
                flow,
                src_i,
                dst_i,
                forbidden,
                blocked_switches=blocked,
                reserved=reserved,
            )
            if found is not None and found[1] > lat_budget + 1e-9:
                # Cheapest disjoint detour misses the degraded-mode
                # latency budget — retry latency-greedy, exactly like
                # primary routing's fallback.
                retry = alloc.route_backup(
                    topology,
                    sw_list,
                    pair_links,
                    flow,
                    src_i,
                    dst_i,
                    forbidden,
                    blocked_switches=blocked,
                    reserved=reserved,
                    latency_only=True,
                )
                if retry is not None and retry[1] < found[1]:
                    found = retry
                if found[1] > lat_budget + 1e-9:
                    found = None  # a budget-violating spare is no spare
            if found is None:
                break
            hops, cycles = found
            link_ids: List[int] = [ni_src_lid]
            for ui, vi, action, link in hops:
                if action == _OPEN:
                    link = topology.open_link(sw_list[ui].id, sw_list[vi].id)
                    opened.append(link.id)
                    pkey = ui * n + vi
                    lst = pair_links.get(pkey)
                    if lst is None:
                        pair_links[pkey] = [link]
                    else:
                        lst.append(link)
                link_ids.append(link.id)
                forbidden.add(link.id)
                reserved[link.id] = reserved.get(link.id, 0.0) + flow.bandwidth_mbps
            link_ids.append(ni_dst_lid)
            comps = [ni_id(flow.src)]
            for lid in link_ids:
                comps.append(topology.links[lid].dst)
            flow_routes.append(
                Route(flow=key, components=tuple(comps), links=tuple(link_ids))
            )
            flow_cycles.append(cycles)
        if flow_routes:
            backups[key] = tuple(flow_routes)
            backup_cycles[key] = tuple(flow_cycles)
            primary_cycles[key] = route_latency_cycles(topology, key)
        if len(flow_routes) < cfg.k:
            unprotected.append(key)

    recorder = active_recorder()
    if recorder is not None:
        recorder.count("spare_links_opened", len(opened))
        recorder.count("spare_backups", sum(len(b) for b in backups.values()))
    return SparePlan(
        k=cfg.k,
        node_disjoint=cfg.node_disjoint,
        backups=backups,
        backup_cycles=backup_cycles,
        primary_cycles=primary_cycles,
        trivially_safe=tuple(sorted(trivially_safe)),
        unprotected=tuple(sorted(unprotected)),
        opened_links=tuple(opened),
        reserved_mbps=reserved,
    )


@dataclass(frozen=True)
class ProtectionResult:
    """A protected clone of one design point, fully re-evaluated.

    The overhead properties compare against a *baseline* evaluated
    through the identical placement/wires/power pipeline on the
    unprotected topology — not against the point's stored metrics —
    so they isolate the cost of the spare hardware even when the
    point was synthesized with different evaluation settings (custom
    floorplan knobs).  For points built with the default pipeline the
    baseline reproduces the stored metrics exactly.
    """

    topology: Topology
    plan: SparePlan
    floorplan: Floorplan
    wires: WireReport
    noc_power: NocPower
    soc_power: SocPower
    latency: LatencyReport
    baseline_wires: WireReport
    baseline_noc_power: NocPower
    baseline_soc_power: SocPower

    @property
    def power_overhead_mw(self) -> float:
        """Extra Figure-2 dynamic power the spare hardware costs."""
        return self.noc_power.fig2_dynamic_mw - self.baseline_noc_power.fig2_dynamic_mw

    @property
    def wire_overhead_mm(self) -> float:
        """Extra total wire length of the protected floorplan."""
        return self.wires.total_length_mm - self.baseline_wires.total_length_mm

    @property
    def area_overhead_mm2(self) -> float:
        """Extra NoC silicon area (bigger crossbars on spare ports)."""
        return self.soc_power.noc_area_mm2 - self.baseline_soc_power.noc_area_mm2


def _evaluate_protected(topo: Topology, floorplan_config: FloorplanConfig):
    """One placement/wires/power evaluation (shared with the baseline)."""
    floorplan = place(topo, floorplan_config)
    wires = assign_wire_lengths(topo, floorplan)
    noc_power = compute_noc_power(topo)
    soc_power = compute_soc_power(topo, noc_power)
    return floorplan, wires, noc_power, soc_power


def protect_design_point(
    point: "DesignPoint",
    k: Optional[int] = None,
    config: Optional[SparePathConfig] = None,
    floorplan_config: Optional[FloorplanConfig] = None,
) -> ProtectionResult:
    """Protect a design point's topology without mutating it.

    Clones the topology, allocates spare paths on the clone, then
    re-runs placement, wire assignment and the power rollup — once on
    the protected clone and once on an unprotected clone — so the
    protection overhead (links, wire, power, area) is measured under
    one consistent pipeline, whatever settings built the point.
    """
    fp_cfg = floorplan_config or FloorplanConfig()
    baseline = point.topology.clone_scaffold()
    _, base_wires, base_noc, base_soc = _evaluate_protected(baseline, fp_cfg)
    topo = point.topology.clone_scaffold()
    plan = allocate_spare_paths(topo, k=k, config=config)
    floorplan, wires, noc_power, soc_power = _evaluate_protected(topo, fp_cfg)
    return ProtectionResult(
        topology=topo,
        plan=plan,
        floorplan=floorplan,
        wires=wires,
        noc_power=noc_power,
        soc_power=soc_power,
        latency=evaluate_latency(topo),
        baseline_wires=base_wires,
        baseline_noc_power=base_noc,
        baseline_soc_power=base_soc,
    )
