"""Least-cost path allocation for inter-switch traffic (step 15).

Given the core-to-switch assignment of one design point and a number of
indirect switches in the intermediate NoC island, this module connects
the switches and routes every traffic flow:

* flows are processed in **decreasing bandwidth order** ("Choose flows
  in bandwidth order and find the paths");
* for each flow a Dijkstra search over the allowed switch graph picks
  the cheapest mix of **reusing existing links** and **opening new
  ones**; the edge cost is "a linear combination of the power
  consumption increase in opening a new link or reusing an existing
  link and the latency constraint of the flow";
* link opening respects the per-island **maximum switch size** (ports
  per direction) and the **shutdown-safety rule**: for a flow from
  island *a* to island *b*, only switches in *a*, *b* or the
  intermediate island may appear on the path, and new links may only
  run within *a*, within *b*, from *a* to *b*, or to/between/from
  intermediate switches;
* after routing, a flow whose zero-load latency exceeds its budget
  triggers a latency-greedy re-route; if that still violates, the
  design point is infeasible.

The allocator mutates a fresh :class:`~repro.arch.topology.Topology`
and reports success or the first unroutable flow.

Fast path
---------
The synthesis sweep calls the allocator hundreds of times, so the hot
loop is engineered around six observations:

1. the successors of a popped switch depend only on the flow's
   ``(src_island, dst_island)`` pair and on the switch's own island and
   frequency — :class:`PathAllocator` keeps one lazily-built row per
   such key (shared across routing attempts), stored as **segments**,
   one per target island.  Everything an edge's feasibility and static
   cost needs besides the two endpoints' port counts is a property of
   the segment (crossing, port reserve, size bound, capacity, static
   open weights), so the search resolves it once per segment per pop;
   the rest is **destination state** — a target's open-edge traffic
   power, new in-port count and freshness are fixed while one search
   runs (no link opens mid-search), so each is computed on the
   target's first evaluation and reused on later pops;
2. the power terms of an edge cost are pure functions of a handful of
   switch attributes — the static open cost of ``(u.island, v.island,
   u fresh?, v fresh?)`` (precomputed into the segments) and the
   traffic energy-per-bit of ``(crossing?, v.n_in, v.n_out)`` (one
   int-keyed memo probe per destination state), with no invalidation
   (the keys carry every dynamic input);
3. most candidates route their switch/NI scaffold only once, so each
   attempt builds its scaffold and routes it in place, with no copy;
4. every edge cost is strictly positive, so an existing ``src -> dst``
   link with spare capacity is the whole answer (the one-hop reuse
   strictly beats every alternative) — no search needed;
5. for the same reason, if the 0-intermediate attempt finished without
   a single dead edge evaluation, paths through indirect switches are
   strictly dominated everywhere and the k>0 attempts are returned
   from the k=0 result instead of re-routed (the dominance skip);
6. opening ``u -> v`` costs ``traffic(v) + open_w[u fresh][v fresh] +
   lat_cost``, the same float for every popped ``u`` of one
   **open-edge class** (successor row, segment, ``u`` fresh?) — so in
   primary searches a class's first member that may open evaluates
   every target, and later ones only the targets with an existing link
   from themselves or from that first member (found via ``out_keys``).

Cached and uncached (``use_cache=False``) runs share one cost
implementation, so they produce byte-identical allocations; the cache
only changes how often the arithmetic re-runs.  Reference mode
rebuilds the successor rows for every search, keeps no destination
state, prices every edge evaluation from scratch and skips no class.

The class skip is exact while every cost is non-negative (else the
search runs the full loop): pops are then non-decreasing, so a skipped
target was offered the same open cost by the first member from no
larger a distance and the strict ``1e-12`` test cannot pass again; its
port-limit rejection depends only on target and segment, so it set
``blocked`` already.  The first member's existing-link targets may
never have been offered the open cost, and a pop that cannot open must
flag its dead edges, so both are evaluated in full.  Order within a
pop is irrelevant (heap entries ``(cost, rank)`` are distinct).

Dominance shortcut
------------------
Each flow is routed by the first of three steps that answers it: the
direct-reuse shortcut (observation 4), the O(1) **direct-open
dominance shortcut** — when opening the direct link provably costs no
more than any multi-hop alternative could, the search is skipped; see
:meth:`PathAllocator._direct_open_shortcut` for the proof obligations
— and otherwise the Dijkstra :meth:`PathAllocator._search`.  Both
shortcuts are part of the fast path; reference mode
(``use_cache=False``) runs the full search for every flow, and the
shortcut answers are exactly the hops and latency the search returns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .. import units
from ..arch.topology import (
    INTERMEDIATE_ISLAND,
    FlowKey,
    Link,
    NetworkInterface,
    Route,
    Switch,
    Topology,
    ni_id,
)
from ..exceptions import SynthesisError
from ..perf.instrument import active_recorder, span
from ..power.library import NocLibrary
from .frequency import IslandPlan, intermediate_island_freq_mhz
from .spec import SoCSpec, TrafficFlow


@dataclass(frozen=True)
class PathCostConfig:
    """Knobs of the link-cost linear combination.

    ``latency_cost_mw_per_cycle`` converts cycles into the power-cost
    unit so the two objectives combine linearly; the per-flow latency
    pressure scales it by ``min_lat / lat_flow`` (tight flows feel
    latency more, mirroring the Definition 1 weighting).
    """

    #: Weight (mW per cycle) of the latency term in the edge cost.
    latency_cost_mw_per_cycle: float = 0.40
    #: Assumed wire length of an intra-island link before floorplanning.
    nominal_intra_link_mm: float = 1.5
    #: Assumed wire length of a cross-island link before floorplanning.
    nominal_cross_link_mm: float = 4.0
    #: Multiplier on the static (idle + leakage) cost of opening links.
    open_cost_weight: float = 1.0
    #: Allow opening parallel links between the same switch pair when
    #: the first link saturates.
    allow_parallel_links: bool = True


@dataclass
class AllocationResult:
    """Outcome of path allocation for one design point."""

    topology: Optional[Topology]
    success: bool
    failed_flow: Optional[FlowKey] = None
    reason: Optional[str] = None
    links_opened: int = 0
    flows_via_intermediate: int = 0

    def require_topology(self) -> Topology:
        """Return the topology, raising if allocation failed."""
        if not self.success or self.topology is None:
            raise SynthesisError(
                "allocation failed (%s) — no topology" % (self.reason or "unknown")
            )
        return self.topology


# Edge in the Dijkstra search: either reuse an existing link or open a
# new one between two switches.
_REUSE = "reuse"
_OPEN = "open"


# ----------------------------------------------------------------------
# Cost model (shared by cached and uncached paths)
# ----------------------------------------------------------------------


def _allowed_transition(
    src_island: int, dst_island: int, isl_a: int, isl_b: int
) -> bool:
    """Shutdown-safety transition rule for a flow from ``isl_a`` to ``isl_b``.

    Permitted directed moves: within the source island, within the
    destination island, source -> destination, source -> intermediate,
    intermediate -> intermediate, intermediate -> destination.  This is
    exactly the "directly across the source and destination VIs or to
    the switches in the intermediate NoC island" rule, and it also makes
    the search graph a DAG across islands (no ping-pong between
    islands, which could never reduce cost).
    """
    mid = INTERMEDIATE_ISLAND
    if src_island == isl_a:
        return dst_island in (isl_a, isl_b, mid) if isl_a != isl_b else dst_island == isl_a
    if src_island == mid:
        return dst_island in (mid, isl_b)
    if src_island == isl_b:
        return dst_island == isl_b
    return False


def _static_open_cost(
    lib: NocLibrary,
    cfg: PathCostConfig,
    u_island: int,
    u_freq: float,
    u_fresh: bool,
    v_island: int,
    v_freq: float,
    v_fresh: bool,
) -> float:
    """Static power cost (mW) of opening a new link u->v.

    Counts the incremental idle power of the two new switch ports, the
    converter if the link crosses islands, and the leakage of the new
    wire at its nominal pre-floorplan length.  A *fresh* endpoint (no
    ports yet) also brings its fixed clock-tree and leakage floor online.
    """
    crossing = u_island != v_island
    length = cfg.nominal_cross_link_mm if crossing else cfg.nominal_intra_link_mm
    # One new output port on u and one new input port on v.
    static = lib.switch_idle_mw_per_mhz_per_port * (u_freq + v_freq)
    static += 2.0 * lib.switch_leak_mw_per_port
    if u_fresh:
        static += lib.switch_idle_mw_per_mhz_base * u_freq + lib.switch_leak_mw_base
    if v_fresh:
        static += lib.switch_idle_mw_per_mhz_base * v_freq + lib.switch_leak_mw_base
    static += lib.link_leakage_mw(length)
    if crossing:
        static += lib.fifo_idle_power_mw(u_freq, v_freq) + lib.fifo_leakage_mw()
    return static


def _edge_static_open_cost(
    topo: Topology, u: Switch, v: Switch, cfg: PathCostConfig
) -> float:
    """Static power cost (mW) of opening a new link between two switches."""
    return _static_open_cost(
        topo.library,
        cfg,
        u.island,
        u.freq_mhz,
        u.n_in == 0 and u.n_out == 0,
        v.island,
        v.freq_mhz,
        v.n_in == 0 and v.n_out == 0,
    )


def _edge_traffic_ebit(
    topo: Topology, u: Switch, v: Switch, cfg: PathCostConfig
) -> float:
    """Energy per bit (pJ) a flow pays on link u->v plus switch v."""
    lib = topo.library
    crossing = u.island != v.island
    length = cfg.nominal_cross_link_mm if crossing else cfg.nominal_intra_link_mm
    ebit = lib.link_ebit_pj(length)
    ebit += lib.switch_ebit_pj(max(v.n_in, 1), max(v.n_out, 1))
    if crossing:
        ebit += lib.fifo_ebit_pj
    return ebit


# ----------------------------------------------------------------------
# Allocation engine
# ----------------------------------------------------------------------


class PathAllocator:
    """Reusable path-allocation engine for one design-point candidate.

    Construction freezes everything that is identical across the
    intermediate-count sweep and the port-reserve retries: the flow
    order and the per-island size bounds.  Each attempt builds its
    switch/NI scaffold through the validating construction path and
    routes on it in place.  Scaffolds take their NIs from ``nis``, a
    table by core name (the allocator's own when ``None``): a candidate
    pass hands every allocator one table, so all of its topologies
    share one NI per core.

    ``use_cache=False`` recomputes every edge-cost term and runs the
    full search, every open edge included, for every flow — the
    reference mode used to prove the fast path changes nothing.
    """

    def __init__(
        self,
        spec: SoCSpec,
        library: NocLibrary,
        plans: Mapping[int, IslandPlan],
        partitions: Mapping[int, Sequence[Set[str]]],
        cost_config: Optional[PathCostConfig] = None,
        use_cache: bool = True,
        nis: Optional[Dict[str, NetworkInterface]] = None,
    ) -> None:
        self.spec = spec
        self.library = library
        self.plans = plans
        self.partitions = partitions
        self.cfg = cost_config or PathCostConfig()
        self.use_cache = use_cache
        self._nis: Dict[str, NetworkInterface] = {} if nis is None else nis

        self._base_freqs: Dict[int, float] = {
            isl: plan.freq_mhz for isl, plan in plans.items()
        }
        self._mid_freq = intermediate_island_freq_mhz(plans)
        self._max_sizes: Dict[int, int] = {
            isl: plan.max_switch_size for isl, plan in plans.items()
        }
        self._max_sizes[INTERMEDIATE_ISLAND] = library.max_switch_size_for_freq(
            self._mid_freq
        )
        self._init_search_state()

    def _init_search_state(self) -> None:
        """State shared by both constructors (memos, stores, counters).

        Everything here depends only on the spec — ``__init__`` and
        :meth:`for_topology` derive their frequency and size-bound
        tables differently but share all of this.  Keeping it in one
        place means a new field cannot silently go missing from one
        construction path.
        """
        spec = self.spec
        # Flows in decreasing bandwidth order (deterministic tiebreak).
        self._ordered_flows = sorted(
            spec.flows,
            key=lambda f: (-f.bandwidth_mbps, f.latency_cycles, f.key),
        )
        self._min_lat = spec.min_latency_cycles
        # Pure-function cost memos shared across attempts.  The traffic
        # energy per bit is determined by (crossing?, v.n_in, v.n_out),
        # packed into one int key.  The static open cost is determined
        # by the two endpoints' islands, frequencies and freshness; its
        # open-weighted values per endpoint pair, indexed
        # [u fresh][v fresh], feed the successor segments.
        self._ebit_by_key: Dict[int, float] = {}
        self._open_w: Dict[Tuple[int, float, int, float], tuple] = {}
        # Pure-function memo: island-pair min frequency -> link capacity.
        self._cap_by_freq: Dict[float, float] = {}
        # Successor rows hoisted across attempts (fast path only):
        # (n_switches, src_island, dst_island) -> (target groups, rows
        # keyed by the popped switch's (island, freq)); see _adjacency.
        # Rows hold indices and attempt-invariant data only (islands,
        # frequencies and size bounds never change between attempts),
        # so one build serves every attempt with the same intermediate
        # count.
        self._adj_store: Dict[Tuple[int, int, int], tuple] = {}
        # Direct-open dominance bound, computed lazily once per
        # allocator: (enabled, e_bit floor, static floor, intra/cross
        # e_bit floors).  See _direct_open_bound.
        self._shortcut_bound: Optional[Tuple[bool, float, float, float, float]] = None
        # Dijkstra tie-break tables per switch count: heap entries carry
        # the switch's rank in sorted-id order, which reproduces the
        # historical (cost, switch_id) string comparison exactly.
        self._ranks_store: Dict[int, Tuple[List[int], List[int]]] = {}
        # Per-flow routing plan (endpoint switch indices, NI link ids,
        # latency pressure) — identical for every attempt because the
        # scaffold's ids are deterministic.
        self._flow_plan: Optional[List[tuple]] = None
        # Intermediate-island dominance skip (fast path only): if the
        # 0-intermediate attempt succeeded without a single capacity or
        # port rejection, every candidate path through an indirect
        # switch is strictly dominated — an x -> mid ... mid -> y
        # segment always collapses to the direct x -> y edge, which was
        # never blocked and is strictly cheaper (fewer hops, fewer
        # converters, no fresh-switch floor).  The k>0 attempts would
        # therefore reproduce the k=0 routing exactly and prune every
        # indirect switch; allocate() returns the k=0 result instead of
        # re-routing.  Any rejection anywhere clears the guarantee.
        self._k0_result: Optional[AllocationResult] = None
        self._k0_unblocked = False
        self._blocked = False
        # Counters flushed to the active recorder per allocate().
        self._pops = 0
        self._edge_evals = 0
        self._links_opened = 0
        self._scaffold_builds = 0
        self._cache_hits = 0
        self._cache_misses = 0
        # Searches answered by the O(1) direct-open shortcut.
        self._shortcuts = 0

    @classmethod
    def for_topology(
        cls,
        topology: Topology,
        cost_config: Optional[PathCostConfig] = None,
        use_cache: bool = True,
    ) -> "PathAllocator":
        """An allocator view over an already-routed topology.

        Spare-path (backup-route) allocation searches the *finished*
        topology of a design point, long after the plans/partitions
        that built it are gone.  Everything the search needs is
        recoverable from the topology itself: island frequencies are
        stored on it, and the per-island switch-size bound is a pure
        function of the frequency
        (:meth:`~repro.power.library.NocLibrary.max_switch_size_for_freq`
        — exactly how :func:`repro.core.frequency.plan_all_islands`
        derived it).  The returned allocator shares the same int-indexed
        Dijkstra, adjacency store and cost memos as the synthesis fast
        path; it must not be used for primary allocation (it has no
        scaffold or partitions).
        """
        self = cls.__new__(cls)
        self.spec = topology.spec
        self.library = topology.library
        self.plans = {}
        self.partitions = {}
        self.cfg = cost_config or PathCostConfig()
        self.use_cache = use_cache
        self._base_freqs = {
            isl: f
            for isl, f in topology.island_freqs.items()
            if isl != INTERMEDIATE_ISLAND
        }
        self._mid_freq = topology.island_freqs.get(
            INTERMEDIATE_ISLAND, max(self._base_freqs.values(), default=0.0)
        )
        self._max_sizes = {
            isl: topology.library.max_switch_size_for_freq(f)
            for isl, f in topology.island_freqs.items()
        }
        self._init_search_state()
        return self

    # -- public API ----------------------------------------------------

    def allocate(self, num_intermediate: int = 0) -> AllocationResult:
        """Route all flows with ``num_intermediate`` indirect switches.

        Greedy bandwidth-ordered allocation can exhaust a switch's ports
        on direct inter-island links and then have no port left to reach
        the intermediate island (the hub-and-spoke failure mode).  When
        that happens and indirect switches are available, the allocation
        retries with 1 then 2 ports per switch *reserved* for indirect
        connectivity — direct cross-island link opening is constrained
        to leave that headroom.
        """
        if (
            num_intermediate > 0
            and self.use_cache
            and self._k0_unblocked
            and self._k0_result is not None
            and self._k0_result.success
        ):
            # Dominance skip (see __init__): the k=0 routing was never
            # capacity- or port-constrained, so indirect switches can
            # not appear on any optimal path — this attempt would
            # reproduce the k=0 topology and prune every mid switch.
            recorder = active_recorder()
            if recorder is not None:
                recorder.count("intermediate_attempts_skipped")
            return self._k0_result
        reserves = (0, 1, 2) if num_intermediate > 0 else (0,)
        result: Optional[AllocationResult] = None
        for reserve in reserves:
            attempt = self._build_attempt_topology(num_intermediate)
            if isinstance(attempt, AllocationResult):
                result = attempt
                break  # scaffold failure is independent of the reserve
            self._blocked = False
            result = self._route_all(attempt, reserve)
            if result.success:
                break
        if num_intermediate == 0:
            self._k0_result = result
            # The dominance argument needs every cost term non-negative
            # (physical energies are; the config weights could be
            # zeroed or inverted by exotic configs).
            self._k0_unblocked = (
                bool(result.success)
                and not self._blocked
                and self.cfg.latency_cost_mw_per_cycle >= 0.0
                and self.cfg.open_cost_weight >= 0.0
            )
        self._flush_counters()
        assert result is not None
        return result

    def route_backup(
        self,
        topo: Topology,
        sw_list: List[Switch],
        pair_links: Dict[int, List[Link]],
        flow: TrafficFlow,
        src_i: int,
        dst_i: int,
        forbidden_links: Set[int],
        blocked_switches: Optional[Set[int]] = None,
        reserved: Optional[Mapping[int, float]] = None,
        allow_open: bool = True,
        latency_only: bool = False,
    ) -> Optional[Tuple[List[Tuple[int, int, str, Optional[Link]]], int]]:
        """One backup-route search for ``flow`` avoiding failed-prone parts.

        The k-edge-disjoint entry point (see
        :mod:`repro.resilience.spare_paths`): the same int-indexed
        Dijkstra and cost memos as primary allocation, with the flow's
        primary (and earlier-backup) links forbidden, optional
        intermediate switches blocked (node-disjoint mode), and earlier
        spare reservations counted against link capacity.  The
        shutdown-safety transition rule applies unchanged — a backup
        may not cross a third-party voltage island either.

        ``sw_list``/``pair_links`` are the caller-maintained views of
        ``topo`` (see :meth:`_route_all` for their shape); the caller
        opens the returned ``_OPEN`` hops and keeps both views current.
        Returns ``(hops, zero_load_latency_cycles)`` or ``None``.
        """
        n = len(sw_list)
        min_lat = self._min_lat
        pressure = (
            min_lat / flow.latency_cycles if flow.latency_cycles > 0 else 1.0
        )
        lib = self.library
        unit_intra = self.cfg.latency_cost_mw_per_cycle * (
            lib.link_traversal_cycles + lib.switch_traversal_cycles
        )
        unit_cross = self.cfg.latency_cost_mw_per_cycle * (
            lib.fifo_crossing_cycles + lib.switch_traversal_cycles
        )
        found = self._search(
            topo,
            sw_list,
            n,
            self._adj_store if self.use_cache else {},
            self._ranks(sw_list),
            self.use_cache,
            pair_links,
            flow,
            src_i,
            dst_i,
            unit_intra * pressure,
            unit_cross * pressure,
            0,
            latency_only=latency_only,
            forbidden_links=forbidden_links,
            blocked_switches=blocked_switches,
            reserved=reserved,
            allow_open=allow_open,
        )
        self._flush_counters()
        return found

    def route_around(
        self,
        topo: Topology,
        key: FlowKey,
        forbidden_links: Iterable[int],
        blocked_switches: Iterable[str] = (),
        reserved: Optional[Mapping[int, float]] = None,
    ) -> Optional[Tuple[Route, int]]:
        """Online reroute of one routed flow on *existing* hardware.

        The control-plane entry point: reroute ``key`` around a set of
        failed links / switches using only links the fabbed design
        already has (``allow_open=False`` — a runtime controller cannot
        add wires), keeping the flow's NI attachment links and the
        shutdown-safety transition rule.  ``reserved`` subtracts
        cold-standby spare reservations from link headroom so an
        online reroute never eats another flow's guaranteed backup
        capacity.  Wraps :meth:`route_backup` with the
        ``sw_list``/``pair_links`` plumbing built from ``topo``
        directly; returns ``(route, zero_load_latency_cycles)`` or
        ``None`` when no surviving path exists.
        """
        with span("paths.route_around", flow="%s->%s" % key) as s:
            found = self._route_around(
                topo, key, forbidden_links, blocked_switches, reserved
            )
            if s is not None:
                s.set(found=found is not None)
            return found

    def _route_around(
        self,
        topo: Topology,
        key: FlowKey,
        forbidden_links: Iterable[int],
        blocked_switches: Iterable[str] = (),
        reserved: Optional[Mapping[int, float]] = None,
    ) -> Optional[Tuple[Route, int]]:
        route = topo.routes.get(key)
        if route is None:
            return None
        flow = topo.spec.flow(*key)
        sw_list: List[Switch] = list(topo.switches.values())
        n = len(sw_list)
        idx_of = {sw.id: i for i, sw in enumerate(sw_list)}
        pair_links: Dict[int, List[Link]] = {}
        for link in topo.links.values():
            if link.kind != "sw2sw":
                continue
            pkey = idx_of[link.src] * n + idx_of[link.dst]
            pair_links.setdefault(pkey, []).append(link)
        for links in pair_links.values():
            links.sort(key=lambda l: l.id)
        src_i = idx_of[topo.switch_of_core(flow.src).id]
        dst_i = idx_of[topo.switch_of_core(flow.dst).id]
        blocked = {
            idx_of[sid] for sid in blocked_switches if sid in idx_of
        } - {src_i, dst_i}
        found = self.route_backup(
            topo,
            sw_list,
            pair_links,
            flow,
            src_i,
            dst_i,
            set(forbidden_links),
            blocked_switches=blocked or None,
            reserved=reserved,
            allow_open=False,
        )
        if found is None:
            return None
        hops, cycles = found
        link_ids: List[int] = [route.links[0]]
        for _ui, _vi, _action, link in hops:
            # allow_open=False: every hop reuses an existing link.
            link_ids.append(link.id)
        link_ids.append(route.links[-1])
        comps = [ni_id(flow.src)]
        for lid in link_ids:
            comps.append(topo.links[lid].dst)
        return (
            Route(flow=key, components=tuple(comps), links=tuple(link_ids)),
            cycles,
        )

    # -- scaffold ------------------------------------------------------

    def _build_scaffold(self):
        """Instantiate switches and attach cores (steps 12–13), or the
        failed result when a core group exceeds its switch size bound."""
        self._scaffold_builds += 1
        topo = Topology(self.spec, self.library, self._base_freqs)
        for isl in sorted(self.partitions):
            for idx, group in enumerate(self.partitions[isl]):
                if not group:
                    raise SynthesisError("empty core group in island %r" % isl)
                if len(group) > self._max_sizes[isl]:
                    return AllocationResult(
                        topology=None,
                        success=False,
                        reason="group of %d cores exceeds max switch size %d in island %d"
                        % (len(group), self._max_sizes[isl], isl),
                    )
                sw = topo.add_switch(isl, idx)
                for core in sorted(group):
                    topo.attach_core(core, sw, self._nis)
        return topo

    def _build_attempt_topology(self, num_intermediate: int):
        """A freshly built topology for one routing attempt, routed in place."""
        topo = self._build_scaffold()
        if isinstance(topo, AllocationResult):
            return topo
        if num_intermediate > 0:
            topo.island_freqs[INTERMEDIATE_ISLAND] = self._mid_freq
            for idx in range(num_intermediate):
                topo.add_switch(INTERMEDIATE_ISLAND, idx)
        return topo

    # -- routing -------------------------------------------------------

    def _build_flow_plan(self, topo: Topology) -> List[tuple]:
        """Per-flow routing endpoints, resolved once for all attempts.

        Scaffold switch ids, NI link ids and core attachments are
        deterministic, so each flow's endpoint switch *indices*
        (position in switch insertion order), NI link ids and latency
        pressure are attempt-invariant.
        """
        idx_of = {sid: i for i, sid in enumerate(topo.switches)}
        # The scaffold's links are its NI attachments: per NI id, the
        # link into its switch and the link back out.
        to_switch: Dict[str, int] = {}
        from_switch: Dict[str, int] = {}
        for link in topo.links.values():
            if link.kind == "ni2sw":
                to_switch[link.src] = link.id
            elif link.kind == "sw2ni":
                from_switch[link.dst] = link.id
        min_lat = self._min_lat
        lib = self.library
        # Pressure-weighted hop-latency costs, precomputed per flow with
        # the historical association order ((weight * cycles) * pressure)
        # so the floats match the old per-search computation bit for bit.
        unit_intra = self.cfg.latency_cost_mw_per_cycle * (
            lib.link_traversal_cycles + lib.switch_traversal_cycles
        )
        unit_cross = self.cfg.latency_cost_mw_per_cycle * (
            lib.fifo_crossing_cycles + lib.switch_traversal_cycles
        )
        # The pass's NI table names each core's NI, whose id the pass
        # formatted once.
        nis = self._nis
        plan = []
        for flow in self._ordered_flows:
            sw_src = topo.switch_of_core(flow.src)
            sw_dst = topo.switch_of_core(flow.dst)
            ni_src_lid = to_switch[nis[flow.src].id]
            ni_dst_lid = from_switch[nis[flow.dst].id]
            pressure = (
                min_lat / flow.latency_cycles if flow.latency_cycles > 0 else 1.0
            )
            plan.append(
                (
                    flow,
                    sw_src.id == sw_dst.id,
                    idx_of[sw_src.id],
                    idx_of[sw_dst.id],
                    ni_src_lid,
                    ni_dst_lid,
                    unit_intra * pressure,
                    unit_cross * pressure,
                )
            )
        return plan

    def _ranks(self, sw_list: List[Switch]) -> Tuple[List[int], List[int]]:
        """Tie-break tables: index -> sorted-id rank and its inverse.

        Heap entries carry ranks instead of id strings; because rank
        order equals lexicographic id order, cost ties pop in exactly
        the order the historical ``(cost, switch_id)`` heap produced.
        """
        n = len(sw_list)
        store = self._ranks_store if self.use_cache else {}
        tables = store.get(n)
        if tables is None:
            idx_by_rank = sorted(range(n), key=lambda i: sw_list[i].id)
            rank_of = [0] * n
            for rank, idx in enumerate(idx_by_rank):
                rank_of[idx] = rank
            tables = (rank_of, idx_by_rank)
            store[n] = tables
        return tables

    def _route_all(
        self, topo: Topology, port_reserve: int
    ) -> AllocationResult:
        """One allocation attempt with a fixed port reservation."""
        cfg = self.cfg
        sw_list = list(topo.switches.values())
        n = len(sw_list)
        use_memo = self.use_cache
        adj_store = self._adj_store if use_memo else {}
        ranks = self._ranks(sw_list)
        # Existing sw2sw links per directed pair (``u_idx * n + v_idx``),
        # in link-id order; maintained incrementally as links open.  The
        # scaffold carries only NI attachment links, so this starts empty.
        pair_links: Dict[int, List[Link]] = {}
        if self._flow_plan is None:
            self._flow_plan = self._build_flow_plan(topo)
        lib = self.library
        sw_cycles = lib.switch_traversal_cycles
        lat_intra_cycles = lib.link_traversal_cycles + sw_cycles
        lat_cross_cycles = lib.fifo_crossing_cycles + sw_cycles
        # The shortcut's strict-dominance argument needs every cost
        # term non-negative; an exotic negative open weight could make
        # opening a parallel link beat reusing an existing one.
        open_weight_ok = cfg.open_cost_weight >= 0.0
        # The O(1) direct-open shortcut is part of the fast path;
        # reference mode answers those flows with the full search.
        shortcut_on = False
        bound: Tuple[float, ...] = ()
        # Outgoing pair keys per source index (subset view of
        # pair_links), so the shortcut's "could the first edge of an
        # alternative path reuse a link?" probe and the search's lookup
        # of a switch's existing-link targets are O(out-degree).
        out_keys: Dict[int, List[int]] = {}
        if use_memo:
            bound = self._direct_open_bound()
            shortcut_on = bound[0]
        links_opened = 0
        via_mid = 0
        for (
            flow, same_switch, src_i, dst_i, ni_src_lid, ni_dst_lid,
            lat_cost_intra, lat_cost_cross,
        ) in self._flow_plan:
            if same_switch:
                # Same switch: NI -> switch -> NI, one switch traversal.
                topo.assign_route(flow, [ni_src_lid, ni_dst_lid], validate=False)
                continue
            found = None
            # Direct-reuse shortcut: every edge cost is strictly
            # positive (traffic energy, wire/FIFO energy and any
            # non-negative latency weight), so when an existing
            # src->dst link still has capacity, the one-hop reuse path
            # strictly beats every alternative — opening costs extra
            # static power on the same edge, and any multi-hop path
            # pays the destination crossbar *plus* additional hops.
            # The full search would return exactly this path; skip it.
            if open_weight_ok and lat_cost_intra >= 0.0 and lat_cost_cross >= 0.0:
                direct = pair_links.get(src_i * n + dst_i)
                link = _first_fitting(direct, flow.bandwidth_mbps) if direct else None
                if link is not None:
                    crossing = sw_list[src_i].island != sw_list[dst_i].island
                    found = (
                        [(src_i, dst_i, _REUSE, link)],
                        sw_cycles + (lat_cross_cycles if crossing else lat_intra_cycles),
                    )
                # Direct-open dominance shortcut: when opening the
                # direct src->dst link is provably at most the cost of
                # any two cheapest-possible edges, no multi-hop
                # alternative can beat it and the search is answered in
                # O(1).  Same non-negativity guard as the reuse shortcut
                # above.
                if found is None and shortcut_on:
                    found = self._direct_open_shortcut(
                        topo, sw_list, n, pair_links, out_keys, flow,
                        src_i, dst_i, lat_cost_intra, lat_cost_cross,
                        port_reserve, bound, sw_cycles,
                        lat_intra_cycles, lat_cross_cycles,
                    )
            if found is None:
                found = self._search(
                    topo, sw_list, n, adj_store, ranks, use_memo, pair_links,
                    flow, src_i, dst_i, lat_cost_intra, lat_cost_cross, port_reserve,
                    out_keys=out_keys,
                )
            if found is None:
                return AllocationResult(
                    topology=None,
                    success=False,
                    failed_flow=flow.key,
                    reason="no feasible switch path for flow %s->%s" % flow.key,
                    links_opened=links_opened,
                )
            # Latency check against the flow budget; the NI links are
            # free, each switch costs 1 cycle and each hop its link
            # cycles.
            hops, latency = found
            if latency > flow.latency_cycles + 1e-9:
                found2 = self._search(
                    topo, sw_list, n, adj_store, ranks, use_memo, pair_links,
                    flow, src_i, dst_i, lat_cost_intra, lat_cost_cross,
                    port_reserve, latency_only=True, out_keys=out_keys,
                )
                if found2 is not None:
                    hops2, lat2 = found2
                    if lat2 < latency:
                        hops, latency = hops2, lat2
                if latency > flow.latency_cycles + 1e-9:
                    return AllocationResult(
                        topology=None,
                        success=False,
                        failed_flow=flow.key,
                        reason="latency %d exceeds budget %.1f for flow %s->%s"
                        % (latency, flow.latency_cycles, flow.src, flow.dst),
                        links_opened=links_opened,
                    )
            link_ids = [ni_src_lid]
            touched_mid = False
            for ui, vi, action, link in hops:
                if action == _OPEN:
                    link = topo.open_link(sw_list[ui].id, sw_list[vi].id)
                    links_opened += 1
                    key = ui * n + vi
                    lst = pair_links.get(key)
                    if lst is None:
                        pair_links[key] = [link]
                        ok = out_keys.get(ui)
                        if ok is None:
                            out_keys[ui] = [key]
                        else:
                            ok.append(key)
                    else:
                        lst.append(link)
                link_ids.append(link.id)
                if sw_list[vi].is_intermediate:
                    touched_mid = True
            link_ids.append(ni_dst_lid)
            # Routes are correct by construction here (the search
            # enforced capacity and continuity); the per-point
            # validate_topology pass still audits the final result.
            topo.assign_route(flow, link_ids, validate=False)
            if touched_mid:
                via_mid += 1

        _prune_unused_intermediate(topo)
        self._links_opened += links_opened
        return AllocationResult(
            topology=topo,
            success=True,
            links_opened=links_opened,
            flows_via_intermediate=via_mid,
        )

    # -- dominance shortcut --------------------------------------------

    def _direct_open_bound(self) -> Tuple[bool, float, float, float, float]:
        """Direct-open shortcut soundness plus its e_bit and static floors.

        The shortcut's dominance argument compares the direct open cost
        against a two-edge lower bound.  That bound is only valid when
        every cost term is non-negative (each library parameter feeding
        the static and traffic terms, plus the open weight) so that a
        path's cost is monotone in its edge count; any exotic negative
        parameter disables the shortcut and the full search runs
        instead.  The e_bit floors are the smallest traffic
        energy-per-bit an edge of each kind can carry — the cheapest
        switch crossbar (2 ports; the per-port term is non-negative
        here) plus the intra-island wire, or the cross-island wire with
        its converter — returned per kind (intra, cross) plus their
        minimum, so the shortcut can charge a crossing flow's
        alternative for the island crossing it cannot avoid.  The
        static floor is the smallest static cost
        any *open* edge can pay — the minimum over every ordered island
        pair (intermediate included, so the floor is valid in every
        attempt of the intermediate-count sweep) of the non-fresh
        :func:`_static_open_cost` value.  Freshness only *adds*
        non-negative terms mid-accumulation, and float addition of a
        non-negative value is monotone, so the non-fresh float value
        lower-bounds every real edge's static cost.
        """
        bound = self._shortcut_bound
        if bound is None:
            lib = self.library
            cfg = self.cfg
            sound = (
                lib.switch_idle_mw_per_mhz_per_port >= 0.0
                and lib.switch_idle_mw_per_mhz_base >= 0.0
                and lib.switch_leak_mw_per_port >= 0.0
                and lib.switch_leak_mw_base >= 0.0
                and lib.link_leak_mw_per_mm >= 0.0
                and lib.fifo_idle_mw_per_mhz >= 0.0
                and lib.fifo_leak_mw >= 0.0
                and lib.switch_ebit_base_pj >= 0.0
                and lib.switch_ebit_per_port_pj >= 0.0
                and lib.link_ebit_per_mm_pj >= 0.0
                and lib.fifo_ebit_pj >= 0.0
                and cfg.nominal_intra_link_mm >= 0.0
                and cfg.nominal_cross_link_mm >= 0.0
                and cfg.open_cost_weight >= 0.0
            )
            if sound:
                # Per-kind e_bit floors, accumulated in the exact order
                # _edge_traffic_ebit uses (wire, then crossbar, then
                # converter) so float monotonicity makes every real
                # edge's e_bit >= its kind's floor.
                intra_floor = lib.link_ebit_pj(cfg.nominal_intra_link_mm)
                intra_floor += lib.switch_ebit_pj(1, 1)
                cross_floor = lib.link_ebit_pj(cfg.nominal_cross_link_mm)
                cross_floor += lib.switch_ebit_pj(1, 1)
                cross_floor += lib.fifo_ebit_pj
                any_floor = intra_floor if intra_floor < cross_floor else cross_floor
                freqs = dict(self._base_freqs)
                freqs[INTERMEDIATE_ISLAND] = self._mid_freq
                static_floor = None
                for ia, fa in freqs.items():
                    for ib, fb in freqs.items():
                        s = _static_open_cost(lib, cfg, ia, fa, False, ib, fb, False)
                        if static_floor is None or s < static_floor:
                            static_floor = s
                if static_floor is None or static_floor < 0.0:
                    static_floor = 0.0
                bound = (True, any_floor, static_floor, intra_floor, cross_floor)
            else:
                bound = (False, 0.0, 0.0, 0.0, 0.0)
            self._shortcut_bound = bound
        return bound

    def _direct_open_shortcut(
        self,
        topo: Topology,
        sw_list: List[Switch],
        n: int,
        pair_links: Dict[int, List[Link]],
        out_keys: Dict[int, List[int]],
        flow: TrafficFlow,
        src_i: int,
        dst_i: int,
        lat_cost_intra: float,
        lat_cost_cross: float,
        port_reserve: int,
        bound: Tuple[float, ...],
        sw_cycles: int,
        lat_intra_cycles: int,
        lat_cross_cycles: int,
    ) -> Optional[Tuple[List[Tuple[int, int, str, Optional[Link]]], int]]:
        """O(1) answer when opening the direct link is provably optimal.

        Every alternative to the direct ``src -> dst`` open has at
        least two edges (the caller already established there is no
        reusable direct link), and — with the non-negativity guarantees
        of :meth:`_direct_open_bound` — each edge costs at least
        ``LB = bits/s * e_bit_floor + min(latency terms)``.  Two
        O(out-degree) probes over ``out_keys`` tighten that further:
        unless some reusable ``src -> w`` link leads to a reusable
        ``w -> dst`` link (a possible two-edge all-reuse path), every
        alternative either opens a link somewhere — paying
        ``open_weight * static_floor`` on top of ``2 * LB`` — or
        reuses only and needs at least three edges (``3 * LB``).  So
        whenever the exact direct open cost is at most the applicable
        floor, the search would relax the destination to exactly this
        cost at the first pop and never improve on it (relaxation
        requires a strict ``1e-12`` win, so ties keep the direct edge).
        The argument holds in *any* supergraph, intermediate switches
        included — the floors minimize over the intermediate island too
        — which is why a skipped search cannot hide evidence the
        intermediate-dominance skip would have needed: a flow answered
        here routes identically at every intermediate count.

        Feasibility (port limits, reserve, capacity, the parallel-link
        policy) and the cost floats mirror the open branch of
        :meth:`_search` exactly; infeasibility or a failed bound falls
        back to the full search.
        """
        cfg = self.cfg
        existing = pair_links.get(src_i * n + dst_i)
        if existing and not cfg.allow_parallel_links:
            return None
        u = sw_list[src_i]
        v = sw_list[dst_i]
        u_new_out = u.n_out + 1
        if u.n_in > u_new_out:
            u_new_out = u.n_in
        new_v = v.n_in + 1
        if v.n_out > new_v:
            new_v = v.n_out
        crossing = u.island != v.island
        lim_u = self._max_sizes[u.island]
        lim_v = self._max_sizes[v.island]
        # Flow endpoints are core switches, never intermediate, so the
        # reserve applies exactly when the link crosses islands.
        if port_reserve and crossing:
            lim_u -= port_reserve
            lim_v -= port_reserve
        if u_new_out > lim_u or new_v > lim_v:
            return None
        freq = u.freq_mhz if u.freq_mhz < v.freq_mhz else v.freq_mhz
        capacity = self._cap_by_freq.get(freq)
        if capacity is None:
            capacity = self.library.link_capacity_mbps(freq)
            self._cap_by_freq[freq] = capacity
        bw = flow.bandwidth_mbps
        if capacity + 1e-9 < bw:
            return None
        # Exact same memos and cost floats as the search inner loop.
        ekey = ((1 << 23) if crossing else 0) | (v.n_in << 11) | v.n_out
        ebit = self._ebit_by_key.get(ekey)
        if ebit is None:
            self._cache_misses += 1
            ebit = _edge_traffic_ebit(topo, u, v, cfg)
            self._ebit_by_key[ekey] = ebit
        else:
            self._cache_hits += 1
        open_w = self._open_weights(u.island, u.freq_mhz, v.island, v.freq_mhz)
        static_w = open_w[u.n_in == 0 and u.n_out == 0][v.n_in == 0 and v.n_out == 0]
        bits_per_s = bw * units.MEGA * units.BITS_PER_BYTE
        to_mw = units.PJ_PER_BIT_TIMES_BITS_PER_S_TO_MW
        if crossing:
            lat_cost = lat_cost_cross
            lat_cycles = lat_cross_cycles
        else:
            lat_cost = lat_cost_intra
            lat_cycles = lat_intra_cycles
        cost = bits_per_s * ebit * to_mw + static_w + lat_cost
        _, ebit_floor, static_floor, intra_floor, cross_floor = bound
        lat_floor = lat_cost_intra if lat_cost_intra < lat_cost_cross else lat_cost_cross
        # One-edge floors: the globally cheapest edge, and the cheapest
        # edge of each kind (every floor mirrors the reuse-branch float
        # bracketing ``traffic + lat``, with each operand at its floor).
        lower = bits_per_s * ebit_floor * to_mw + lat_floor
        li = bits_per_s * intra_floor * to_mw + lat_cost_intra
        lc = bits_per_s * cross_floor * to_mw + lat_cost_cross
        m = li if li < lc else lc
        # Kind-aware two-edge floor: a crossing flow's alternative must
        # pay a full crossing edge somewhere (the other edge at least
        # the cheaper kind); an intra flow's alternative stays within
        # the island (two intra edges) or leaves and returns (two
        # crossing edges) — either way at least twice the cheaper kind.
        base2 = (lc + m) if crossing else (m + m)
        # Could an alternative's first edge reach some w by *reusing* a
        # link out of src (same residual criterion as the search's
        # reuse branch), and then reuse a second link straight into
        # dst?  The probe is O(out-degree of src).
        two_reuse = False
        for key in out_keys.get(src_i, ()):
            if _first_fitting(pair_links[key], bw) is None:
                continue
            w = key - src_i * n
            lst = pair_links.get(w * n + dst_i)
            if lst and _first_fitting(lst, bw) is not None:
                two_reuse = True
                break
        if two_reuse:
            # A two-edge all-reuse path may exist; all we know is that
            # every alternative has at least two edges.
            threshold = base2
        else:
            # Every alternative either opens a link somewhere (paying
            # the open static floor on top of two LB edges; same float
            # bracketing as the open-edge cost above with each operand
            # replaced by its floor — monotonicity of each float op
            # keeps it a true lower bound) or reuses existing links
            # only, which takes at least three edges: a two-edge
            # all-reuse path would need a reusable src->w *and* w->dst
            # link, and the probes above ruled that out.
            open_floor = (
                bits_per_s * ebit_floor * to_mw
                + cfg.open_cost_weight * static_floor
                + lat_floor
            ) + lower
            all_reuse_floor = (lower + lower) + lower
            extra = open_floor if open_floor < all_reuse_floor else all_reuse_floor
            # base2 and extra are both valid lower bounds on every
            # alternative; keep the tighter one.
            threshold = base2 if base2 > extra else extra
        if cost > threshold:
            return None
        self._shortcuts += 1
        return [(src_i, dst_i, _OPEN, None)], sw_cycles + lat_cycles

    def _reconstruct_hops(
        self,
        sw_list: List[Switch],
        prev: List[Optional[Tuple[int, str, Optional[Link]]]],
        src_i: int,
        dst_i: int,
    ) -> Optional[Tuple[List[Tuple[int, int, str, Optional[Link]]], int]]:
        """Walk predecessors back from the destination, summing latency.

        Zero-load latency: source switch plus, per hop, the link (or
        converter crossing) and the downstream switch; NI links are
        free — mirrors ``repro.sim.zero_load``.
        """
        if prev[dst_i] is None and dst_i != src_i:
            return None
        lib = self.library
        hops: List[Tuple[int, int, str, Optional[Link]]] = []
        sw_cycles = lib.switch_traversal_cycles
        latency = sw_cycles
        fifo_cycles = lib.fifo_crossing_cycles
        link_cycles = lib.link_traversal_cycles
        cur = dst_i
        while cur != src_i:
            uidx, action, link = prev[cur]
            hops.append((uidx, cur, action, link))
            if sw_list[uidx].island != sw_list[cur].island:
                latency += fifo_cycles + sw_cycles
            else:
                latency += link_cycles + sw_cycles
            cur = uidx
        hops.reverse()
        return hops, latency

    def _adjacency(
        self,
        sw_list: List[Switch],
        n: int,
        adj_store: Dict[Tuple[int, int, int], tuple],
        isl_a: int,
        isl_b: int,
    ) -> tuple:
        """Lazy successor structure for ``isl_a`` -> ``isl_b`` flows.

        Returns ``(groups, rows)``.  ``groups`` holds the candidate
        switches (those in ``isl_a``, ``isl_b`` or the intermediate
        island) as ``(island, freq, indices)`` triples, one per island
        and frequency, indices in insertion order.  ``rows`` maps a
        popped switch's ``(island, freq_mhz)`` to its successor row;
        :meth:`_successor_row` builds a row the first time the search
        pops a switch of that island, so every switch of an island
        shares one row.  Everything stored is attempt-invariant, so on
        the fast path one structure serves every attempt with the same
        switch count; reference mode passes a fresh store per search.
        """
        key = (n, isl_a, isl_b)
        entry = adj_store.get(key)
        if entry is None:
            allowed = {isl_a, isl_b, INTERMEDIATE_ISLAND}
            by_group: Dict[Tuple[int, float], List[int]] = {}
            for i, s in enumerate(sw_list):
                if s.island in allowed:
                    by_group.setdefault((s.island, s.freq_mhz), []).append(i)
            groups = tuple(
                (isl, freq, tuple(ixs)) for (isl, freq), ixs in by_group.items()
            )
            entry = (groups, {})
            adj_store[key] = entry
        return entry

    def _successor_row(
        self,
        groups: tuple,
        u_island: int,
        u_freq: float,
        isl_a: int,
        isl_b: int,
    ) -> tuple:
        """The successor row of a switch in ``u_island`` at ``u_freq``.

        One **segment** per target group the shutdown-safety rule
        permits: ``(targets, crossing, reserve_applies, size bound,
        new-link capacity, static open weights, ebit key base)``.  A
        segment's fields depend only on the two islands and their
        frequencies, so the search resolves them once per segment per
        pop.  ``targets`` includes the popped switch itself when it
        lies in the target island; the search skips it as visited.
        """
        mid = INTERMEDIATE_ISLAND
        cap_by_freq = self._cap_by_freq
        row = []
        for v_island, v_freq, targets in groups:
            if not _allowed_transition(u_island, v_island, isl_a, isl_b):
                continue
            crossing = u_island != v_island
            freq = u_freq if u_freq < v_freq else v_freq
            capacity = cap_by_freq.get(freq)
            if capacity is None:
                capacity = self.library.link_capacity_mbps(freq)
                cap_by_freq[freq] = capacity
            row.append(
                (
                    targets,
                    crossing,
                    crossing and u_island != mid and v_island != mid,
                    self._max_sizes[v_island],
                    capacity,
                    self._open_weights(u_island, u_freq, v_island, v_freq),
                    # Traffic energy-per-bit memo key base: the crossing
                    # bit; the target's port counts fill the low bits.
                    (1 << 23) if crossing else 0,
                )
            )
        return tuple(row)

    def _open_weights(
        self, u_island: int, u_freq: float, v_island: int, v_freq: float
    ) -> tuple:
        """Open-weighted static cost of a new link, ``[u fresh][v fresh]``.

        ``open_cost_weight * _static_open_cost(...)`` for the four
        endpoint-freshness combinations, memoized per endpoint pair.
        """
        key = (u_island, u_freq, v_island, v_freq)
        weights = self._open_w.get(key)
        if weights is None:
            lib = self.library
            cfg = self.cfg
            ow = cfg.open_cost_weight
            weights = tuple(
                tuple(
                    ow
                    * _static_open_cost(
                        lib, cfg, u_island, u_freq, u_fresh, v_island, v_freq, v_fresh
                    )
                    for v_fresh in (False, True)
                )
                for u_fresh in (False, True)
            )
            self._open_w[key] = weights
        return weights

    def _search(
        self,
        topo: Topology,
        sw_list: List[Switch],
        n: int,
        adj_store: Dict[Tuple[int, int, int], tuple],
        ranks: Tuple[List[int], List[int]],
        use_memo: bool,
        pair_links: Dict[int, List[Link]],
        flow: TrafficFlow,
        src_i: int,
        dst_i: int,
        lat_cost_intra: float,
        lat_cost_cross: float,
        port_reserve: int,
        latency_only: bool = False,
        forbidden_links: Optional[Set[int]] = None,
        blocked_switches: Optional[Set[int]] = None,
        reserved: Optional[Mapping[int, float]] = None,
        allow_open: bool = True,
        out_keys: Optional[Dict[int, List[int]]] = None,
    ) -> Optional[Tuple[List[Tuple[int, int, str, Optional[Link]]], int]]:
        """Dijkstra over the allowed switch graph.

        Returns ``(hops, zero_load_latency_cycles)`` where hops are
        ``(src_idx, dst_idx, action, link_or_None)`` tuples, or ``None``
        when the destination is unreachable.  ``latency_only`` ignores
        power and minimizes pure hop latency — used as the fallback when
        the cheapest path misses the flow's latency budget.  The
        pressure-weighted hop costs ``lat_cost_intra``/``lat_cost_cross``
        come precomputed from the flow plan.

        The last four parameters serve backup-route allocation
        (:meth:`route_backup`) and default to "off" — primary routing
        passes ``None`` and skips every associated check.
        ``forbidden_links`` bans reusing specific physical links (the
        disjointness constraint), ``blocked_switches`` bans traversing
        specific switch indices (node-disjoint mode; they start out
        visited, except the source), ``reserved`` charges
        spare-capacity reservations against link headroom, and
        ``allow_open=False`` restricts backups to existing hardware.
        Primary routing passes ``out_keys`` (pair keys per source).

        With ``use_memo`` the search keeps per-destination state and
        skips open-edge classes (see the module docstring); without it
        every edge evaluation prices its edge from the cost functions
        directly.  Both evaluate every cost float in the same order.
        """
        cfg = self.cfg
        lib = self.library
        isl_a = sw_list[src_i].island
        isl_b = sw_list[dst_i].island
        groups, rows = self._adjacency(sw_list, n, adj_store, isl_a, isl_b)
        bw = flow.bandwidth_mbps
        allow_parallel = cfg.allow_parallel_links
        open_weight = cfg.open_cost_weight
        # Traffic power is bw-linear in the cached energy-per-bit term;
        # hoisting the bandwidth factor keeps units.traffic_power_mw's
        # exact evaluation order: (bits_per_s * ebit) * unit_constant.
        bits_per_s = bw * units.MEGA * units.BITS_PER_BYTE
        to_mw = units.PJ_PER_BIT_TIMES_BITS_PER_S_TO_MW
        # Hop latencies in cycles, one value per crossing class.
        lat_intra = lib.link_traversal_cycles + lib.switch_traversal_cycles
        lat_cross = lib.fifo_crossing_cycles + lib.switch_traversal_cycles

        ebit_by_key = self._ebit_by_key
        hits = 0
        misses = 0
        blocked = False  # any capacity/port rejection voids the mid skip

        max_sizes = self._max_sizes
        rank_of, idx_by_rank = ranks
        inf = float("inf")
        dist = [inf] * n
        dist[src_i] = 0.0
        prev: List[Optional[Tuple[int, str, Optional[Link]]]] = [None] * n
        visited = bytearray(n)
        if blocked_switches:
            for b in blocked_switches:
                if b != src_i:
                    visited[b] = 1
        # Destination state (fast path): per crossing class, a target's
        # (open-edge traffic power, new in-port count, fresh?) — fixed
        # for the whole search because no link opens mid-search.
        intra_state: List[Optional[tuple]] = [None] * n if use_memo else []
        cross_state: List[Optional[tuple]] = [None] * n if use_memo else []
        # Open-edge classes (fast path, primary routing, costs >= 0):
        # per (row, u fresh), per segment, the existing-link targets of
        # the first member that could open there.
        nonneg = lat_cost_intra >= 0 and lat_cost_cross >= 0 and lat_intra >= 0 and lat_cross >= 0
        classes: Optional[Dict[tuple, list]] = None
        if use_memo and out_keys is not None and nonneg and self._direct_open_bound()[0]:
            classes = {}
        class_reach: Optional[list] = None
        heap: List[Tuple[float, int]] = [(0.0, rank_of[src_i])]
        pops = 0
        evals = 0
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            d, urank = heappop(heap)
            uidx = idx_by_rank[urank]
            if visited[uidx]:
                continue
            visited[uidx] = 1
            pops += 1
            if uidx == dst_i:
                break
            u = sw_list[uidx]
            row_key = (u.island, u.freq_mhz)
            row = rows.get(row_key)
            if row is None:
                row = rows[row_key] = self._successor_row(
                    groups, u.island, u.freq_mhz, isl_a, isl_b
                )
            u_n_in = u.n_in
            u_new_out = u.n_out + 1
            if u_n_in > u_new_out:
                u_new_out = u_n_in
            u_fresh = u_n_in == 0 and u.n_out == 0
            lim_u_base = max_sizes[u.island]
            ukey = uidx * n
            if classes is not None:
                class_reach = classes.get((row_key, u_fresh))
                if class_reach is None:
                    class_reach = classes[(row_key, u_fresh)] = [None] * len(row)
            for seg, (
                targets, crossing, reserve_applies, lim_v_base, capacity,
                open_w, ekey_base,
            ) in enumerate(row):
                # Once per segment: latency class, port limits with the
                # reserve, and the source side of open feasibility.
                if crossing:
                    lat_cycles = lat_cross
                    lat_cost = lat_cost_cross
                else:
                    lat_cycles = lat_intra
                    lat_cost = lat_cost_intra
                if port_reserve and reserve_applies:
                    lim_u = lim_u_base - port_reserve
                    lim_v = lim_v_base - port_reserve
                else:
                    lim_u = lim_u_base
                    lim_v = lim_v_base
                open_ok = allow_open and u_new_out <= lim_u and capacity + 1e-9 >= bw
                if use_memo:
                    w_stale, w_fresh = open_w[u_fresh]
                    state = cross_state if crossing else intra_state
                scan = targets
                if class_reach is not None and open_ok:
                    reach = class_reach[seg]
                    if reach is None:  # first member: evaluated in full
                        class_reach[seg] = [v for v in targets if ukey + v in pair_links]
                    else:
                        # The first member offered every other target
                        # this open cost from a distance <= d already.
                        own = out_keys.get(uidx)
                        scan = reach + [
                            v for k in own if (v := k - ukey) in targets and v not in reach
                        ] if own else reach
                for vidx in scan:
                    if visited[vidx]:
                        continue
                    evals += 1
                    existing = pair_links.get(ukey + vidx)
                    if not existing and not open_ok:
                        # Dead edge: neither reuse nor open could serve
                        # this pair.  Only here could an indirect-switch
                        # bypass ever win, so only this voids the
                        # dominance skip (see __init__) — an eval that
                        # produced any option strictly dominates the
                        # corresponding mid segment.
                        blocked = True
                        continue
                    # The edge's traffic power, its open-weighted static
                    # cost and the target's new in-port count: from the
                    # destination state on the fast path, from the cost
                    # functions in reference mode.
                    if use_memo:
                        st = state[vidx]
                        if st is None:
                            v = sw_list[vidx]
                            v_n_in = v.n_in
                            v_n_out = v.n_out
                            ekey = ekey_base | (v_n_in << 11) | v_n_out
                            ebit = ebit_by_key.get(ekey)
                            if ebit is None:
                                misses += 1
                                ebit = _edge_traffic_ebit(topo, u, v, cfg)
                                ebit_by_key[ekey] = ebit
                            else:
                                hits += 1
                            new_v = v_n_in + 1
                            if v_n_out > new_v:
                                new_v = v_n_out
                            st = state[vidx] = (
                                bits_per_s * ebit * to_mw,
                                new_v,
                                v_n_in == 0 and v_n_out == 0,
                            )
                        traffic, new_v, v_fresh = st
                        static_w = w_fresh if v_fresh else w_stale
                    else:
                        v = sw_list[vidx]
                        traffic = bits_per_s * _edge_traffic_ebit(topo, u, v, cfg) * to_mw
                        static_w = open_weight * _edge_static_open_cost(topo, u, v, cfg)
                        new_v = v.n_in + 1
                        if v.n_out > new_v:
                            new_v = v.n_out
                    if not existing:
                        if new_v > lim_v:
                            blocked = True
                            continue
                        best_action = _OPEN
                        best_link: Optional[Link] = None
                        if latency_only:
                            best_cost = float(lat_cycles) + 1e-6
                        else:
                            best_cost = traffic + static_w + lat_cost
                    else:
                        # Reuse: the first (possibly parallel) existing
                        # link that fits, by link id — parallel links
                        # can differ in residual capacity.  A parallel
                        # open must strictly win.
                        best_cost = inf
                        best_action = _REUSE
                        best_link = _first_fitting(existing, bw, forbidden_links, reserved)
                        if best_link is not None:
                            if latency_only:
                                best_cost = float(lat_cycles)
                            else:
                                best_cost = traffic + lat_cost
                        if open_ok and allow_parallel and new_v <= lim_v:
                            if latency_only:
                                cost = float(lat_cycles) + 1e-6  # prefer reuse on ties
                            else:
                                cost = traffic + static_w + lat_cost
                            if cost < best_cost:
                                best_cost = cost
                                best_action = _OPEN
                                best_link = None
                        if best_cost is inf:
                            blocked = True
                            continue
                    nd = d + best_cost
                    if nd < dist[vidx] - 1e-12:
                        dist[vidx] = nd
                        prev[vidx] = (uidx, best_action, best_link)
                        heappush(heap, (nd, rank_of[vidx]))
        self._pops += pops
        self._edge_evals += evals
        if blocked:
            self._blocked = True
        if use_memo:
            self._cache_hits += hits
            self._cache_misses += misses
        return self._reconstruct_hops(sw_list, prev, src_i, dst_i)

    # -- instrumentation -----------------------------------------------

    def _flush_counters(self) -> None:
        recorder = active_recorder()
        if recorder is not None:
            recorder.count("dijkstra_pops", self._pops)
            recorder.count("edge_evals", self._edge_evals)
            recorder.count("links_opened", self._links_opened)
            recorder.count("scaffold_builds", self._scaffold_builds)
            recorder.count("cost_cache_hits", self._cache_hits)
            recorder.count("cost_cache_misses", self._cache_misses)
            recorder.count("direct_open_shortcuts", self._shortcuts)
        self._pops = self._edge_evals = 0
        self._scaffold_builds = 0
        self._links_opened = 0
        self._cache_hits = self._cache_misses = 0
        self._shortcuts = 0


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _first_fitting(
    links: List[Link],
    bw: float,
    forbidden_links: Optional[Set[int]] = None,
    reserved: Optional[Mapping[int, float]] = None,
) -> Optional[Link]:
    """The first link, by link id, with headroom for ``bw`` more Mb/s.

    ``forbidden_links`` are skipped and ``reserved`` spare bandwidth is
    charged against a link's headroom (backup routing).
    """
    for link in links:
        if forbidden_links is not None and link.id in forbidden_links:
            continue
        avail = link.capacity_mbps - link._used_mbps
        if reserved is not None:
            avail -= reserved.get(link.id, 0.0)
        if avail + 1e-9 < bw:
            continue
        return link
    return None


def _prune_unused_intermediate(topo: Topology) -> None:
    """Drop intermediate switches that ended up with no links.

    Step 14 sweeps the indirect switch count; path allocation may leave
    some of them unconnected, and an unconnected switch would only add
    idle power and area for nothing.
    """
    for sw in list(topo.intermediate_switches):
        if sw.n_in == 0 and sw.n_out == 0:
            del topo.switches[sw.id]
