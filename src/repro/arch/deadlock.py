"""Deadlock remediation: break channel-dependency cycles by rerouting.

The synthesis flow's island-transition rule makes cross-island routes
acyclic by construction, and the test suite confirms every shipped
design point has an acyclic channel dependency graph (CDG).  Custom
cost functions or hand-edited topologies can still create intra-island
cycles, though — and a wormhole NoC with a cyclic CDG can deadlock
(Dally & Seitz).  The paper's backend flow [15] resolves this at path
computation time; this module provides the equivalent repair pass for
topologies built outside the standard flow:

1. find a CDG cycle (:func:`repro.arch.routing.find_cdg_cycle`);
2. pick the routed flow contributing the most dependencies on that
   cycle;
3. re-route it over existing links only, forbidding the cycle's
   critical dependency, with a shortest-path (latency) objective;
4. repeat until acyclic or no candidate remains.

Rerouting uses only existing links (no new hardware), so power changes
are second-order (path lengths may grow slightly).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ValidationError
from .routing import find_cdg_cycle
from .topology import FlowKey, Topology, ni_id


def flows_on_cycle(topology: Topology, cycle: Sequence[int]) -> List[Tuple[FlowKey, int]]:
    """Flows inducing dependencies along ``cycle``, with their counts.

    Sorted by descending contribution so the repair loop targets the
    flow whose removal unlocks the most edges first.
    """
    cyc_edges: Set[Tuple[int, int]] = set(
        zip(cycle, list(cycle[1:]) + [cycle[0]])
    )
    counts: Dict[FlowKey, int] = {}
    for key, route in topology.routes.items():
        for a, b in zip(route.links, route.links[1:]):
            if (a, b) in cyc_edges:
                counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _reroute_on_existing_links(
    topology: Topology, flow_key: FlowKey, forbidden_pairs: Set[Tuple[int, int]]
) -> Optional[List[int]]:
    """Shortest existing-link route avoiding forbidden link pairs.

    Dijkstra over (link) states so consecutive-link constraints can be
    enforced; edge weights are the links' latency cycles.  Returns link
    ids or None.
    """
    from ..sim.zero_load import link_latency_cycles

    spec = topology.spec
    flow = spec.flow(*flow_key)
    src_ni, dst_ni = ni_id(flow.src), ni_id(flow.dst)
    # Outgoing existing links per component.
    out_links: Dict[str, List[int]] = {}
    for link in topology.links.values():
        out_links.setdefault(link.src, []).append(link.id)

    start_links = [
        lid for lid in out_links.get(src_ni, [])
        if topology.links[lid].residual_mbps + 1e-9 >= 0  # capacity freed later
    ]
    best: Dict[int, float] = {}
    heap: List[Tuple[float, int, Tuple[int, ...]]] = []
    for lid in start_links:
        cost = float(link_latency_cycles(topology, topology.links[lid]))
        heapq.heappush(heap, (cost, lid, (lid,)))
    while heap:
        cost, lid, path = heapq.heappop(heap)
        if lid in best and best[lid] <= cost:
            continue
        best[lid] = cost
        link = topology.links[lid]
        if link.dst == dst_ni:
            return list(path)
        for nxt in out_links.get(link.dst, []):
            if (lid, nxt) in forbidden_pairs:
                continue
            nxt_link = topology.links[nxt]
            if nxt_link.dst == src_ni:
                continue
            # Stay within the flow's allowed islands (shutdown safety).
            isl_a = spec.island_of(flow.src)
            isl_b = spec.island_of(flow.dst)
            from .topology import INTERMEDIATE_ISLAND

            if nxt_link.dst in topology.switches:
                if topology.switches[nxt_link.dst].island not in (
                    isl_a, isl_b, INTERMEDIATE_ISLAND,
                ):
                    continue
            step = float(link_latency_cycles(topology, nxt_link))
            if len(path) > 16:
                continue  # bail out on absurd paths
            heapq.heappush(heap, (cost + step, nxt, path + (nxt,)))
    return None


def break_deadlock_cycles(topology: Topology, max_iterations: int = 32) -> int:
    """Reroute flows until the CDG is acyclic.

    Returns the number of flows rerouted.  Raises
    :class:`ValidationError` if a cycle survives every candidate
    reroute (the topology then needs new links, which is a synthesis
    decision, not a repair).
    """
    rerouted = 0
    for _ in range(max_iterations):
        cycle = find_cdg_cycle(topology)
        if cycle is None:
            return rerouted
        cyc_edges = set(zip(cycle, list(cycle[1:]) + [cycle[0]]))
        candidates = flows_on_cycle(topology, cycle)
        if not candidates:
            raise ValidationError(
                "CDG cycle %s has no contributing routed flow" % (cycle,)
            )
        fixed = False
        for key, _count in candidates:
            flow = topology.spec.flow(*key)
            old_route = topology.routes[key]
            # Release the old route's bandwidth before searching.
            for lid in old_route.links:
                topology.links[lid].remove_flow(key)
            del topology.routes[key]
            new_links = _reroute_on_existing_links(topology, key, cyc_edges)
            if new_links is not None and _capacity_ok(topology, flow, new_links):
                topology.assign_route(flow, new_links)
                rerouted += 1
                fixed = True
                break
            # Restore the old route and try the next candidate.
            topology.assign_route(flow, list(old_route.links))
        if not fixed:
            raise ValidationError(
                "cannot break CDG cycle %s by rerouting on existing links" % (cycle,)
            )
    raise ValidationError("cycle breaking did not converge in %d iterations" % max_iterations)


def _capacity_ok(topology: Topology, flow, links: Sequence[int]) -> bool:
    return all(
        topology.links[lid].residual_mbps + 1e-9 >= flow.bandwidth_mbps
        for lid in links
    )
