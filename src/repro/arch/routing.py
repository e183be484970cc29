"""Routing views: per-switch route tables and deadlock analysis.

Synthesized NoCs use static source routing along the paths chosen by
the allocator.  This module derives the artifacts an implementation
flow needs from the stored routes:

* **route tables** — for each switch, which output the packet of a
  given flow takes (what would be programmed into the routing logic);
* the **channel dependency graph (CDG)** — a directed graph over links
  where an edge ``l1 -> l2`` means some flow holds ``l1`` while
  requesting ``l2``.  Wormhole switching is deadlock-free iff the CDG
  is acyclic (Dally & Seitz); the paper's flow inherits this check from
  the [15] backend, so we expose it as a diagnostic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..exceptions import ValidationError
from .topology import FlowKey, Route, Topology


def route_table(topology: Topology, switch_id: str) -> Dict[FlowKey, str]:
    """Output component per flow for one switch.

    Maps every flow whose route traverses ``switch_id`` to the next
    component (switch or NI) on its path.
    """
    if switch_id not in topology.switches:
        raise ValidationError("unknown switch %r" % switch_id)
    table: Dict[FlowKey, str] = {}
    for key, route in topology.routes.items():
        comps = route.components
        for i, comp in enumerate(comps[:-1]):
            if comp == switch_id:
                table[key] = comps[i + 1]
                break
    return table


def channel_dependency_graph(
    topology: Topology, routes: Optional[Mapping[FlowKey, Route]] = None
) -> Dict[int, Set[int]]:
    """CDG over link ids: ``l1 -> l2`` when a route uses l1 then l2.

    ``routes`` substitutes an alternative route set over the same link
    inventory — the resilience analysis passes the *degraded* routing
    of a failure scenario (primaries for unaffected flows, activated
    backups for rerouted ones) to prove post-failure deadlock freedom.
    Defaults to the topology's own routes.
    """
    route_map = topology.routes if routes is None else routes
    cdg: Dict[int, Set[int]] = {lid: set() for lid in topology.links}
    for route in route_map.values():
        for a, b in zip(route.links, route.links[1:]):
            cdg[a].add(b)
    return cdg


def find_cdg_cycle(
    topology: Topology, routes: Optional[Mapping[FlowKey, Route]] = None
) -> Optional[List[int]]:
    """Return one cycle of the CDG as a link-id list, or None.

    Iterative three-color DFS (graphs can be big enough that recursion
    depth matters).
    """
    cdg = channel_dependency_graph(topology, routes)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {lid: WHITE for lid in cdg}
    parent: Dict[int, int] = {}
    for start in sorted(cdg):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, List[int]]] = [(start, sorted(cdg[start]))]
        color[start] = GRAY
        while stack:
            node, nbrs = stack[-1]
            if nbrs:
                nxt = nbrs.pop(0)
                if color[nxt] == GRAY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, sorted(cdg[nxt])))
            else:
                color[node] = BLACK
                stack.pop()
    return None


def is_deadlock_free(
    topology: Topology, routes: Optional[Mapping[FlowKey, Route]] = None
) -> bool:
    """True when the channel dependency graph is acyclic.

    Pass ``routes`` to check an alternative routing (e.g. a
    post-failure degraded route set) over the same links.
    """
    return find_cdg_cycle(topology, routes) is None


def flows_through_switch(topology: Topology, switch_id: str) -> List[FlowKey]:
    """Flows whose route traverses the given switch."""
    if switch_id not in topology.switches:
        raise ValidationError("unknown switch %r" % switch_id)
    out = []
    for key, route in topology.routes.items():
        if switch_id in route.components[1:-1]:
            out.append(key)
    return sorted(out)


def hop_histogram(topology: Topology) -> Dict[int, int]:
    """Distribution of switch counts over all routes (for reports)."""
    hist: Dict[int, int] = {}
    for route in topology.routes.values():
        n = route.num_switches
        hist[n] = hist.get(n, 0) + 1
    return dict(sorted(hist.items()))
