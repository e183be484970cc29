"""Structural validation of synthesized topologies.

:func:`validate_topology` enforces the invariants every deliverable
topology must satisfy; :func:`audit_shutdown_safety` performs the check
that defines this paper — no traffic flow may route through a switch of
a third (gateable) voltage island — and is also run standalone against
baseline topologies to demonstrate *why* VI-oblivious synthesis blocks
island shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Dict, List, Mapping, Optional

from ..exceptions import ValidationError
from .topology import INTERMEDIATE_ISLAND, FlowKey, Topology


@dataclass(frozen=True)
class ShutdownViolation:
    """One flow crossing a third-party island's switch."""

    flow: FlowKey
    switch: str
    island: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "flow %s->%s traverses switch %s of third-party island %d" % (
            self.flow[0],
            self.flow[1],
            self.switch,
            self.island,
        )


_FLOW = attrgetter("flow")
_BANDWIDTH = itemgetter(1)


def audit_shutdown_safety(topology: Topology) -> List[ShutdownViolation]:
    """Find every route that would block an island's shutdown.

    A flow from island *a* to island *b* may only traverse switches of
    *a*, *b* and the (never-gated) intermediate island.  Any other
    switch on its path pins a third island awake whenever this flow is
    live — the exact failure mode Section 1 describes for conventional
    NoC synthesis.
    """
    island_of = topology.spec.island_of
    switches = topology.switches
    violations: List[ShutdownViolation] = []
    for key, route in topology.routes.items():
        isl_a = island_of(key[0])
        isl_b = island_of(key[1])
        for comp in route.components[1:-1]:
            island = switches[comp].island
            if island != isl_a and island != isl_b and island != INTERMEDIATE_ISLAND:
                violations.append(ShutdownViolation(flow=key, switch=comp, island=island))
    # By flow, and along each route: a stable sort keeps the route order.
    violations.sort(key=_FLOW)
    return violations


def validate_topology(
    topology: Topology,
    max_switch_sizes: Optional[Mapping[int, int]] = None,
    require_all_flows_routed: bool = True,
) -> None:
    """Raise :class:`ValidationError` on any broken invariant.

    Checks, in order:

    1. every core is attached to exactly one switch, in its own island;
    2. every spec flow has a route (unless disabled);
    3. routes are continuous NI-to-NI paths (re-verified here even
       though construction enforces it);
    4. no link carries more bandwidth than its capacity;
    5. switch port counts match the attached links and respect
       ``max_switch_sizes`` when given;
    6. shutdown safety: no third-party island on any route.
    """
    spec = topology.spec

    # 1. core attachment
    island_of = spec.vi_assignment
    for core in spec.core_names:
        if core not in topology.core_switch:
            raise ValidationError("core %r is not attached to any switch" % core)
        sw = topology.switch_of_core(core)
        if sw.island != island_of[core]:
            raise ValidationError(
                "core %r attached across islands (%d vs %d)"
                % (core, sw.island, island_of[core])
            )

    # 2. all flows routed
    if require_all_flows_routed:
        for flow in spec.flows:
            if flow.key not in topology.routes:
                raise ValidationError("flow %s->%s has no route" % flow.key)

    # 3. route continuity
    for key, route in topology.routes.items():
        comps = route.components
        for i, lid in enumerate(route.links):
            link = topology.links[lid]
            if link.src != comps[i] or link.dst != comps[i + 1]:
                raise ValidationError(
                    "flow %s->%s: link %d does not match components" % (key[0], key[1], lid)
                )

    # 4. link capacity — audit from the flow list itself, not the
    # incrementally maintained used_mbps cache, so the check also
    # catches callers that mutated ``flows`` behind the cache's back.
    for link in topology.links.values():
        used = sum(map(_BANDWIDTH, link.flows))
        if used > link.capacity_mbps + 1e-6:
            raise ValidationError(
                "link %d (%s->%s) overloaded: %.1f of %.1f MB/s"
                % (link.id, link.src, link.dst, used, link.capacity_mbps)
            )

    # 5. port bookkeeping and size bounds
    in_count: Dict[str, int] = {sid: 0 for sid in topology.switches}
    out_count: Dict[str, int] = {sid: 0 for sid in topology.switches}
    for link in topology.links.values():
        if link.dst in in_count:
            in_count[link.dst] += 1
        if link.src in out_count:
            out_count[link.src] += 1
    for sid, sw in topology.switches.items():
        if sw.n_in != in_count[sid] or sw.n_out != out_count[sid]:
            raise ValidationError(
                "switch %s: port bookkeeping mismatch (%d/%d vs %d/%d)"
                % (sid, sw.n_in, sw.n_out, in_count[sid], out_count[sid])
            )
        if max_switch_sizes is not None and sw.island in max_switch_sizes:
            bound = max_switch_sizes[sw.island]
            if sw.size > bound:
                raise ValidationError(
                    "switch %s exceeds max size %d (has %d)" % (sid, bound, sw.size)
                )

    # 6. shutdown safety
    violations = audit_shutdown_safety(topology)
    if violations:
        raise ValidationError(
            "shutdown-safety violated: %s (+%d more)"
            % (violations[0], len(violations) - 1)
        )
