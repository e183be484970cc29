"""Zero-load latency evaluation (the paper's latency metric).

Section 5: "The latency quoted is the number of cycles needed to
transfer a single chunk of the packet from the output of the source NI
until the input of the destination NI under zero-load conditions.  When
packets cross the islands, a 4 cycle delay is incurred on the
voltage-frequency converters."

Accounting used here (and calibrated to reproduce Figure 3's shape):

* NI-to-switch attachment links are port connections — 0 cycles;
* each switch traversal costs ``library.switch_traversal_cycles`` (1);
* each intra-island switch-to-switch link costs
  ``library.link_traversal_cycles`` (1) whatever its placed length; the
  floorplanner's ``WireReport.timing_violations`` flags a wire longer
  than one clock of reach;
* each island-crossing link costs ``library.fifo_crossing_cycles`` (4),
  which covers the bi-synchronous FIFO plus the over-the-cell wire.

So the minimum is 1 cycle (two cores on one switch) and a direct
cross-island flow costs ``1 + 4 + 1 = 6`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..arch.topology import FlowKey, Link, Topology
from ..exceptions import ValidationError


def link_latency_cycles(topology: Topology, link: Link) -> int:
    """Latency contribution of one link on a route.

    Cross-island links cost the fixed converter crossing penalty.
    """
    lib = topology.library
    if link.kind in ("ni2sw", "sw2ni"):
        return 0
    if link.converter:
        return lib.fifo_crossing_cycles
    return lib.link_traversal_cycles


def route_latency_cycles(topology: Topology, flow_key: FlowKey) -> int:
    """Zero-load latency of one routed flow, in cycles."""
    if flow_key not in topology.routes:
        raise ValidationError("flow %s->%s has no route" % flow_key)
    route = topology.routes[flow_key]
    lib = topology.library
    cycles = route.num_switches * lib.switch_traversal_cycles
    for lid in route.links:
        cycles += link_latency_cycles(topology, topology.links[lid])
    return cycles


@dataclass(frozen=True)
class LatencyReport:
    """Zero-load latency statistics over all routed flows."""

    per_flow: Mapping[FlowKey, int]
    average_cycles: float
    bw_weighted_average_cycles: float
    max_cycles: int
    #: Flows over their latency budget.
    violations: Tuple[FlowKey, ...]


def evaluate_latency(topology: Topology) -> LatencyReport:
    """Zero-load latency report for every routed flow of a topology.

    ``average_cycles`` is the plain mean over flows — the quantity
    Figure 3 plots; the bandwidth-weighted variant is also reported for
    analysis.
    """
    spec = topology.spec
    per_flow: Dict[FlowKey, int] = {}
    violations: List[FlowKey] = []
    total_bw = 0.0
    weighted = 0.0
    for flow in spec.flows:
        # The flow's own key tuple, shared with its route and link charges.
        key = flow.key
        cycles = route_latency_cycles(topology, key)
        per_flow[key] = cycles
        if cycles > flow.latency_cycles + 1e-9:
            violations.append(key)
        total_bw += flow.bandwidth_mbps
        weighted += cycles * flow.bandwidth_mbps
    if not per_flow:
        return LatencyReport(
            per_flow={},
            average_cycles=0.0,
            bw_weighted_average_cycles=0.0,
            max_cycles=0,
            violations=(),
        )
    avg = sum(per_flow.values()) / float(len(per_flow))
    return LatencyReport(
        per_flow=per_flow,
        average_cycles=avg,
        bw_weighted_average_cycles=weighted / total_bw if total_bw > 0 else 0.0,
        max_cycles=max(per_flow.values()),
        violations=tuple(violations),
    )
