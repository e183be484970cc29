"""JSON serialization of specs, topologies and design-point summaries.

Specs round-trip losslessly (they are plain data).  Topologies export
to a complete structural description — components, links, routes,
island clocks — suitable for driving a downstream implementation flow
or re-loading for analysis; reconstruction returns a fully functional
:class:`~repro.arch.topology.Topology` bound to the spec embedded in
the same file.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..arch.topology import FlowCharge, Link, NetworkInterface, Switch, Topology
from ..core.design_point import DesignPoint
from ..core.spec import CoreSpec, SoCSpec, TrafficFlow
from ..exceptions import SpecError, ValidationError
from ..power.library import NocLibrary


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


def spec_to_dict(spec: SoCSpec) -> Dict[str, Any]:
    """Spec as a JSON-compatible dict."""
    return {
        "name": spec.name,
        "cores": [
            {
                "name": c.name,
                "area_mm2": c.area_mm2,
                "dynamic_power_mw": c.dynamic_power_mw,
                "leakage_power_mw": c.leakage_power_mw,
                "kind": c.kind,
                "group": c.group,
                "freq_mhz": c.freq_mhz,
            }
            for c in spec.cores
        ],
        "flows": [
            {
                "src": f.src,
                "dst": f.dst,
                "bandwidth_mbps": f.bandwidth_mbps,
                "latency_cycles": f.latency_cycles,
            }
            for f in spec.flows
        ],
        "vi_assignment": dict(spec.vi_assignment),
    }


def spec_from_dict(data: Dict[str, Any]) -> SoCSpec:
    """Rebuild a spec from :func:`spec_to_dict` output."""
    try:
        cores = tuple(
            CoreSpec(
                name=c["name"],
                area_mm2=c["area_mm2"],
                dynamic_power_mw=c["dynamic_power_mw"],
                leakage_power_mw=c["leakage_power_mw"],
                kind=c.get("kind", "peripheral"),
                group=c.get("group", ""),
                freq_mhz=c.get("freq_mhz", 200.0),
            )
            for c in data["cores"]
        )
        flows = tuple(
            TrafficFlow(
                src=f["src"],
                dst=f["dst"],
                bandwidth_mbps=f["bandwidth_mbps"],
                latency_cycles=f.get("latency_cycles", 20.0),
            )
            for f in data["flows"]
        )
        return SoCSpec(
            name=data["name"],
            cores=cores,
            flows=flows,
            vi_assignment={k: int(v) for k, v in data.get("vi_assignment", {}).items()},
        )
    except KeyError as exc:
        raise SpecError("spec dict missing field %s" % exc)


def save_spec(spec: SoCSpec, path: str) -> None:
    """Write a spec to a JSON file."""
    with open(path, "w") as f:
        json.dump(spec_to_dict(spec), f, indent=2, sort_keys=True)


def load_spec(path: str) -> SoCSpec:
    """Read a spec from a JSON file."""
    with open(path) as f:
        return spec_from_dict(json.load(f))


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    """Topology (with its spec) as a JSON-compatible dict."""
    return {
        "spec": spec_to_dict(topology.spec),
        "island_freqs": {str(k): v for k, v in topology.island_freqs.items()},
        "switches": [
            {
                "id": s.id,
                "island": s.island,
                "freq_mhz": s.freq_mhz,
                "n_in": s.n_in,
                "n_out": s.n_out,
            }
            for s in sorted(topology.switches.values(), key=lambda s: s.id)
        ],
        "nis": [
            {"id": n.id, "core": n.core, "island": n.island, "freq_mhz": n.freq_mhz}
            for n in sorted(topology.nis.values(), key=lambda n: n.id)
        ],
        "core_switch": dict(topology.core_switch),
        "links": [
            {
                "id": l.id,
                "src": l.src,
                "dst": l.dst,
                "src_island": l.src_island,
                "dst_island": l.dst_island,
                "freq_mhz": l.freq_mhz,
                "capacity_mbps": l.capacity_mbps,
                "kind": l.kind,
                "length_mm": l.length_mm,
                "flows": [[list(k), bw] for k, bw in l.flows],
                "has_converter": l.has_converter,
            }
            for l in sorted(topology.links.values(), key=lambda l: l.id)
        ],
        "routes": {
            "%s->%s" % key: list(route.links)
            for key, route in sorted(topology.routes.items())
        },
    }


def topology_from_dict(data: Dict[str, Any], library: Optional[NocLibrary] = None) -> Topology:
    """Rebuild a topology (bypassing construction-time invariants —
    the data is trusted to come from :func:`topology_to_dict`)."""
    from ..arch.topology import Route  # local: avoid cycle at import time

    spec = spec_from_dict(data["spec"])
    lib = library or NocLibrary()

    def charge(src: str, dst: str, bandwidth_mbps: float) -> FlowCharge:
        """The loaded flow's own charge tuple, as a synthesized link holds."""
        own = spec.flow(src, dst).charge
        if own[1] != bandwidth_mbps:
            raise ValidationError(
                "link charge %s->%s of %r Mb/s differs from its flow's %r Mb/s"
                % (src, dst, bandwidth_mbps, own[1])
            )
        return own

    freqs = {int(k): float(v) for k, v in data["island_freqs"].items()}
    topo = Topology(spec, lib, freqs)
    for s in data["switches"]:
        topo.switches[s["id"]] = Switch(
            id=s["id"],
            island=s["island"],
            freq_mhz=s["freq_mhz"],
            n_in=s["n_in"],
            n_out=s["n_out"],
        )
    for n in data["nis"]:
        topo.nis[n["id"]] = NetworkInterface(
            id=n["id"], core=n["core"], island=n["island"], freq_mhz=n["freq_mhz"]
        )
    topo.core_switch = dict(data["core_switch"])
    max_id = -1
    for l in data["links"]:
        link = Link(
            id=l["id"],
            src=l["src"],
            dst=l["dst"],
            src_island=l["src_island"],
            dst_island=l["dst_island"],
            freq_mhz=l["freq_mhz"],
            capacity_mbps=l["capacity_mbps"],
            kind=l["kind"],
            length_mm=l["length_mm"],
            flows=[charge(k[0], k[1], bw) for k, bw in l["flows"]],
            has_converter=l.get("has_converter"),
        )
        topo.links[link.id] = link
        max_id = max(max_id, link.id)
    topo._next_link_id = max_id + 1
    for key_str, link_ids in data["routes"].items():
        # Keyed by the flow's own key tuple, which its charges share.
        key = spec.flow(*key_str.split("->")).key
        comps: List[str] = [topo.links[link_ids[0]].src]
        for lid in link_ids:
            comps.append(topo.links[lid].dst)
        topo.routes[key] = Route(flow=key, components=tuple(comps), links=tuple(link_ids))
    return topo


def save_topology(topology: Topology, path: str) -> None:
    """Write a topology (plus its spec) to a JSON file."""
    with open(path, "w") as f:
        json.dump(topology_to_dict(topology), f, indent=2, sort_keys=True)


def load_topology(path: str, library: Optional[NocLibrary] = None) -> Topology:
    """Read a topology from a JSON file."""
    with open(path) as f:
        return topology_from_dict(json.load(f), library)


# ----------------------------------------------------------------------
# Design points (summary only — topologies are exported separately)
# ----------------------------------------------------------------------


def design_point_summary(point: DesignPoint) -> Dict[str, Any]:
    """Flat JSON summary of one design point's metrics.

    Points synthesized under a co-synthesis objective
    (``SynthesisConfig(objective=...)``) additionally carry their
    objective cost vector and metrics.
    """
    out: Dict[str, Any] = {
        "label": point.label(),
        "switch_counts": {str(k): v for k, v in point.switch_counts.items()},
        "num_intermediate": point.num_intermediate_used,
        "noc_dynamic_power_mw": point.noc_power.fig2_dynamic_mw,
        "noc_total_dynamic_mw": point.noc_power.dynamic_mw,
        "noc_leakage_mw": point.noc_power.leakage_mw,
        "avg_latency_cycles": point.latency.average_cycles,
        "max_latency_cycles": point.latency.max_cycles,
        "noc_area_mm2": point.soc_power.noc_area_mm2,
        "soc_area_mm2": point.soc_power.total_area_mm2,
        "wire_length_mm": point.wires.total_length_mm,
        "latency_violations": len(point.latency.violations),
    }
    if point.objective_result is not None:
        out["objective_cost"] = list(point.objective_result.cost)
        out["objective_metrics"] = dict(point.objective_result.metrics)
    return out


# ----------------------------------------------------------------------
# Resilience
# ----------------------------------------------------------------------


def spare_plan_summary(plan) -> Dict[str, Any]:
    """Flat, deterministic JSON summary of a :class:`SparePlan`.

    Keys sort and every collection is ordered, so two allocations on
    equal topologies serialize byte-identically — the determinism pin
    the resilience bench checks with ``json.dumps(..., sort_keys=True)``.
    """
    return {
        "k": plan.k,
        "node_disjoint": plan.node_disjoint,
        "protected_flows": plan.protected_flows,
        "trivially_safe": ["%s->%s" % key for key in plan.trivially_safe],
        "unprotected": ["%s->%s" % key for key in plan.unprotected],
        "links_opened": plan.links_opened,
        "opened_links": list(plan.opened_links),
        "reserved_mbps": {
            str(lid): round(mbps, 6)
            for lid, mbps in sorted(plan.reserved_mbps.items())
        },
        "backups": {
            "%s->%s" % key: [list(route.links) for route in routes]
            for key, routes in sorted(plan.backups.items())
        },
        "backup_cycles": {
            "%s->%s" % key: list(cycles)
            for key, cycles in sorted(plan.backup_cycles.items())
        },
    }


def coverage_summary(report) -> Dict[str, Any]:
    """JSON summary of a :class:`CoverageReport` (rollup + per-scenario)."""
    out = dict(report.summary())
    out["per_scenario"] = [
        {
            "scenario": s.scenario.name,
            "kind": s.scenario.kind,
            "eligible": s.eligible,
            "covered": s.covered,
            "rerouted": s.rerouted,
            "lost": ["%s->%s" % f for f in s.lost_flows],
            "max_added_cycles": s.max_added_cycles,
        }
        for s in report.scenarios
    ]
    return out


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------


def control_summary(report) -> Dict[str, Any]:
    """JSON summary of a controller-driven :class:`RuntimeReport`.

    Bundles the per-fault recovery timelines and the telemetry stream
    with the headline service metrics; everything is JSON-native
    (``inf`` timestamps become ``null``) and deterministically ordered,
    so ``json.dumps(..., sort_keys=True)`` of two identical replays is
    byte-identical — the pin the control-plane bench and tests check.
    """
    from ..control.telemetry import recovery_summary, telemetry_summary

    return {
        "trace": report.trace_name,
        "policy": report.policy,
        "routable": report.routable,
        "controlled": report.controlled,
        "deadlock_free": report.recoveries_deadlock_free,
        "worst_recovery_ms": round(report.worst_recovery_ms, 6),
        "lost_traffic_mbits": round(report.lost_traffic_mbits, 6),
        "fault_delta_mj": round(report.fault_delta_mj, 9),
        "fault_stall_ms": round(report.fault_stall_ms, 6),
        "recoveries": [recovery_summary(r) for r in report.recoveries],
        "telemetry": telemetry_summary(report.telemetry),
    }
