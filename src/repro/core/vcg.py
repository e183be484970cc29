"""VI Communication Graphs (Definition 1 of the paper).

A *VI Communication Graph* ``VCG(V, E, isl)`` is the directed graph of
cores inside one voltage island, with an edge for every traffic flow
between two cores of that island.  Its edge weight combines bandwidth
and latency tightness::

    h[i, j] = alpha * bw[i, j] / max_bw + (1 - alpha) * min_lat / lat[i, j]

where ``max_bw`` is the largest flow bandwidth in the *whole* spec and
``min_lat`` the tightest latency constraint in the whole spec, so
weights are comparable across islands.  ``alpha`` trades power (cluster
by bandwidth) against performance (cluster by latency tightness).

The same weighting applied to the full core set (ignoring islands)
drives *communication-based partitioning* of cores into islands and the
baseline VI-oblivious synthesis; :func:`build_global_vcg` provides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..exceptions import SpecError
from .spec import SoCSpec, TrafficFlow


@dataclass(frozen=True)
class VCG:
    """A weighted communication graph over a subset of cores.

    Attributes
    ----------
    island:
        Island id this graph describes, or ``None`` for the global
        (island-oblivious) graph.
    nodes:
        Core names, in spec declaration order.
    edges:
        ``(src, dst) -> h`` weight mapping (directed, Definition 1).
    flows:
        The underlying traffic flows, for bandwidth/latency lookups.
    alpha:
        The weight parameter used to build the edges.
    """

    island: object
    nodes: Tuple[str, ...]
    edges: Mapping[Tuple[str, str], float]
    flows: Tuple[TrafficFlow, ...]
    alpha: float

    def __len__(self) -> int:
        """|VCG(V, E, j)| — the number of cores (Algorithm 1, step 2)."""
        return len(self.nodes)

    def weight(self, src: str, dst: str) -> float:
        """Directed edge weight ``h``; 0.0 if the cores don't talk."""
        return self.edges.get((src, dst), 0.0)

    def symmetric_weights(self) -> Dict[Tuple[str, str], float]:
        """Undirected weights for min-cut partitioning.

        The cut objective does not care about direction, so weights of
        antiparallel edges accumulate onto one unordered pair (keyed by
        the sorted pair for determinism).
        """
        out: Dict[Tuple[str, str], float] = {}
        for (u, v), w in self.edges.items():
            key = (u, v) if u <= v else (v, u)
            out[key] = out.get(key, 0.0) + w
        return out


def edge_weight(
    bandwidth_mbps: float,
    latency_cycles: float,
    max_bw_mbps: float,
    min_lat_cycles: float,
    alpha: float,
) -> float:
    """Definition 1 edge weight ``h``.

    >>> edge_weight(100.0, 10.0, 200.0, 5.0, 0.5)
    0.5
    """
    if not 0.0 <= alpha <= 1.0:
        raise SpecError("alpha must be in [0, 1], got %r" % alpha)
    if bandwidth_mbps < 0 or latency_cycles <= 0:
        raise SpecError("invalid flow parameters for edge weight")
    bw_term = bandwidth_mbps / max_bw_mbps if max_bw_mbps > 0 else 0.0
    lat_term = min_lat_cycles / latency_cycles if min_lat_cycles > 0 else 0.0
    return alpha * bw_term + (1.0 - alpha) * lat_term


def build_vcg(spec: SoCSpec, island: int, alpha: float = 0.6) -> VCG:
    """Build ``VCG(V, E, isl)`` for one island of the spec.

    Only flows with *both* endpoints inside the island appear as edges;
    cross-island flows are handled by the inter-switch path allocator,
    not by core-to-switch clustering.
    """
    if island not in spec.islands:
        raise SpecError("spec %r has no island %r" % (spec.name, island))
    cores = tuple(spec.cores_in_island(island))
    flows = tuple(spec.flows_within_island(island))
    max_bw = spec.max_bandwidth_mbps
    min_lat = spec.min_latency_cycles
    edges = {
        f.key: edge_weight(f.bandwidth_mbps, f.latency_cycles, max_bw, min_lat, alpha)
        for f in flows
    }
    return VCG(island=island, nodes=cores, edges=edges, flows=flows, alpha=alpha)


def build_all_vcgs(spec: SoCSpec, alpha: float = 0.6) -> Dict[int, VCG]:
    """Per-island VCGs for every island of the spec."""
    return {isl: build_vcg(spec, isl, alpha) for isl in spec.islands}


def build_global_vcg(spec: SoCSpec, alpha: float = 0.6) -> VCG:
    """Island-oblivious VCG over all cores and all flows.

    Used by communication-based island partitioning (cluster cores so
    high-bandwidth pairs share an island) and by the VI-oblivious
    baseline synthesis.
    """
    max_bw = spec.max_bandwidth_mbps
    min_lat = spec.min_latency_cycles
    edges = {
        f.key: edge_weight(f.bandwidth_mbps, f.latency_cycles, max_bw, min_lat, alpha)
        for f in spec.flows
    }
    return VCG(
        island=None,
        nodes=tuple(spec.core_names),
        edges=edges,
        flows=tuple(spec.flows),
        alpha=alpha,
    )
