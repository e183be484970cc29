"""Voltage-island assignment strategies.

Section 5 evaluates "two ways of assigning the cores to different VIs":

* **logical partitioning** — by core functionality: "shared memories
  are placed in the same VI, as they have the same functionality and
  therefore are expected to operate at the same frequency and voltage";
* **communication based partitioning** — "cores that have high
  bandwidth communication with one another will be placed in the same
  VI".

Both are *inputs* to topology synthesis ("the assignment of cores to
the VIs is an input to our synthesis algorithm"); these helpers produce
re-islanded copies of a spec for the island-count sweeps of Figures 2
and 3.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.partition import partition_graph
from ..core.spec import SoCSpec
from ..core.vcg import build_global_vcg
from ..exceptions import SpecError


def logical_partitioning(spec: SoCSpec, num_islands: int) -> SoCSpec:
    """Assign cores to ``num_islands`` islands by functional group.

    Starts from the spec's ``CoreSpec.group`` labels. With fewer islands
    than groups, the smallest group merges into the group it talks to
    most (functionally adjacent blocks share rails); with more islands
    than groups, the largest islands peel off their least-communicating
    core into fresh singleton islands.  Deterministic.
    """
    _check_count(spec, num_islands)
    groups: Dict[str, Set[str]] = {}
    for core in spec.cores:
        groups.setdefault(core.group or "misc", set()).add(core.name)
    clusters: List[Set[str]] = [groups[g] for g in sorted(groups)]
    bw = spec.communication_matrix()

    def inter_bw(a: Set[str], b: Set[str]) -> float:
        total = 0.0
        for (s, d), w in bw.items():
            if (s in a and d in b) or (s in b and d in a):
                total += w
        return total

    # Merge smallest cluster into its strongest communication partner.
    while len(clusters) > num_islands:
        clusters.sort(key=lambda c: (len(c), min(c)))
        smallest = clusters.pop(0)
        best_idx = 0
        best_w = -1.0
        for i, other in enumerate(clusters):
            w = inter_bw(smallest, other)
            if w > best_w or (w == best_w and min(other) < min(clusters[best_idx])):
                best_w = w
                best_idx = i
        clusters[best_idx] = clusters[best_idx] | smallest

    # Split: peel the weakest-attached core of the biggest cluster.
    while len(clusters) < num_islands:
        clusters.sort(key=lambda c: (-len(c), min(c)))
        big = clusters[0]
        if len(big) <= 1:
            raise SpecError(
                "cannot split %s into %d islands" % (spec.name, num_islands)
            )

        def attachment(core: str) -> float:
            return sum(
                w
                for (s, d), w in bw.items()
                if (s == core and d in big) or (d == core and s in big)
            )

        loner = min(sorted(big), key=attachment)
        clusters[0] = big - {loner}
        clusters.append({loner})

    return _assign(spec, clusters, "%s_log%d" % (spec.name, num_islands))


def communication_partitioning(
    spec: SoCSpec, num_islands: int, alpha: float = 1.0
) -> SoCSpec:
    """Assign cores to islands by min-cut clustering of the traffic.

    Maximizing intra-island bandwidth is exactly minimizing the
    bandwidth cut by island boundaries, so this reuses the synthesis
    min-cut partitioner on the global communication graph.  ``alpha``
    defaults to 1.0 (pure bandwidth): island assignment is about which
    flows pay converter crossings, not about latency tightness.
    """
    _check_count(spec, num_islands)
    vcg = build_global_vcg(spec, alpha)
    parts = partition_graph(
        list(vcg.nodes), vcg.symmetric_weights(), num_islands, max_part_size=None
    )
    return _assign(spec, parts, "%s_com%d" % (spec.name, num_islands))


def island_count_sweep(
    spec: SoCSpec, counts: List[int], strategy: str = "logical"
) -> List[SoCSpec]:
    """Re-islanded specs for every count (Figures 2/3 x-axis).

    ``strategy`` is ``"logical"`` or ``"communication"``.
    """
    if strategy == "logical":
        return [logical_partitioning(spec, n) for n in counts]
    if strategy == "communication":
        return [communication_partitioning(spec, n) for n in counts]
    raise SpecError("unknown partitioning strategy %r" % strategy)


def _check_count(spec: SoCSpec, num_islands: int) -> None:
    if not 1 <= num_islands <= len(spec.cores):
        raise SpecError(
            "island count must be in [1, %d], got %d" % (len(spec.cores), num_islands)
        )


def _assign(spec: SoCSpec, clusters: List[Set[str]], name: str) -> SoCSpec:
    ordered = sorted(clusters, key=lambda c: min(c))
    assignment: Dict[str, int] = {}
    for isl, cluster in enumerate(ordered):
        for core in cluster:
            assignment[core] = isl
    return spec.with_vi_assignment(assignment, name=name)
