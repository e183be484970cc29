"""VI-oblivious baseline synthesis.

This is the comparator the paper argues against (Section 1): a
conventional application-specific NoC synthesis flow that optimizes
power/latency while **ignoring voltage-island boundaries**.  Cores from
different islands freely share switches, and routes thread through
whatever switch is cheapest.

We reproduce it by running the *same* synthesis machinery with all
cores collapsed into one island (so clustering follows pure
communication affinity, exactly what [12]-[15]-style flows do), then
**remapping** the resulting topology onto the real island assignment:
every switch is labelled with the majority island of its attached
cores, NIs keep their core's island, and link crossing flags are
recomputed.  The structure and the routes are untouched — only the
island interpretation changes, which is precisely the situation of "a
NoC designed without VI awareness, deployed on a chip that has VIs".

The remapped topology is then handed to
:mod:`repro.baseline.checker` / :func:`repro.arch.validate.audit_shutdown_safety`,
which demonstrate the paper's negative result: idle islands are blocked
from shutting down because live flows route through their switches.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from ..arch.topology import Topology
from ..core.design_point import DesignPoint
from ..core.spec import SoCSpec
from ..core.synthesis import SynthesisConfig, synthesize
from ..exceptions import SynthesisError
from ..power.library import DEFAULT_LIBRARY, NocLibrary


def synthesize_vi_oblivious(
    spec: SoCSpec,
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
) -> DesignPoint:
    """Best-power VI-oblivious design point for ``spec``.

    The returned design point's topology is remapped onto the spec's
    *actual* island assignment (see module docstring), so audits and
    leakage analyses see the real island structure.
    """
    flat_spec = spec.single_island()
    space = synthesize(flat_spec, library, config)
    best = space.best_by_power()
    remapped = remap_topology_islands(best.topology, spec)
    return DesignPoint(
        index=best.index,
        switch_counts=best.switch_counts,
        num_intermediate_requested=best.num_intermediate_requested,
        num_intermediate_used=best.num_intermediate_used,
        topology=remapped,
        floorplan=best.floorplan,
        wires=best.wires,
        noc_power=best.noc_power,
        soc_power=best.soc_power,
        latency=best.latency,
    )


def remap_topology_islands(topology: Topology, spec: SoCSpec) -> Topology:
    """Reinterpret a flat topology under ``spec``'s island assignment.

    Builds a structurally identical :class:`Topology` whose NIs carry
    their core's true island and whose switches carry the majority
    island of their attached cores (ties break toward the smallest
    island id, deterministically).  Routes, link endpoints, port counts
    and carried flows are copied as-is; link ``crosses_islands`` flags
    follow from the new labels.
    """
    if set(spec.core_names) != set(topology.spec.core_names):
        raise SynthesisError("spec/topology core mismatch in island remap")

    switch_island: Dict[str, int] = {}
    for sid, sw in topology.switches.items():
        votes = Counter()
        for core, attached in topology.core_switch.items():
            if attached == sid:
                votes[spec.island_of(core)] += 1
        if votes:
            top = max(votes.values())
            switch_island[sid] = min(isl for isl, v in votes.items() if v == top)
        else:
            switch_island[sid] = min(spec.islands)

    freqs = {isl: 0.0 for isl in spec.islands}
    # Every remapped island inherits the flat NoC's single clock; the
    # VI-oblivious design has one synchronous domain by construction.
    flat_freq = max(topology.island_freqs.values())
    for isl in freqs:
        freqs[isl] = flat_freq

    out = Topology(spec, topology.library, freqs)
    # Clone switches with remapped islands.
    for sid, sw in topology.switches.items():
        new_isl = switch_island[sid]
        clone = out.switches[sid] = type(sw)(
            id=sid, island=new_isl, freq_mhz=flat_freq, n_in=sw.n_in, n_out=sw.n_out
        )
        del clone  # stored; name only for clarity
    # Clone NIs with true core islands.
    for nid, ni in topology.nis.items():
        out.nis[nid] = type(ni)(
            id=nid,
            core=ni.core,
            island=spec.island_of(ni.core),
            freq_mhz=flat_freq,
        )
    out.core_switch = dict(topology.core_switch)
    # Clone links, recomputing island endpoints from the new labels.
    for lid, link in sorted(topology.links.items()):
        src_isl = switch_island.get(link.src, None)
        if src_isl is None:
            src_isl = out.nis[link.src].island
        dst_isl = switch_island.get(link.dst, None)
        if dst_isl is None:
            dst_isl = out.nis[link.dst].island
        out.links[lid] = type(link)(
            id=lid,
            src=link.src,
            dst=link.dst,
            src_island=src_isl,
            dst_island=dst_isl,
            freq_mhz=link.freq_mhz,
            capacity_mbps=link.capacity_mbps,
            kind=link.kind,
            length_mm=link.length_mm,
            flows=list(link.flows),
            # The flat design is one synchronous domain: links crossing
            # *label* boundaries carry no physical converter.
            has_converter=False,
        )
    out._next_link_id = topology._next_link_id
    out.routes = dict(topology.routes)
    return out
