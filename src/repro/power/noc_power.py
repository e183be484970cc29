"""NoC power aggregation for a synthesized (and placed) topology.

Two power classes:

* **dynamic** — clock/idle power of every powered component (scales
  with island frequency and component size) plus traffic power (energy
  per bit times routed bandwidth, walking each flow's route through
  NIs, switches, wires and converters);
* **leakage** — always-on component leakage, the part island shutdown
  eliminates.

Figure 2 plots the NoC dynamic power "on switches, links and the
synchronizers" — NIs are excluded there because every design point has
exactly one NI per core, so they cancel; :meth:`NocPower.fig2_dynamic_mw`
reproduces that metric while the full breakdown keeps NI numbers for
the SoC-level overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from .. import units
from ..arch.topology import FlowKey, Topology


@dataclass(frozen=True)
class NocPower:
    """Power breakdown of one topology, all figures in mW."""

    switch_idle_mw: float
    switch_traffic_mw: float
    ni_idle_mw: float
    ni_traffic_mw: float
    link_traffic_mw: float
    fifo_idle_mw: float
    fifo_traffic_mw: float
    leakage_mw: float
    #: Dynamic power grouped by island id (incl. INTERMEDIATE_ISLAND).
    dynamic_by_island: Mapping[int, float]
    #: Leakage grouped by island id.
    leakage_by_island: Mapping[int, float]

    @property
    def dynamic_mw(self) -> float:
        """Total NoC dynamic power, NIs included."""
        return (
            self.switch_idle_mw
            + self.switch_traffic_mw
            + self.ni_idle_mw
            + self.ni_traffic_mw
            + self.link_traffic_mw
            + self.fifo_idle_mw
            + self.fifo_traffic_mw
        )

    @property
    def fig2_dynamic_mw(self) -> float:
        """Figure 2's metric: switches + links + synchronizers."""
        return (
            self.switch_idle_mw
            + self.switch_traffic_mw
            + self.link_traffic_mw
            + self.fifo_idle_mw
            + self.fifo_traffic_mw
        )

    @property
    def total_mw(self) -> float:
        """Dynamic plus leakage."""
        return self.dynamic_mw + self.leakage_mw


def compute_noc_power(
    topology: Topology,
    active_flows: Optional[Iterable[FlowKey]] = None,
    powered_islands: Optional[Set[int]] = None,
) -> NocPower:
    """Aggregate the power of a topology.

    Parameters
    ----------
    topology:
        The synthesized NoC; its placed link lengths feed the wire
        energy model (an unplaced link has length 0 and no wire energy).
    active_flows:
        Restrict traffic power to these flows (used by the shutdown
        analysis); ``None`` means all routed flows.
    powered_islands:
        Islands whose components are powered; gated islands contribute
        neither idle nor leakage power.  ``None`` means all islands
        (including the intermediate island) are on.
    """
    lib = topology.library
    spec = topology.spec
    routes = topology.routes
    switches = topology.switches
    links = topology.links
    if active_flows is None:
        active = sorted(routes.keys())
    else:
        active = [k for k in sorted(set(active_flows)) if k in routes]
    all_islands = set(topology.island_freqs.keys())
    powered = all_islands if powered_islands is None else set(powered_islands)

    dyn_by_island: Dict[int, float] = {isl: 0.0 for isl in all_islands}
    leak_by_island: Dict[int, float] = {isl: 0.0 for isl in all_islands}

    switch_idle = ni_idle = fifo_idle = 0.0
    leakage = 0.0

    # Per-call memos for the pure library terms: port shapes and island
    # frequencies repeat across components, so the library arithmetic
    # runs once per distinct input instead of once per component.  The
    # memoized values are the exact floats the direct calls return, so
    # every accumulation below is bit-identical to the unmemoized loop.
    sw_power_memo: Dict[Tuple[int, int, float], Tuple[float, float]] = {}
    for sw in switches.values():
        if sw.island not in powered:
            continue
        shape = (sw.n_in, sw.n_out, sw.freq_mhz)
        cached = sw_power_memo.get(shape)
        if cached is None:
            n_in, n_out = max(sw.n_in, 1), max(sw.n_out, 1)
            cached = (
                lib.switch_idle_power_mw(n_in, n_out, sw.freq_mhz),
                lib.switch_leakage_mw(n_in, n_out),
            )
            sw_power_memo[shape] = cached
        idle, leak = cached
        switch_idle += idle
        dyn_by_island[sw.island] += idle
        leakage += leak
        leak_by_island[sw.island] += leak

    ni_leak = lib.ni_leakage_mw()
    ni_idle_memo: Dict[float, float] = {}
    for ni in topology.nis.values():
        if ni.island not in powered:
            continue
        idle = ni_idle_memo.get(ni.freq_mhz)
        if idle is None:
            idle = lib.ni_idle_power_mw(ni.freq_mhz)
            ni_idle_memo[ni.freq_mhz] = idle
        ni_idle += idle
        dyn_by_island[ni.island] += idle
        leakage += ni_leak
        leak_by_island[ni.island] += ni_leak

    island_freqs = topology.island_freqs
    fifo_leak = lib.fifo_leakage_mw()
    fifo_idle_memo: Dict[Tuple[float, float], float] = {}
    link_leak_memo: Dict[float, float] = {}
    for link in links.values():
        src_isl = link.src_island
        dst_isl = link.dst_island
        src_on = src_isl in powered
        dst_on = dst_isl in powered
        if link.converter and src_on and dst_on:
            fpair = (island_freqs[src_isl], island_freqs[dst_isl])
            idle = fifo_idle_memo.get(fpair)
            if idle is None:
                idle = lib.fifo_idle_power_mw(fpair[0], fpair[1])
                fifo_idle_memo[fpair] = idle
            fifo_idle += idle
            dyn_by_island[dst_isl] += idle
            leakage += fifo_leak
            leak_by_island[dst_isl] += fifo_leak
        if src_on and dst_on and link.kind == "sw2sw":
            length = link.length_mm
            leak = link_leak_memo.get(length)
            if leak is None:
                leak = lib.link_leakage_mw(length)
                link_leak_memo[length] = leak
            leakage += leak
            leak_by_island[src_isl] += leak

    switch_traffic = ni_traffic = link_traffic = fifo_traffic = 0.0
    # Traffic memos: switch crossbars repeat the same port shapes and
    # every flow over a link sees the same wire energy.  The inlined
    # ``units.traffic_power_mw`` formula keeps the exact accumulation
    # order (bits/s first, then energy, then the mW factor).
    sw_ebit_memo: Dict[Tuple[int, int], float] = {}
    link_info_memo: Dict[int, Tuple[float, bool, int, int]] = {}
    ni_ebit2 = 2.0 * lib.ni_ebit_pj
    fifo_ebit = lib.fifo_ebit_pj
    to_mw = units.PJ_PER_BIT_TIMES_BITS_PER_S_TO_MW
    bits_factor = units.MEGA * units.BITS_PER_BYTE
    flow_of = spec.flow
    island_of = spec.island_of
    for key in active:
        flow = flow_of(*key)
        bw = flow.bandwidth_mbps
        bits_per_s = bw * bits_factor
        route = routes[key]
        # NI energy at both ends.
        p = bits_per_s * ni_ebit2 * to_mw
        ni_traffic += p
        dyn_by_island[island_of(flow.src)] += p / 2.0
        dyn_by_island[island_of(flow.dst)] += p / 2.0
        for comp in route.components[1:-1]:
            sw = switches[comp]
            shape = (sw.n_in, sw.n_out)
            ebit = sw_ebit_memo.get(shape)
            if ebit is None:
                ebit = lib.switch_ebit_pj(max(sw.n_in, 1), max(sw.n_out, 1))
                sw_ebit_memo[shape] = ebit
            p = bits_per_s * ebit * to_mw
            switch_traffic += p
            dyn_by_island[sw.island] += p
        for lid in route.links:
            info = link_info_memo.get(lid)
            if info is None:
                link = links[lid]
                info = (
                    lib.link_ebit_pj(link.length_mm),
                    link.converter,
                    link.src_island,
                    link.dst_island,
                )
                link_info_memo[lid] = info
            p = bits_per_s * info[0] * to_mw
            link_traffic += p
            dyn_by_island[info[2]] += p
            if info[1]:
                p = bits_per_s * fifo_ebit * to_mw
                fifo_traffic += p
                dyn_by_island[info[3]] += p

    return NocPower(
        switch_idle_mw=switch_idle,
        switch_traffic_mw=switch_traffic,
        ni_idle_mw=ni_idle,
        ni_traffic_mw=ni_traffic,
        link_traffic_mw=link_traffic,
        fifo_idle_mw=fifo_idle,
        fifo_traffic_mw=fifo_traffic,
        leakage_mw=leakage,
        dynamic_by_island=dyn_by_island,
        leakage_by_island=leak_by_island,
    )


def route_traffic_power_mw(
    topology: Topology,
    bandwidth_mbps: float,
    links: Iterable[int],
    include_ni: bool = False,
) -> float:
    """Traffic power of one flow over an explicit link path.

    The per-route slice of :func:`compute_noc_power`'s traffic terms —
    switch crossbars (each switch charged once, as the receiver of its
    incoming link), wire energy per link, converter energy on
    island-crossing links, and optionally the two NI endpoints.  The
    runtime fault injection uses the difference between a backup and a
    primary route to integrate degraded-mode energy, so the accounting
    here must mirror ``compute_noc_power`` term for term.
    """
    lib = topology.library
    power = 0.0
    for lid in links:
        link = topology.links[lid]
        ebit = lib.link_ebit_pj(link.length_mm)
        power += units.traffic_power_mw(bandwidth_mbps, ebit)
        if link.converter:
            power += units.traffic_power_mw(bandwidth_mbps, lib.fifo_ebit_pj)
        sw = topology.switches.get(link.dst)
        if sw is not None:
            power += units.traffic_power_mw(
                bandwidth_mbps, lib.switch_ebit_pj(max(sw.n_in, 1), max(sw.n_out, 1))
            )
    if include_ni:
        power += units.traffic_power_mw(bandwidth_mbps, 2.0 * lib.ni_ebit_pj)
    return power


def noc_area_mm2(topology: Topology) -> float:
    """Total silicon area of the NoC components (switches, NIs, FIFOs)."""
    lib = topology.library
    area = sum(
        lib.switch_area_mm2(max(s.n_in, 1), max(s.n_out, 1))
        for s in topology.switches.values()
    )
    area += len(topology.nis) * lib.ni_area_mm2
    area += topology.num_converters() * lib.fifo_area_mm2
    return area
