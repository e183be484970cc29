"""Wire length assignment and wire power/delay reporting.

After placement, every topology link gets its Manhattan wire length;
power analysis then charges traffic energy per millimetre, and the
timing check flags intra-island links that exceed one clock cycle of
wire reach (the paper uses unpipelined links inside islands, and
over-the-cell unpipelined links across islands whose 4-cycle converter
budget absorbs the flight time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..arch.topology import Topology
from .placer import Floorplan


@dataclass(frozen=True)
class WireReport:
    """Wire statistics of a placed topology."""

    total_length_mm: float
    ni_length_mm: float
    intra_island_length_mm: float
    cross_island_length_mm: float
    #: Intra-island sw2sw links needing more than 1 cycle of wire reach.
    timing_violations: Tuple[int, ...]
    #: Cross-island links longer than the converter crossing budget.
    crossing_violations: Tuple[int, ...]

    @property
    def clean(self) -> bool:
        """True when no link breaks its timing budget."""
        return not self.timing_violations and not self.crossing_violations


def assign_wire_lengths(topology: Topology, floorplan: Floorplan) -> WireReport:
    """Fill ``link.length_mm`` for every link and report wire stats."""
    lib = topology.library
    total = ni_len = intra = cross = 0.0
    timing: List[int] = []
    crossing: List[int] = []
    for link in topology.links.values():
        length = floorplan.wire_length_mm(link.src, link.dst)
        link.length_mm = length
        total += length
        if link.kind in ("ni2sw", "sw2ni"):
            ni_len += length
            continue
        if link.converter:
            cross += length
            budget = lib.wire_length_per_cycle_mm(link.freq_mhz) * lib.fifo_crossing_cycles
            if length > budget:
                crossing.append(link.id)
        else:
            intra += length
            if lib.link_cycles(length, link.freq_mhz) > lib.link_traversal_cycles:
                timing.append(link.id)
    return WireReport(
        total_length_mm=total,
        ni_length_mm=ni_len,
        intra_island_length_mm=intra,
        cross_island_length_mm=cross,
        timing_violations=tuple(sorted(timing)),
        crossing_violations=tuple(sorted(crossing)),
    )
