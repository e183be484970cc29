"""Per-island voltage assignment and voltage-aware power scaling.

The paper fixes one voltage per island as an *input* ("cores in a VI
have the same operating voltage") and reports power at the library's
nominal corner.  A natural extension — explored by Leung & Tsui [19]
for NoCs with VIs — is to let each island run at the *lowest voltage
its clock frequency permits*: dynamic power scales as ``V^2`` and
leakage roughly as ``V^3`` at constant temperature, so slow islands
get cheaper still.

This module implements that refinement on top of any synthesized
topology:

* :class:`VoltageTable` — the discrete voltage/frequency corners the
  process supports (default: a 65 nm-plausible 0.9/1.0/1.1/1.2 V
  ladder);
* :func:`assign_island_voltages` — lowest feasible corner per island;
* :func:`voltage_aware_noc_power` — re-scale a topology's NoC power
  breakdown by its islands' voltage corners.

It composes with, and does not alter, the baseline nominal-voltage
results used for the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..arch.topology import Topology
from ..exceptions import SpecError
from .noc_power import NocPower, compute_noc_power


@dataclass(frozen=True)
class VoltageCorner:
    """One supported (voltage, max frequency) operating point."""

    vdd: float
    max_freq_mhz: float

    def __post_init__(self) -> None:
        if self.vdd <= 0 or self.max_freq_mhz <= 0:
            raise SpecError("voltage corner must have positive vdd and fmax")


@dataclass(frozen=True)
class VoltageTable:
    """The discrete voltage ladder of the process.

    ``nominal_vdd`` is the corner the component library was
    characterized at; scaling factors are relative to it.  The default
    ladder is a plausible 65 nm set: timing closes at the library's
    full speed only at 1.2 V, with progressively slower corners below.
    """

    corners: Tuple[VoltageCorner, ...] = (
        VoltageCorner(0.9, 260.0),
        VoltageCorner(1.0, 420.0),
        VoltageCorner(1.1, 650.0),
        VoltageCorner(1.2, 1000.0),
    )
    nominal_vdd: float = 1.2
    #: Leakage scaling exponent (DIBL + subthreshold, empirical ~3).
    leakage_exponent: float = 3.0

    def __post_init__(self) -> None:
        if not self.corners:
            raise SpecError("voltage table needs at least one corner")
        freqs = [c.max_freq_mhz for c in self.corners]
        vdds = [c.vdd for c in self.corners]
        if sorted(freqs) != freqs or sorted(vdds) != vdds:
            raise SpecError("corners must be sorted by (vdd, fmax) ascending")

    def corner_for_freq(self, freq_mhz: float) -> VoltageCorner:
        """Lowest corner whose ``max_freq_mhz`` covers ``freq_mhz``."""
        for corner in self.corners:
            if corner.max_freq_mhz >= freq_mhz - 1e-9:
                return corner
        raise SpecError(
            "no voltage corner sustains %.0f MHz (ladder tops out at %.0f)"
            % (freq_mhz, self.corners[-1].max_freq_mhz)
        )

    def dynamic_scale(self, vdd: float) -> float:
        """Dynamic power multiplier at ``vdd`` vs nominal (V^2 law)."""
        return (vdd / self.nominal_vdd) ** 2

    def leakage_scale(self, vdd: float) -> float:
        """Leakage multiplier at ``vdd`` vs nominal (~V^3 law)."""
        return (vdd / self.nominal_vdd) ** self.leakage_exponent


def assign_island_voltages(
    topology: Topology, table: Optional[VoltageTable] = None
) -> Dict[int, VoltageCorner]:
    """Lowest feasible voltage corner per island of a topology.

    The island clock was fixed by synthesis (worst NI link bandwidth);
    the island then runs at the lowest rung of the ladder that still
    closes timing at that clock.
    """
    t = table or VoltageTable()
    return {
        isl: t.corner_for_freq(freq) for isl, freq in topology.island_freqs.items()
    }


@dataclass(frozen=True)
class VoltageAwarePower:
    """NoC power after per-island voltage scaling."""

    nominal: NocPower
    corners: Mapping[int, VoltageCorner]
    dynamic_mw: float
    leakage_mw: float
    dynamic_by_island: Mapping[int, float]

    @property
    def dynamic_savings_fraction(self) -> float:
        """Dynamic power saved vs the nominal-voltage accounting."""
        if self.nominal.dynamic_mw <= 0:
            return 0.0
        return 1.0 - self.dynamic_mw / self.nominal.dynamic_mw


def voltage_aware_noc_power(
    topology: Topology,
    table: Optional[VoltageTable] = None,
) -> VoltageAwarePower:
    """Re-scale the NoC power breakdown by island voltage corners.

    Each island's dynamic share scales with its corner's ``V^2`` and
    its leakage share with ``V^3``.  Cross-island converters sit at the
    receiving island, which is where :func:`compute_noc_power` already
    books them.
    """
    t = table or VoltageTable()
    nominal = compute_noc_power(topology)
    corners = assign_island_voltages(topology, t)
    dyn_total = 0.0
    dyn_by_isl: Dict[int, float] = {}
    for isl, mw in nominal.dynamic_by_island.items():
        scale = t.dynamic_scale(corners[isl].vdd)
        dyn_by_isl[isl] = mw * scale
        dyn_total += mw * scale
    leak_total = 0.0
    for isl, mw in nominal.leakage_by_island.items():
        leak_total += mw * t.leakage_scale(corners[isl].vdd)
    return VoltageAwarePower(
        nominal=nominal,
        corners=corners,
        dynamic_mw=dyn_total,
        leakage_mw=leak_total,
        dynamic_by_island=dyn_by_isl,
    )
