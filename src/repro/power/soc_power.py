"""SoC-level power and area accounting.

The paper's headline overhead numbers (Section 5) compare the
VI-shutdown-capable NoC against the system: "a 3% overhead on the total
system's dynamic power" and "less than 0.5% increase in the total SoC
area".  This module rolls cores and NoC together so those ratios can be
reproduced on any benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..arch.topology import Topology
from .noc_power import NocPower, compute_noc_power, noc_area_mm2


@dataclass(frozen=True)
class SocPower:
    """System totals in mW / mm^2 with the NoC share broken out."""

    core_dynamic_mw: float
    core_leakage_mw: float
    noc_dynamic_mw: float
    noc_leakage_mw: float
    core_area_mm2: float
    noc_area_mm2: float

    @property
    def total_dynamic_mw(self) -> float:
        return self.core_dynamic_mw + self.noc_dynamic_mw

    @property
    def total_area_mm2(self) -> float:
        return self.core_area_mm2 + self.noc_area_mm2

    @property
    def noc_dynamic_fraction(self) -> float:
        """NoC share of the SoC dynamic power (the 3% claim's basis)."""
        if self.total_dynamic_mw <= 0:
            return 0.0
        return self.noc_dynamic_mw / self.total_dynamic_mw

    @property
    def noc_area_fraction(self) -> float:
        """NoC share of the SoC area (the 0.5% claim's basis)."""
        if self.total_area_mm2 <= 0:
            return 0.0
        return self.noc_area_mm2 / self.total_area_mm2


def compute_soc_power(
    topology: Topology,
    noc_power: Optional[NocPower] = None,
) -> SocPower:
    """System power/area rollup for a topology and its spec."""
    spec = topology.spec
    noc = noc_power if noc_power is not None else compute_noc_power(topology)
    return SocPower(
        core_dynamic_mw=spec.total_core_dynamic_power_mw,
        core_leakage_mw=spec.total_core_leakage_power_mw,
        noc_dynamic_mw=noc.dynamic_mw,
        noc_leakage_mw=noc.leakage_mw,
        core_area_mm2=spec.total_core_area_mm2,
        noc_area_mm2=noc_area_mm2(topology),
    )


def dynamic_overhead_fraction(candidate: SocPower, reference: SocPower) -> float:
    """Relative SoC dynamic-power overhead of ``candidate`` vs ``reference``.

    This is the paper's 3%-average metric: how much more dynamic power
    the whole system burns because the NoC supports island shutdown,
    compared to the same system with the reference (single-island) NoC.
    """
    if reference.total_dynamic_mw <= 0:
        return 0.0
    return (
        candidate.total_dynamic_mw - reference.total_dynamic_mw
    ) / reference.total_dynamic_mw


def area_overhead_fraction(candidate: SocPower, reference: SocPower) -> float:
    """Relative SoC area overhead of ``candidate`` vs ``reference``."""
    if reference.total_area_mm2 <= 0:
        return 0.0
    return (
        candidate.total_area_mm2 - reference.total_area_mm2
    ) / reference.total_area_mm2
