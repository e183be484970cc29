"""Power-gating event economics: wake-up cost and break-even time.

The paper delegates the *mechanics* of shutdown to the power-gating
literature ([5]-[8]): sleep transistors between the island's logic and
the real rails, isolation cells on its outputs, state retention or
re-initialization on wake-up.  Those mechanics make gating a *decision*
rather than a free win — switching an island off and on costs energy
(draining and recharging the virtual rail and the local clock tree) and
time (rail ramp plus converter/NI re-synchronization).

This module prices that decision:

* :func:`island_gating_cost` — the energy and latency of one off/on
  cycle of an island, derived from the island's gated capacitance
  (approximated through its leakage and area) and the technology
  constants in :class:`GatingModel`;
* :func:`break_even_time_ms` — the minimum idle duration for which
  gating saves net energy ("don't gate for a 10 µs pause").

All constants are exposed for ablation, like the rest of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..arch.topology import Topology
from ..exceptions import SpecError


@dataclass(frozen=True)
class GatingModel:
    """Technology constants of the power-gating machinery (65 nm)."""

    #: Energy to drain + recharge the island's virtual rail per mm^2 of
    #: gated silicon (switched capacitance scales with area).
    rail_cycle_energy_nj_per_mm2: float = 18.0
    #: Fixed controller/sequencer energy per gating event.
    event_energy_nj: float = 4.0
    #: Rail ramp time per mm^2 (sleep transistors are sized ~ area).
    wakeup_us_per_mm2: float = 1.6
    #: Fixed re-synchronization time (clock ungating, NI/converter
    #: handshake) per wake-up.
    wakeup_fixed_us: float = 3.0
    #: Residual leakage of a gated island as a fraction of its powered
    #: leakage (sleep transistors leak a little too).
    residual_leakage_fraction: float = 0.04

    def __post_init__(self) -> None:
        if not 0.0 <= self.residual_leakage_fraction < 1.0:
            raise SpecError("residual leakage fraction must be in [0, 1)")


@dataclass(frozen=True)
class GatingCost:
    """Cost of one off/on cycle of one island."""

    island: int
    gated_area_mm2: float
    #: Leakage eliminated while gated (powered leakage minus residual).
    leakage_saved_mw: float
    #: Energy burned by one off+on event.
    event_energy_nj: float
    #: Time from wake request to the island being usable.
    wakeup_latency_us: float


def island_gated_area_mm2(topology: Topology, island: int) -> float:
    """Silicon area switched off when ``island`` gates.

    Cores assigned to the island plus its NoC components (switches and
    the island-side NIs).
    """
    spec = topology.spec
    lib = topology.library
    if island not in spec.islands:
        raise SpecError("unknown island %r" % island)
    area = sum(spec.core(c).area_mm2 for c in spec.cores_in_island(island))
    for sw in topology.island_switches(island):
        area += lib.switch_area_mm2(max(sw.n_in, 1), max(sw.n_out, 1))
    for ni in topology.nis.values():
        if ni.island == island:
            area += lib.ni_area_mm2
    return area


def island_powered_leakage_mw(topology: Topology, island: int) -> float:
    """Leakage of the island (cores + its NoC share) when powered."""
    spec = topology.spec
    lib = topology.library
    leak = sum(spec.core(c).leakage_power_mw for c in spec.cores_in_island(island))
    for sw in topology.island_switches(island):
        leak += lib.switch_leakage_mw(max(sw.n_in, 1), max(sw.n_out, 1))
    for ni in topology.nis.values():
        if ni.island == island:
            leak += lib.ni_leakage_mw()
    return leak


def island_gating_cost(
    topology: Topology, island: int, model: Optional[GatingModel] = None
) -> GatingCost:
    """Price one gating cycle of ``island``."""
    m = model or GatingModel()
    area = island_gated_area_mm2(topology, island)
    leak = island_powered_leakage_mw(topology, island)
    saved = leak * (1.0 - m.residual_leakage_fraction)
    energy = m.event_energy_nj + m.rail_cycle_energy_nj_per_mm2 * area
    latency = m.wakeup_fixed_us + m.wakeup_us_per_mm2 * area
    return GatingCost(
        island=island,
        gated_area_mm2=area,
        leakage_saved_mw=saved,
        event_energy_nj=energy,
        wakeup_latency_us=latency,
    )


def break_even_time_ms(cost: GatingCost) -> float:
    """Idle duration above which gating the island saves net energy.

    Gating saves ``leakage_saved_mw`` for the idle duration ``t`` but
    spends ``event_energy_nj`` per cycle::

        t_be = E_event / P_saved

    >>> c = GatingCost(0, 1.0, leakage_saved_mw=10.0,
    ...                event_energy_nj=20.0, wakeup_latency_us=5.0)
    >>> break_even_time_ms(c)
    0.002
    """
    if cost.leakage_saved_mw <= 0:
        return math.inf
    # nJ / mW = microseconds; convert to ms.
    return cost.event_energy_nj / cost.leakage_saved_mw / 1000.0
