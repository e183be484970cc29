"""Island shutdown analysis: what power gating actually saves.

This module closes the paper's argument: the VI-aware NoC costs a few
percent of dynamic power (Figure 2, overhead table), but *because* its
topology never routes third-party traffic through a gateable island,
whole islands can be shut down in partial use cases — eliminating their
core **and** NoC leakage, plus the idle (clock) power of everything in
them.  "In many SoCs, the shutdown of cores can lead to ... even 25% or
more reduction in overall system power" (Section 5).

An island is gateable in a use case when

1. none of its cores is active, and
2. no flow of the application routes through any of its switches
   (the paper's design-time rule: the island is not statically pinned).

Condition 2 holds *by construction* for topologies from
:mod:`repro.core.synthesis`; for arbitrary topologies (e.g. the
VI-oblivious baseline) it fails, which is exactly the paper's
motivation — see :mod:`repro.baseline.checker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..arch.topology import Topology
from ..arch.validate import audit_shutdown_safety
from ..sim.scenarios import UseCase
from .noc_power import compute_noc_power


@dataclass(frozen=True)
class ShutdownReport:
    """Power accounting of one use case on one topology, in mW."""

    use_case: str
    #: Islands actually gated (idle and not blocked by routed traffic).
    gated_islands: Tuple[int, ...]
    #: Idle islands that could NOT be gated because some flow of the
    #: application routes through their switches (always empty for
    #: synthesized VI-aware topologies).
    blocked_islands: Tuple[int, ...]
    #: Total power without any gating (all islands on, active traffic).
    power_no_gating_mw: float
    #: Total power with idle islands gated.
    power_gated_mw: float

    @property
    def savings_mw(self) -> float:
        return self.power_no_gating_mw - self.power_gated_mw

    @property
    def savings_fraction(self) -> float:
        """Fractional total-power reduction from shutdown."""
        if self.power_no_gating_mw <= 0:
            return 0.0
        return self.savings_mw / self.power_no_gating_mw


def statically_pinned_islands(topology: Topology) -> Set[int]:
    """Islands that can never be guaranteed gateable, by construction.

    An island hosting a switch that carries any third-party flow is
    *statically pinned*: the power controller cannot gate it without
    route analysis of the momentary traffic, which no sign-off flow
    accepts ("such methods do not guarantee the availability of paths
    when elements are shutdown", Section 2).  VI-aware synthesis yields
    an empty set; the VI-oblivious baseline does not.
    """
    return {v.island for v in audit_shutdown_safety(topology)}


def blocked_idle_islands(
    topology: Topology, use_case: UseCase
) -> Tuple[List[int], List[int]]:
    """Split a use case's idle islands into (gateable, blocked).

    The paper's design-time guarantee: an idle island is blocked when it
    is statically pinned — some flow in the application routes through
    its switches, so the island can never be certified safe to gate.
    """
    idle = set(use_case.idle_islands(topology.spec))
    blocked = idle & statically_pinned_islands(topology)
    return sorted(idle - blocked), sorted(blocked)


def analyze_shutdown(
    topology: Topology,
    use_case: UseCase,
    gating_overhead_fraction: float = 0.01,
) -> ShutdownReport:
    """Compute the power saved by gating idle islands in a use case.

    ``gating_overhead_fraction`` models the sleep-transistor and
    isolation-cell overhead on the *remaining* powered logic (power
    gating is not free [6]); it inflates the gated-mode power slightly.
    :func:`blocked_idle_islands` decides which idle islands gate.
    """
    use_case.validate_against(topology.spec)
    spec = topology.spec
    active_flow_keys = [f.key for f in use_case.active_flows(spec)]
    gateable, blocked = blocked_idle_islands(topology, use_case)

    # --- no gating: every island powered, active cores run ------------
    noc_all_on = compute_noc_power(topology, active_flows=active_flow_keys)
    core_dyn = sum(
        spec.core(c).dynamic_power_mw for c in use_case.active_cores
    )
    core_leak_all = spec.total_core_leakage_power_mw
    no_gating = core_dyn + core_leak_all + noc_all_on.dynamic_mw + noc_all_on.leakage_mw

    # --- gated: idle unblocked islands powered off ---------------------
    powered = set(topology.island_freqs.keys()) - set(gateable)
    noc_gated = compute_noc_power(
        topology, active_flows=active_flow_keys, powered_islands=powered
    )
    core_leak_gated = sum(
        spec.core(c).leakage_power_mw
        for c in spec.core_names
        if spec.island_of(c) not in gateable
    )
    gated = core_dyn + core_leak_gated + noc_gated.dynamic_mw + noc_gated.leakage_mw
    gated *= 1.0 + gating_overhead_fraction

    return ShutdownReport(
        use_case=use_case.name,
        gated_islands=tuple(gateable),
        blocked_islands=tuple(blocked),
        power_no_gating_mw=no_gating,
        power_gated_mw=min(gated, no_gating),
    )


def weighted_savings_fraction(
    reports: Sequence[ShutdownReport], use_cases: Sequence[UseCase]
) -> float:
    """Time-weighted average savings over a scenario set."""
    if not reports:
        return 0.0
    fractions = {u.name: u.time_fraction for u in use_cases}
    total_w = sum(fractions.get(r.use_case, 0.0) for r in reports)
    if total_w <= 0:
        return sum(r.savings_fraction for r in reports) / len(reports)
    return (
        sum(r.savings_fraction * fractions.get(r.use_case, 0.0) for r in reports)
        / total_w
    )
