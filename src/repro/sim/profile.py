"""Device-level energy profiles: a day in the life of the SoC.

Ties the whole power stack together: given a timeline of operating
modes (use cases with durations), compute the energy the SoC draws with
and without island shutdown, including the gating-event overheads from
:mod:`repro.power.gating`.  This is the number a phone architect
actually cares about — battery hours, not mW snapshots — and it is how
the paper's "25% or more reduction in overall system power" becomes a
battery-life claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.topology import Topology
from ..exceptions import SpecError
from ..power.gating import GatingModel, island_gating_cost
from ..power.leakage import ShutdownReport, analyze_shutdown
from ..sim.scenarios import UseCase


@dataclass(frozen=True)
class TimelineSegment:
    """One contiguous stretch of a single operating mode."""

    use_case: UseCase
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise SpecError("segment duration must be positive")


@dataclass(frozen=True)
class EnergyProfile:
    """Energy accounting over a timeline, in joules."""

    total_duration_s: float
    energy_no_gating_j: float
    energy_gated_j: float
    gating_event_energy_j: float
    num_gating_events: int

    @property
    def energy_saved_j(self) -> float:
        return self.energy_no_gating_j - self.energy_gated_j

    @property
    def savings_fraction(self) -> float:
        """Fraction of total energy recovered by island shutdown."""
        if self.energy_no_gating_j <= 0:
            return 0.0
        return self.energy_saved_j / self.energy_no_gating_j

    @property
    def battery_life_extension(self) -> float:
        """Runtime multiplier at fixed battery capacity.

        A 25% energy saving stretches the same battery 1.33x.
        """
        if self.energy_gated_j <= 0:
            return 1.0
        return self.energy_no_gating_j / self.energy_gated_j


def profile_timeline(
    topology: Topology,
    timeline: Sequence[TimelineSegment],
    gating_model: Optional[GatingModel] = None,
) -> EnergyProfile:
    """Energy of a mode timeline with and without island shutdown.

    Gating events are charged at every segment boundary for each island
    whose gated/powered state changes between the adjacent segments
    (plus initial gating at the first segment).
    """
    if not timeline:
        raise SpecError("timeline must contain at least one segment")
    model = gating_model or GatingModel()
    reports: Dict[str, ShutdownReport] = {}
    for seg in timeline:
        if seg.use_case.name not in reports:
            seg.use_case.validate_against(topology.spec)
            reports[seg.use_case.name] = analyze_shutdown(topology, seg.use_case)

    total_s = sum(seg.duration_s for seg in timeline)
    energy_no_gating = 0.0
    energy_gated = 0.0
    event_energy_j = 0.0
    events = 0
    prev_gated: Tuple[int, ...] = ()
    for seg in timeline:
        rep = reports[seg.use_case.name]
        # mW * s = mJ -> J
        energy_no_gating += rep.power_no_gating_mw * seg.duration_s * 1e-3
        energy_gated += rep.power_gated_mw * seg.duration_s * 1e-3
        changed = set(prev_gated) ^ set(rep.gated_islands)
        for isl in sorted(changed):
            cost = island_gating_cost(topology, isl, model)
            event_energy_j += cost.event_energy_nj * 1e-9
            events += 1
        prev_gated = rep.gated_islands
    energy_gated += event_energy_j
    return EnergyProfile(
        total_duration_s=total_s,
        energy_no_gating_j=energy_no_gating,
        energy_gated_j=min(energy_gated, energy_no_gating),
        gating_event_energy_j=event_energy_j,
        num_gating_events=events,
    )


def daily_mobile_timeline(use_cases: Sequence[UseCase], hours: float = 24.0) -> List[TimelineSegment]:
    """A repeating daily timeline from a use-case residency mix.

    Spreads each use case's ``time_fraction`` over the day in four
    interleaved rounds, which yields a realistic number of mode
    transitions (phones do not run one contiguous block of standby).
    """
    if hours <= 0:
        raise SpecError("timeline length must be positive")
    rounds = 4
    segments: List[TimelineSegment] = []
    total_fraction = sum(u.time_fraction for u in use_cases)
    for _ in range(rounds):
        for case in use_cases:
            share = case.time_fraction / total_fraction
            segments.append(
                TimelineSegment(case, duration_s=hours * 3600.0 * share / rounds)
            )
    return segments
