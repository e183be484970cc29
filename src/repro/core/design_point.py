"""Design points and the design space (the paper's trade-off curves).

Each feasible combination of per-island switch counts and intermediate
switch count that routes all flows becomes a :class:`DesignPoint` with
its measured power, latency, area and floorplan.  "Our method produces
several design points that meet the application constraints ... The
designer can then choose the best design point from the trade-off
curves obtained" (Section 3.2) — :class:`DesignSpace` provides exactly
those selection helpers, including the Pareto front over (power,
latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..arch.topology import Topology
from ..exceptions import InfeasibleError
from ..floorplan.placer import Floorplan
from ..floorplan.wires import WireReport
from ..power.noc_power import NocPower
from ..power.soc_power import SocPower
from ..sim.zero_load import LatencyReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .objective import Objective, ObjectiveResult


@dataclass(frozen=True)
class DesignPoint:
    """One feasible synthesized NoC with its evaluated metrics."""

    #: Sequential index within the synthesis run.
    index: int
    #: Per-island direct switch counts, keyed by island id.
    switch_counts: Mapping[int, int]
    #: Indirect switches requested in the intermediate island.
    num_intermediate_requested: int
    #: Indirect switches actually used after pruning.
    num_intermediate_used: int
    topology: Topology
    floorplan: Floorplan
    wires: WireReport
    noc_power: NocPower
    soc_power: SocPower
    latency: LatencyReport
    #: Score under the synthesis objective, when one was configured
    #: (``SynthesisConfig(objective=...)``); ``None`` otherwise.
    objective_result: Optional["ObjectiveResult"] = None

    @property
    def total_switches(self) -> int:
        """Direct plus used intermediate switches."""
        return sum(self.switch_counts.values()) + self.num_intermediate_used

    @property
    def power_mw(self) -> float:
        """Primary power objective (Figure 2 metric)."""
        return self.noc_power.fig2_dynamic_mw

    @property
    def avg_latency_cycles(self) -> float:
        """Primary latency objective (Figure 3 metric)."""
        return self.latency.average_cycles

    def label(self) -> str:
        """Compact human-readable identity of the point."""
        counts = "/".join(
            str(self.switch_counts[i]) for i in sorted(self.switch_counts)
        )
        return "dp%d[sw=%s,mid=%d]" % (self.index, counts, self.num_intermediate_used)


@dataclass
class DesignSpace:
    """All feasible design points of one synthesis run."""

    spec_name: str
    points: List[DesignPoint] = field(default_factory=list)
    #: (switch counts, k_mid) combinations that failed, with reasons.
    failures: List[Tuple[Tuple[Tuple[int, int], ...], int, str]] = field(
        default_factory=list
    )
    #: The objective the space was synthesized under (co-synthesis);
    #: ``None`` means the default static-power objective.
    objective: Optional["Objective"] = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def feasible(self) -> bool:
        """True when at least one design point exists."""
        return bool(self.points)

    def require_feasible(self) -> None:
        """Raise :class:`InfeasibleError` when the space is empty."""
        if not self.points:
            reasons = "; ".join(sorted({r for _, _, r in self.failures})[:3])
            raise InfeasibleError(
                "no feasible design point for %s (%s)" % (self.spec_name, reasons or "no attempts")
            )

    def best(self, objective: Optional["Objective"] = None) -> DesignPoint:
        """The best point under ``objective`` (default: the space's own).

        The one selection entry point every caller shares: falls back
        to the objective the space was synthesized under, then to the
        static-power default.  Raises :class:`InfeasibleError` when the
        space is empty or the objective rejects every point.
        """
        from .objective import StaticPowerObjective

        obj = objective if objective is not None else self.objective
        if obj is None:
            obj = StaticPowerObjective()
        return obj.select(self)

    def best_by_power(self) -> DesignPoint:
        """Lowest NoC dynamic power (Figure 2 picks this per island count)."""
        from .objective import StaticPowerObjective

        return StaticPowerObjective().select(self)

    def best_by_latency(self) -> DesignPoint:
        """Lowest average zero-load latency."""
        from .objective import StaticLatencyObjective

        return StaticLatencyObjective().select(self)

    def pareto_front(self) -> List[DesignPoint]:
        """Non-dominated points in the (power, latency) plane.

        A point dominates another when it is no worse in both
        objectives and strictly better in at least one.
        """
        front: List[DesignPoint] = []
        for p in sorted(self.points, key=lambda q: (q.power_mw, q.avg_latency_cycles)):
            dominated = False
            for q in self.points:
                if q is p:
                    continue
                if (
                    q.power_mw <= p.power_mw + 1e-12
                    and q.avg_latency_cycles <= p.avg_latency_cycles + 1e-12
                    and (
                        q.power_mw < p.power_mw - 1e-12
                        or q.avg_latency_cycles < p.avg_latency_cycles - 1e-12
                    )
                ):
                    dominated = True
                    break
            if not dominated:
                front.append(p)
        return front

    def summary_rows(self) -> List[Dict[str, object]]:
        """Tabular summary (one dict per point) for reports."""
        rows = []
        for p in self.points:
            rows.append(
                {
                    "point": p.label(),
                    "switches": p.total_switches,
                    "intermediate": p.num_intermediate_used,
                    "noc_power_mw": round(p.power_mw, 3),
                    "avg_latency_cycles": round(p.avg_latency_cycles, 3),
                    "noc_area_mm2": round(p.soc_power.noc_area_mm2, 4),
                    "wire_mm": round(p.wires.total_length_mm, 2),
                }
            )
        return rows
