"""Per-scenario flow-coverage analysis and the resilience objective.

Given a (possibly spare-protected) topology and a set of fault
scenarios, classify every routed flow per scenario
(:func:`repro.resilience.faults.classify_flow`):

``unaffected``
    The primary route uses no failed component.
``rerouted``
    The primary is hit, but one of the flow's backup routes
    (:class:`~repro.resilience.spare_paths.SparePlan`) survives; the
    analysis records which backup and the added zero-load latency of
    the failover.
``lost``
    Primary and every backup are hit — the flow is down until repair.
``endpoint_lost``
    The flow's source or destination attachment itself failed; no
    routing can save it, so it is excluded from the scenario's
    eligible set (coverage measures what *routing* can recover).

Coverage numbers aggregate over (flow, scenario) pairs;
``worst_scenario_coverage`` is the sound bite ("100% of flows survive
every single link failure").  :func:`degraded_routes` materializes the
post-failure routing of a scenario so the channel-dependency deadlock
check (:func:`repro.arch.routing.is_deadlock_free` with ``routes=``)
and any downstream analysis can audit it.

:class:`ResilienceObjective` plugs the whole pipeline into the PR-4
objective registry: points whose protected coverage misses the target
are vetoed, surviving points are ranked by the base objective first
and the spare-capacity overhead (power, wire, extra links)
lexicographically after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..arch.topology import FlowKey, Route, Topology
from ..core.objective import Objective, ObjectiveResult, StaticPowerObjective
from ..exceptions import SpecError
from .faults import (
    ENDPOINT_LOST,
    FAULT_MODEL_NAMES,
    LOST,
    REROUTED,
    UNAFFECTED,
    FaultScenario,
    FitRates,
    FlowImpact,
    classify_flow,
    enumerate_scenarios,
)
from .spare_paths import (
    SparePathConfig,
    SparePlan,
    protect_design_point,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.design_point import DesignPoint

@dataclass(frozen=True)
class ScenarioCoverage:
    """All flow fates under one scenario."""

    scenario: FaultScenario
    impacts: Tuple[FlowImpact, ...]

    @property
    def eligible(self) -> int:
        """Flows a routing answer could save (endpoint losses excluded)."""
        return sum(1 for i in self.impacts if i.fate != ENDPOINT_LOST)

    @property
    def covered(self) -> int:
        return sum(1 for i in self.impacts if i.covered)

    @property
    def coverage(self) -> float:
        """Covered fraction of eligible flows (1.0 when none eligible)."""
        n = self.eligible
        return self.covered / n if n else 1.0

    @property
    def rerouted(self) -> int:
        return sum(1 for i in self.impacts if i.fate == REROUTED)

    @property
    def lost_flows(self) -> Tuple[FlowKey, ...]:
        return tuple(i.flow for i in self.impacts if i.fate == LOST)

    @property
    def max_added_cycles(self) -> int:
        return max((i.added_cycles for i in self.impacts), default=0)

    @property
    def down_fraction(self) -> float:
        """Fraction of *all* routed flows down while this fault is live.

        Unlike :attr:`coverage`, endpoint losses count as down: the
        availability metric measures delivered service, and a flow whose
        endpoint died is just as unreachable as an unroutable one.
        """
        if not self.impacts:
            return 0.0
        down = sum(
            1 for i in self.impacts if i.fate in (LOST, ENDPOINT_LOST)
        )
        return down / len(self.impacts)


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of one topology (+ spare plan) over a scenario set."""

    fault_model: str
    scenarios: Tuple[ScenarioCoverage, ...]

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def coverage(self) -> float:
        """Covered fraction over all eligible (flow, scenario) pairs."""
        eligible = sum(s.eligible for s in self.scenarios)
        covered = sum(s.covered for s in self.scenarios)
        return covered / eligible if eligible else 1.0

    @property
    def worst_scenario_coverage(self) -> float:
        return min((s.coverage for s in self.scenarios), default=1.0)

    @property
    def full_coverage(self) -> bool:
        """True when every eligible flow survives every scenario."""
        return all(s.coverage >= 1.0 for s in self.scenarios)

    @property
    def uncovered_flows(self) -> Tuple[FlowKey, ...]:
        """Flows lost in at least one scenario, sorted."""
        out = set()
        for s in self.scenarios:
            out.update(s.lost_flows)
        return tuple(sorted(out))

    @property
    def max_added_cycles(self) -> int:
        """Worst failover latency penalty over every scenario."""
        return max((s.max_added_cycles for s in self.scenarios), default=0)

    @property
    def has_fit(self) -> bool:
        """True when the scenarios carry FIT annotations (``rates=``)."""
        return any(s.scenario.fit > 0.0 for s in self.scenarios)

    def expected_availability(self, repair_hours: float = 8.0) -> float:
        """Steady-state expected flow availability under the FIT model.

        Each scenario is unavailable for ``fit x 1e-9 x repair_hours``
        of the time (rate x MTTR, the standard steady-state
        approximation for FIT-scale rates) and takes
        :attr:`ScenarioCoverage.down_fraction` of the flows with it
        while live.  Availability is 1 minus the rate-weighted sum —
        scenarios the spare plan fully covers contribute nothing, which
        is exactly the availability argument for paying the spare
        overhead.  Requires FIT-annotated scenarios (see
        :class:`~repro.resilience.faults.FitRates`); returns 1.0 when
        none are annotated.
        """
        if repair_hours <= 0:
            raise SpecError(
                "repair_hours must be > 0, got %r" % repair_hours
            )
        loss = sum(
            s.scenario.fit * 1e-9 * repair_hours * s.down_fraction
            for s in self.scenarios
        )
        return max(0.0, 1.0 - loss)

    def downtime_minutes_per_year(self, repair_hours: float = 8.0) -> float:
        """Expected flow-weighted downtime, in minutes per year."""
        return (1.0 - self.expected_availability(repair_hours)) * 525600.0

    def rows(self) -> List[Dict[str, object]]:
        """Per-scenario table rows for :func:`repro.io.report.format_table`."""
        return [
            {
                "scenario": s.scenario.name,
                "eligible": s.eligible,
                "covered": s.covered,
                "rerouted": s.rerouted,
                "lost": len(s.lost_flows),
                "coverage": "%.1f%%" % (100.0 * s.coverage),
                "max_added_cycles": s.max_added_cycles,
            }
            for s in self.scenarios
        ]

    def summary(self) -> Dict[str, object]:
        """One-row rollup (the bench/CLI headline).

        Availability fields appear only when the scenarios carry FIT
        annotations, so un-annotated runs serialize exactly as before.
        """
        out: Dict[str, object] = {
            "fault_model": self.fault_model,
            "scenarios": self.num_scenarios,
            "coverage": round(self.coverage, 6),
            "worst_scenario_coverage": round(self.worst_scenario_coverage, 6),
            "uncovered_flows": len(self.uncovered_flows),
            "max_added_cycles": self.max_added_cycles,
        }
        if self.has_fit:
            out["expected_availability"] = round(
                self.expected_availability(), 9
            )
            out["downtime_min_year"] = round(
                self.downtime_minutes_per_year(), 6
            )
        return out


def analyze_coverage(
    topology: Topology,
    scenarios: Sequence[FaultScenario],
    plan: Optional[SparePlan] = None,
    fault_model: str = "custom",
) -> CoverageReport:
    """Classify every routed flow under every scenario.

    ``plan=None`` analyzes the unprotected topology (no backups — every
    affected flow is lost), the baseline the protected analysis is
    compared against.  Deterministic: flows are visited in sorted key
    order, scenarios in input order.
    """
    out: List[ScenarioCoverage] = []
    routes = sorted(topology.routes.items())
    for scenario in scenarios:
        impacts = tuple(
            classify_flow(scenario, topology, key, route, plan)
            for key, route in routes
        )
        out.append(ScenarioCoverage(scenario=scenario, impacts=impacts))
    return CoverageReport(fault_model=fault_model, scenarios=tuple(out))


def analyze_model(
    topology: Topology,
    fault_model: str = "single_link",
    plan: Optional[SparePlan] = None,
    rates: Optional[FitRates] = None,
) -> CoverageReport:
    """Coverage under every scenario of one named fault model.

    ``rates`` annotates the scenarios with FIT occurrence rates,
    enabling :meth:`CoverageReport.expected_availability`.
    """
    return analyze_coverage(
        topology,
        enumerate_scenarios(topology, fault_model, rates=rates),
        plan=plan,
        fault_model=fault_model,
    )


def degraded_routes(
    topology: Topology,
    plan: Optional[SparePlan],
    scenario: FaultScenario,
) -> Dict[FlowKey, Route]:
    """The post-failure routing of one scenario.

    Unaffected flows keep their primaries, rerouted flows activate
    their first surviving backup, lost flows (and endpoint losses)
    drop out.  This is the route set the degraded-mode deadlock check
    audits: ``is_deadlock_free(topology, routes=degraded_routes(...))``.
    """
    out: Dict[FlowKey, Route] = {}
    for key, route in sorted(topology.routes.items()):
        impact = classify_flow(scenario, topology, key, route, plan)
        if impact.fate == UNAFFECTED:
            out[key] = route
        elif impact.fate == REROUTED:
            out[key] = plan.backups[key][impact.backup_index]
    return out


# ----------------------------------------------------------------------
# Objective integration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceObjective(Objective):
    """Veto under-covered points; cost spare overhead after the base.

    ``evaluate`` protects the candidate's topology with ``k`` disjoint
    backups (:func:`~repro.resilience.spare_paths.protect_design_point`
    — the shared point is never mutated), measures coverage under the
    ``fault_model`` scenarios enumerated on the *protected* topology,
    and:

    * rejects the point when coverage falls below ``min_coverage``
      (like a routing failure under co-synthesis);
    * otherwise scores it as the base objective's full cost vector
      followed lexicographically by the protection overhead — extra
      Figure-2 power (mW), extra wire (mm), spare links opened — so
      among base-equivalent points the cheapest-to-protect one wins.
    """

    name = "resilience"

    fault_model: str = "single_link"
    k: int = 1
    min_coverage: float = 1.0
    base: Optional[Objective] = None
    spare_config: Optional[SparePathConfig] = None

    def __post_init__(self) -> None:
        if self.fault_model not in FAULT_MODEL_NAMES:
            raise SpecError(
                "unknown fault model %r (choose from %s)"
                % (self.fault_model, ", ".join(FAULT_MODEL_NAMES))
            )
        if self.k < 0:
            raise SpecError("spare-path k must be >= 0, got %r" % self.k)
        if not (0.0 <= self.min_coverage <= 1.0):
            raise SpecError(
                "min_coverage must be in [0, 1], got %r" % self.min_coverage
            )

    def _base(self) -> Objective:
        return self.base if self.base is not None else StaticPowerObjective()

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        base_result = self._base().evaluate(point)
        if not base_result.feasible:
            return ObjectiveResult(
                cost=(math.inf,),
                feasible=False,
                reason="%s: %s"
                % (self._base().name, base_result.reason or "rejected"),
                metrics=dict(base_result.metrics),
            )
        prot = protect_design_point(point, k=self.k, config=self.spare_config)
        report = analyze_model(
            prot.topology, self.fault_model, plan=prot.plan
        )
        metrics = dict(base_result.metrics)
        metrics.update(
            {
                "coverage": report.coverage,
                "worst_scenario_coverage": report.worst_scenario_coverage,
                "spare_links": float(prot.plan.links_opened),
                "spare_overhead_mw": prot.power_overhead_mw,
                "spare_wire_mm": prot.wire_overhead_mm,
                "spare_area_mm2": prot.area_overhead_mm2,
            }
        )
        if report.coverage < self.min_coverage - 1e-12:
            return ObjectiveResult(
                cost=(math.inf,),
                feasible=False,
                reason="resilience: coverage %.3f below target %.3f "
                "(%d uncovered flows under %s)"
                % (
                    report.coverage,
                    self.min_coverage,
                    len(report.uncovered_flows),
                    self.fault_model,
                ),
                metrics=metrics,
            )
        cost = base_result.cost + (
            prot.power_overhead_mw,
            prot.wire_overhead_mm,
            float(prot.plan.links_opened),
        )
        return ObjectiveResult(cost=cost, metrics=metrics)

    def column_names(self) -> Tuple[str, ...]:
        return self._base().column_names() + ("coverage", "spare_links")

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        out = self._base().columns(point)
        result = self.evaluate(point)
        out["coverage"] = round(result.metrics.get("coverage", 0.0), 4)
        out["spare_links"] = int(result.metrics.get("spare_links", 0))
        return out

    def describe(self) -> str:
        return "%s(%s, k=%d, min=%.2f, base=%s)" % (
            self.name,
            self.fault_model,
            self.k,
            self.min_coverage,
            self._base().describe(),
        )
