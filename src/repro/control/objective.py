"""Recovery-time objective: cost the worst detection-to-recovery window.

Static resilience (:class:`~repro.resilience.coverage.ResilienceObjective`)
asks "does a live route exist after the fault"; this objective asks
"how long until the controller has it installed".  For every scenario
of the fault model it evaluates the modeled recovery time

    detection_ms(scenario) + install_ms(#flows the scenario migrates)

on the k-spare-protected topology, vetoes points whose protected
coverage misses the target, and ranks survivors by the base
objective's cost vector followed lexicographically by the worst-case
recovery time and the protection power overhead — among
base-equivalent points, the one the control plane can heal fastest
wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..core.objective import Objective, ObjectiveResult, StaticPowerObjective
from ..exceptions import SpecError
from ..resilience.coverage import analyze_model
from ..resilience.faults import (
    FAULT_MODEL_NAMES,
    endpoint_failed,
    enumerate_scenarios,
    route_affected,
)
from ..resilience.spare_paths import SparePathConfig, protect_design_point
from .latency import ControlLatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.design_point import DesignPoint


@dataclass(frozen=True)
class RecoveryObjective(Objective):
    """Veto under-covered points; cost worst-case recovery time."""

    name = "recovery"

    fault_model: str = "single_link"
    k: int = 1
    min_coverage: float = 1.0
    base: Optional[Objective] = None
    latency: Optional[ControlLatencyModel] = None
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

    def _latency(self) -> ControlLatencyModel:
        return self.latency if self.latency is not None else ControlLatencyModel()

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
        topo = prot.topology
        scenarios = enumerate_scenarios(topo, self.fault_model)
        report = analyze_model(topo, self.fault_model, plan=prot.plan)
        lat = self._latency()
        worst_recovery = 0.0
        for sc in scenarios:
            migrated = sum(
                1
                for key, route in topo.routes.items()
                if route_affected(sc, topo, route)
                and not endpoint_failed(sc, topo, key)
            )
            worst_recovery = max(worst_recovery, lat.recovery_ms(sc, migrated))
        metrics = dict(base_result.metrics)
        metrics.update(
            {
                "coverage": report.coverage,
                "worst_recovery_ms": worst_recovery,
                "spare_links": float(prot.plan.links_opened),
                "spare_overhead_mw": prot.power_overhead_mw,
            }
        )
        if report.coverage < self.min_coverage - 1e-12:
            return ObjectiveResult(
                cost=(math.inf,),
                feasible=False,
                reason="recovery: coverage %.3f below target %.3f under %s"
                % (report.coverage, self.min_coverage, self.fault_model),
                metrics=metrics,
            )
        cost = base_result.cost + (worst_recovery, prot.power_overhead_mw)
        return ObjectiveResult(cost=cost, metrics=metrics)

    def column_names(self) -> Tuple[str, ...]:
        return self._base().column_names() + ("coverage", "recovery_ms")

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        out = self._base().columns(point)
        result = self.evaluate(point)
        out["coverage"] = round(result.metrics.get("coverage", 0.0), 4)
        out["recovery_ms"] = round(
            result.metrics.get("worst_recovery_ms", 0.0), 4
        )
        return out

    def describe(self) -> str:
        return "%s(%s, k=%d, min=%.2f, base=%s)" % (
            self.name,
            self.fault_model,
            self.k,
            self.min_coverage,
            self._base().describe(),
        )
