"""Fault-model library: deterministic failure scenarios for a topology.

The paper's shutdown-safety rule makes a *planned* island gating
survivable; an *unplanned* component failure is the same routing
problem without the planning.  This module enumerates the failure
scenarios a resilience analysis protects against, as plain frozen data
derived from a synthesized :class:`~repro.arch.topology.Topology`:

* **single / double inter-switch link failure** — one (or any pair of)
  ``sw2sw`` physical links goes dark; NI attachment links are not
  enumerated separately because an NI link can only die with its
  switch (they share the port macro);
* **switch failure** — a switch dies with every link touching it;
  flows whose endpoint cores attach to it are structurally lost;
* **whole-island hard failure** — every switch (and NI) of one
  voltage island fails at once, the unplanned analogue of a shutdown.

Scenario enumeration is deterministic: scenarios come out sorted by
their failed component ids, so two runs on the same topology produce
byte-identical scenario lists (the resilience benches pin this).

The classification helpers at the bottom (`route_affected`,
`route_survives`, `endpoint_failed`) are the single shared definition
of "does this routing live through that fault" used by both the
static coverage analysis (:mod:`repro.resilience.coverage`) and the
runtime fault injection (:func:`repro.runtime.simulate.simulate_trace`
with ``fault_events``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..arch.topology import INTERMEDIATE_ISLAND, FlowKey, Route, Topology
from ..exceptions import SpecError
from ..names import FAULT_MODEL_NAMES


@dataclass(frozen=True)
class FitRates:
    """Per-component failure rates in FIT (failures per 10^9 hours).

    The deterministic scenario enumeration answers "what happens *if*
    this component dies"; FIT rates add "how often".  Rates attach to
    scenarios via :meth:`scenario_fit` (see ``rates=`` on the
    enumerators), and :meth:`CoverageReport.expected_availability
    <repro.resilience.coverage.CoverageReport.expected_availability>`
    folds them into a steady-state service-availability number.

    ``repair_hours`` is the mean time to repair a failed component; it
    sets the coincidence window for double faults and the unavailability
    window (rate x MTTR) of every scenario.
    """

    link_fit: float = 10.0
    switch_fit: float = 25.0
    island_fit: float = 5.0
    repair_hours: float = 8.0

    def __post_init__(self) -> None:
        for name in ("link_fit", "switch_fit", "island_fit"):
            if getattr(self, name) < 0:
                raise SpecError(
                    "%s must be >= 0 FIT, got %r" % (name, getattr(self, name))
                )
        if self.repair_hours <= 0:
            raise SpecError(
                "repair_hours must be > 0, got %r" % self.repair_hours
            )

    def scenario_fit(self, scenario: "FaultScenario") -> float:
        """Occurrence rate of one scenario, in FIT.

        Single faults carry their component's rate (a switch or island
        failure subsumes its attached links — they share the fault, not
        add to it).  A double-link scenario is a *coincidence*: both
        links must be down at once, so its rate is the standard
        2 x lambda^2 x MTTR product, vanishingly small for sane inputs.
        Unknown kinds fall back to an additive per-component bound.
        """
        if scenario.kind == "single_link":
            return self.link_fit
        if scenario.kind == "double_link":
            lam = self.link_fit
            return 2.0 * lam * lam * self.repair_hours / 1e9
        if scenario.kind == "switch":
            return self.switch_fit
        if scenario.kind == "island":
            return self.island_fit
        return (
            self.link_fit * len(scenario.failed_links)
            + self.switch_fit * len(scenario.failed_switches)
            + self.island_fit * len(scenario.failed_islands)
        )


@dataclass(frozen=True)
class FaultScenario:
    """One deterministic failure scenario.

    ``failed_links`` are physical link ids, ``failed_switches`` switch
    component ids, ``failed_islands`` island ids; a scenario may
    combine all three (a switch failure carries its links, an island
    failure carries its switches and their links).  The tuples are
    sorted so equal scenarios compare and serialize identically.

    ``fit`` is the scenario's occurrence rate in FIT (failures per
    10^9 hours); 0.0 means "not annotated" — the default, so the
    deterministic analyses stay byte-identical unless the caller opts
    into the probabilistic model via ``rates=`` on the enumerators.
    """

    name: str
    kind: str
    failed_links: Tuple[int, ...] = ()
    failed_switches: Tuple[str, ...] = ()
    failed_islands: Tuple[int, ...] = ()
    fit: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("fault scenario needs a name")
        if not (self.failed_links or self.failed_switches or self.failed_islands):
            raise SpecError("fault scenario %r fails nothing" % self.name)
        if self.fit < 0:
            raise SpecError(
                "fault scenario %r has negative FIT rate %r"
                % (self.name, self.fit)
            )
        object.__setattr__(self, "failed_links", tuple(sorted(self.failed_links)))
        object.__setattr__(
            self, "failed_switches", tuple(sorted(self.failed_switches))
        )
        object.__setattr__(
            self, "failed_islands", tuple(sorted(self.failed_islands))
        )

    def describe(self) -> str:
        parts: List[str] = []
        if self.failed_links:
            parts.append("links %s" % ",".join(map(str, self.failed_links)))
        if self.failed_switches:
            parts.append("switches %s" % ",".join(self.failed_switches))
        if self.failed_islands:
            parts.append("islands %s" % ",".join(map(str, self.failed_islands)))
        return "%s[%s]" % (self.name, "; ".join(parts))


@dataclass(frozen=True)
class FaultEvent:
    """A fault scenario injected into a runtime trace.

    The scenario is active on ``[start_ms, end_ms)``; ``end_ms``
    defaults to "never repaired".  ``reroute_stall_ms`` is the one-time
    detection-plus-switchover stall a flow pays when it fails over to a
    backup route (charged once per flow per event by the runtime
    simulator, and folded into the per-flow wake-stall accounting the
    QoS objective reads).
    """

    scenario: FaultScenario
    start_ms: float = 0.0
    end_ms: float = math.inf
    reroute_stall_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise SpecError(
                "fault event start must be >= 0 ms, got %r" % self.start_ms
            )
        if self.end_ms <= self.start_ms:
            raise SpecError(
                "fault event window [%r, %r) is empty" % (self.start_ms, self.end_ms)
            )
        if self.reroute_stall_ms < 0:
            raise SpecError(
                "reroute stall must be >= 0 ms, got %r" % self.reroute_stall_ms
            )

    def overlap_ms(self, start_ms: float, end_ms: float) -> float:
        """Overlap of the fault window with ``[start_ms, end_ms)``."""
        lo = max(self.start_ms, start_ms)
        hi = min(self.end_ms, end_ms)
        return max(0.0, hi - lo)


# ----------------------------------------------------------------------
# Enumerators
# ----------------------------------------------------------------------


def _sw_link_ids(topology: Topology) -> List[int]:
    """Inter-switch link ids in id order (the enumeration axis)."""
    return sorted(l.id for l in topology.links.values() if l.kind == "sw2sw")


def _rated(
    scenarios: List[FaultScenario], rates: Optional[FitRates]
) -> List[FaultScenario]:
    """Annotate scenarios with their FIT rate (no-op when rates is None)."""
    if rates is None:
        return scenarios
    return [
        dataclasses.replace(sc, fit=rates.scenario_fit(sc))
        for sc in scenarios
    ]


def single_link_failures(
    topology: Topology, rates: Optional[FitRates] = None
) -> List[FaultScenario]:
    """One scenario per inter-switch link."""
    return _rated(
        [
            FaultScenario(
                name="link%d" % lid, kind="single_link", failed_links=(lid,)
            )
            for lid in _sw_link_ids(topology)
        ],
        rates,
    )


def double_link_failures(
    topology: Topology, rates: Optional[FitRates] = None
) -> List[FaultScenario]:
    """One scenario per unordered pair of distinct inter-switch links."""
    ids = _sw_link_ids(topology)
    out: List[FaultScenario] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            out.append(
                FaultScenario(
                    name="link%d+link%d" % (a, b),
                    kind="double_link",
                    failed_links=(a, b),
                )
            )
    return _rated(out, rates)


def switch_failures(
    topology: Topology, rates: Optional[FitRates] = None
) -> List[FaultScenario]:
    """One scenario per switch; the switch takes every touching link."""
    out: List[FaultScenario] = []
    for sid in sorted(topology.switches):
        links = tuple(
            l.id
            for l in topology.links.values()
            if l.src == sid or l.dst == sid
        )
        out.append(
            FaultScenario(
                name="switch:%s" % sid,
                kind="switch",
                failed_links=links,
                failed_switches=(sid,),
            )
        )
    return _rated(out, rates)


def island_failures(
    topology: Topology, rates: Optional[FitRates] = None
) -> List[FaultScenario]:
    """One scenario per gateable island (hard failure of the whole VI).

    The intermediate NoC island is excluded: it sits on the always-on
    supply, and its hard failure would take every cross-island flow
    with it by construction — there is no routing answer to analyze.
    """
    out: List[FaultScenario] = []
    islands = sorted(
        isl for isl in topology.island_freqs if isl != INTERMEDIATE_ISLAND
    )
    for isl in islands:
        switches = tuple(s.id for s in topology.island_switches(isl))
        dead = set(switches)
        links = tuple(
            l.id
            for l in topology.links.values()
            if l.src in dead or l.dst in dead
        )
        out.append(
            FaultScenario(
                name="island:%d" % isl,
                kind="island",
                failed_links=links,
                failed_switches=switches,
                failed_islands=(isl,),
            )
        )
    return _rated(out, rates)


def enumerate_scenarios(
    topology: Topology, model: str, rates: Optional[FitRates] = None
) -> List[FaultScenario]:
    """All scenarios of one fault model, by canonical name."""
    key = model.strip().lower().replace("-", "_")
    if key == "single_link":
        return single_link_failures(topology, rates)
    if key == "double_link":
        return double_link_failures(topology, rates)
    if key == "switch":
        return switch_failures(topology, rates)
    if key == "island":
        return island_failures(topology, rates)
    raise SpecError(
        "unknown fault model %r (choose from %s)"
        % (model, ", ".join(FAULT_MODEL_NAMES))
    )


# ----------------------------------------------------------------------
# Classification (shared by coverage analysis and runtime injection)
# ----------------------------------------------------------------------


def endpoint_failed(
    scenario: FaultScenario, topology: Topology, flow: FlowKey
) -> bool:
    """True when a flow's source or destination attachment is dead.

    A flow whose endpoint core sits in a failed island, or attaches to
    a failed switch, cannot be saved by any rerouting — the coverage
    analysis excludes such flows from a scenario's eligible set.
    """
    spec = topology.spec
    if scenario.failed_islands:
        dead = set(scenario.failed_islands)
        if spec.island_of(flow[0]) in dead or spec.island_of(flow[1]) in dead:
            return True
    if scenario.failed_switches:
        dead_sw = set(scenario.failed_switches)
        if (
            topology.switch_of_core(flow[0]).id in dead_sw
            or topology.switch_of_core(flow[1]).id in dead_sw
        ):
            return True
    return False


def route_affected(
    scenario: FaultScenario, topology: Topology, route: Route
) -> bool:
    """True when the scenario kills any component the route uses."""
    if scenario.failed_links:
        dead = set(scenario.failed_links)
        for lid in route.links:
            if lid in dead:
                return True
    if scenario.failed_switches:
        dead_sw = set(scenario.failed_switches)
        for comp in route.components[1:-1]:
            if comp in dead_sw:
                return True
    if scenario.failed_islands:
        dead_isl = set(scenario.failed_islands)
        for comp in route.components[1:-1]:
            sw = topology.switches.get(comp)
            if sw is not None and sw.island in dead_isl:
                return True
    return False


def route_survives(
    scenario: FaultScenario, topology: Topology, route: Route
) -> bool:
    """True when the route uses no failed component."""
    return not route_affected(scenario, topology, route)
