"""Resilience: fault models, spare paths and failure-aware degradation.

The paper's central trick — routing every flow so it never transits a
third-party voltage island — makes a *planned* shutdown survivable; an
*unplanned* link or switch failure is the same routing problem without
the planning.  This package unifies both failure kinds:

``faults``
    Deterministic failure-scenario enumeration (single/double link,
    switch, whole-island) plus :class:`FaultEvent` for runtime
    injection.
``spare_paths``
    k-edge-disjoint backup-route allocation on the synthesis engine's
    int-indexed Dijkstra — backups honor the VI shutdown-safety rule,
    reserve cold-standby bandwidth, and are costed as measured
    power/wire/area overhead (:func:`protect_design_point`).
``coverage``
    Per-scenario flow-fate analysis (survive / reroute / lose), the
    degraded-routing deadlock audit, and :class:`ResilienceObjective`
    for the unified objective registry.

See ``docs/resilience.md`` for the full semantics and the
coverage-vs-overhead numbers pinned in
``benchmarks/bench_resilience.py``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".coverage": (
            "ENDPOINT_LOST",
            "LOST",
            "REROUTED",
            "UNAFFECTED",
            "CoverageReport",
            "FlowImpact",
            "ResilienceObjective",
            "ScenarioCoverage",
            "analyze_coverage",
            "analyze_model",
            "degraded_routes",
        ),
        ".faults": (
            "FAULT_MODEL_NAMES",
            "FaultEvent",
            "FaultScenario",
            "FitRates",
            "double_link_failures",
            "endpoint_failed",
            "enumerate_scenarios",
            "island_failures",
            "route_affected",
            "route_survives",
            "single_link_failures",
            "switch_failures",
        ),
        ".spare_paths": (
            "ProtectionResult",
            "SparePathConfig",
            "SparePlan",
            "allocate_spare_paths",
            "protect_design_point",
        ),
    },
)
