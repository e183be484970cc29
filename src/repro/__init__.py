"""repro — voltage-island-aware NoC topology synthesis.

A production-quality reproduction of

    C. Seiculescu, S. Murali, L. Benini, G. De Micheli,
    "NoC Topology Synthesis for Supporting Shutdown of Voltage Islands
    in SoCs", Proc. DAC 2009.

Quick start::

    from repro import mobile_soc_26, synthesize, SynthesisConfig

    spec = mobile_soc_26()                       # 26-core mobile SoC
    space = synthesize(spec)                     # Algorithm 1
    best = space.best_by_power()
    print(best.label(), best.power_mw, "mW", best.avg_latency_cycles, "cycles")

Public names load on first use: ``import repro`` imports no subpackage,
and ``from repro import synthesize`` loads only what synthesis needs
(see "Start-up cost" in docs/performance.md).

``docs/`` describes each layer above Algorithm 1 (caching,
objectives, runtime, resilience, control plane, observability,
performance); ``benchmarks/`` regenerates the paper's figures and
tables into ``benchmarks/results/``.
"""

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 exports for a package: each public name loads on first use.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    relative submodule to the public names it defines.  Returns the
    package's ``(__all__, __getattr__, __dir__)``.  The first access to
    a name imports its submodule and caches the value in ``namespace``,
    so later lookups, ``from package import name`` and star-imports
    never reach ``__getattr__`` again.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".arch.topology": ("INTERMEDIATE_ISLAND", "Topology"),
        ".arch.validate": ("audit_shutdown_safety", "validate_topology"),
        ".control.controller": ("ReconfigurationController",),
        ".control.latency": ("ControlLatencyModel",),
        ".control.objective": ("RecoveryObjective",),
        ".core.design_point": ("DesignPoint", "DesignSpace"),
        ".core.explore": (
            "ExplorationEngine",
            "ObjectiveSelector",
            "SweepRecord",
        ),
        ".core.frequency": ("IslandPlan", "plan_all_islands"),
        ".core.objective": (
            "MultiTraceObjective",
            "Objective",
            "ObjectiveResult",
            "StaticAreaObjective",
            "StaticLatencyObjective",
            "StaticPowerObjective",
            "TraceEnergyObjective",
            "WakeLatencyQoSObjective",
            "WireLengthObjective",
            "make_objective",
        ),
        ".core.partition": ("partition_graph",),
        ".core.paths": ("AllocationResult", "PathCostConfig"),
        ".core.spec": ("CoreSpec", "SoCSpec", "TrafficFlow", "build_spec"),
        ".core.synthesis": ("SynthesisConfig", "synthesize"),
        ".core.vcg": ("VCG", "build_all_vcgs", "build_global_vcg", "build_vcg"),
        ".exceptions": (
            "FloorplanError",
            "InfeasibleError",
            "PartitionError",
            "ReproError",
            "SpecError",
            "SynthesisError",
            "ValidationError",
        ),
        ".floorplan.placer": ("Floorplan", "FloorplanConfig", "place"),
        ".names": ("FAULT_MODEL_NAMES", "OBJECTIVE_NAMES"),
        ".power.gating": ("GatingModel", "break_even_time_ms", "island_gating_cost"),
        ".power.leakage": ("ShutdownReport", "analyze_shutdown"),
        ".power.library": ("DEFAULT_LIBRARY", "NocLibrary"),
        ".power.noc_power": ("NocPower", "compute_noc_power", "noc_area_mm2"),
        ".power.soc_power": ("SocPower", "compute_soc_power"),
        ".power.voltage": ("VoltageTable", "voltage_aware_noc_power"),
        ".resilience.coverage": (
            "CoverageReport",
            "ResilienceObjective",
            "analyze_coverage",
            "analyze_model",
            "degraded_routes",
        ),
        ".resilience.faults": (
            "FaultEvent",
            "FaultScenario",
            "FitRates",
            "enumerate_scenarios",
        ),
        ".resilience.spare_paths": (
            "ProtectionResult",
            "SparePathConfig",
            "SparePlan",
            "allocate_spare_paths",
            "protect_design_point",
        ),
        ".runtime.policies": ("make_policy",),
        ".runtime.report": ("RoutabilityViolation", "RuntimeReport"),
        ".runtime.simulate": ("compare_policies", "simulate_trace"),
        ".runtime.trace": (
            "UseCaseTrace",
            "day_in_the_life_trace",
            "markov_trace",
            "scripted_trace",
        ),
        ".sim.scenarios": ("UseCase", "make_use_case", "validate_scenario_set"),
        ".sim.zero_load": ("LatencyReport", "evaluate_latency"),
        ".soc.benchmarks": ("benchmark_suite", "mobile_soc_26"),
        ".soc.partitioning": ("communication_partitioning", "logical_partitioning"),
    },
)
