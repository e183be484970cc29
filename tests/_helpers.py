"""Shared spec builders and comparison helpers for the test suite.

Kept out of ``conftest.py`` so test modules can import them explicitly:
``benchmarks/`` has its own conftest, and two same-named ``conftest``
modules on ``sys.path`` shadow each other under pytest's rootdir-based
imports (the module that loads first wins).  Helpers live here, fixtures
live in ``conftest.py``.
"""

from __future__ import annotations

from repro import CoreSpec, SoCSpec, TrafficFlow, build_spec


def make_tiny_spec(num_islands: int = 2) -> SoCSpec:
    """A 6-core spec small enough for exhaustive checks.

    Two equal islands (cpu-side, io-side) with one high-bandwidth flow
    inside each island, one across, and a low-bandwidth tail.
    """
    cores = [
        CoreSpec("cpu", 2.0, 100.0, 30.0, "cpu", "compute"),
        CoreSpec("mem", 2.0, 50.0, 40.0, "memory", "compute"),
        CoreSpec("acc", 1.5, 80.0, 20.0, "accelerator", "compute"),
        CoreSpec("io0", 0.5, 10.0, 3.0, "io", "io"),
        CoreSpec("io1", 0.5, 10.0, 3.0, "io", "io"),
        CoreSpec("per", 0.4, 5.0, 2.0, "peripheral", "io"),
    ]
    flows = [
        TrafficFlow("cpu", "mem", 400.0, 8.0),
        TrafficFlow("mem", "cpu", 480.0, 8.0),
        TrafficFlow("acc", "mem", 200.0, 10.0),
        TrafficFlow("io0", "io1", 40.0, 20.0),
        TrafficFlow("cpu", "io0", 10.0, 25.0),
        TrafficFlow("per", "io1", 2.0, 40.0),
        TrafficFlow("io1", "per", 2.0, 40.0),
    ]
    if num_islands == 1:
        assignment = {c.name: 0 for c in cores}
    elif num_islands == 2:
        assignment = {"cpu": 0, "mem": 0, "acc": 0, "io0": 1, "io1": 1, "per": 1}
    elif num_islands == 3:
        assignment = {"cpu": 0, "mem": 0, "acc": 1, "io0": 2, "io1": 2, "per": 2}
    else:
        raise ValueError("tiny spec supports 1..3 islands")
    return build_spec("tiny%d" % num_islands, cores, flows, assignment)


def space_signature(space):
    """Every observable output of a design space, exact floats."""
    points = []
    for p in space.points:
        routes = tuple(
            (key, r.components, r.links)
            for key, r in sorted(p.topology.routes.items())
        )
        points.append(
            (
                p.index,
                p.label(),
                tuple(sorted(p.switch_counts.items())),
                p.num_intermediate_requested,
                p.num_intermediate_used,
                routes,
                p.noc_power.dynamic_mw,
                p.noc_power.fig2_dynamic_mw,
                p.noc_power.leakage_mw,
                tuple(sorted(p.noc_power.dynamic_by_island.items())),
                p.soc_power.total_mw,
                p.avg_latency_cycles,
                None
                if p.objective_result is None
                else (p.objective_result.cost, p.objective_result.feasible),
            )
        )
    return (space.spec_name, tuple(points), tuple(space.failures))
