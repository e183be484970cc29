"""Shared spec builders and comparison helpers for the test suite.

Kept out of ``conftest.py`` so test modules can import them explicitly:
``benchmarks/`` has its own conftest, and two same-named ``conftest``
modules on ``sys.path`` shadow each other under pytest's rootdir-based
imports (the module that loads first wins).  Helpers live here, fixtures
live in ``conftest.py``.
"""

from __future__ import annotations

import dataclasses

from repro import (
    CoreSpec,
    SoCSpec,
    Topology,
    TrafficFlow,
    allocate_paths,
    build_spec,
    plan_all_islands,
)
from repro.arch.routing import find_cdg_cycle
from repro.core import synthesis as synthesis_module
from repro.core.partition import partition_graph
from repro.core.vcg import build_all_vcgs
from repro.power.library import DEFAULT_LIBRARY

#: A library whose switch fmax falls steeply with port count, so the
#: per-island switch size bounds bind and routing meets port rejections.
STEEP_SLOPE_LIBRARY = dataclasses.replace(
    DEFAULT_LIBRARY, switch_fmax_slope_mhz_per_port=150.0
)


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


def make_allocation(spec, num_intermediate=0, switches_per_island=None, cost=None):
    """Helper running the full partition + allocate pipeline."""
    plans = plan_all_islands(spec, DEFAULT_LIBRARY)
    vcgs = build_all_vcgs(spec)
    partitions = {}
    for isl, plan in plans.items():
        k = switches_per_island.get(isl, plan.min_switches) if switches_per_island else plan.min_switches
        vcg = vcgs[isl]
        partitions[isl] = partition_graph(
            list(vcg.nodes), vcg.symmetric_weights(), k, plan.max_switch_size
        )
    return allocate_paths(
        spec, DEFAULT_LIBRARY, plans, partitions, num_intermediate, cost
    )


def make_cyclic_topology():
    """Build a topology with a 2-link CDG cycle from scratch.

    Two switches in one island; the w->x flow detours A->B->A and
    the y->z flow detours B->A->B, so each holds one inter-switch
    link while requesting the other — a textbook wormhole deadlock.
    """
    cores = [
        CoreSpec("w", 1.0, 10.0, 2.0),
        CoreSpec("x", 1.0, 10.0, 2.0),
        CoreSpec("y", 1.0, 10.0, 2.0),
        CoreSpec("z", 1.0, 10.0, 2.0),
    ]
    flows = [TrafficFlow("w", "x", 50.0, 20.0), TrafficFlow("y", "z", 50.0, 20.0)]
    spec = build_spec("cyclic", cores, flows)
    topo = Topology(spec, DEFAULT_LIBRARY, {0: 200.0})
    a = topo.add_switch(0, 0)
    b = topo.add_switch(0, 1)
    topo.attach_core("w", a)
    topo.attach_core("x", a)
    topo.attach_core("y", b)
    topo.attach_core("z", b)
    ab = topo.open_link(a.id, b.id)
    ba = topo.open_link(b.id, a.id)
    link = lambda s, d: topo.link_between(s, d).id
    topo.assign_route(
        spec.flow("w", "x"),
        [link("ni.w", a.id), ab.id, ba.id, link(a.id, "ni.x")],
    )
    topo.assign_route(
        spec.flow("y", "z"),
        [link("ni.y", b.id), ba.id, ab.id, link(b.id, "ni.z")],
    )
    assert find_cdg_cycle(topo) is not None
    return topo


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


def pin_fanout_width(monkeypatch, width: int) -> None:
    """Deal every fast-path candidate pass over ``width`` processes.

    Replaces the host-dependent choice (``synthesis._fanout_width``) so
    a test runs the same on any host: 1 keeps every call in one
    process; above 1 every fast-path call fans out, whatever its size.
    The ``enable_caches=False`` reference mode stays one process.
    """
    monkeypatch.setattr(
        synthesis_module,
        "_fanout_width",
        lambda spec, cfg, steps: min(width, steps) if cfg.enable_caches else 1,
    )
