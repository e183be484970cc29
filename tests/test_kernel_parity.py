"""Routing-kernel parity: the shortcuts and the open-class skip against the search.

Every flow is routed by one kernel: the direct-reuse shortcut, then the
direct-open dominance shortcut (fast path only), then the Dijkstra
:meth:`PathAllocator._search`, which on the fast path evaluates each
open-edge class once.  The dominance proof promises that whenever
:meth:`PathAllocator._direct_open_shortcut` answers, the search would
return exactly the same answer.  Three checks hold it to that:

* flow by flow, on generated SoCs, every shortcut answer is re-derived
  by the reference search (no memos) on the same allocator state and
  must be the identical hop list and zero-load latency;
* run by run, on the shared fixtures, synthesis with the shortcut
  switched off — every flow it would answer goes to the search, all
  other fast-path memos stay on — yields a bit-identical design space;
* reference mode (``enable_caches=False``) never takes the shortcut,
  so the cached-vs-reference tests in ``test_perf.py`` check it too.

The open-class skip is held to the same standard search by search:
every search that may skip is re-run with the full loop on the same
allocator state and must give the same answer, pops, ``blocked`` flag
and memo probes, with no more edge evaluations.

Backup routing (spare paths and online reroutes) runs the same search
with forbidden links, blocked switches and reservations;
``TestBackupParity`` compares its fast path with reference mode, and
``TestPinnedWork`` pins the routing work of one generated 80-core spec.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import SynthesisConfig, synthesize
from repro.core.objective import StaticLatencyObjective
from repro.core.paths import PathAllocator, PathCostConfig
from repro.exceptions import InfeasibleError
from repro.perf import recording
from repro.power.library import DEFAULT_LIBRARY
from repro.resilience.spare_paths import SparePathConfig, allocate_spare_paths
from repro.soc.generator import GeneratorConfig, generate_soc, hub_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning

from _helpers import STEEP_SLOPE_LIBRARY, space_signature


def _checked_shortcut(checked):
    """A ``_direct_open_shortcut`` that re-derives every answer."""
    original = PathAllocator._direct_open_shortcut

    def wrapper(
        self, topo, sw_list, n, pair_links, out_keys, flow, src_i, dst_i,
        lat_cost_intra, lat_cost_cross, port_reserve, *rest,
    ):
        found = original(
            self, topo, sw_list, n, pair_links, out_keys, flow, src_i, dst_i,
            lat_cost_intra, lat_cost_cross, port_reserve, *rest,
        )
        if found is None:
            return None
        saved = (self._blocked, self._pops, self._edge_evals)
        expected = self._search(
            topo, sw_list, n, {}, self._ranks(sw_list), False, pair_links,
            flow, src_i, dst_i, lat_cost_intra, lat_cost_cross, port_reserve,
        )
        self._blocked, self._pops, self._edge_evals = saved
        assert found == expected, flow.key
        checked.append(flow.key)
        return found

    return wrapper


@st.composite
def generated_cases(draw):
    n_cores = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=999))
    spec = generate_soc(
        GeneratorConfig(
            name="diff%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=max(1, min(4, n_cores // 3)),
            seed=seed,
        )
    )
    n_islands = draw(st.integers(min_value=1, max_value=5))
    partition = draw(st.sampled_from([logical_partitioning, communication_partitioning]))
    return partition(spec, n_islands), draw(st.integers(min_value=0, max_value=2))


def test_shortcut_answers_equal_full_search():
    checked = []

    @given(generated_cases())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    # A known-firing case, so the "at least one" assertion below never
    # depends on what the random draws happen to cover.
    @example(
        (
            logical_partitioning(
                generate_soc(GeneratorConfig(name="diff24_0", num_cores=24, seed=0)),
                3,
            ),
            1,
        )
    )
    def run(case):
        spec, max_intermediate = case
        synthesize(spec, config=SynthesisConfig(max_intermediate=max_intermediate))

    with mock.patch.object(
        PathAllocator, "_direct_open_shortcut", _checked_shortcut(checked)
    ):
        run()
    assert checked, "the direct-open shortcut never fired"


def _checked_search(evals):
    """A ``_search`` that re-runs every class-skipping search in full.

    Primary routing on the fast path passes ``out_keys``, which arms
    the open-class skip; ``out_keys=None`` on the same allocator state
    is the full loop.  ``evals`` collects (skipping, full) edge
    evaluation counts per search.
    """
    original = PathAllocator._search

    def wrapper(self, *args, **kwargs):
        if kwargs.get("out_keys") is None:
            return original(self, *args, **kwargs)
        saved = (self._blocked, self._pops, self._edge_evals, self._cache_hits, self._cache_misses)
        outcomes, counts = [], []
        for out_keys in (kwargs["out_keys"], None):
            self._blocked = False
            self._pops = self._edge_evals = self._cache_hits = self._cache_misses = 0
            found = original(self, *args, **dict(kwargs, out_keys=out_keys))
            probes = self._cache_hits + self._cache_misses
            outcomes.append((found, self._pops, self._blocked, probes))
            counts.append((self._edge_evals, self._cache_hits, self._cache_misses))
        assert outcomes[0] == outcomes[1]
        (n_evals, hits, misses), (full_evals, _, _) = counts
        assert n_evals <= full_evals
        evals.append((n_evals, full_evals))
        found, pops, blocked, _ = outcomes[0]
        # Leave the counters as if only the skipping search had run.
        self._blocked = saved[0] or blocked
        self._pops = saved[1] + pops
        self._edge_evals = saved[2] + n_evals
        self._cache_hits = saved[3] + hits
        self._cache_misses = saved[4] + misses
        return found

    return wrapper


def test_open_class_skip_equals_full_search():
    evals = []

    @given(
        generated_cases(),
        st.sampled_from([DEFAULT_LIBRARY, STEEP_SLOPE_LIBRARY]),
        st.booleans(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    # Known cases where a wrong skip shows: a binding port limit that
    # fails a class's first member, and a saturated link that the
    # no-parallel-links policy cannot open beside.
    @example(
        (
            communication_partitioning(
                generate_soc(GeneratorConfig(name="diff30_5", num_cores=30, seed=5)),
                3,
            ),
            2,
        ),
        STEEP_SLOPE_LIBRARY,
        False,
    )
    @example(
        (
            communication_partitioning(
                generate_soc(
                    GeneratorConfig(name="diff10_1", num_cores=10, num_groups=3, seed=1)
                ),
                4,
            ),
            0,
        ),
        DEFAULT_LIBRARY,
        False,
    )
    def run(case, library, allow_parallel_links):
        spec, max_intermediate = case
        config = SynthesisConfig(
            max_intermediate=max_intermediate,
            path_cost=PathCostConfig(allow_parallel_links=allow_parallel_links),
        )
        try:
            synthesize(spec, library, config=config)
        except InfeasibleError:
            pass  # every routing attempt was still checked

    with mock.patch.object(PathAllocator, "_search", _checked_search(evals)):
        run()
    assert sum(skipping for skipping, _ in evals) < sum(full for _, full in evals)


def assert_shortcut_invisible(spec, **cfg):
    """The same cached synthesis with and without the shortcut."""
    config = SynthesisConfig(**cfg)
    with recording() as rec:
        shortcut = synthesize(spec, config=config)
    assert rec.counters["direct_open_shortcuts"] > 0
    with mock.patch.object(
        PathAllocator, "_direct_open_shortcut", lambda self, *args: None
    ):
        searched = synthesize(spec, config=config)
    assert space_signature(shortcut) == space_signature(searched)


class TestParity:
    def test_tiny(self, tiny_spec):
        assert_shortcut_invisible(tiny_spec)

    def test_tiny_single_island(self, tiny_spec_1isl):
        assert_shortcut_invisible(tiny_spec_1isl)

    def test_tiny_with_intermediate_sweep(self, tiny_spec):
        assert_shortcut_invisible(tiny_spec, max_intermediate=2)

    def test_d26_logical(self, d26_log6):
        assert_shortcut_invisible(d26_log6, max_intermediate=1)

    def test_d26_communication(self, d26_com4):
        assert_shortcut_invisible(d26_com4, max_intermediate=1)

    def test_objective_costs_match(self, tiny_spec):
        assert_shortcut_invisible(tiny_spec, objective=StaticLatencyObjective())

    @pytest.mark.slow
    def test_d38(self):
        from repro.soc.benchmarks import load_benchmark

        spec = communication_partitioning(load_benchmark("d38_media"), 4)
        assert_shortcut_invisible(spec, max_intermediate=1)


class TestReferenceMode:
    def test_uncached_pins_scalar(self, tiny_spec):
        """``enable_caches=False`` answers every flow the shortcut would
        take with the plain search, so every cached-vs-uncached
        determinism test doubles as a shortcut parity check."""
        with recording() as fast:
            synthesize(tiny_spec)
        with recording() as reference:
            synthesize(tiny_spec, config=SynthesisConfig(enable_caches=False))
        assert fast.counters["direct_open_shortcuts"] > 0
        assert reference.counters.get("direct_open_shortcuts", 0) == 0
        assert reference.counters["dijkstra_pops"] > fast.counters["dijkstra_pops"]


# ----------------------------------------------------------------------
# Backup routing: spare paths and online reroutes
# ----------------------------------------------------------------------


def _multi_hop_flows(topo):
    """Routed flows whose primary crosses at least one transit switch."""
    return [
        key
        for key, route in sorted(topo.routes.items())
        if sum(1 for comp in route.components if comp in topo.switches) >= 3
    ]


def _backup_points():
    """Design points of fresh generated SoCs (at most 40 cores).

    Generated specs route almost every flow in one hop, so each
    contributes its point with the most multi-hop primaries (node-
    disjoint mode then blocks transit switches); the hub SoC routes
    through intermediate switches.
    """
    specs = [
        communication_partitioning(
            generate_soc(
                GeneratorConfig(name="bk%d_%d" % (n, seed), num_cores=n, num_groups=n // 10, seed=seed)
            ),
            islands,
        )
        for n, seed, islands in ((24, 1, 3), (40, 9, 4))
    ]
    specs.append(hub_soc())
    points = []
    for spec in specs:
        space = synthesize(spec, config=SynthesisConfig(max_intermediate=2))
        points.append(
            max(space.points, key=lambda p: len(_multi_hop_flows(p.topology)))
        )
    return points


@pytest.fixture(scope="module")
def backup_points():
    points = _backup_points()
    assert any(p.topology.intermediate_switches for p in points)
    assert all(_multi_hop_flows(p.topology) for p in points)
    return points


def _spare_run(point, config, use_cache):
    topo = point.topology.clone_scaffold()
    allocator = PathAllocator.for_topology(topo, use_cache=use_cache)
    with recording() as rec:
        plan = allocate_spare_paths(topo, config=config, allocator=allocator)
    links = sorted((l.id, l.src, l.dst) for l in topo.links.values())
    work = (rec.counters["dijkstra_pops"], rec.counters["edge_evals"])
    return plan, links, work


class TestBackupParity:
    """Backup searches: the fast path against reference mode.

    Backup routing never takes a shortcut, so besides the plans and the
    opened hardware the two modes must do exactly the same search work.
    """

    @pytest.mark.parametrize("node_disjoint", [False, True])
    def test_spare_paths_match_reference(self, backup_points, node_disjoint):
        config = SparePathConfig(node_disjoint=node_disjoint)
        backups = 0
        for point in backup_points:
            fast = _spare_run(point, config, use_cache=True)
            reference = _spare_run(point, config, use_cache=False)
            assert fast == reference, point.label()
            backups += len(fast[0].backups)
        assert backups

    def test_route_around_failed_switches(self, backup_points):
        """Online reroutes on the protected hardware (primaries plus
        node-disjoint spare links), the control plane's setting: with no
        reservation, with the plan's spare reservations held back (as
        the controller reroutes), and with every spare link's capacity
        held back, which moves some reroutes."""
        rerouted = moved = 0
        for point in backup_points:
            topo = point.topology.clone_scaffold()
            plan = allocate_spare_paths(topo, config=SparePathConfig(node_disjoint=True))
            full = {lid: topo.links[lid].capacity_mbps for lid in plan.reserved_mbps}
            fast = PathAllocator.for_topology(topo)
            reference = PathAllocator.for_topology(topo, use_cache=False)
            for key in _multi_hop_flows(topo):
                route = topo.routes[key]
                transit = [c for c in route.components[2:-2] if c in topo.switches]
                sw_links = route.links[1:-1]
                # Fail each transit switch alone, then all of them with
                # the primary's inter-switch links.
                for failed, links in [([sw], ()) for sw in transit] + [(transit, sw_links)]:
                    answers = []
                    for reserved in (None, plan.reserved_mbps, full):
                        with recording() as rf:
                            got = fast.route_around(
                                topo, key, links, blocked_switches=failed, reserved=reserved
                            )
                        with recording() as rr:
                            want = reference.route_around(
                                topo, key, links, blocked_switches=failed, reserved=reserved
                            )
                        assert got == want, (key, failed, reserved)
                        assert rf.counters["edge_evals"] == rr.counters["edge_evals"]
                        if got is not None:
                            rerouted += 1
                            assert not set(failed) & set(got[0].components)
                            if reserved is full:
                                assert not set(got[0].links) & set(full)
                        answers.append(got)
                    moved += answers[0] != answers[2]
        assert rerouted and moved

    def test_blocked_source_and_destination(self, backup_points):
        """Blocking the source changes nothing; blocking the
        destination makes it unreachable."""
        point = backup_points[-1]
        topo = point.topology
        key = _multi_hop_flows(topo)[0]
        src, dst = (topo.switch_of_core(core).id for core in key)
        alloc = PathAllocator.for_topology(topo)
        free = alloc.route_around(topo, key, ())
        assert free is not None
        assert alloc.route_around(topo, key, (), blocked_switches=[src]) == free
        sw_list = list(topo.switches.values())
        idx = {sw.id: i for i, sw in enumerate(sw_list)}
        pair_links = {}
        for link in sorted(topo.links.values(), key=lambda l: l.id):
            if link.kind == "sw2sw":
                pair_links.setdefault(idx[link.src] * len(sw_list) + idx[link.dst], []).append(link)
        flow = topo.spec.flow(*key)
        args = (topo, sw_list, pair_links, flow, idx[src], idx[dst], set())
        assert alloc.route_backup(*args, blocked_switches={idx[src]}) == alloc.route_backup(*args)
        assert alloc.route_backup(*args, blocked_switches={idx[dst]}) is None


#: (dijkstra_pops, edge_evals, direct_open_shortcuts) of synthesizing
#: the generated 80-core spec below, and (dijkstra_pops, edge_evals)
#: of node-disjoint spare paths on its last design point.
PINNED_80 = (7228, 20828, 724)
PINNED_80_SPARE = (1584, 26925)


class TestPinnedWork:
    """The routing work of one generated 80-core spec, pinned exactly.

    Speeding up the kernel must not change what it does: same pops,
    same edge evaluations, same shortcut answers.
    """

    def test_generated_80_core_counters(self):
        spec = communication_partitioning(
            generate_soc(GeneratorConfig(name="gen80", num_cores=80, num_groups=4, seed=0)),
            4,
        )
        with recording() as rec:
            space = synthesize(spec)
        counters = rec.counters
        got = (
            counters["dijkstra_pops"],
            counters["edge_evals"],
            counters["direct_open_shortcuts"],
        )
        assert got == PINNED_80, got
        with recording() as rec:
            allocate_spare_paths(
                space.points[-1].topology.clone_scaffold(),
                config=SparePathConfig(node_disjoint=True),
            )
        assert (rec.counters["dijkstra_pops"], rec.counters["edge_evals"]) == PINNED_80_SPARE
