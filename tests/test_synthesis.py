"""Algorithm 1 driver: sweep structure, feasibility, config effects."""

import gc

import pytest

from repro import (
    DEFAULT_LIBRARY,
    OBJECTIVE_NAMES,
    InfeasibleError,
    SynthesisConfig,
    TrafficFlow,
    build_spec,
    synthesize,
    validate_topology,
)
from repro.cache import CacheStore, caching
from repro.core.explore import ExplorationEngine
from repro.core.objective import make_objective
from repro.core.spec import CoreSpec
from repro.runtime import markov_trace
from repro.soc.usecases import use_cases_for

from _helpers import make_tiny_spec


class TestDesignSpace:
    def test_produces_multiple_points(self, tiny_space):
        assert len(tiny_space) >= 3

    def test_every_point_routes_all_flows(self, tiny_space, tiny_spec):
        for point in tiny_space:
            assert set(point.topology.routes) == {f.key for f in tiny_spec.flows}

    def test_every_point_validates(self, tiny_space):
        for point in tiny_space:
            validate_topology(point.topology)

    def test_no_latency_violations_saved(self, tiny_space):
        for point in tiny_space:
            assert point.latency.meets_constraints

    def test_switch_counts_match_topology(self, tiny_space):
        for point in tiny_space:
            for isl, count in point.switch_counts.items():
                assert len(point.topology.island_switches(isl)) == count

    def test_indices_unique_and_ordered(self, tiny_space):
        indices = [p.index for p in tiny_space]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_deduplicates_saturated_sweeps(self, tiny_space):
        # No two points may share (switch counts, used intermediate).
        seen = set()
        for p in tiny_space:
            sig = (tuple(sorted(p.switch_counts.items())), p.num_intermediate_used)
            assert sig not in seen
            seen.add(sig)


class TestSweepStructure:
    def test_min_switch_count_is_explored(self, tiny_spec, tiny_space):
        from repro import plan_all_islands

        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY)
        mins = {isl: p.min_switches for isl, p in plans.items()}
        assert any(
            all(p.switch_counts[isl] == mins[isl] for isl in mins) for p in tiny_space
        )

    def test_one_switch_per_core_is_explored(self, tiny_spec, tiny_space):
        assert any(
            all(
                p.switch_counts[isl] == len(tiny_spec.cores_in_island(isl))
                for isl in tiny_spec.islands
            )
            for p in tiny_space
        )

    def test_lockstep_increment(self, tiny_spec, tiny_space):
        # Counts across islands differ by the same sweep offset i
        # (saturating at the island's core count).
        from repro import plan_all_islands

        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY)
        for p in tiny_space:
            offsets = set()
            saturated_ok = True
            for isl, count in p.switch_counts.items():
                n = plans[isl].num_cores
                if count < n:
                    offsets.add(count - plans[isl].min_switches)
            assert len(offsets) <= 1


class TestConfig:
    def test_no_intermediate_config(self, tiny_spec):
        space = synthesize(tiny_spec, config=SynthesisConfig(allow_intermediate=False))
        assert all(p.num_intermediate_used == 0 for p in space)

    def test_greedy_partition_method(self, tiny_spec):
        space = synthesize(tiny_spec, config=SynthesisConfig(partition_method="greedy"))
        assert space.feasible

    def test_alpha_extremes_both_feasible(self, tiny_spec):
        for alpha in (0.0, 1.0):
            assert synthesize(tiny_spec, config=SynthesisConfig(alpha=alpha)).feasible


class TestInfeasibility:
    def test_impossible_latency_raises(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0),
            CoreSpec("b", 1.0, 10.0, 1.0),
        ]
        # Cross-island flow with a 2-cycle budget can never meet the
        # 4-cycle converter penalty.
        flows = [TrafficFlow("a", "b", 100.0, latency_cycles=2.0)]
        spec = build_spec("impossible", cores, flows, {"a": 0, "b": 1})
        with pytest.raises(InfeasibleError):
            synthesize(spec)

    def test_failures_recorded(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0),
            CoreSpec("b", 1.0, 10.0, 1.0),
        ]
        flows = [TrafficFlow("a", "b", 100.0, latency_cycles=2.0)]
        spec = build_spec("impossible", cores, flows, {"a": 0, "b": 1})
        try:
            synthesize(spec)
        except InfeasibleError as exc:
            assert "impossible" in str(exc)

    def test_single_core_spec_synthesizes(self):
        spec = build_spec("solo", [CoreSpec("a", 1.0, 10.0, 1.0)], [])
        space = synthesize(spec)
        assert space.feasible
        assert len(space.best_by_power().topology.switches) == 1


class TestParetoAndSelectors:
    def test_best_by_power_minimal(self, tiny_space):
        best = tiny_space.best_by_power()
        assert best.power_mw == min(p.power_mw for p in tiny_space)

    def test_best_by_latency_minimal(self, tiny_space):
        best = tiny_space.best_by_latency()
        assert best.avg_latency_cycles == min(p.avg_latency_cycles for p in tiny_space)

    def test_pareto_front_nonempty_and_valid(self, tiny_space):
        front = tiny_space.pareto_front()
        assert front
        for p in front:
            for q in tiny_space:
                strictly_better = (
                    q.power_mw < p.power_mw - 1e-12
                    and q.avg_latency_cycles < p.avg_latency_cycles - 1e-12
                )
                assert not strictly_better

    def test_summary_rows_match_points(self, tiny_space):
        rows = tiny_space.summary_rows()
        assert len(rows) == len(tiny_space)
        assert all("noc_power_mw" in r for r in rows)


def _cyclic_garbage_after(run):
    """How many objects the cyclic GC finds unreachable after ``run()``."""
    gc.collect()
    run()
    return gc.collect()


class TestNoReferenceCycles:
    """``synthesize`` and each sweep task run with the cyclic GC paused
    (``gc_paused``), which is sound only while reference counting frees
    all of their garbage.  Each run follows a warm-up run, so one-off
    allocations (deferred imports, memo tables) are not counted."""

    @pytest.mark.parametrize("name", OBJECTIVE_NAMES)
    @pytest.mark.parametrize("which", ["tiny", "d26-4"])
    def test_synthesize_cold_and_warm(self, tiny_spec, d26_com4, which, name):
        spec = tiny_spec if which == "tiny" else d26_com4
        traces = [markov_trace(use_cases_for(spec), n_segments=24, seed=s) for s in (0, 1)]
        objective = make_objective(name, trace=traces[0], traces=traces)
        cfg = SynthesisConfig(max_intermediate=1, objective=objective)
        store = CacheStore.in_memory()
        with caching(store):
            synthesize(spec, config=cfg)
        with caching(CacheStore.in_memory()):
            assert _cyclic_garbage_after(lambda: synthesize(spec, config=cfg)) == 0
        with caching(store):
            assert _cyclic_garbage_after(lambda: synthesize(spec, config=cfg)) == 0
        assert store.stats.counters["hits.memory.space"] == 1

    def test_serial_grid_sweep(self, tiny_spec):
        store = CacheStore.in_memory()

        def sweep(store):
            with caching(store), ExplorationEngine(workers=1) as engine:
                engine.grid_exploration(
                    tiny_spec,
                    islands=[1, 2],
                    strategies=("logical", "communication"),
                    alphas=[0.4, 0.8],
                )

        sweep(store)
        assert _cyclic_garbage_after(lambda: sweep(CacheStore.in_memory())) == 0
        hits = store.stats.hits
        assert _cyclic_garbage_after(lambda: sweep(store)) == 0
        assert store.stats.hits - hits == 8
