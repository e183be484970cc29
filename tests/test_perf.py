"""Fast-path plumbing: instrumentation, cost memos, determinism.

The synthesis fast path (partition memoization, edge-cost memos, the
routing shortcuts and the open-edge class and intermediate-dominance
skips) is only acceptable if it is invisible in the results:
``enable_caches`` on and off must yield bit-identical design spaces —
exact floats, no rounding, so any drift in accumulation order or
tie-breaking fails here before it can silently move a benchmark
number.  These tests pin that contract, plus the PerfRecorder used to
observe the hot path.
"""

from __future__ import annotations

import pytest

from repro import SynthesisConfig, synthesize
from repro.core.objective import StaticLatencyObjective
from repro.core.paths import PathAllocator, PathCostConfig
from repro.perf import PerfRecorder, active_recorder, recording
from repro.power.library import DEFAULT_LIBRARY

from _helpers import STEEP_SLOPE_LIBRARY, make_tiny_spec, space_signature


class TestPerfRecorder:
    def test_counters_accumulate(self):
        rec = PerfRecorder()
        rec.count("pops")
        rec.count("pops", 41)
        assert rec.counters == {"pops": 42}

    def test_phase_timers_accumulate(self):
        rec = PerfRecorder()
        with rec.phase("alloc"):
            pass
        with rec.phase("alloc"):
            pass
        assert rec.phase_seconds["alloc"] >= 0.0
        snap = rec.snapshot()
        assert set(snap) == {"counters", "phase_seconds"}

    def test_recording_installs_and_restores(self):
        assert active_recorder() is None
        with recording() as outer:
            assert active_recorder() is outer
            with recording() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer
        assert active_recorder() is None

    def test_reset(self):
        rec = PerfRecorder()
        rec.count("x")
        with rec.phase("p"):
            pass
        rec.reset()
        assert rec.counters == {} and rec.phase_seconds == {}

    def test_synthesis_emits_counters(self, tiny_spec):
        with recording() as rec:
            synthesize(tiny_spec, config=SynthesisConfig(max_intermediate=1))
        assert rec.counters["dijkstra_pops"] > 0
        assert rec.counters["edge_evals"] > 0
        assert rec.counters["links_opened"] > 0
        assert rec.counters["scaffold_builds"] > 0
        assert "scaffold_clones" not in rec.counters
        assert rec.counters["partition_cache_misses"] > 0
        for phase in ("partitioning", "allocation", "evaluation"):
            assert rec.phase_seconds[phase] >= 0.0

    def test_uncached_run_emits_no_cache_hits(self, tiny_spec):
        with recording() as rec:
            synthesize(
                tiny_spec,
                config=SynthesisConfig(max_intermediate=1, enable_caches=False),
            )
        assert rec.counters.get("cost_cache_hits", 0) == 0
        assert rec.counters.get("partition_cache_hits", 0) == 0
        assert rec.counters["scaffold_builds"] > 0


class TestAllocatorCaching:
    def test_allocator_cached_matches_uncached(self, tiny_spec):
        from repro.core.frequency import plan_all_islands
        from repro.core.partition import partition_graph
        from repro.core.vcg import build_all_vcgs

        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY, 25.0, 100.0)
        vcgs = build_all_vcgs(tiny_spec, 0.6)
        partitions = {
            isl: partition_graph(
                list(vcgs[isl].nodes),
                vcgs[isl].symmetric_weights(),
                2,
                max_part_size=plans[isl].max_switch_size,
            )
            for isl in plans
        }
        results = {}
        for use_cache in (True, False):
            alloc = PathAllocator(
                tiny_spec, DEFAULT_LIBRARY, plans, partitions, use_cache=use_cache
            )
            out = []
            for k_mid in (0, 1, 0, 1):  # repeats reuse state kept across attempts
                res = alloc.allocate(num_intermediate=k_mid)
                assert res.success
                topo = res.require_topology()
                out.append(
                    (
                        sorted(topo.switches),
                        sorted(
                            (l.src, l.dst, l.kind, tuple(l.flows))
                            for l in topo.links.values()
                        ),
                        res.links_opened,
                    )
                )
            results[use_cache] = out
        assert results[True] == results[False]


class TestIntermediateDominanceSkip:
    def test_skip_counter_and_equivalence(self, d26_log6):
        """When the k=0 routing is never blocked, k>0 attempts are
        skipped — and the skip must be invisible in the results (the
        uncached reference run routes every attempt in full)."""
        cfg = dict(max_intermediate=2)
        with recording() as rec:
            cached = synthesize(
                d26_log6, config=SynthesisConfig(enable_caches=True, **cfg)
            )
        assert rec.counters.get("intermediate_attempts_skipped", 0) > 0
        uncached = synthesize(
            d26_log6, config=SynthesisConfig(enable_caches=False, **cfg)
        )
        assert space_signature(cached) == space_signature(uncached)

    def test_skip_disabled_without_caches(self, tiny_spec):
        with recording() as rec:
            synthesize(
                tiny_spec,
                config=SynthesisConfig(max_intermediate=1, enable_caches=False),
            )
        assert rec.counters.get("intermediate_attempts_skipped", 0) == 0


class TestSynthesisDeterminism:
    """Cached fast path vs the ``enable_caches=False`` reference."""

    def assert_identical_spaces(self, spec, library=DEFAULT_LIBRARY, **cfg):
        cached = synthesize(spec, library, config=SynthesisConfig(**cfg))
        reference = synthesize(
            spec, library, config=SynthesisConfig(enable_caches=False, **cfg)
        )
        assert space_signature(cached) == space_signature(reference)

    def test_tiny_spec_identical(self):
        self.assert_identical_spaces(make_tiny_spec(2), max_intermediate=1)

    def test_tiny_default_config_identical(self, tiny_spec):
        self.assert_identical_spaces(tiny_spec)

    def test_tiny_single_island_identical(self, tiny_spec_1isl):
        self.assert_identical_spaces(tiny_spec_1isl)

    def test_tiny_intermediate_sweep_identical(self, tiny_spec):
        self.assert_identical_spaces(tiny_spec, max_intermediate=2)

    def test_tiny_spec_3_islands_identical(self):
        self.assert_identical_spaces(make_tiny_spec(3), max_intermediate=1)

    def test_mobile_soc_identical(self, d26_log6):
        self.assert_identical_spaces(d26_log6, max_intermediate=1)

    def test_mobile_soc_communication_identical(self, d26_com4):
        self.assert_identical_spaces(d26_com4, max_intermediate=1)

    @pytest.mark.parametrize(
        "library, allow_parallel_links",
        [
            pytest.param(STEEP_SLOPE_LIBRARY, True, id="steep-slope"),
            pytest.param(DEFAULT_LIBRARY, False, id="no-parallel-links"),
        ],
    )
    def test_mobile_soc_communication_variants_identical(
        self, d26_com4, library, allow_parallel_links
    ):
        """Binding port limits and the no-parallel-links policy reach
        the search branches the default library rarely does."""
        self.assert_identical_spaces(
            d26_com4,
            library,
            max_intermediate=1,
            path_cost=PathCostConfig(allow_parallel_links=allow_parallel_links),
        )

    def test_objective_costs_identical(self, tiny_spec):
        self.assert_identical_spaces(tiny_spec, objective=StaticLatencyObjective())

    def test_alpha_rerun_identical(self):
        """Alpha reweights the VCGs, so it changes the partitions: a run
        right after one at another alpha must still match the reference."""
        from repro.soc.benchmarks import load_benchmark
        from repro.soc.partitioning import logical_partitioning

        spec = logical_partitioning(load_benchmark("d12_auto"), 2)
        for alpha in (0.4, 0.8):
            self.assert_identical_spaces(spec, alpha=alpha, max_intermediate=1)

    @pytest.mark.slow
    def test_d38_identical(self):
        from repro.soc.benchmarks import load_benchmark
        from repro.soc.partitioning import communication_partitioning

        spec = communication_partitioning(load_benchmark("d38_media"), 4)
        self.assert_identical_spaces(spec, max_intermediate=1)
