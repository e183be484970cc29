"""One ``synthesize`` call fanned out over its switch-count steps.

``synthesis._fanout_width`` decides how many processes share a call's
candidate pass.  Most tests here pin it (``pin_fanout_width``) so they
run the same on any host.  A fanned-out pass must be the one-process
pass exactly: the same outcomes in the same order, the same stored
record, and the same routing counters once the workers' snapshots merge.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DEFAULT_LIBRARY, SynthesisConfig, synthesize
from repro.cache import CacheStore, caching
from repro.cache.signatures import design_space_signature
from repro.core import synthesis
from repro.core.design_point import DesignPoint
from repro.core.explore import ExplorationEngine
from repro.perf import recording
from repro.soc.benchmarks import load_benchmark
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning

from _helpers import pin_fanout_width, space_signature

ROUTING_COUNTERS = (
    "dijkstra_pops",
    "edge_evals",
    "direct_open_shortcuts",
    "links_opened",
    "intermediate_attempts_skipped",
    "cost_cache_hits",
    "cost_cache_misses",
    "scaffold_builds",
)


def generated(n_cores: int, seed: int = 0, islands: int = 0):
    """A generated SoC split like the benchmark's: ``n // 20`` islands."""
    islands = islands or n_cores // 20
    soc = generate_soc(
        GeneratorConfig(
            name="gen%d" % n_cores, num_cores=n_cores, num_groups=islands, seed=seed
        )
    )
    return communication_partitioning(soc, islands)


@pytest.fixture(scope="module")
def gen40():
    return generated(40)


@pytest.fixture(scope="module")
def gen80():
    return generated(80)


@pytest.fixture(scope="module")
def uneven40():
    """40 cores logically split into 2 islands of unequal size: some
    candidates fail to route, and the smaller island saturates before
    the sweep's last step."""
    soc = generate_soc(GeneratorConfig(name="uneven40", num_cores=40, num_groups=4, seed=0))
    return logical_partitioning(soc, 2)


def cold_outcomes(spec, width, monkeypatch, config=None):
    """The candidate pass's outcome list, dealt over ``width`` processes."""
    pin_fanout_width(monkeypatch, width)
    return list(synthesis._cold_pass(spec, DEFAULT_LIBRARY, config or SynthesisConfig()))


def outcome_identity(outcomes):
    """Each outcome as comparable values: a failure as is, a point by
    its index, label, exact metrics and routes."""
    out = []
    for o in outcomes:
        if isinstance(o, DesignPoint):
            routes = sorted(
                (k, r.components, r.links) for k, r in o.topology.routes.items()
            )
            out.append((o.index, o.label(), o.power_mw, o.avg_latency_cycles, routes))
        else:
            out.append(o)
    return out


class ChunkFailure(Exception):
    """Raised inside a worker's chunk (module level, so it pickles)."""


@pytest.fixture
def four_cpus(monkeypatch):
    """A host with 4 usable CPUs, and no other thread in this process
    (a stray executor thread left by another test would otherwise keep
    every call in one process)."""
    monkeypatch.setattr(synthesis, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(threading, "active_count", lambda: 1)


class TestSelection:
    """Which calls fan out, on what the process can observe."""

    def test_large_spec_fans_out_over_min_cpus_steps(self, gen40, four_cpus):
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 20) == 4
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 3) == 3

    @pytest.mark.parametrize("name", ["d26_media", "d38_media"])
    def test_builtin_benchmarks_stay_in_one_process(self, name, four_cpus):
        spec = logical_partitioning(load_benchmark(name), 4)
        assert len(spec.cores) < synthesis._FANOUT_MIN_CORES
        assert synthesis._fanout_width(spec, SynthesisConfig(), 20) == 1

    def test_reference_mode_and_one_step_stay_in_one_process(self, gen40, four_cpus):
        reference = SynthesisConfig(enable_caches=False)
        assert synthesis._fanout_width(gen40, reference, 20) == 1
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 1) == 1

    def test_one_cpu_stays_in_one_process(self, gen40, four_cpus, monkeypatch):
        monkeypatch.setattr(synthesis, "_usable_cpus", lambda: 1)
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 20) == 1

    def test_other_start_method_stays_in_one_process(self, gen40, four_cpus, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_start_method", lambda allow_none=False: "spawn"
        )
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 20) == 1

    def test_another_running_thread_keeps_one_process(self, gen40, four_cpus, monkeypatch):
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 20) == 1

    def test_sweep_pool_workers_never_fan_out(self, gen40, four_cpus, monkeypatch):
        """A ``workers=2`` sweep of an above-threshold spec: its workers
        inherit this process's selection, and would fan every task out
        again if they did not know they are workers.  The caller, which
        would fan out, runs no task."""

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep worker fanned its task out")

        monkeypatch.setattr(synthesis, "_fanned_out_pass", refuse)
        assert synthesis._fanout_width(gen40, SynthesisConfig(), 20) == 4
        with ExplorationEngine(workers=2) as engine:
            records = engine.alpha_exploration(gen40, [0.4, 0.8])
        assert [r.feasible for r in records] == [True, True]


class TestMerge:
    """The merged outcome list is the one-process list, object for object."""

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_outcomes_points_and_indices_match(self, gen40, width, monkeypatch):
        one = cold_outcomes(gen40, 1, monkeypatch)
        many = cold_outcomes(gen40, width, monkeypatch)
        assert outcome_identity(many) == outcome_identity(one)
        assert design_space_signature(many) == design_space_signature(one)
        for o in many:
            if isinstance(o, DesignPoint):
                assert o.topology.spec is gen40
                assert o.topology.library is DEFAULT_LIBRARY

    def test_failures_keep_their_place(self, uneven40, monkeypatch):
        """The failures of both chunks interleave back into sweep order."""
        one = cold_outcomes(uneven40, 1, monkeypatch)
        many = cold_outcomes(uneven40, 2, monkeypatch)
        assert sum(not isinstance(o, DesignPoint) for o in one) == 4
        assert outcome_identity(many) == outcome_identity(one)

    def test_store_miss_records_the_one_process_record(self, gen40, monkeypatch):
        store = CacheStore.in_memory()
        pin_fanout_width(monkeypatch, 2)
        with caching(store):
            fanned = synthesize(gen40)
        pin_fanout_width(monkeypatch, 1)
        with caching(store):
            hit = synthesize(gen40)
        assert store.stats.hits == 1 and store.stats.misses == 1
        with caching(CacheStore.in_memory()):
            assert space_signature(synthesize(gen40)) == space_signature(hit)
        assert space_signature(fanned) == space_signature(hit)


class TestCounters:
    def test_merged_counters_equal_the_one_process_run(self, gen80, monkeypatch):
        got = {}
        for width in (1, 2):
            pin_fanout_width(monkeypatch, width)
            with recording() as rec:
                synthesize(gen80)
            got[width] = rec
        keys = ROUTING_COUNTERS + ("partition_cache_misses",)
        assert {k: got[2].counters.get(k) for k in keys} == {
            k: got[1].counters.get(k) for k in keys
        }
        # The worker's share arrives as its own stream, same span names.
        assert {s.process for s in got[2].spans} == {"main", "chunk1"}
        assert sorted(s.name for s in got[2].spans) == sorted(s.name for s in got[1].spans)

    def test_repeated_part_counts_miss_once_per_chunk(self, uneven40, monkeypatch):
        """An island that saturates before the last step asks for its
        last part count again at every later step.  One process misses
        it once; each chunk's partitioner misses it once.  Lookups still
        sum to the one-process run's, and routing is unchanged."""
        got = {}
        for width in (1, 2):
            pin_fanout_width(monkeypatch, width)
            with recording() as rec:
                synthesize(uneven40)
            got[width] = rec.counters
        hits, misses = "partition_cache_hits", "partition_cache_misses"
        assert got[1][hits] == 16
        assert got[2][misses] == got[1][misses] + 1
        assert got[2][hits] + got[2][misses] == got[1][hits] + got[1][misses]
        for key in ROUTING_COUNTERS:
            assert got[2][key] == got[1][key], key


class TestWorkers:
    def test_worker_exception_reaches_the_caller(self, gen40, monkeypatch):
        original = synthesis._candidate_pass

        def failing(spec, library, cfg, plans, chunk=0, width=1):
            if chunk == 1:
                raise ChunkFailure("chunk 1 of %d" % width)
            return original(spec, library, cfg, plans, chunk, width)

        monkeypatch.setattr(synthesis, "_candidate_pass", failing)
        pin_fanout_width(monkeypatch, 2)
        with pytest.raises(ChunkFailure, match="chunk 1 of 2"):
            synthesize(gen40)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self, gen40, monkeypatch):
        original = synthesis._candidate_pass

        def dying(spec, library, cfg, plans, chunk=0, width=1):
            if chunk == 1:
                os._exit(3)
            return original(spec, library, cfg, plans, chunk, width)

        monkeypatch.setattr(synthesis, "_candidate_pass", dying)
        pin_fanout_width(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="chunk 1: worker exited without a result"):
            synthesize(gen40)
        assert multiprocessing.active_children() == []


@st.composite
def large_socs(draw):
    n_cores = draw(st.integers(min_value=40, max_value=56))
    seed = draw(st.integers(min_value=0, max_value=999))
    soc = generate_soc(
        GeneratorConfig(
            name="fan%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=draw(st.integers(min_value=2, max_value=4)),
            seed=seed,
        )
    )
    return soc, draw(st.integers(min_value=2, max_value=4))


@given(large_socs())
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_every_width_matches_the_reference_path(monkeypatch, soc_islands):
    """Widths 1-4 against ``enable_caches=False``, under both partitionings."""
    soc, islands = soc_islands
    config = SynthesisConfig(max_intermediate=1)
    reference_config = SynthesisConfig(max_intermediate=1, enable_caches=False)
    for partition in (logical_partitioning, communication_partitioning):
        spec = partition(soc, islands)
        reference = synthesize(spec, config=reference_config)
        for width in (1, 2, 3, 4):
            pin_fanout_width(monkeypatch, width)
            space = synthesize(spec, config=config)
            assert space_signature(space) == space_signature(reference), width
            assert space.failures == reference.failures, width
