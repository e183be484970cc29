"""Min-cut partitioner: correctness, constraints, determinism, quality."""

import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PartitionError, SynthesisConfig, partition_graph, synthesize
from repro.core import partition as partition_module
from repro.core import synthesis as synthesis_module
from repro.core.frequency import plan_all_islands
from repro.core.partition import IslandPartitioner, build_adjacency, cut_weight
from repro.core.vcg import build_all_vcgs, build_global_vcg
from repro.perf import recording
from repro.power.library import DEFAULT_LIBRARY
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import (
    communication_partitioning,
    island_count_sweep,
    logical_partitioning,
)

from _helpers import pin_fanout_width, python312_sum, space_signature
from _partition_reference import reference_partition


def two_clusters():
    """Two 4-cliques joined by one weak edge: the obvious bisection."""
    nodes = list("abcdefgh")
    w = {}
    for grp in ("abcd", "efgh"):
        for i, u in enumerate(grp):
            for v in grp[i + 1:]:
                w[(u, v)] = 10.0
    w[("d", "e")] = 0.5
    return nodes, w


class TestBasics:
    def test_k1_returns_everything(self):
        nodes, w = two_clusters()
        parts = partition_graph(nodes, w, 1)
        assert parts == [set(nodes)]

    def test_kn_returns_singletons(self):
        nodes, w = two_clusters()
        parts = partition_graph(nodes, w, len(nodes))
        assert all(len(p) == 1 for p in parts)
        assert set().union(*parts) == set(nodes)

    def test_k2_finds_the_obvious_cut(self):
        nodes, w = two_clusters()
        parts = partition_graph(nodes, w, 2)
        assert sorted(map(sorted, parts)) == [list("abcd"), list("efgh")]

    def test_cut_weight_of_obvious_cut(self):
        nodes, w = two_clusters()
        adj = build_adjacency(nodes, w)
        parts = partition_graph(nodes, w, 2)
        assert cut_weight(adj, parts) == pytest.approx(0.5)

    def test_k3_covers_all_nodes(self):
        nodes, w = two_clusters()
        parts = partition_graph(nodes, w, 3)
        assert set().union(*parts) == set(nodes)
        assert len(parts) == 3

    def test_disconnected_graph(self):
        nodes = ["a", "b", "c", "d"]
        parts = partition_graph(nodes, {}, 2)
        assert len(parts) == 2
        assert set().union(*parts) == set(nodes)


class TestConstraints:
    def test_rejects_k_too_large(self):
        with pytest.raises(PartitionError):
            partition_graph(["a", "b"], {}, 3)

    def test_rejects_k_zero(self):
        with pytest.raises(PartitionError):
            partition_graph(["a"], {}, 0)

    def test_rejects_duplicates(self):
        with pytest.raises(PartitionError):
            partition_graph(["a", "a"], {}, 1)

    def test_rejects_unknown_edge_nodes(self):
        with pytest.raises(PartitionError):
            partition_graph(["a"], {("a", "ghost"): 1.0}, 1)

    def test_rejects_negative_weights(self):
        with pytest.raises(PartitionError):
            partition_graph(["a", "b"], {("a", "b"): -1.0}, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        weights = {("a", "b"): bad, ("c", "d"): 1.0, ("b", "c"): 2.0}
        with pytest.raises(PartitionError, match=r"^edge \('a', 'b'\) has non-finite weight"):
            partition_graph(["a", "b", "c", "d"], weights, 2)

    def test_rejects_impossible_size_bound(self):
        with pytest.raises(PartitionError):
            partition_graph(list("abcdef"), {}, 2, max_part_size=2)

    def test_max_part_size_respected(self):
        nodes, w = two_clusters()
        for k in (2, 3, 4):
            parts = partition_graph(nodes, w, k, max_part_size=4)
            assert all(len(p) <= 4 for p in parts)

    def test_tight_size_bound(self):
        nodes, w = two_clusters()
        parts = partition_graph(nodes, w, 4, max_part_size=2)
        assert all(len(p) == 2 for p in parts)

    def test_unknown_method_rejected(self):
        with pytest.raises(PartitionError):
            partition_graph(["a", "b"], {}, 2, method="magic")


class TestDeterminism:
    def test_same_seed_same_result(self):
        nodes, w = two_clusters()
        a = partition_graph(nodes, w, 3)
        b = partition_graph(nodes, w, 3)
        assert a == b

    def test_node_order_irrelevant(self):
        nodes, w = two_clusters()
        a = partition_graph(nodes, w, 2)
        b = partition_graph(list(reversed(nodes)), w, 2)
        assert sorted(map(sorted, a)) == sorted(map(sorted, b))


class TestQuality:
    def test_fm_beats_or_matches_random_split(self):
        nodes, w = two_clusters()
        adj = build_adjacency(nodes, w)
        parts = partition_graph(nodes, w, 2)
        naive = [set("aceg"), set("bdfh")]  # interleaved: bad cut
        assert cut_weight(adj, parts) < cut_weight(adj, naive)

    def test_greedy_method_works(self):
        nodes, w = two_clusters()
        parts = partition_graph(nodes, w, 2, method="greedy")
        assert sorted(map(sorted, parts)) == [list("abcd"), list("efgh")]

    def test_heavy_pair_stays_together(self):
        nodes = ["a", "b", "c", "d"]
        w = {("a", "b"): 100.0, ("c", "d"): 0.1, ("b", "c"): 0.1}
        parts = partition_graph(nodes, w, 2)
        joined = [p for p in parts if "a" in p][0]
        assert "b" in joined


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    nodes = ["n%d" % i for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    edges = {}
    for _ in range(m):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            wt = draw(st.floats(min_value=0.0, max_value=100.0))
            edges[(nodes[i], nodes[j])] = wt
    k = draw(st.integers(min_value=1, max_value=n))
    return nodes, edges, k


class TestPartitionProperties:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_partition_is_a_cover(self, data):
        nodes, edges, k = data
        parts = partition_graph(nodes, edges, k)
        assert len(parts) == k
        # disjoint
        seen = set()
        for p in parts:
            assert p, "no empty parts"
            assert not (p & seen)
            seen |= p
        # covering
        assert seen == set(nodes)

    @given(random_graphs(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_size_bound_honoured_when_feasible(self, data, bound):
        nodes, edges, k = data
        if k * bound < len(nodes):
            return  # infeasible combination; rejection tested elsewhere
        parts = partition_graph(nodes, edges, k, max_part_size=bound)
        assert all(len(p) <= bound for p in parts)

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, data):
        nodes, edges, k = data
        assert partition_graph(nodes, edges, k) == partition_graph(nodes, edges, k)


def _answer(call):
    """A partition, or the message of the ``PartitionError`` it raised."""
    try:
        return call()
    except PartitionError as exc:
        return "PartitionError: %s" % exc


def _k_queries(draw, n):
    """Part counts to ask one partitioner: in and out of range, repeated."""
    ks = draw(st.lists(st.integers(min_value=0, max_value=n + 1), min_size=1, max_size=8))
    return ks + draw(st.lists(st.sampled_from(ks), max_size=4))


@st.composite
def graph_queries(draw):
    nodes, edges, _ = draw(random_graphs())
    bound = draw(st.none() | st.integers(min_value=1, max_value=len(nodes)))
    method = draw(st.sampled_from(["fm", "greedy"]))
    return nodes, edges, bound, method, _k_queries(draw, len(nodes))


@st.composite
def island_queries(draw):
    """An island VCG of a generated SoC, with its switch-size bound."""
    n_cores = draw(st.integers(min_value=8, max_value=40))
    spec = generate_soc(
        GeneratorConfig(
            name="isl%d" % n_cores,
            num_cores=n_cores,
            num_groups=max(1, min(4, n_cores // 3)),
            seed=draw(st.integers(min_value=0, max_value=999)),
        )
    )
    partition = draw(st.sampled_from([logical_partitioning, communication_partitioning]))
    spec = partition(spec, draw(st.integers(min_value=1, max_value=4)))
    plans = plan_all_islands(spec, DEFAULT_LIBRARY, 25.0, 100.0)
    vcgs = build_all_vcgs(spec, draw(st.sampled_from([0.2, 0.6, 1.0])))
    isl = draw(st.sampled_from(sorted(vcgs)))
    vcg = vcgs[isl]
    nodes = list(vcg.nodes)
    return nodes, vcg.symmetric_weights(), plans[isl].max_switch_size, "fm", _k_queries(
        draw, len(nodes)
    )


class TestIslandPartitioner:
    """One partitioner answering many part counts == fresh one-shot calls."""

    @staticmethod
    def assert_answers_match(case):
        nodes, edges, bound, method, ks = case
        partitioner = IslandPartitioner(nodes, edges, bound, method)
        for k in ks:
            assert _answer(lambda: partitioner.parts(k)) == _answer(
                lambda: partition_graph(nodes, edges, k, max_part_size=bound, method=method)
            ), k

    @given(graph_queries())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, case):
        self.assert_answers_match(case)

    @given(island_queries())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_generated_island_vcgs(self, case):
        self.assert_answers_match(case)

    def test_repeat_returns_memoized_answer(self):
        nodes, w = two_clusters()
        partitioner = IslandPartitioner(nodes, w)
        assert not partitioner.memoized(3)
        first = partitioner.parts(3)
        assert partitioner.memoized(3)
        assert partitioner.parts(3) is first

    def test_graph_errors_raise_at_construction(self):
        with pytest.raises(PartitionError, match="duplicate"):
            IslandPartitioner(["a", "a"], {})
        with pytest.raises(PartitionError, match="unknown partition method"):
            IslandPartitioner(["a", "b"], {}, method="magic")


@st.composite
def weighted_graphs(draw, max_nodes=60):
    """A graph of up to ``max_nodes`` nodes, a size bound and part counts.

    Node names come shuffled, as strings, ints (whose ``str`` order is
    not their numeric order) or a mix.  Weights come as floats, a few
    repeated values or mostly zeros, so gain ties are common; directed
    duplicates and self-loops accumulate or drop as usual.  The edges
    come from a seeded generator: drawing hundreds of edges one by one
    is slow and shrinks no better.
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = draw(st.sampled_from(["str", "int", "mixed"]))
    style = draw(st.sampled_from(["float", "ties", "zeros"]))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    nodes = [
        "v%d" % i if names == "str" or (names == "mixed" and i % 2) else i * 7
        for i in range(n)
    ]
    rng.shuffle(nodes)
    values = {"float": None, "ties": [0.5, 1.0, 2.0], "zeros": [0.0, 0.0, 1.0]}[style]
    edges = {}
    for _ in range(int(density * n * (n - 1) / 2)):
        pair = (rng.choice(nodes), rng.choice(nodes))
        edges[pair] = rng.uniform(0.0, 100.0) if values is None else rng.choice(values)
    bound = draw(st.none() | st.integers(min_value=1, max_value=n))
    ks = draw(st.lists(st.integers(min_value=0, max_value=n + 1), min_size=1, max_size=4))
    return nodes, edges, bound, ks


@st.composite
def generated_socs(draw, min_cores, max_cores):
    """A generated SoC and the island counts to split it into."""
    n_cores = draw(st.integers(min_value=min_cores, max_value=max_cores))
    spec = generate_soc(
        GeneratorConfig(
            name="oracle%d" % n_cores,
            num_cores=n_cores,
            num_groups=draw(st.integers(min_value=1, max_value=max(1, n_cores // 20))),
            seed=draw(st.integers(min_value=0, max_value=999)),
        )
    )
    counts = draw(
        st.lists(st.integers(min_value=1, max_value=n_cores), min_size=1, max_size=3, unique=True)
    )
    return spec, counts + [max(1, n_cores // 20)]


def assert_communication_specs_match_reference(spec, counts):
    """``island_count_sweep`` and ``communication_partitioning`` == the scans."""
    vcg = build_global_vcg(spec, 1.0)
    nodes, edges = list(vcg.nodes), vcg.symmetric_weights()
    swept = island_count_sweep(spec, counts, "communication")
    for count, got in zip(counts, swept):
        parts = sorted(reference_partition(nodes, edges, count), key=min)
        expected = {core: isl for isl, part in enumerate(parts) for core in part}
        assert got.vi_assignment == expected, count
    assert communication_partitioning(spec, counts[-1]) == swept[-1]


def assert_graph_partitions_match_reference(nodes, edges, bound, ks):
    partitioner = IslandPartitioner(nodes, edges, bound)
    for k in ks:
        assert _answer(lambda: partitioner.parts(k)) == _answer(
            lambda: reference_partition(nodes, edges, k, bound)
        ), k


class TestHeapOracle:
    """The heap-driven partitioner returns what the O(V^2) scan returns.

    ``_partition_reference.reference_partition`` keeps the scan form:
    the same partitions, or a ``PartitionError`` with the same text.
    """

    @given(weighted_graphs())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_weighted_graphs(self, case):
        assert_graph_partitions_match_reference(*case)

    @given(generated_socs(8, 60))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_communication_partitioning_of_generated_socs(self, case):
        assert_communication_specs_match_reference(*case)

    @pytest.mark.slow
    @given(generated_socs(100, 480))
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_communication_partitioning_of_large_generated_socs(self, case):
        assert_communication_specs_match_reference(*case)


@pytest.mark.usefixtures(python312_sum.__name__)
class TestHeapOracleUnderPython312Sum:
    """The oracle comparison again where ``sum`` compensates, as on
    Python 3.12 and later: gains and costs must be added up as the scan
    form adds them."""

    @given(weighted_graphs())
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_weighted_graphs(self, case):
        assert_graph_partitions_match_reference(*case)

    @given(generated_socs(8, 60))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_communication_partitioning_of_generated_socs(self, case):
        assert_communication_specs_match_reference(*case)


#: Bisections computed while synthesizing the generated 80-core spec
#: below: fast path (one partitioner per island) and reference mode.
PINNED_BISECTIONS = {True: 296, False: 684}
#: The fast path's bisections per chunk when the switch-count steps are
#: dealt round-robin over 2 processes: an even split, 48 more in all.
PINNED_CHUNK_BISECTIONS = [172, 172]


def _gen80():
    return communication_partitioning(
        generate_soc(GeneratorConfig(name="gen80", num_cores=80, num_groups=4, seed=0)),
        4,
    )


class TestPinnedWork:
    """Step-11 work on the 80-core spec ``test_kernel_parity`` pins routing on.

    The bisection mock counts calls in this process only, so the
    synthesis runs are pinned to one process.
    """

    def test_generated_80_core_bisections(self, monkeypatch):
        spec = _gen80()
        pin_fanout_width(monkeypatch, 1)
        bisect = mock.Mock(wraps=partition_module._bisect)
        monkeypatch.setattr(partition_module, "_bisect", bisect)
        got, signatures = {}, {}
        for caches in (True, False):
            bisect.reset_mock()
            with recording() as rec:
                space = synthesize(spec, config=SynthesisConfig(enable_caches=caches))
            got[caches] = bisect.call_count
            signatures[caches] = space_signature(space)
            counts = (
                rec.counters.get("partition_cache_hits", 0),
                rec.counters.get("partition_cache_misses", 0),
            )
            assert counts == ((0, 80) if caches else (0, 0)), counts
        assert got == PINNED_BISECTIONS, got
        assert signatures[True] == signatures[False]

    def test_round_robin_chunks_split_the_bisections_evenly(self, monkeypatch):
        spec = _gen80()
        config = SynthesisConfig()
        plans = plan_all_islands(
            spec, DEFAULT_LIBRARY, config.freq_step_mhz, config.min_freq_mhz
        )
        bisect = mock.Mock(wraps=partition_module._bisect)
        monkeypatch.setattr(partition_module, "_bisect", bisect)
        split = []
        for chunk in (0, 1):
            bisect.reset_mock()
            list(
                synthesis_module._candidate_pass(
                    spec, DEFAULT_LIBRARY, config, plans, chunk, 2
                )
            )
            split.append(bisect.call_count)
        assert split == PINNED_CHUNK_BISECTIONS
