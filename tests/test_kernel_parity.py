"""Routing-kernel parity: the direct-open shortcut against the search.

Every flow is routed by one kernel: the direct-reuse shortcut, then the
direct-open dominance shortcut (fast path only), then the Dijkstra
:meth:`PathAllocator._search`.  The dominance proof promises that
whenever :meth:`PathAllocator._direct_open_shortcut` answers, the search
would return exactly the same answer.  Three checks hold it to that:

* flow by flow, on generated SoCs, every shortcut answer is re-derived
  by the reference search (no memos) on the same allocator state and
  must be the identical hop list and zero-load latency;
* run by run, on the shared fixtures, synthesis with the shortcut
  switched off — every flow it would answer goes to the search, all
  other fast-path memos stay on — yields a bit-identical design space;
* reference mode (``enable_caches=False``) never takes the shortcut,
  so the cached-vs-reference tests in ``test_perf.py`` check it too.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import SynthesisConfig, synthesize
from repro.core.objective import StaticLatencyObjective
from repro.core.paths import PathAllocator
from repro.perf import recording
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning

from _helpers import space_signature


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
