"""VI communication graphs (Definition 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SpecError, build_all_vcgs, build_global_vcg, build_vcg
from repro.core.vcg import edge_weight


class TestEdgeWeight:
    def test_pure_bandwidth_alpha1(self):
        assert edge_weight(50.0, 10.0, 100.0, 5.0, 1.0) == pytest.approx(0.5)

    def test_pure_latency_alpha0(self):
        assert edge_weight(50.0, 10.0, 100.0, 5.0, 0.0) == pytest.approx(0.5)

    def test_definition_formula(self):
        # h = a*bw/max_bw + (1-a)*min_lat/lat
        h = edge_weight(30.0, 20.0, 60.0, 10.0, 0.6)
        assert h == pytest.approx(0.6 * 0.5 + 0.4 * 0.5)

    def test_max_bandwidth_flow_with_tightest_latency_scores_1(self):
        assert edge_weight(100.0, 5.0, 100.0, 5.0, 0.3) == pytest.approx(1.0)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(SpecError):
            edge_weight(1.0, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(SpecError):
            edge_weight(1.0, 1.0, 1.0, 1.0, -0.1)

    @given(
        st.floats(min_value=0.1, max_value=1000.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_weight_in_unit_interval(self, bw, lat, alpha):
        max_bw, min_lat = 1000.0, 1.0
        h = edge_weight(bw, lat, max_bw, min_lat, alpha)
        assert 0.0 <= h <= 1.0 + 1e-12


class TestBuildVcg:
    def test_island_vcg_contains_only_local_flows(self, tiny_spec):
        vcg = build_vcg(tiny_spec, 0)
        assert set(vcg.nodes) == {"cpu", "mem", "acc"}
        assert ("cpu", "mem") in vcg.edges
        assert ("cpu", "io0") not in vcg.edges  # cross-island flow

    def test_len_is_core_count(self, tiny_spec):
        assert len(build_vcg(tiny_spec, 0)) == 3
        assert len(build_vcg(tiny_spec, 1)) == 3

    def test_unknown_island_rejected(self, tiny_spec):
        with pytest.raises(SpecError):
            build_vcg(tiny_spec, 9)

    def test_normalization_is_global(self, tiny_spec):
        # max_bw (480) lives in island 0; island 1 weights use it too,
        # so the io0->io1 40 MB/s flow scores 40/480 on the bw term.
        vcg1 = build_vcg(tiny_spec, 1, alpha=1.0)
        assert vcg1.edges[("io0", "io1")] == pytest.approx(40.0 / 480.0)

    def test_weight_zero_for_non_communicating(self, tiny_spec):
        vcg = build_vcg(tiny_spec, 0)
        assert ("acc", "cpu") not in vcg.edges

    def test_build_all(self, tiny_spec):
        vcgs = build_all_vcgs(tiny_spec)
        assert set(vcgs) == {0, 1}

    def test_symmetric_weights_fold_antiparallel(self, tiny_spec):
        vcg = build_vcg(tiny_spec, 0, alpha=1.0)
        sym = vcg.symmetric_weights()
        expected = vcg.edges[("cpu", "mem")] + vcg.edges[("mem", "cpu")]
        assert sym[("cpu", "mem")] == pytest.approx(expected)


class TestGlobalVcg:
    def test_contains_every_flow(self, tiny_spec):
        g = build_global_vcg(tiny_spec)
        assert len(g.edges) == len(tiny_spec.flows)
        assert g.island is None

    def test_nodes_are_all_cores(self, tiny_spec):
        g = build_global_vcg(tiny_spec)
        assert set(g.nodes) == set(tiny_spec.core_names)
