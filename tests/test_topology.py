"""Topology container: construction invariants and queries."""

import pytest

from repro import DEFAULT_LIBRARY, INTERMEDIATE_ISLAND, Topology, ValidationError
from repro.arch.topology import ni_id, switch_id


@pytest.fixture
def empty_topo(tiny_spec):
    return Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})


class TestIds:
    def test_switch_id_format(self):
        assert switch_id(0, 1) == "sw0.1"
        assert switch_id(INTERMEDIATE_ISLAND, 0) == "swM.0"

    def test_ni_id_format(self):
        assert ni_id("cpu") == "ni.cpu"


class TestConstruction:
    def test_add_switch(self, empty_topo):
        sw = empty_topo.add_switch(0, 0)
        assert sw.island == 0
        assert sw.freq_mhz == 200.0
        assert sw.size == 0

    def test_duplicate_switch_rejected(self, empty_topo):
        empty_topo.add_switch(0, 0)
        with pytest.raises(ValidationError):
            empty_topo.add_switch(0, 0)

    def test_switch_needs_planned_island(self, empty_topo):
        with pytest.raises(ValidationError):
            empty_topo.add_switch(5, 0)

    def test_attach_core_creates_two_links(self, empty_topo):
        sw = empty_topo.add_switch(0, 0)
        empty_topo.attach_core("cpu", sw)
        assert sw.n_in == 1 and sw.n_out == 1
        assert empty_topo.link_between("ni.cpu", sw.id) is not None
        assert empty_topo.link_between(sw.id, "ni.cpu") is not None

    def test_attach_across_islands_rejected(self, empty_topo):
        sw = empty_topo.add_switch(1, 0)
        with pytest.raises(ValidationError, match="may not attach"):
            empty_topo.attach_core("cpu", sw)  # cpu lives in island 0

    def test_double_attach_rejected(self, empty_topo):
        sw = empty_topo.add_switch(0, 0)
        empty_topo.attach_core("cpu", sw)
        with pytest.raises(ValidationError):
            empty_topo.attach_core("cpu", sw)

    def test_open_link_counts_ports(self, empty_topo):
        a = empty_topo.add_switch(0, 0)
        b = empty_topo.add_switch(0, 1)
        empty_topo.open_link(a.id, b.id)
        assert a.n_out == 1 and b.n_in == 1

    def test_cross_island_link_gets_converter_and_min_freq(self, empty_topo):
        a = empty_topo.add_switch(0, 0)
        b = empty_topo.add_switch(1, 0)
        link = empty_topo.open_link(a.id, b.id)
        assert link.converter
        assert link.freq_mhz == 100.0  # min of 200 and 100
        assert link.capacity_mbps == DEFAULT_LIBRARY.link_capacity_mbps(100.0)

    def test_intra_island_link_has_no_converter(self, empty_topo):
        a = empty_topo.add_switch(0, 0)
        b = empty_topo.add_switch(0, 1)
        assert not empty_topo.open_link(a.id, b.id).converter

    def test_parallel_links_allowed(self, empty_topo):
        a = empty_topo.add_switch(0, 0)
        b = empty_topo.add_switch(0, 1)
        empty_topo.open_link(a.id, b.id)
        empty_topo.open_link(a.id, b.id)
        assert len(empty_topo.links_between(a.id, b.id)) == 2


class TestRoutes:
    def _route_setup(self, topo, spec):
        sw0 = topo.add_switch(0, 0)
        for c in spec.cores_in_island(0):
            topo.attach_core(c, sw0)
        return sw0

    def test_assign_route_charges_links(self, tiny_spec):
        topo = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        self._route_setup(topo, tiny_spec)
        flow = tiny_spec.flow("cpu", "mem")
        l1 = topo.link_between("ni.cpu", "sw0.0")
        l2 = topo.link_between("sw0.0", "ni.mem")
        route = topo.assign_route(flow, [l1.id, l2.id])
        assert route.num_switches == 1
        assert l1.used_mbps == flow.bandwidth_mbps
        assert l1.residual_mbps == pytest.approx(l1.capacity_mbps - 400.0)

    def test_route_must_join_the_flow_nis(self, tiny_spec):
        topo = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        self._route_setup(topo, tiny_spec)
        flow = tiny_spec.flow("cpu", "mem")
        l1 = topo.link_between("ni.acc", "sw0.0")
        l2 = topo.link_between("sw0.0", "ni.mem")
        with pytest.raises(ValidationError):
            topo.assign_route(flow, [l1.id, l2.id])

    def test_discontinuous_route_rejected(self, tiny_spec):
        topo = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        self._route_setup(topo, tiny_spec)
        flow = tiny_spec.flow("cpu", "mem")
        l1 = topo.link_between("ni.cpu", "sw0.0")
        l2 = topo.link_between("ni.mem", "sw0.0")  # wrong direction
        with pytest.raises(ValidationError):
            topo.assign_route(flow, [l1.id, l2.id])

    def test_over_capacity_rejected(self, tiny_spec):
        topo = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 50.0, 1: 100.0})
        self._route_setup(topo, tiny_spec)
        flow = tiny_spec.flow("cpu", "mem")  # 400 MB/s > 200 MB/s cap
        l1 = topo.link_between("ni.cpu", "sw0.0")
        l2 = topo.link_between("sw0.0", "ni.mem")
        with pytest.raises(ValidationError, match="capacity"):
            topo.assign_route(flow, [l1.id, l2.id])

    def test_double_route_rejected(self, tiny_spec):
        topo = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        self._route_setup(topo, tiny_spec)
        flow = tiny_spec.flow("cpu", "mem")
        l1 = topo.link_between("ni.cpu", "sw0.0")
        l2 = topo.link_between("sw0.0", "ni.mem")
        topo.assign_route(flow, [l1.id, l2.id])
        with pytest.raises(ValidationError):
            topo.assign_route(flow, [l1.id, l2.id])


class TestQueries(object):
    def test_queries_on_synthesized(self, tiny_best, tiny_spec):
        topo = tiny_best.topology
        # every core attached, in its own island
        for core in tiny_spec.core_names:
            sw = topo.switch_of_core(core)
            assert sw.island == tiny_spec.island_of(core)
        # islands_touched subset rule spot-check
        for flow in tiny_spec.flows:
            touched = topo.islands_touched(flow.key)
            allowed = {
                tiny_spec.island_of(flow.src),
                tiny_spec.island_of(flow.dst),
                INTERMEDIATE_ISLAND,
            }
            assert touched <= allowed

    def test_unknown_core_lookup_raises(self, tiny_best):
        with pytest.raises(ValidationError):
            tiny_best.topology.switch_of_core("ghost")

    def test_summary_mentions_counts(self, tiny_best):
        s = tiny_best.topology.summary()
        assert "switches" in s and "flows routed" in s
