"""Routing views, structural validation and the topology's pickled form."""

import copy
import pickle
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SynthesisConfig, ValidationError, synthesize, validate_topology
from repro.arch.deadlock import break_deadlock_cycles
from repro.arch.routing import (
    channel_dependency_graph,
    find_cdg_cycle,
    flows_through_switch,
    hop_histogram,
    is_deadlock_free,
    route_table,
)
from repro.arch.topology import Link, NetworkInterface, Route, Switch
from repro.arch.validate import audit_shutdown_safety
from repro.baseline.flat import synthesize_vi_oblivious
from repro.soc.generator import GeneratorConfig, generate_soc, hub_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning

from _helpers import make_allocation, make_cyclic_topology


class TestRouteTable:
    def test_covers_flows_through_switch(self, tiny_best, tiny_spec):
        topo = tiny_best.topology
        for sid in topo.switches:
            table = route_table(topo, sid)
            for key, nxt in table.items():
                route = topo.routes[key]
                i = route.components.index(sid)
                assert route.components[i + 1] == nxt

    def test_unknown_switch_raises(self, tiny_best):
        with pytest.raises(ValidationError):
            route_table(tiny_best.topology, "sw9.9")

    def test_flows_through_switch_consistent(self, tiny_best):
        topo = tiny_best.topology
        total = sum(len(flows_through_switch(topo, s)) for s in topo.switches)
        expected = sum(r.num_switches for r in topo.routes.values())
        assert total == expected


class TestDeadlock:
    def test_cdg_nodes_are_links(self, tiny_best):
        topo = tiny_best.topology
        cdg = channel_dependency_graph(topo)
        assert set(cdg) == set(topo.links)

    def test_synthesized_designs_deadlock_free(self, tiny_space):
        # The island-transition DAG plus NI-rooted trees makes cycles
        # unlikely; every saved point should pass the Dally/Seitz check.
        for point in tiny_space:
            assert is_deadlock_free(point.topology)

    def test_d26_points_deadlock_free(self, d26_space):
        for point in list(d26_space)[:5]:
            assert find_cdg_cycle(point.topology) is None

    def test_hop_histogram(self, tiny_best, tiny_spec):
        hist = hop_histogram(tiny_best.topology)
        assert sum(hist.values()) == len(tiny_spec.flows)
        assert all(k >= 1 for k in hist)


class TestValidate:
    def test_synthesized_topology_passes(self, tiny_best):
        validate_topology(tiny_best.topology)

    def test_audit_clean_on_synthesized(self, tiny_best):
        assert audit_shutdown_safety(tiny_best.topology) == []

    def test_detects_missing_route(self, tiny_spec):
        from repro import DEFAULT_LIBRARY, Topology

        topo = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        sw = topo.add_switch(0, 0)
        for c in tiny_spec.cores_in_island(0):
            topo.attach_core(c, sw)
        with pytest.raises(ValidationError, match="not attached"):
            validate_topology(topo)

    def test_detects_port_bookkeeping_corruption(self, tiny_space):
        import copy

        point = tiny_space.points[0]
        topo = copy.deepcopy(point.topology)
        some_switch = next(iter(topo.switches.values()))
        some_switch.n_in += 1
        with pytest.raises(ValidationError, match="bookkeeping"):
            validate_topology(topo)

    def test_detects_size_bound_violation(self, tiny_best):
        tight = {isl: 1 for isl in tiny_best.topology.island_freqs}
        with pytest.raises(ValidationError, match="max size"):
            validate_topology(tiny_best.topology, max_switch_sizes=tight)

    def test_detects_overloaded_link(self, tiny_space):
        import copy

        topo = copy.deepcopy(tiny_space.points[0].topology)
        link = next(l for l in topo.links.values() if l.kind == "sw2sw")
        link.flows.append((("fake", "flow"), link.capacity_mbps * 2))
        with pytest.raises(ValidationError, match="overloaded"):
            validate_topology(topo)

    def test_detects_shutdown_violation(self, tiny_space):
        import copy

        topo = copy.deepcopy(tiny_space.points[0].topology)
        # Relabel a switch used by an intra-island flow into the other
        # island: its flows now cross a third-party island.
        flow = ("cpu", "mem")
        sw = topo.route_switches(flow)[0]
        sw.island = 1
        violations = audit_shutdown_safety(topo)
        assert any(v.flow == flow for v in violations)


def _exact(value):
    """``value`` with every float, nested ones too, as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value)(_exact(v) for v in value)
    return value


def pair_answers(topo):
    """``link_between`` and ``links_between`` for every linked pair, by link id."""
    pairs = dict.fromkeys((l.src, l.dst) for l in topo.links.values())
    return [
        (pair, getattr(topo.link_between(*pair), "id", None),
         [l.id for l in topo.links_between(*pair)])
        for pair in pairs
    ]


def _state(topo):
    """Everything a topology holds, in insertion order, floats exact.

    Components are compared through ``vars()``, so a field added to a
    component class and left out of its pickled row shows up here.
    """
    return (
        _exact(list(topo.island_freqs.items())),
        {
            name: [
                (key, type(obj), [(k, _exact(v)) for k, v in vars(obj).items()])
                for key, obj in getattr(topo, name).items()
            ]
            for name in ("switches", "nis", "links", "routes")
        },
        list(topo.core_switch.items()),
        pair_answers(topo),
        topo._next_link_id,
    )


def assert_round_trips(topo):
    """Pickling and deep-copying ``topo`` give back exactly its state."""
    expected = _state(topo)
    for other in (pickle.loads(pickle.dumps(topo, 4)), copy.deepcopy(topo)):
        assert _state(other) == expected
        assert other.spec.fingerprint() == topo.spec.fingerprint()
        assert other.library == topo.library


@st.composite
def generated_specs(draw):
    n_cores = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=999))
    spec = generate_soc(
        GeneratorConfig(
            name="pack%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=max(1, min(4, n_cores // 3)),
            seed=seed,
        )
    )
    partition = draw(st.sampled_from([logical_partitioning, communication_partitioning]))
    return (
        partition(spec, draw(st.integers(min_value=1, max_value=5))),
        draw(st.integers(min_value=0, max_value=2)),
    )


class TestPackedState:
    """``Topology`` pickles one row per component and rebuilds the rest."""

    def test_tiny_space(self, tiny_space):
        for point in tiny_space:
            assert_round_trips(point.topology)

    def test_d26_space(self, d26_space):
        for point in d26_space:
            assert_round_trips(point.topology)

    def test_intermediate_routes(self):
        space = synthesize(hub_soc(), config=SynthesisConfig(max_intermediate=2))
        topo = space.points[0].topology
        assert any(
            topo.switches[c].is_intermediate
            for route in topo.routes.values()
            for c in route.components[1:-1]
        )
        assert_round_trips(topo)

    def test_pruned_intermediate_switches(self, tiny_spec):
        result = make_allocation(tiny_spec, num_intermediate=2)
        assert len(result.topology.intermediate_switches) < 2
        assert_round_trips(result.topology)

    def test_flat_remapped_topology(self, tiny_spec):
        topo = synthesize_vi_oblivious(tiny_spec).topology
        assert all(link.has_converter is False for link in topo.links.values())
        assert_round_trips(topo)

    def test_rerouted_routes(self):
        topo = make_cyclic_topology()
        assert break_deadlock_cycles(topo) >= 1
        assert_round_trips(topo)

    @given(generated_specs())
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_generated_specs(self, case):
        spec, max_intermediate = case
        space = synthesize(spec, config=SynthesisConfig(max_intermediate=max_intermediate))
        for point in space:
            assert_round_trips(point.topology)

    def test_decoded_components_share_instance_dict_keys(self, tiny_best):
        """Decoded components are as small as constructed ones.

        Assigning a component's ``__dict__`` wholesale would replace its
        class's key-sharing dict with a larger combined one.
        """
        decoded = pickle.loads(pickle.dumps(tiny_best.topology, 4))
        fresh = {
            Switch: Switch("sw0.0", 0, 100.0),
            NetworkInterface: NetworkInterface("ni.cpu", "cpu", 0, 100.0),
            Link: Link(0, "a", "b", 0, 0, 100.0, 3200.0, "sw2sw"),
            Route: Route(("a", "b"), ("a", "b"), (0,)),
        }
        for mapping in (decoded.switches, decoded.nis, decoded.links, decoded.routes):
            obj = next(iter(mapping.values()))
            assert sys.getsizeof(vars(obj)) == sys.getsizeof(vars(fresh[type(obj)]))
