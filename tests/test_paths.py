"""Path allocation: routing, link opening, constraints, shutdown rule."""

import pytest

from repro import INTERMEDIATE_ISLAND, PathCostConfig
from repro.core.paths import _allowed_transition
from repro.sim.zero_load import route_latency_cycles

from _helpers import make_allocation, make_tiny_spec


class TestTransitionRule:
    MID = INTERMEDIATE_ISLAND

    def test_within_source_island(self):
        assert _allowed_transition(0, 0, 0, 1)

    def test_source_to_destination(self):
        assert _allowed_transition(0, 1, 0, 1)

    def test_source_to_mid_and_mid_to_dest(self):
        assert _allowed_transition(0, self.MID, 0, 1)
        assert _allowed_transition(self.MID, 1, 0, 1)
        assert _allowed_transition(self.MID, self.MID, 0, 1)

    def test_no_backtracking_from_destination(self):
        assert not _allowed_transition(1, 0, 0, 1)
        assert _allowed_transition(1, 1, 0, 1)

    def test_mid_cannot_return_to_source(self):
        assert not _allowed_transition(self.MID, 0, 0, 1)

    def test_third_island_never_allowed(self):
        assert not _allowed_transition(0, 2, 0, 1)
        assert not _allowed_transition(2, 1, 0, 1)

    def test_intra_island_flow_stays_home(self):
        assert _allowed_transition(0, 0, 0, 0)
        assert not _allowed_transition(0, self.MID, 0, 0)
        assert not _allowed_transition(0, 1, 0, 0)


class TestAllocation:
    def test_all_flows_routed(self, tiny_spec):
        result = make_allocation(tiny_spec)
        assert result.success
        topo = result.require_topology()
        assert set(topo.routes) == {f.key for f in tiny_spec.flows}

    def test_same_switch_flows_have_two_link_routes(self, tiny_spec):
        result = make_allocation(tiny_spec)
        topo = result.require_topology()
        # cpu and mem share a switch at min switch counts.
        if topo.switch_of_core("cpu").id == topo.switch_of_core("mem").id:
            route = topo.routes[("cpu", "mem")]
            assert len(route.links) == 2
            assert route.num_switches == 1

    def test_cross_island_route_latency_includes_converter(self, tiny_spec):
        result = make_allocation(tiny_spec)
        topo = result.require_topology()
        lat = route_latency_cycles(topo, ("cpu", "io0"))
        # at least: switch + 4-cycle crossing + switch
        assert lat >= 6

    def test_latency_budgets_respected(self, tiny_spec):
        result = make_allocation(tiny_spec)
        topo = result.require_topology()
        for flow in tiny_spec.flows:
            assert route_latency_cycles(topo, flow.key) <= flow.latency_cycles

    def test_no_capacity_violations(self, tiny_spec):
        topo = make_allocation(tiny_spec).require_topology()
        for link in topo.links.values():
            assert link.used_mbps <= link.capacity_mbps + 1e-6

    def test_one_switch_per_core_always_feasible(self, tiny_spec):
        counts = {0: 3, 1: 3}
        result = make_allocation(tiny_spec, switches_per_island=counts)
        assert result.success
        topo = result.require_topology()
        assert len(topo.switches) == 6

    def test_intermediate_switches_pruned_when_unused(self, tiny_spec):
        result = make_allocation(tiny_spec, num_intermediate=2)
        assert result.success
        topo = result.require_topology()
        # Pruning leaves only intermediate switches that carry links.
        for sw in topo.intermediate_switches:
            assert sw.n_in > 0 or sw.n_out > 0

    def test_flows_via_intermediate_counted(self, tiny_spec):
        result = make_allocation(tiny_spec, num_intermediate=2)
        assert result.flows_via_intermediate == len(
            [1 for k in result.require_topology().routes
             if any(result.topology.switches[c].is_intermediate
                    for c in result.topology.routes[k].components[1:-1])]
        )

    def test_links_opened_reported(self, tiny_spec):
        result = make_allocation(tiny_spec)
        assert result.links_opened >= 1  # at least one cross-island link
        assert result.links_opened == len(result.topology.sw_links())

    def test_require_topology_raises_on_failure(self, tiny_spec):
        from repro import SynthesisError
        from repro.core.paths import AllocationResult

        bad = AllocationResult(topology=None, success=False, reason="test")
        with pytest.raises(SynthesisError):
            bad.require_topology()


class TestShutdownSafety:
    def test_three_island_flows_never_touch_third(self):
        spec = make_tiny_spec(3)
        result = make_allocation(spec)
        topo = result.require_topology()
        for flow in spec.flows:
            touched = topo.islands_touched(flow.key)
            allowed = {
                spec.island_of(flow.src),
                spec.island_of(flow.dst),
                INTERMEDIATE_ISLAND,
            }
            assert touched <= allowed, "flow %s:%s leaks into %s" % (
                flow.src,
                flow.dst,
                touched - allowed,
            )

    def test_intermediate_only_when_requested(self, tiny_spec):
        topo = make_allocation(tiny_spec, num_intermediate=0).require_topology()
        assert not topo.has_intermediate_island


class TestCostConfig:
    def test_zero_latency_weight_still_feasible(self, tiny_spec):
        cost = PathCostConfig(latency_cost_mw_per_cycle=0.0)
        assert make_allocation(tiny_spec, cost=cost).success

    def test_parallel_links_can_be_disabled(self, tiny_spec):
        cost = PathCostConfig(allow_parallel_links=False)
        result = make_allocation(tiny_spec, cost=cost)
        assert result.success
        topo = result.require_topology()
        seen = set()
        for link in topo.sw_links():
            assert (link.src, link.dst) not in seen
            seen.add((link.src, link.dst))
