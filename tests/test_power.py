"""Power models: NoC rollup, SoC totals, leakage/shutdown analysis."""

import copy

import pytest

from repro import (
    analyze_shutdown,
    compute_noc_power,
    make_use_case,
    noc_area_mm2,
)
from repro.power.leakage import statically_pinned_islands, weighted_savings_fraction
from repro.power.soc_power import area_overhead_fraction, dynamic_overhead_fraction


class TestNocPower:
    def test_breakdown_sums_to_dynamic(self, tiny_best):
        p = tiny_best.noc_power
        expected = (
            p.switch_idle_mw
            + p.switch_traffic_mw
            + p.ni_idle_mw
            + p.ni_traffic_mw
            + p.link_traffic_mw
            + p.fifo_idle_mw
            + p.fifo_traffic_mw
        )
        assert p.dynamic_mw == pytest.approx(expected)

    def test_fig2_metric_excludes_nis(self, tiny_best):
        p = tiny_best.noc_power
        assert p.fig2_dynamic_mw == pytest.approx(
            p.dynamic_mw - p.ni_idle_mw - p.ni_traffic_mw
        )

    def test_all_components_nonnegative(self, tiny_best):
        p = tiny_best.noc_power
        for value in (
            p.switch_idle_mw,
            p.switch_traffic_mw,
            p.ni_idle_mw,
            p.ni_traffic_mw,
            p.link_traffic_mw,
            p.fifo_idle_mw,
            p.fifo_traffic_mw,
            p.leakage_mw,
        ):
            assert value >= 0.0

    def test_cross_island_design_has_fifo_power(self, tiny_best):
        assert tiny_best.topology.num_converters() > 0
        assert tiny_best.noc_power.fifo_idle_mw > 0
        assert tiny_best.noc_power.fifo_traffic_mw > 0

    def test_by_island_sums_match_totals(self, tiny_best):
        p = tiny_best.noc_power
        assert sum(p.dynamic_by_island.values()) == pytest.approx(p.dynamic_mw)
        assert sum(p.leakage_by_island.values()) == pytest.approx(p.leakage_mw)

    def test_fewer_active_flows_less_power(self, tiny_best):
        topo = tiny_best.topology
        all_on = compute_noc_power(topo)
        one_flow = compute_noc_power(topo, active_flows=[("cpu", "mem")])
        assert one_flow.dynamic_mw < all_on.dynamic_mw
        assert one_flow.leakage_mw == pytest.approx(all_on.leakage_mw)

    def test_gating_islands_removes_their_power(self, tiny_best):
        topo = tiny_best.topology
        powered = set(topo.island_freqs) - {1}
        gated = compute_noc_power(topo, active_flows=[], powered_islands=powered)
        full = compute_noc_power(topo, active_flows=[])
        assert gated.dynamic_mw < full.dynamic_mw
        assert gated.leakage_mw < full.leakage_mw
        assert gated.dynamic_by_island[1] == 0.0

    def test_wire_lengths_increase_power(self, tiny_best):
        placed = tiny_best.topology
        unplaced = copy.deepcopy(placed)
        for link in unplaced.links.values():
            link.length_mm = 0.0
        with_wires = compute_noc_power(placed)
        without = compute_noc_power(unplaced)
        assert with_wires.link_traffic_mw > without.link_traffic_mw

    def test_area_positive_and_small(self, tiny_best):
        area = noc_area_mm2(tiny_best.topology)
        assert 0 < area < tiny_best.soc_power.core_area_mm2


class TestSocPower:
    def test_totals(self, tiny_best, tiny_spec):
        sp = tiny_best.soc_power
        assert sp.core_dynamic_mw == pytest.approx(
            tiny_spec.total_core_dynamic_power_mw
        )
        assert sp.total_dynamic_mw == pytest.approx(
            sp.core_dynamic_mw + sp.noc_dynamic_mw
        )
        assert sp.core_leakage_mw > 0 and sp.noc_leakage_mw > 0

    def test_fractions_in_unit_interval(self, tiny_best):
        sp = tiny_best.soc_power
        assert 0 < sp.noc_dynamic_fraction < 1
        assert 0 < sp.noc_area_fraction < 1

    def test_overhead_functions(self, tiny_best):
        sp = tiny_best.soc_power
        assert dynamic_overhead_fraction(sp, sp) == pytest.approx(0.0)
        assert area_overhead_fraction(sp, sp) == pytest.approx(0.0)


class TestShutdown:
    def test_gateable_when_idle(self, tiny_best, tiny_spec):
        case = make_use_case("compute_only", ["cpu", "mem", "acc"])
        report = analyze_shutdown(tiny_best.topology, case)
        assert report.gated_islands == (1,)
        assert report.blocked_islands == ()
        assert report.savings_mw > 0

    def test_nothing_gated_at_full_load(self, tiny_best, tiny_spec):
        case = make_use_case("full", tiny_spec.core_names)
        report = analyze_shutdown(tiny_best.topology, case)
        assert report.gated_islands == ()
        assert report.savings_fraction == pytest.approx(0.0, abs=1e-9)

    def test_savings_fraction_bounded(self, tiny_best, tiny_spec):
        case = make_use_case("io_only", ["io0", "io1", "per"])
        report = analyze_shutdown(tiny_best.topology, case)
        assert 0.0 <= report.savings_fraction < 1.0

    def test_vi_aware_has_no_pinned_islands(self, tiny_best):
        assert statically_pinned_islands(tiny_best.topology) == set()
    def test_gating_overhead_increases_power(self, tiny_best):
        case = make_use_case("compute_only", ["cpu", "mem", "acc"])
        cheap = analyze_shutdown(tiny_best.topology, case, gating_overhead_fraction=0.0)
        costly = analyze_shutdown(
            tiny_best.topology, case, gating_overhead_fraction=0.10
        )
        assert costly.power_gated_mw >= cheap.power_gated_mw

    def test_weighted_savings(self, tiny_best, tiny_spec):
        cases = [
            make_use_case("a", ["cpu", "mem", "acc"], time_fraction=0.5),
            make_use_case("b", tiny_spec.core_names, time_fraction=0.5),
        ]
        reports = [analyze_shutdown(tiny_best.topology, c) for c in cases]
        w = weighted_savings_fraction(reports, cases)
        # a saves something, b saves nothing -> 0 < w < a's savings
        assert 0 < w < reports[0].savings_fraction

    def test_weighted_savings_empty(self):
        assert weighted_savings_fraction([], []) == 0.0
