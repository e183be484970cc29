"""Second extension batch: netlist export, energy profiles, deadlock repair."""

import copy

import pytest

from repro import make_use_case, validate_topology
from repro.arch.deadlock import break_deadlock_cycles, flows_on_cycle
from repro.arch.routing import find_cdg_cycle, is_deadlock_free
from repro.io.netlist import (
    save_verilog,
    topology_to_netlist_dict,
    topology_to_verilog,
)
from repro.sim.profile import TimelineSegment, daily_mobile_timeline, profile_timeline
from repro.soc.usecases import mobile_use_cases

from _helpers import make_cyclic_topology


class TestNetlistDict:
    def test_counts_match_topology(self, tiny_best):
        data = topology_to_netlist_dict(tiny_best.topology)
        topo = tiny_best.topology
        assert len(data["switches"]) == len(topo.switches)
        assert len(data["nis"]) == len(topo.nis)
        assert len(data["links"]) == len(topo.links)

    def test_converter_flags_preserved(self, tiny_best):
        data = topology_to_netlist_dict(tiny_best.topology)
        n_conv = sum(1 for l in data["links"] if l["converter"])
        assert n_conv == tiny_best.topology.num_converters()

    def test_instance_names_unique(self, tiny_best):
        data = topology_to_netlist_dict(tiny_best.topology)
        names = [s["instance"] for s in data["switches"]] + [
            n["instance"] for n in data["nis"]
        ]
        assert len(names) == len(set(names))

    def test_deterministic(self, tiny_best):
        a = topology_to_netlist_dict(tiny_best.topology)
        b = topology_to_netlist_dict(tiny_best.topology)
        assert a == b


class TestVerilog:
    def test_module_structure(self, tiny_best):
        v = topology_to_verilog(tiny_best.topology)
        assert v.count("module ") == 1
        assert v.rstrip().endswith("endmodule")

    def test_every_component_instantiated(self, tiny_best):
        v = topology_to_verilog(tiny_best.topology)
        topo = tiny_best.topology
        assert v.count("noc_switch #(") == len(topo.switches)
        assert v.count("noc_ni #(") == len(topo.nis)
        assert v.count("noc_bisync_fifo #(") == topo.num_converters()

    def test_core_ports_present(self, tiny_best):
        v = topology_to_verilog(tiny_best.topology)
        for core in tiny_best.topology.spec.core_names:
            assert "%s_tx_data" % core in v
            assert "%s_rx_data" % core in v

    def test_island_clocks_and_gates(self, tiny_best):
        v = topology_to_verilog(tiny_best.topology)
        for isl in tiny_best.topology.spec.islands:
            assert "clk_vi%d" % isl in v
            assert "pwr_en_vi%d" % isl in v

    def test_save(self, tiny_best, tmp_path):
        path = str(tmp_path / "noc.v")
        save_verilog(tiny_best.topology, path)
        with open(path) as f:
            assert "endmodule" in f.read()

    def test_balanced_parens_per_instance(self, d26_best):
        v = topology_to_verilog(d26_best.topology)
        assert v.count("(") == v.count(")")


class TestEnergyProfile:
    @pytest.fixture
    def cases(self, tiny_spec):
        return [
            make_use_case("busy", tiny_spec.core_names, time_fraction=0.3),
            make_use_case("idle_io", ["cpu", "mem", "acc"], time_fraction=0.7),
        ]

    def test_profile_saves_energy(self, tiny_best, cases):
        timeline = [
            TimelineSegment(cases[0], 10.0),
            TimelineSegment(cases[1], 30.0),
        ]
        profile = profile_timeline(tiny_best.topology, timeline)
        assert profile.total_duration_s == 40.0
        assert profile.energy_gated_j < profile.energy_no_gating_j
        assert 0 < profile.savings_fraction < 1
        assert profile.battery_life_extension > 1.0

    def test_event_energy_counted(self, tiny_best, cases):
        timeline = [
            TimelineSegment(cases[0], 5.0),
            TimelineSegment(cases[1], 5.0),
            TimelineSegment(cases[0], 5.0),
            TimelineSegment(cases[1], 5.0),
        ]
        profile = profile_timeline(tiny_best.topology, timeline)
        # idle_io gates island 1; entering and leaving it twice each.
        assert profile.num_gating_events >= 2
        assert profile.gating_event_energy_j > 0

    def test_event_energy_negligible_at_human_timescales(self, tiny_best, cases):
        timeline = [TimelineSegment(cases[1], 3600.0)]
        profile = profile_timeline(tiny_best.topology, timeline)
        assert profile.gating_event_energy_j < 0.01 * profile.energy_saved_j

    def test_empty_timeline_rejected(self, tiny_best):
        from repro.exceptions import SpecError

        with pytest.raises(SpecError):
            profile_timeline(tiny_best.topology, [])

    def test_daily_timeline_covers_the_day(self, d26_best):
        cases = mobile_use_cases()
        timeline = daily_mobile_timeline(cases, hours=24.0)
        assert sum(seg.duration_s for seg in timeline) == pytest.approx(24 * 3600.0)
        profile = profile_timeline(d26_best.topology, timeline)
        # Energy-weighted savings sit below the time-weighted per-mode
        # average (high-power modes dominate energy and save nothing),
        # but island shutdown still buys >10% of the day's energy and a
        # tangible battery-life stretch.
        assert profile.savings_fraction > 0.10
        assert profile.battery_life_extension > 1.10


class TestDeadlockRepair:
    def test_repair_restores_acyclicity(self):
        topo = make_cyclic_topology()
        assert not is_deadlock_free(topo)
        rerouted = break_deadlock_cycles(topo)
        assert rerouted >= 1
        assert is_deadlock_free(topo)
        validate_topology(topo)

    def test_repair_shortens_detours(self):
        topo = make_cyclic_topology()
        break_deadlock_cycles(topo)
        # At least one of the two detoured flows now takes the direct
        # single-switch route.
        lengths = sorted(len(r.links) for r in topo.routes.values())
        assert lengths[0] == 2

    def test_flows_on_cycle_reports_contributors(self):
        topo = make_cyclic_topology()
        cycle = find_cdg_cycle(topo)
        contributors = flows_on_cycle(topo, cycle)
        assert contributors
        assert all(count >= 1 for _, count in contributors)

    def test_noop_on_clean_topology(self, tiny_best):
        topo = copy.deepcopy(tiny_best.topology)
        assert break_deadlock_cycles(topo) == 0
