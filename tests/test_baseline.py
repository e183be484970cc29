"""VI-oblivious baseline and shutdown feasibility checking."""

import pytest

from repro import SynthesisConfig, make_use_case
from repro.arch.validate import audit_shutdown_safety
from repro.baseline.checker import (
    check_shutdown_feasibility,
    compare_shutdown_capability,
)
from repro.baseline.flat import remap_topology_islands, synthesize_vi_oblivious
from repro.power.leakage import statically_pinned_islands


@pytest.fixture(scope="module")
def d26_baseline(d26_log6):
    return synthesize_vi_oblivious(d26_log6, config=SynthesisConfig(max_intermediate=0))


class TestRemap:
    def test_structure_preserved(self, d26_baseline, d26_log6):
        topo = d26_baseline.topology
        assert set(topo.routes) == {f.key for f in d26_log6.flows}
        assert all(c in topo.core_switch for c in d26_log6.core_names)

    def test_nis_carry_true_islands(self, d26_baseline, d26_log6):
        for ni in d26_baseline.topology.nis.values():
            assert ni.island == d26_log6.island_of(ni.core)

    def test_links_have_no_converters(self, d26_baseline):
        assert d26_baseline.topology.num_converters() == 0

    def test_single_clock_domain(self, d26_baseline):
        freqs = {s.freq_mhz for s in d26_baseline.topology.switches.values()}
        assert len(freqs) == 1

    def test_core_spec_mismatch_rejected(self, tiny_best, d26_log6):
        from repro.exceptions import SynthesisError

        with pytest.raises(SynthesisError):
            remap_topology_islands(tiny_best.topology, d26_log6)


class TestNegativeResult:
    """The paper's motivation: flat synthesis blocks island shutdown."""

    def test_baseline_violates_shutdown_safety(self, d26_baseline):
        violations = audit_shutdown_safety(d26_baseline.topology)
        assert len(violations) > 0

    def test_baseline_pins_islands(self, d26_baseline):
        pinned = statically_pinned_islands(d26_baseline.topology)
        assert pinned, "flat design should statically pin at least one island"

    def test_vi_aware_pins_nothing(self, d26_best):
        assert statically_pinned_islands(d26_best.topology) == set()

    def test_baseline_saves_less_than_vi_aware(self, d26_best, d26_baseline, d26_log6):
        case = make_use_case(
            "standby", ["bridge", "keypad", "timer", "sram1"]
        )
        reports = compare_shutdown_capability(
            d26_best.topology, d26_baseline.topology, [case]
        )
        aware = reports["vi_aware"].shutdown_reports["standby"]
        oblivious = reports["vi_oblivious"].shutdown_reports["standby"]
        assert aware.savings_fraction > oblivious.savings_fraction
        assert len(aware.gated_islands) > len(oblivious.gated_islands)


class TestFeasibilityReport:
    def test_report_fields(self, d26_best, d26_log6):
        case = make_use_case("full", d26_log6.core_names)
        rep = check_shutdown_feasibility(d26_best.topology, [case], label="x")
        assert rep.topology_label == "x"
        assert rep.is_shutdown_safe
        assert rep.per_use_case["full"] == ((), ())
        assert rep.total_gated() == 0 and rep.total_blocked() == 0

