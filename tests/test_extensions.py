"""Extension modules: gating economics, voltage scaling, DSE drivers."""

import math

import pytest

from repro import SpecError
from repro.core.explore import ExplorationEngine
from repro.power.gating import (
    GatingModel,
    break_even_time_ms,
    island_gated_area_mm2,
    island_gating_cost,
    island_powered_leakage_mw,
)
from repro.power.voltage import (
    VoltageCorner,
    VoltageTable,
    assign_island_voltages,
    voltage_aware_noc_power,
)


class TestGatingCost:
    def test_area_covers_cores_and_noc(self, tiny_best, tiny_spec):
        area = island_gated_area_mm2(tiny_best.topology, 1)
        core_area = sum(
            tiny_spec.core(c).area_mm2 for c in tiny_spec.cores_in_island(1)
        )
        assert area > core_area  # NoC components add on top

    def test_leakage_covers_cores_and_noc(self, tiny_best, tiny_spec):
        leak = island_powered_leakage_mw(tiny_best.topology, 1)
        core_leak = sum(
            tiny_spec.core(c).leakage_power_mw for c in tiny_spec.cores_in_island(1)
        )
        assert leak > core_leak

    def test_unknown_island_rejected(self, tiny_best):
        with pytest.raises(SpecError):
            island_gating_cost(tiny_best.topology, 9)

    def test_cost_fields_positive(self, tiny_best):
        cost = island_gating_cost(tiny_best.topology, 0)
        assert cost.leakage_saved_mw > 0
        assert cost.event_energy_nj > 0
        assert cost.wakeup_latency_us > GatingModel().wakeup_fixed_us

    def test_residual_leakage_reduces_savings(self, tiny_best):
        full = island_gating_cost(
            tiny_best.topology, 0, GatingModel(residual_leakage_fraction=0.0)
        )
        leaky = island_gating_cost(
            tiny_best.topology, 0, GatingModel(residual_leakage_fraction=0.2)
        )
        assert leaky.leakage_saved_mw < full.leakage_saved_mw

    def test_break_even_time(self):
        from repro.power.gating import GatingCost

        cost = GatingCost(0, 1.0, leakage_saved_mw=10.0, event_energy_nj=20.0,
                          wakeup_latency_us=5.0)
        assert break_even_time_ms(cost) == pytest.approx(0.002)

    def test_break_even_infinite_without_savings(self):
        from repro.power.gating import GatingCost

        cost = GatingCost(0, 1.0, 0.0, 20.0, 5.0)
        assert math.isinf(break_even_time_ms(cost))

    def test_break_even_realistic_scale(self, tiny_best):
        # Islands with tens of mW leakage break even in well under a
        # millisecond — gating is worth it for any real idle period.
        cost = island_gating_cost(tiny_best.topology, 0)
        assert break_even_time_ms(cost) < 1.0

    def test_bad_model_rejected(self):
        with pytest.raises(SpecError):
            GatingModel(residual_leakage_fraction=1.5)


class TestVoltage:
    def test_corner_selection_is_lowest_feasible(self):
        t = VoltageTable()
        assert t.corner_for_freq(100.0).vdd == 0.9
        assert t.corner_for_freq(300.0).vdd == 1.0
        assert t.corner_for_freq(500.0).vdd == 1.1
        assert t.corner_for_freq(900.0).vdd == 1.2

    def test_infeasible_frequency_rejected(self):
        with pytest.raises(SpecError):
            VoltageTable().corner_for_freq(2000.0)

    def test_scales(self):
        t = VoltageTable()
        assert t.dynamic_scale(1.2) == pytest.approx(1.0)
        assert t.dynamic_scale(0.9) == pytest.approx((0.9 / 1.2) ** 2)
        assert t.leakage_scale(0.9) == pytest.approx((0.9 / 1.2) ** 3)

    def test_bad_tables_rejected(self):
        with pytest.raises(SpecError):
            VoltageTable(corners=())
        with pytest.raises(SpecError):
            VoltageTable(
                corners=(VoltageCorner(1.2, 100.0), VoltageCorner(0.9, 500.0))
            )

    def test_island_assignment_tracks_frequency(self, tiny_best):
        corners = assign_island_voltages(tiny_best.topology)
        freqs = tiny_best.topology.island_freqs
        # faster island never gets a lower voltage than a slower one
        for a in corners:
            for b in corners:
                if freqs[a] > freqs[b]:
                    assert corners[a].vdd >= corners[b].vdd

    def test_voltage_scaling_saves_dynamic_power(self, tiny_best):
        vp = voltage_aware_noc_power(tiny_best.topology)
        assert vp.dynamic_mw < vp.nominal.dynamic_mw
        assert vp.leakage_mw < vp.nominal.leakage_mw
        assert 0.0 < vp.dynamic_savings_fraction < 1.0

    def test_by_island_sums(self, tiny_best):
        vp = voltage_aware_noc_power(tiny_best.topology)
        assert sum(vp.dynamic_by_island.values()) == pytest.approx(vp.dynamic_mw)


class TestExplore:
    @pytest.fixture
    def engine(self):
        return ExplorationEngine()

    def test_island_count_exploration(self, engine, tiny_spec):
        records = engine.grid_exploration(
            tiny_spec.single_island(), [1, 2], strategies=("logical", "communication")
        ).records
        assert len(records) == 4  # 2 counts x 2 strategies
        assert all(r.feasible for r in records)
        rows = [r.row() for r in records]
        assert all("noc_power_mw" in row for row in rows)

    def test_unknown_strategy_rejected(self, engine, tiny_spec):
        with pytest.raises(SpecError):
            engine.grid_exploration(tiny_spec, [1], strategies=("psychic",))

    def test_alpha_exploration(self, engine, tiny_spec):
        records = engine.alpha_exploration(tiny_spec, [0.0, 0.5, 1.0])
        assert [r.knobs["alpha"] for r in records] == [0.0, 0.5, 1.0]
        assert all(r.feasible for r in records)

    def test_width_exploration_monotone_frequency_effect(self, engine, tiny_spec):
        records = engine.grid_exploration(tiny_spec, widths=[16, 32, 64]).records
        assert [r.knobs for r in records] == [{"width_bits": w} for w in (16, 32, 64)]
        assert all(r.feasible for r in records)
        with pytest.raises(SpecError):
            engine.grid_exploration(tiny_spec, widths=[0])

    def test_infeasible_recorded_not_raised(self, engine):
        from repro.soc.generator import hub_soc

        records = engine.grid_exploration(
            hub_soc(num_satellites=24).single_island(), [1]
        ).records
        # Single island hub is feasible (no crossings); check record shape.
        assert records[0].feasible
        row = records[0].row()
        assert row["islands"] == 1
