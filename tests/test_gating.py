"""Power-gating economics: break-even monotonicity in the island's size
terms, and the cost terms of one off/on cycle."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import break_even_time_ms, island_gating_cost
from repro.power.gating import (
    GatingCost,
    GatingModel,
    island_gated_area_mm2,
    island_powered_leakage_mw,
)


def _cost(area=1.0, saved=10.0, event=20.0, latency=5.0):
    return GatingCost(
        island=0,
        gated_area_mm2=area,
        leakage_saved_mw=saved,
        event_energy_nj=event,
        wakeup_latency_us=latency,
    )


class TestBreakEven:
    def test_larger_event_energy_lengthens_break_even(self):
        """Bigger islands pay more per cycle: at fixed leakage, more
        gated area (hence event energy) means a longer break-even."""
        small = _cost(event=20.0)
        large = _cost(event=80.0)
        assert break_even_time_ms(large) > break_even_time_ms(small)

    def test_more_leakage_shortens_break_even(self):
        leaky = _cost(saved=40.0)
        tight = _cost(saved=5.0)
        assert break_even_time_ms(leaky) < break_even_time_ms(tight)

    def test_zero_savings_never_breaks_even(self):
        assert break_even_time_ms(_cost(saved=0.0)) == math.inf

    def test_area_monotonicity_through_model(self, tiny_best):
        """Scaling the per-area rail energy scales break-even up.

        The model-level version of "larger islands take longer to pay
        off": the same island under a technology with heavier rail
        capacitance must show a longer break-even.
        """
        topo = tiny_best.topology
        light = GatingModel()
        heavy = dataclasses.replace(
            light,
            rail_cycle_energy_nj_per_mm2=light.rail_cycle_energy_nj_per_mm2 * 4,
        )
        for island in topo.spec.islands:
            t_light = break_even_time_ms(island_gating_cost(topo, island, light))
            t_heavy = break_even_time_ms(island_gating_cost(topo, island, heavy))
            assert t_heavy > t_light

    def test_break_even_ordering_tracks_area_per_leakage(self, d26_best):
        """Across real islands, break-even is monotone in the ratio
        event-energy / leakage-saved (the defining quantity)."""
        topo = d26_best.topology
        islands = topo.spec.islands
        ratios = {}
        for isl in islands:
            cost = island_gating_cost(topo, isl)
            if cost.leakage_saved_mw > 0:
                ratios[isl] = cost.event_energy_nj / cost.leakage_saved_mw
        ordered = sorted(ratios, key=lambda i: ratios[i])
        times = [
            break_even_time_ms(island_gating_cost(topo, isl)) for isl in ordered
        ]
        assert times == sorted(times)

    def test_cost_terms_scale_with_island_content(self, tiny_best):
        topo = tiny_best.topology
        for island in topo.spec.islands:
            cost = island_gating_cost(topo, island)
            assert cost.gated_area_mm2 == pytest.approx(
                island_gated_area_mm2(topo, island)
            )
            model = GatingModel()
            assert cost.leakage_saved_mw == pytest.approx(
                island_powered_leakage_mw(topo, island)
                * (1 - model.residual_leakage_fraction)
            )
            assert cost.wakeup_latency_us > model.wakeup_fixed_us
