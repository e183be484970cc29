"""Island frequency planning (Algorithm 1, steps 1-2)."""

import math

import pytest

from repro import DEFAULT_LIBRARY, NocLibrary, SpecError, plan_all_islands
from repro.core.frequency import intermediate_island_freq_mhz, plan_island

from _helpers import make_tiny_spec


class TestPlanIsland:
    def test_frequency_covers_peak_ni_bandwidth(self, tiny_spec):
        plan = plan_island(tiny_spec, 0, DEFAULT_LIBRARY)
        # mem's NI receives 600 MB/s -> needs 150 MHz on 32-bit links.
        assert plan.peak_ni_bandwidth_mbps == 600.0
        assert plan.freq_mhz >= 150.0
        assert DEFAULT_LIBRARY.link_capacity_mbps(plan.freq_mhz) >= 600.0

    def test_quantized_to_grid(self, tiny_spec):
        plan = plan_island(tiny_spec, 0, DEFAULT_LIBRARY, freq_step_mhz=25.0)
        assert plan.freq_mhz % 25.0 == pytest.approx(0.0)

    def test_min_freq_floor_applies(self, tiny_spec):
        # io island peak is only 42 MB/s -> ~10.5 MHz; floor lifts it.
        plan = plan_island(tiny_spec, 1, DEFAULT_LIBRARY, min_freq_mhz=100.0)
        assert plan.freq_mhz >= 100.0

    def test_max_switch_size_matches_library(self, tiny_spec):
        plan = plan_island(tiny_spec, 0, DEFAULT_LIBRARY)
        assert plan.max_switch_size == DEFAULT_LIBRARY.max_switch_size_for_freq(
            plan.freq_mhz
        )

    def test_min_switches_ceiling(self, tiny_spec):
        plan = plan_island(tiny_spec, 0, DEFAULT_LIBRARY)
        assert plan.min_switches == math.ceil(plan.num_cores / plan.max_switch_size)
        assert plan.min_switches >= 1

    def test_empty_island_rejected(self, tiny_spec):
        with pytest.raises(SpecError):
            plan_island(tiny_spec, 7, DEFAULT_LIBRARY)


class TestPlanAll:
    def test_every_island_planned(self, tiny_spec):
        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY)
        assert set(plans) == {0, 1}

    def test_faster_island_has_tighter_size_bound(self, tiny_spec):
        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY)
        assert plans[0].freq_mhz > plans[1].freq_mhz
        assert plans[0].max_switch_size <= plans[1].max_switch_size

    def test_intermediate_freq_is_max(self, tiny_spec):
        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY)
        assert intermediate_island_freq_mhz(plans) == max(
            p.freq_mhz for p in plans.values()
        )

    def test_intermediate_freq_rejects_empty(self):
        with pytest.raises(SpecError):
            intermediate_island_freq_mhz({})

    def test_narrow_links_raise_when_infeasible(self):
        spec = make_tiny_spec(2)
        narrow = NocLibrary(data_width_bits=2)
        # 600 MB/s over 2-bit links needs 2400 MHz: no switch closes that.
        with pytest.raises(ValueError):
            plan_all_islands(spec, narrow)

    def test_wider_links_lower_frequency(self, tiny_spec):
        lib64 = NocLibrary(data_width_bits=64)
        p32 = plan_island(tiny_spec, 0, DEFAULT_LIBRARY)
        p64 = plan_island(tiny_spec, 0, lib64)
        assert p64.freq_mhz <= p32.freq_mhz
