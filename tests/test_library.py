"""65 nm component library: monotonicity and sanity of every model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DEFAULT_LIBRARY,
    NocLibrary,
    SynthesisConfig,
    logical_partitioning,
    synthesize,
)
from repro.soc.benchmarks import load_benchmark

LIB = DEFAULT_LIBRARY

ports = st.integers(min_value=1, max_value=24)
freqs = st.floats(min_value=50.0, max_value=900.0)


class TestTiming:
    def test_fmax_decreases_with_size(self):
        f = [LIB.switch_fmax_mhz(s) for s in range(2, 20)]
        assert all(a >= b for a, b in zip(f, f[1:]))

    def test_fmax_has_floor(self):
        assert LIB.switch_fmax_mhz(100) == LIB.switch_fmax_floor_mhz

    def test_small_switch_hits_base(self):
        assert LIB.switch_fmax_mhz(2) == LIB.switch_fmax_base_mhz

    def test_max_size_for_freq_round_trip(self):
        for freq in (150.0, 300.0, 500.0, 800.0):
            size = LIB.max_switch_size_for_freq(freq)
            assert LIB.switch_fmax_mhz(size) >= freq
            assert LIB.switch_fmax_mhz(size + 1) < freq

    def test_max_size_at_least_2(self):
        assert LIB.max_switch_size_for_freq(LIB.switch_fmax_base_mhz) >= 2

    def test_infeasible_frequency_raises(self):
        with pytest.raises(ValueError):
            LIB.max_switch_size_for_freq(LIB.switch_fmax_base_mhz + 1.0)

    @pytest.mark.parametrize(
        "freq, message",
        [
            pytest.param(LIB.switch_fmax_floor_mhz, "fmax floor", id="at-floor"),
            pytest.param(LIB.switch_fmax_floor_mhz - 40.0, "fmax floor", id="below-floor"),
            pytest.param(float("nan"), "positive", id="nan"),
        ],
    )
    def test_unbounded_frequency_raises(self, freq, message):
        """No size bound exists at or below the fmax floor, where every
        size closes timing, nor at NaN."""
        with pytest.raises(ValueError, match=message):
            LIB.max_switch_size_for_freq(freq)

    def test_clock_floor_under_fmax_floor_raises(self):
        """d12_auto's island 0 needs 20 MHz, which a 50 MHz floor rounds up to."""
        spec = logical_partitioning(load_benchmark("d12_auto"), 3)
        with pytest.raises(ValueError, match="fmax floor"):
            synthesize(spec, config=SynthesisConfig(min_freq_mhz=50))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            LIB.switch_fmax_mhz(0)

    def test_wire_reach_scales_inversely_with_freq(self):
        assert LIB.wire_length_per_cycle_mm(200.0) == pytest.approx(
            2 * LIB.wire_length_per_cycle_mm(400.0)
        )

    def test_link_cycles_minimum_one(self):
        assert LIB.link_cycles(0.0, 400.0) == LIB.link_traversal_cycles
        assert LIB.link_cycles(0.1, 400.0) == LIB.link_traversal_cycles

    def test_long_link_needs_pipelining(self):
        reach = LIB.wire_length_per_cycle_mm(400.0)
        assert LIB.link_cycles(2.5 * reach, 400.0) == 3


class TestEnergy:
    @given(ports, ports)
    @settings(max_examples=30)
    def test_switch_ebit_grows_with_ports(self, n_in, n_out):
        base = LIB.switch_ebit_pj(n_in, n_out)
        assert LIB.switch_ebit_pj(n_in + 1, n_out) > base
        assert LIB.switch_ebit_pj(n_in, n_out + 1) > base

    def test_switch_ebit_plausible_at_5x5(self):
        # xpipesLite-class: a few tenths of a pJ per bit.
        assert 0.1 < LIB.switch_ebit_pj(5, 5) < 0.5

    def test_link_ebit_linear_in_length(self):
        assert LIB.link_ebit_pj(2.0) == pytest.approx(2 * LIB.link_ebit_pj(1.0))

    def test_link_ebit_zero_length(self):
        assert LIB.link_ebit_pj(0.0) == 0.0

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            LIB.link_ebit_pj(-1.0)


class TestIdlePower:
    @given(ports, ports, freqs)
    @settings(max_examples=30)
    def test_switch_idle_monotone(self, n_in, n_out, f):
        base = LIB.switch_idle_power_mw(n_in, n_out, f)
        assert LIB.switch_idle_power_mw(n_in + 1, n_out, f) > base
        assert LIB.switch_idle_power_mw(n_in, n_out, f * 1.5) > base

    def test_idle_zero_at_zero_freq(self):
        assert LIB.switch_idle_power_mw(5, 5, 0.0) == 0.0
        assert LIB.ni_idle_power_mw(0.0) == 0.0

    def test_fifo_idle_uses_both_domains(self):
        slow = LIB.fifo_idle_power_mw(100.0, 100.0)
        fast = LIB.fifo_idle_power_mw(100.0, 500.0)
        assert fast > slow

    def test_rejects_negative_freq(self):
        with pytest.raises(ValueError):
            LIB.switch_idle_power_mw(2, 2, -1.0)


class TestLeakageAndArea:
    @given(ports, ports)
    @settings(max_examples=30)
    def test_leakage_monotone_in_ports(self, n_in, n_out):
        assert LIB.switch_leakage_mw(n_in + 1, n_out) > LIB.switch_leakage_mw(n_in, n_out)

    @given(ports, ports)
    @settings(max_examples=30)
    def test_area_monotone_in_ports(self, n_in, n_out):
        assert LIB.switch_area_mm2(n_in + 1, n_out) > LIB.switch_area_mm2(n_in, n_out)

    def test_switch_area_plausible(self):
        # 5x5 32-bit switch at 65 nm: a few hundredths of a mm^2.
        assert 0.01 < LIB.switch_area_mm2(5, 5) < 0.1

    def test_link_leakage_linear(self):
        assert LIB.link_leakage_mw(3.0) == pytest.approx(3 * LIB.link_leakage_mw(1.0))

    def test_fixed_component_values_positive(self):
        assert LIB.ni_leakage_mw() > 0
        assert LIB.fifo_leakage_mw() > 0
        assert LIB.ni_area_mm2 > 0
        assert LIB.fifo_area_mm2 > 0


class TestCapacityHelpers:
    def test_link_capacity(self):
        assert LIB.link_capacity_mbps(400.0) == 1600.0

    def test_required_freq(self):
        assert LIB.required_freq_mhz(1600.0) == 400.0

    def test_custom_width_library(self):
        lib64 = NocLibrary(data_width_bits=64)
        assert lib64.link_capacity_mbps(400.0) == 3200.0

    def test_paper_constant_4_cycle_converter(self):
        # Section 5: "a 4 cycle delay is incurred on the
        # voltage-frequency converters".
        assert LIB.fifo_crossing_cycles == 4
