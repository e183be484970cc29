"""Unit conversions: the one place bandwidth/frequency/power math lives."""


import pytest
from hypothesis import given, strategies as st

from repro import units


class TestLinkCapacity:
    def test_32bit_400mhz_is_1600_mbps(self):
        assert units.link_capacity_mbps(32, 400.0) == 1600.0

    def test_64bit_doubles_capacity(self):
        assert units.link_capacity_mbps(64, 400.0) == 2 * units.link_capacity_mbps(32, 400.0)

    def test_zero_frequency_gives_zero(self):
        assert units.link_capacity_mbps(32, 0.0) == 0.0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            units.link_capacity_mbps(0, 100.0)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            units.link_capacity_mbps(32, -1.0)


class TestRequiredFreq:
    def test_inverse_of_capacity(self):
        assert units.required_freq_mhz(1600.0, 32) == 400.0

    def test_zero_bandwidth_needs_zero(self):
        assert units.required_freq_mhz(0.0, 32) == 0.0

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError):
            units.required_freq_mhz(-5.0, 32)

    @given(st.floats(min_value=0.1, max_value=1e5), st.sampled_from([16, 32, 64, 128]))
    def test_roundtrip(self, bw, width):
        f = units.required_freq_mhz(bw, width)
        assert units.link_capacity_mbps(width, f) == pytest.approx(bw)


class TestTrafficPower:
    def test_reference_point(self):
        # 1 GB/s through 1 pJ/bit = 8 mW.
        assert units.traffic_power_mw(1000.0, 1.0) == pytest.approx(8.0)

    def test_scales_linearly_in_both_args(self):
        base = units.traffic_power_mw(100.0, 0.5)
        assert units.traffic_power_mw(200.0, 0.5) == pytest.approx(2 * base)
        assert units.traffic_power_mw(100.0, 1.0) == pytest.approx(2 * base)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            units.traffic_power_mw(-1.0, 1.0)
        with pytest.raises(ValueError):
            units.traffic_power_mw(1.0, -1.0)


class TestCycleConversions:
    def test_cycles_to_ns(self):
        assert units.cycles_to_ns(4, 500.0) == pytest.approx(8.0)

    def test_ns_to_cycles(self):
        assert units.ns_to_cycles(8.0, 500.0) == pytest.approx(4.0)

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=2000.0),
    )
    def test_roundtrip(self, cycles, freq):
        ns = units.cycles_to_ns(cycles, freq)
        assert units.ns_to_cycles(ns, freq) == pytest.approx(cycles, abs=1e-6)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            units.cycles_to_ns(1, 0.0)
        with pytest.raises(ValueError):
            units.ns_to_cycles(1.0, 0.0)


class TestQuantizeFrequency:
    def test_rounds_up_to_grid(self):
        assert units.quantize_frequency(401.0, 25.0) == 425.0

    def test_exact_multiple_unchanged(self):
        assert units.quantize_frequency(400.0, 25.0) == 400.0

    def test_zero_becomes_one_step(self):
        assert units.quantize_frequency(0.0, 25.0) == 25.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            units.quantize_frequency(100.0, 0.0)

    @given(
        st.floats(min_value=0.01, max_value=5000.0),
        st.sampled_from([5.0, 10.0, 25.0, 50.0]),
    )
    def test_result_on_grid_and_covering(self, freq, step):
        q = units.quantize_frequency(freq, step)
        assert q >= freq - 1e-9
        assert q / step == pytest.approx(round(q / step))
        # never over-quantizes by a full step
        assert q - freq < step + 1e-9
