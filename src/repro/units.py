"""Units, conversions and shared physical constants.

The library uses a single, consistent set of engineering units
throughout; every public function documents its units, and this module
is the reference for what they mean:

===============  ==========================================
Quantity         Unit
===============  ==========================================
bandwidth        MB/s (``10**6`` bytes per second)
frequency        MHz
power            mW
energy           pJ per bit
area             mm^2
length           mm
latency          NoC clock cycles (paper's metric)
time             ns
===============  ==========================================

Keeping conversions in one place avoids the classic EDA-script failure
mode of mixing MB/s with Mb/s or pJ with nJ deep inside a cost
function.
"""

from __future__ import annotations

#: Bits per byte; spelled out so bandwidth conversions read clearly.
BITS_PER_BYTE = 8

#: Megabyte (bandwidth figures are quoted in MB/s).
MEGA = 1.0e6

#: pJ -> mW conversion helper factor: 1 pJ/bit * 1 bit/s = 1e-12 W.
PJ_PER_BIT_TIMES_BITS_PER_S_TO_MW = 1.0e-9


def link_capacity_mbps(width_bits: int, freq_mhz: float) -> float:
    """Bandwidth capacity of a NoC link in MB/s.

    A link transfers ``width_bits`` bits per cycle at ``freq_mhz`` MHz.
    The paper fixes the data width and derives island frequencies from
    the most demanding network-interface link (Section 4, step 1).

    >>> link_capacity_mbps(32, 400.0)
    1600.0
    """
    if width_bits <= 0:
        raise ValueError("link width must be positive, got %r" % width_bits)
    if freq_mhz < 0:
        raise ValueError("frequency must be >= 0, got %r" % freq_mhz)
    return width_bits / BITS_PER_BYTE * freq_mhz


def required_freq_mhz(bandwidth_mbps: float, width_bits: int) -> float:
    """Minimum link clock (MHz) to carry ``bandwidth_mbps`` on a link.

    Inverse of :func:`link_capacity_mbps`.

    >>> required_freq_mhz(1600.0, 32)
    400.0
    """
    if width_bits <= 0:
        raise ValueError("link width must be positive, got %r" % width_bits)
    if bandwidth_mbps < 0:
        raise ValueError("bandwidth must be >= 0, got %r" % bandwidth_mbps)
    return bandwidth_mbps * BITS_PER_BYTE / width_bits


def traffic_power_mw(bandwidth_mbps: float, energy_pj_per_bit: float) -> float:
    """Dynamic power (mW) of a traffic stream through a component.

    ``bandwidth_mbps`` MB/s of payload crossing a component that spends
    ``energy_pj_per_bit`` pJ for every bit dissipates::

        P = bw[bytes/s] * 8 [bit/byte] * E [pJ/bit]

    >>> traffic_power_mw(1000.0, 1.0)  # 1 GB/s through a 1 pJ/bit hop
    8.0
    """
    if bandwidth_mbps < 0:
        raise ValueError("bandwidth must be >= 0, got %r" % bandwidth_mbps)
    if energy_pj_per_bit < 0:
        raise ValueError("energy must be >= 0, got %r" % energy_pj_per_bit)
    bits_per_s = bandwidth_mbps * MEGA * BITS_PER_BYTE
    return bits_per_s * energy_pj_per_bit * PJ_PER_BIT_TIMES_BITS_PER_S_TO_MW


def quantize_frequency(freq_mhz: float, step_mhz: float = 25.0) -> float:
    """Round a frequency requirement up to the next grid step.

    Physical clock trees are generated on a grid; synthesis rounds the
    analytically required island frequency up so the link capacity still
    covers the worst-case NI bandwidth.

    >>> quantize_frequency(401.0)
    425.0
    >>> quantize_frequency(400.0)
    400.0
    """
    if step_mhz <= 0:
        raise ValueError("step must be positive, got %r" % step_mhz)
    if freq_mhz <= 0:
        return step_mhz
    steps = int(freq_mhz / step_mhz)
    if steps * step_mhz >= freq_mhz - 1e-9:
        return steps * step_mhz
    return (steps + 1) * step_mhz
