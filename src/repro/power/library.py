"""65 nm NoC component library: power, area and timing models.

The paper evaluates with "power, area and latency models for the NoC
components based on the architecture from [25]" (xpipesLite) "built for
the 65nm technology node", extended "with models for the bi-synchronous
voltage and frequency converters".  The original library is post-layout
and proprietary; this module substitutes analytic models whose constants
are calibrated to the published DAC-era figures:

* a 32-bit 5x5 xpipesLite switch closes timing around 0.9 GHz at 65 nm
  and spends roughly 0.2 pJ per bit switched;
* global wires cost about 0.4 pJ/bit/mm with repeaters;
* a bi-synchronous FIFO crossing costs 4 cycles of latency (Section 5)
  plus level-shifter energy;
* crossbar critical path grows with port count, so the maximum feasible
  switch size shrinks as the target frequency rises (Section 4, step 1).

Only the *monotone shape* of these curves feeds the synthesis
algorithm — power grows with ports, frequency and traffic; fmax falls
with size — so the reproduction preserves the paper's qualitative
results even where absolute numbers differ from silicon.

All model parameters live in :class:`NocLibrary` as plain dataclass
fields, making ablations ("what if links were twice as expensive?") a
one-line change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from .. import units


@dataclass(frozen=True)
class NocLibrary:
    """Technology library describing NoC building blocks at 65 nm.

    The default values are the calibrated 65 nm set used by every
    benchmark in this repository.  Instances are immutable; derive
    variants with :func:`dataclasses.replace`.
    """

    #: Link data width in bits (the paper fixes it; Section 4 step 1).
    data_width_bits: int = 32

    # -- crossbar timing ------------------------------------------------
    #: Achievable frequency of a minimal (2-port) switch.
    switch_fmax_base_mhz: float = 1000.0
    #: Frequency lost per additional port on the critical path.
    switch_fmax_slope_mhz_per_port: float = 28.0
    #: Hard floor under which no switch is usable.
    switch_fmax_floor_mhz: float = 90.0

    # -- dynamic energy (pJ/bit of payload moved) -----------------------
    #: Fixed part of the switch traversal energy.
    switch_ebit_base_pj: float = 0.082
    #: Port-count-dependent part (bigger crossbars burn more per bit).
    switch_ebit_per_port_pj: float = 0.0115
    #: Network interface traversal energy (packetization + clock conv).
    ni_ebit_pj: float = 0.19
    #: Wire energy per bit per millimetre (repeatered global wire).
    link_ebit_per_mm_pj: float = 0.18
    #: Bi-synchronous FIFO + level shifter crossing energy.
    fifo_ebit_pj: float = 0.28

    # -- idle (clock-tree + control) dynamic power ----------------------
    # Idle power scales with the clock frequency and the component size;
    # this is what lets low-frequency islands save power relative to the
    # single-island reference (Figure 2, communication-based curve).
    #: mW per MHz per switch port.
    switch_idle_mw_per_mhz_per_port: float = 0.00085
    #: mW per MHz per switch, fixed part.
    switch_idle_mw_per_mhz_base: float = 0.0030
    #: mW per MHz per network interface.
    ni_idle_mw_per_mhz: float = 0.0025
    #: mW per MHz per bi-synchronous FIFO (both clock domains).
    fifo_idle_mw_per_mhz: float = 0.0011

    # -- leakage (mW, always-on unless the island is gated) -------------
    switch_leak_mw_base: float = 0.045
    switch_leak_mw_per_port: float = 0.028
    switch_leak_mw_per_crosspoint: float = 0.0042
    ni_leak_mw: float = 0.065
    fifo_leak_mw: float = 0.052
    link_leak_mw_per_mm: float = 0.011

    # -- area (mm^2) -----------------------------------------------------
    switch_area_mm2_base: float = 0.0046
    switch_area_mm2_per_port: float = 0.0019
    switch_area_mm2_per_crosspoint: float = 0.00078
    ni_area_mm2: float = 0.0125
    fifo_area_mm2: float = 0.006

    # -- latency (cycles / wire speed) -----------------------------------
    #: Cycles to traverse one switch (input buffering + crossbar).
    switch_traversal_cycles: int = 1
    #: Cycles on an intra-island, length-feasible link.
    link_traversal_cycles: int = 1
    #: Bi-synchronous FIFO crossing penalty (Section 5: "a 4 cycle
    #: delay is incurred on the voltage-frequency converters").
    fifo_crossing_cycles: int = 4
    #: Signal velocity on repeatered wire, mm per ns.
    wire_speed_mm_per_ns: float = 1.6

    def __post_init__(self) -> None:
        # fmax must fall with size, or no clock bounds the switch size
        # and max_switch_size_for_freq would search forever.
        slope = self.switch_fmax_slope_mhz_per_port
        if not (slope > 0 and math.isfinite(slope)):
            raise ValueError(
                "switch_fmax_slope_mhz_per_port must be positive and finite, got %r"
                % (slope,)
            )

    def key_text(self) -> str:
        """The library's part of a cache key: the JSON text of its
        canonical form, built on first use and kept on the library
        (:func:`~repro.cache.keys.kept_text`), so every key naming it
        shares one text."""
        from ..cache.keys import canonical_text, kept_text

        return kept_text(self, canonical_text)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_key_text", None)
        return state

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def switch_fmax_mhz(self, size: int) -> float:
        """Maximum clock of a switch with ``size`` ports per direction.

        ``size`` is max(inputs, outputs); the crossbar critical path
        grows with the wider side.  Monotone non-increasing in ``size``.
        """
        if size < 1:
            raise ValueError("switch size must be >= 1, got %r" % size)
        f = self.switch_fmax_base_mhz - self.switch_fmax_slope_mhz_per_port * max(0, size - 2)
        return max(self.switch_fmax_floor_mhz, f)

    def max_switch_size_for_freq(self, freq_mhz: float) -> int:
        """Largest switch size that still closes timing at ``freq_mhz``.

        This is ``max_sw_size_j`` of Algorithm 1 (step 1).  Always at
        least 2 — a one-core island still needs a functioning 2-port
        switch; frequencies above what a 2-port switch sustains raise
        ``ValueError`` because the spec is physically infeasible at the
        chosen link width.  Frequencies at or below
        ``switch_fmax_floor_mhz`` raise too: every size closes timing
        there, so the model gives no bound.
        """
        if not freq_mhz > 0:
            raise ValueError("frequency must be positive, got %r" % freq_mhz)
        if freq_mhz <= self.switch_fmax_floor_mhz:
            raise ValueError(
                "no switch size bound at %.1f MHz: every size closes timing at "
                "or below the %.1f MHz fmax floor" % (freq_mhz, self.switch_fmax_floor_mhz)
            )
        if self.switch_fmax_mhz(2) < freq_mhz:
            raise ValueError(
                "no switch closes timing at %.1f MHz (2-port fmax %.1f MHz); "
                "increase the link data width" % (freq_mhz, self.switch_fmax_mhz(2))
            )
        size = 2
        while self.switch_fmax_mhz(size + 1) >= freq_mhz:
            size += 1
        return size

    def wire_length_per_cycle_mm(self, freq_mhz: float) -> float:
        """Wire distance coverable in one clock cycle at ``freq_mhz``."""
        if freq_mhz <= 0:
            raise ValueError("frequency must be positive, got %r" % freq_mhz)
        period_ns = 1000.0 / freq_mhz
        return self.wire_speed_mm_per_ns * period_ns

    def link_cycles(self, length_mm: float, freq_mhz: float) -> int:
        """Cycles to traverse a link of ``length_mm`` at ``freq_mhz``.

        The paper uses unpipelined links; a link longer than one cycle
        of wire reach would need pipelining, which we model as extra
        cycles (and which :mod:`repro.floorplan.wires` reports).
        """
        if length_mm < 0:
            raise ValueError("length must be >= 0, got %r" % length_mm)
        if length_mm == 0.0:
            return self.link_traversal_cycles
        reach = self.wire_length_per_cycle_mm(freq_mhz)
        return max(self.link_traversal_cycles, int(math.ceil(length_mm / reach)))

    # ------------------------------------------------------------------
    # Dynamic energy / power
    # ------------------------------------------------------------------

    def switch_ebit_pj(self, n_in: int, n_out: int) -> float:
        """Energy per payload bit through a switch with given ports."""
        self._check_ports(n_in, n_out)
        return self.switch_ebit_base_pj + self.switch_ebit_per_port_pj * (n_in + n_out)

    def link_ebit_pj(self, length_mm: float) -> float:
        """Energy per payload bit over ``length_mm`` of wire."""
        if length_mm < 0:
            raise ValueError("length must be >= 0, got %r" % length_mm)
        return self.link_ebit_per_mm_pj * length_mm

    def switch_idle_power_mw(self, n_in: int, n_out: int, freq_mhz: float) -> float:
        """Clock-tree + control power of an idle switch."""
        self._check_ports(n_in, n_out)
        if freq_mhz < 0:
            raise ValueError("frequency must be >= 0, got %r" % freq_mhz)
        per_port = self.switch_idle_mw_per_mhz_per_port * (n_in + n_out)
        return (self.switch_idle_mw_per_mhz_base + per_port) * freq_mhz

    def ni_idle_power_mw(self, freq_mhz: float) -> float:
        """Clock power of an idle network interface."""
        if freq_mhz < 0:
            raise ValueError("frequency must be >= 0, got %r" % freq_mhz)
        return self.ni_idle_mw_per_mhz * freq_mhz

    def fifo_idle_power_mw(self, freq_a_mhz: float, freq_b_mhz: float) -> float:
        """Clock power of an idle bi-synchronous FIFO (both domains)."""
        if freq_a_mhz < 0 or freq_b_mhz < 0:
            raise ValueError("frequencies must be >= 0")
        return self.fifo_idle_mw_per_mhz * (freq_a_mhz + freq_b_mhz) / 2.0 * 2.0

    # ------------------------------------------------------------------
    # Leakage
    # ------------------------------------------------------------------

    def switch_leakage_mw(self, n_in: int, n_out: int) -> float:
        """Leakage of a powered switch."""
        self._check_ports(n_in, n_out)
        return (
            self.switch_leak_mw_base
            + self.switch_leak_mw_per_port * (n_in + n_out)
            + self.switch_leak_mw_per_crosspoint * n_in * n_out
        )

    def ni_leakage_mw(self) -> float:
        """Leakage of a powered network interface."""
        return self.ni_leak_mw

    def fifo_leakage_mw(self) -> float:
        """Leakage of a powered bi-synchronous FIFO."""
        return self.fifo_leak_mw

    def link_leakage_mw(self, length_mm: float) -> float:
        """Repeater leakage of a link of ``length_mm``."""
        if length_mm < 0:
            raise ValueError("length must be >= 0, got %r" % length_mm)
        return self.link_leak_mw_per_mm * length_mm

    # ------------------------------------------------------------------
    # Area
    # ------------------------------------------------------------------

    def switch_area_mm2(self, n_in: int, n_out: int) -> float:
        """Silicon area of a switch (buffers + crossbar + arbiter)."""
        self._check_ports(n_in, n_out)
        return (
            self.switch_area_mm2_base
            + self.switch_area_mm2_per_port * (n_in + n_out)
            + self.switch_area_mm2_per_crosspoint * n_in * n_out
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def link_capacity_mbps(self, freq_mhz: float) -> float:
        """Capacity of a link clocked at ``freq_mhz`` with library width."""
        return units.link_capacity_mbps(self.data_width_bits, freq_mhz)

    def required_freq_mhz(self, bandwidth_mbps: float) -> float:
        """Clock needed to carry ``bandwidth_mbps`` at library width."""
        return units.required_freq_mhz(bandwidth_mbps, self.data_width_bits)

    @staticmethod
    def _check_ports(n_in: int, n_out: int) -> None:
        if n_in < 1 or n_out < 1:
            raise ValueError(
                "switch needs at least one input and one output, got %dx%d" % (n_in, n_out)
            )


#: Shared default library instance used across benchmarks and examples.
DEFAULT_LIBRARY = NocLibrary()
