"""Built-in SoC benchmarks.

The paper's case study is a proprietary "SoC design ... used for mobile
communication and multimedia applications.  The benchmark has 26 cores,
consisting of several processors, DSPs, caches, DMA controller,
integrated memory, video decoder engines and a multitude of peripheral
I/O ports" (Section 5).  :func:`mobile_soc_26` is a faithful synthetic
clone: same core count, same functional mix, and a traffic profile with
the same statistics — a handful of >0.5 GB/s pipeline/cache flows plus
a long tail of peripheral trickles.  Bandwidths are MB/s, latency
budgets are NoC cycles, core power/area figures are 65 nm-plausible and
sum to a ~1.8 W / ~46 mm^2 system so the paper's overhead percentages
(NoC ≈ 3% of dynamic power, < 0.5% of area) are measured against a
realistic denominator.

The remaining benchmarks give the "variety of SoC benchmarks" the
overhead study sweeps: two hand-built smaller designs and two generated
larger ones (:mod:`repro.soc.generator`).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.spec import CoreSpec, SoCSpec, TrafficFlow, build_spec
from ..exceptions import SpecError
from .generator import GeneratorConfig, generate_soc


def mobile_soc_26() -> SoCSpec:
    """The 26-core mobile communication / multimedia SoC (case study).

    Cores carry ``group`` paths used by logical partitioning; the
    default island assignment is a single island (the paper's reference
    point) — apply a partitioning strategy from
    :mod:`repro.soc.partitioning` to sweep island counts.
    """
    cores = [
        # name, area mm2, dyn mW, leak mW, kind, group, core MHz
        CoreSpec("arm0", 4.0, 200.0, 60.0, "cpu", "cpu", 500.0),
        CoreSpec("arm1", 4.0, 200.0, 60.0, "cpu", "cpu", 500.0),
        CoreSpec("l2cache", 6.0, 120.0, 80.0, "cache", "cpu", 500.0),
        CoreSpec("dsp0", 3.0, 120.0, 40.0, "dsp", "dsp", 400.0),
        CoreSpec("dsp1", 3.0, 120.0, 40.0, "dsp", "dsp", 400.0),
        CoreSpec("dsp2", 3.0, 120.0, 40.0, "dsp", "dsp", 400.0),
        CoreSpec("sdram0", 1.8, 90.0, 20.0, "memory", "mem", 333.0),
        CoreSpec("sdram1", 1.8, 90.0, 20.0, "memory", "mem", 333.0),
        CoreSpec("sram0", 2.5, 45.0, 50.0, "memory", "mem", 333.0),
        CoreSpec("sram1", 2.5, 45.0, 50.0, "memory", "mem", 333.0),
        CoreSpec("rom", 1.0, 5.0, 8.0, "memory", "mem", 200.0),
        CoreSpec("dma", 0.8, 35.0, 10.0, "dma", "mem", 333.0),
        CoreSpec("vld", 1.2, 70.0, 15.0, "video", "video", 250.0),
        CoreSpec("idct", 1.4, 85.0, 18.0, "video", "video", 250.0),
        CoreSpec("mc", 1.8, 95.0, 20.0, "video", "video", 250.0),
        CoreSpec("vout", 1.5, 80.0, 16.0, "video", "video", 250.0),
        CoreSpec("disp", 1.2, 60.0, 12.0, "display", "video", 150.0),
        CoreSpec("cam", 0.9, 45.0, 10.0, "imaging", "imaging", 150.0),
        CoreSpec("imgenc", 1.6, 75.0, 16.0, "imaging", "imaging", 250.0),
        CoreSpec("audio_io", 0.6, 18.0, 5.0, "audio", "audio", 100.0),
        CoreSpec("usb", 0.9, 40.0, 9.0, "io", "periph", 100.0),
        CoreSpec("uart", 0.3, 6.0, 2.0, "peripheral", "periph", 100.0),
        CoreSpec("spi", 0.3, 5.0, 2.0, "peripheral", "periph", 100.0),
        CoreSpec("keypad", 0.25, 3.0, 1.5, "peripheral", "periph", 100.0),
        CoreSpec("timer", 0.3, 4.0, 2.0, "peripheral", "periph", 100.0),
        CoreSpec("bridge", 0.5, 12.0, 4.0, "bridge", "periph", 200.0),
    ]
    flows = [
        # --- CPU subsystem: cache traffic dominates -------------------
        TrafficFlow("arm0", "l2cache", 320.0, 8.0),
        TrafficFlow("l2cache", "arm0", 400.0, 8.0),
        TrafficFlow("arm1", "l2cache", 200.0, 8.0),
        TrafficFlow("l2cache", "arm1", 240.0, 8.0),
        TrafficFlow("l2cache", "sdram0", 200.0, 12.0),
        TrafficFlow("sdram0", "l2cache", 256.0, 12.0),
        TrafficFlow("rom", "arm0", 8.0, 30.0),
        TrafficFlow("arm0", "dma", 3.2, 25.0),
        TrafficFlow("arm0", "bridge", 4.0, 25.0),
        TrafficFlow("arm1", "bridge", 2.4, 25.0),
        # --- video decode pipeline ------------------------------------
        TrafficFlow("sdram0", "vld", 48.0, 18.0),
        TrafficFlow("vld", "idct", 96.0, 15.0),
        TrafficFlow("idct", "mc", 160.0, 15.0),
        TrafficFlow("sdram1", "mc", 280.0, 15.0),
        TrafficFlow("mc", "vout", 240.0, 15.0),
        TrafficFlow("vout", "sdram1", 320.0, 15.0),
        TrafficFlow("sdram1", "disp", 304.0, 18.0),
        TrafficFlow("arm0", "vld", 2.0, 30.0),
        # --- imaging / camera ------------------------------------------
        TrafficFlow("cam", "sram0", 160.0, 18.0),
        TrafficFlow("sram0", "imgenc", 144.0, 18.0),
        TrafficFlow("imgenc", "sdram1", 72.0, 20.0),
        TrafficFlow("dsp2", "sram0", 96.0, 15.0),
        TrafficFlow("sram0", "dsp2", 120.0, 15.0),
        TrafficFlow("dsp2", "sdram1", 40.0, 20.0),
        # --- modem / audio DSPs ----------------------------------------
        TrafficFlow("dsp0", "sram1", 112.0, 12.0),
        TrafficFlow("sram1", "dsp0", 128.0, 12.0),
        TrafficFlow("dsp0", "sdram0", 24.0, 20.0),
        TrafficFlow("sdram0", "dsp0", 32.0, 20.0),
        TrafficFlow("dsp1", "sram1", 48.0, 15.0),
        TrafficFlow("sram1", "dsp1", 56.0, 15.0),
        TrafficFlow("dsp1", "audio_io", 10.0, 20.0),
        TrafficFlow("audio_io", "dsp1", 8.0, 20.0),
        # --- DMA / IO ----------------------------------------------------
        TrafficFlow("dma", "sdram0", 160.0, 15.0),
        TrafficFlow("sdram0", "dma", 144.0, 15.0),
        TrafficFlow("dma", "sram0", 36.0, 18.0),
        TrafficFlow("dma", "usb", 16.0, 25.0),
        TrafficFlow("usb", "dma", 24.0, 25.0),
        TrafficFlow("usb", "sdram1", 20.0, 25.0),
        # --- peripherals (low-bandwidth tail) ---------------------------
        TrafficFlow("bridge", "uart", 0.8, 40.0),
        TrafficFlow("uart", "bridge", 0.8, 40.0),
        TrafficFlow("bridge", "spi", 1.6, 40.0),
        TrafficFlow("spi", "bridge", 1.2, 40.0),
        TrafficFlow("bridge", "keypad", 0.4, 40.0),
        TrafficFlow("keypad", "bridge", 0.4, 40.0),
        TrafficFlow("bridge", "timer", 0.8, 40.0),
    ]
    return build_spec("d26_media", cores, flows)


def automotive_soc_12() -> SoCSpec:
    """12-core automotive control SoC (hand-built suite member)."""
    cores = [
        CoreSpec("mcu0", 3.0, 150.0, 45.0, "cpu", "cpu", 400.0),
        CoreSpec("mcu1", 3.0, 150.0, 45.0, "cpu", "cpu", 400.0),
        CoreSpec("flash", 2.0, 30.0, 25.0, "memory", "mem", 200.0),
        CoreSpec("sram", 2.0, 40.0, 40.0, "memory", "mem", 300.0),
        CoreSpec("dspe", 2.5, 110.0, 35.0, "dsp", "dsp", 350.0),
        CoreSpec("canif", 0.5, 10.0, 3.0, "io", "periph", 100.0),
        CoreSpec("linif", 0.4, 8.0, 2.5, "io", "periph", 100.0),
        CoreSpec("adc", 0.6, 15.0, 4.0, "peripheral", "periph", 100.0),
        CoreSpec("pwm", 0.4, 12.0, 3.0, "peripheral", "periph", 100.0),
        CoreSpec("wdt", 0.3, 3.0, 1.0, "peripheral", "periph", 100.0),
        CoreSpec("safety", 1.2, 60.0, 18.0, "accelerator", "safety", 300.0),
        CoreSpec("gateway", 0.8, 25.0, 7.0, "bridge", "periph", 200.0),
    ]
    flows = [
        TrafficFlow("mcu0", "sram", 500.0, 8.0),
        TrafficFlow("sram", "mcu0", 600.0, 8.0),
        TrafficFlow("mcu1", "sram", 350.0, 8.0),
        TrafficFlow("sram", "mcu1", 420.0, 8.0),
        TrafficFlow("mcu0", "flash", 120.0, 15.0),
        TrafficFlow("flash", "mcu0", 180.0, 15.0),
        TrafficFlow("dspe", "sram", 300.0, 10.0),
        TrafficFlow("sram", "dspe", 340.0, 10.0),
        TrafficFlow("adc", "dspe", 80.0, 15.0),
        TrafficFlow("dspe", "pwm", 60.0, 15.0),
        TrafficFlow("mcu0", "safety", 90.0, 12.0),
        TrafficFlow("safety", "mcu0", 70.0, 12.0),
        TrafficFlow("safety", "sram", 110.0, 12.0),
        TrafficFlow("canif", "gateway", 8.0, 30.0),
        TrafficFlow("gateway", "canif", 8.0, 30.0),
        TrafficFlow("linif", "gateway", 3.0, 35.0),
        TrafficFlow("gateway", "linif", 3.0, 35.0),
        TrafficFlow("gateway", "mcu1", 15.0, 25.0),
        TrafficFlow("mcu1", "gateway", 12.0, 25.0),
        TrafficFlow("wdt", "mcu0", 1.0, 40.0),
    ]
    return build_spec("d12_auto", cores, flows)


def telecom_soc_20() -> SoCSpec:
    """20-core telecom baseband SoC (hand-built suite member)."""
    cores = [
        CoreSpec("host", 3.5, 180.0, 55.0, "cpu", "cpu", 450.0),
        CoreSpec("l1cache", 3.0, 80.0, 55.0, "cache", "cpu", 450.0),
        CoreSpec("bbdsp0", 2.8, 130.0, 42.0, "dsp", "baseband", 400.0),
        CoreSpec("bbdsp1", 2.8, 130.0, 42.0, "dsp", "baseband", 400.0),
        CoreSpec("fft", 1.6, 90.0, 22.0, "accelerator", "baseband", 350.0),
        CoreSpec("viterbi", 1.5, 85.0, 20.0, "accelerator", "baseband", 350.0),
        CoreSpec("turbo", 1.7, 95.0, 24.0, "accelerator", "baseband", 350.0),
        CoreSpec("mapper", 1.0, 55.0, 14.0, "accelerator", "baseband", 300.0),
        CoreSpec("ddr", 1.8, 85.0, 18.0, "memory", "mem", 333.0),
        CoreSpec("sysram", 2.2, 42.0, 45.0, "memory", "mem", 333.0),
        CoreSpec("pktram", 2.0, 40.0, 42.0, "memory", "mem", 333.0),
        CoreSpec("dmac", 0.8, 32.0, 9.0, "dma", "mem", 333.0),
        CoreSpec("rfif", 1.0, 50.0, 12.0, "io", "radio", 250.0),
        CoreSpec("gmac", 1.1, 48.0, 11.0, "io", "netio", 250.0),
        CoreSpec("crypto", 1.3, 65.0, 16.0, "accelerator", "netio", 300.0),
        CoreSpec("usbc", 0.9, 38.0, 9.0, "io", "periph", 100.0),
        CoreSpec("uartc", 0.3, 6.0, 2.0, "peripheral", "periph", 100.0),
        CoreSpec("gpio", 0.3, 4.0, 1.5, "peripheral", "periph", 100.0),
        CoreSpec("timers", 0.3, 5.0, 2.0, "peripheral", "periph", 100.0),
        CoreSpec("pbridge", 0.5, 11.0, 3.5, "bridge", "periph", 200.0),
    ]
    flows = [
        TrafficFlow("host", "l1cache", 700.0, 8.0),
        TrafficFlow("l1cache", "host", 900.0, 8.0),
        TrafficFlow("l1cache", "ddr", 400.0, 12.0),
        TrafficFlow("ddr", "l1cache", 520.0, 12.0),
        TrafficFlow("rfif", "bbdsp0", 600.0, 10.0),
        TrafficFlow("bbdsp0", "fft", 550.0, 10.0),
        TrafficFlow("fft", "bbdsp1", 500.0, 10.0),
        TrafficFlow("bbdsp1", "viterbi", 350.0, 12.0),
        TrafficFlow("viterbi", "mapper", 200.0, 12.0),
        TrafficFlow("bbdsp1", "turbo", 380.0, 12.0),
        TrafficFlow("turbo", "pktram", 260.0, 12.0),
        TrafficFlow("mapper", "pktram", 180.0, 15.0),
        TrafficFlow("pktram", "gmac", 420.0, 12.0),
        TrafficFlow("gmac", "pktram", 380.0, 12.0),
        TrafficFlow("crypto", "pktram", 220.0, 15.0),
        TrafficFlow("pktram", "crypto", 240.0, 15.0),
        TrafficFlow("bbdsp0", "sysram", 320.0, 10.0),
        TrafficFlow("sysram", "bbdsp0", 360.0, 10.0),
        TrafficFlow("dmac", "ddr", 300.0, 15.0),
        TrafficFlow("ddr", "dmac", 280.0, 15.0),
        TrafficFlow("dmac", "pktram", 260.0, 15.0),
        TrafficFlow("host", "pbridge", 12.0, 25.0),
        TrafficFlow("pbridge", "uartc", 2.0, 40.0),
        TrafficFlow("pbridge", "gpio", 1.0, 40.0),
        TrafficFlow("pbridge", "timers", 2.0, 40.0),
        TrafficFlow("usbc", "ddr", 45.0, 25.0),
        TrafficFlow("host", "crypto", 35.0, 20.0),
        TrafficFlow("rfif", "sysram", 90.0, 18.0),
    ]
    return build_spec("d20_tele", cores, flows)


def network_soc_16() -> SoCSpec:
    """16-core network processor (generated, fixed seed)."""
    cfg = GeneratorConfig(
        name="d16_net",
        num_cores=16,
        num_groups=4,
        seed=1601,
        hub_bandwidth_mbps=(250.0, 700.0),
        pipeline_bandwidth_mbps=(150.0, 500.0),
    )
    return generate_soc(cfg)


def multimedia_soc_38() -> SoCSpec:
    """38-core large multimedia SoC (generated, fixed seed)."""
    cfg = GeneratorConfig(
        name="d38_media",
        num_cores=38,
        num_groups=7,
        seed=3801,
        hub_bandwidth_mbps=(200.0, 900.0),
        pipeline_bandwidth_mbps=(120.0, 650.0),
    )
    return generate_soc(cfg)


#: Registry of all built-in benchmarks by name.
BENCHMARKS: Dict[str, Callable[[], SoCSpec]] = {
    "d26_media": mobile_soc_26,
    "d12_auto": automotive_soc_12,
    "d20_tele": telecom_soc_20,
    "d16_net": network_soc_16,
    "d38_media": multimedia_soc_38,
}


def benchmark_suite() -> List[SoCSpec]:
    """Every built-in benchmark, freshly constructed."""
    return [factory() for factory in BENCHMARKS.values()]


def load_benchmark(name: str) -> SoCSpec:
    """Look up a benchmark by name.

    >>> load_benchmark("d26_media").name
    'd26_media'
    """
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise SpecError(
            "unknown benchmark %r (available: %s)" % (name, ", ".join(sorted(BENCHMARKS)))
        ) from None
    return factory()
