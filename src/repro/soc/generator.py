"""Parametric synthetic SoC generator.

Produces SoC specs with the traffic structure real MPSoCs exhibit and
the paper's benchmarks share:

* cores clustered into functional groups (CPU cluster, accelerators,
  memories, peripherals);
* a **pipeline** of accelerator flows inside each compute group;
* **hub** traffic between every group and the shared memories;
* **control** trickles from the CPU to everything;
* a long low-bandwidth tail of peripheral flows.

Generated specs are deterministic in the seed, always pass
:class:`~repro.core.spec.SoCSpec` validation, and keep every per-core
NI bandwidth within what a 2-port switch at the library's top frequency
can carry (so frequency planning never hits the infeasible wall).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.spec import CoreSpec, SoCSpec, TrafficFlow, build_spec
from ..exceptions import SpecError

#: kind -> (area mm2, dynamic mW, leakage mW) base figures at 65 nm.
_KIND_PROFILES: Dict[str, Tuple[float, float, float]] = {
    "cpu": (3.8, 190.0, 58.0),
    "cache": (4.5, 100.0, 70.0),
    "dsp": (2.9, 125.0, 40.0),
    "accelerator": (1.6, 85.0, 20.0),
    "memory": (2.1, 60.0, 40.0),
    "dma": (0.8, 34.0, 10.0),
    "io": (0.9, 40.0, 9.0),
    "peripheral": (0.35, 6.0, 2.0),
    "bridge": (0.5, 12.0, 4.0),
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape parameters for one synthetic SoC."""

    name: str
    num_cores: int
    num_groups: int = 4
    seed: int = 0
    #: Range of group<->memory hub flow bandwidths (MB/s).
    hub_bandwidth_mbps: Tuple[float, float] = (200.0, 800.0)
    #: Range of intra-group pipeline bandwidths (MB/s).
    pipeline_bandwidth_mbps: Tuple[float, float] = (100.0, 600.0)
    #: Range of peripheral-tail bandwidths (MB/s).
    tail_bandwidth_mbps: Tuple[float, float] = (1.0, 20.0)
    #: Latency budgets (cycles) for fast and slow flows.
    tight_latency_cycles: float = 10.0
    loose_latency_cycles: float = 40.0
    #: Fraction of cores that are peripherals/IO.
    peripheral_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.num_cores < 4:
            raise SpecError("generator needs at least 4 cores")
        if not 1 <= self.num_groups <= self.num_cores // 2:
            raise SpecError(
                "num_groups must be in [1, num_cores/2], got %d" % self.num_groups
            )


def generate_soc(config: GeneratorConfig) -> SoCSpec:
    """Generate a deterministic synthetic SoC from the config."""
    rng = random.Random(config.seed)
    cores = _make_cores(config, rng)
    flows = _make_flows(config, cores, rng)
    return build_spec(config.name, cores, flows)


def hub_soc(num_satellites: int = 24) -> SoCSpec:
    """A hub-and-spoke SoC that stresses the switch-size bound.

    One shared-memory hub exchanges 100 MB/s each way, under a 24-cycle
    latency bound, with each of ``num_satellites`` cores, and every core
    sits in its own voltage island.  The hub's NI
    aggregates all flows, driving its island clock high and therefore
    its ``max_sw_size`` *low* — while direct inter-island links would
    need one hub port per satellite.  This is exactly the situation
    Section 4 motivates the intermediate NoC island with: "If the
    switches from a VI are directly connected to the switches on the
    other VIs ... may lead to violation of the max_sw_size constraint.
    By using switches in an intermediate NoC island, the number of
    switch-to-switch links can be reduced."

    With default parameters, direct-only synthesis is infeasible and
    the intermediate island is required.
    """
    if num_satellites < 1:
        raise SpecError("need at least one satellite")
    cores = [CoreSpec("hub", 2.5, 80.0, 45.0, "memory", "mem", 400.0)]
    flows = []
    for i in range(num_satellites):
        name = "sat%02d" % i
        cores.append(CoreSpec(name, 1.2, 40.0, 12.0, "accelerator", "g%d" % i, 200.0))
        flows.append(TrafficFlow(name, "hub", 100.0, 24.0))
        flows.append(TrafficFlow("hub", name, 100.0, 24.0))
    assignment = {c.name: i for i, c in enumerate(cores)}
    return build_spec("hub%d" % num_satellites, cores, flows, assignment)


def _jitter(rng: random.Random, base: float, spread: float = 0.25) -> float:
    """Multiplicative jitter of +-spread around base."""
    return base * (1.0 + rng.uniform(-spread, spread))


def _make_cores(config: GeneratorConfig, rng: random.Random) -> List[CoreSpec]:
    n = config.num_cores
    n_periph = max(2, int(n * config.peripheral_fraction))
    n_compute = n - n_periph

    cores: List[CoreSpec] = []
    # CPU cluster: one host CPU + cache, always present.
    cores.append(_core("cpu0", "cpu", "cpu", rng))
    cores.append(_core("cache0", "cache", "cpu", rng))
    # Shared memories: scale with size, at least two.
    n_mem = max(2, n // 10)
    for i in range(n_mem):
        cores.append(_core("mem%d" % i, "memory", "mem", rng))
    cores.append(_core("dma0", "dma", "mem", rng))
    # Compute groups of DSPs/accelerators.
    remaining_compute = n_compute - len(cores)
    group_names = ["grp%d" % g for g in range(config.num_groups)]
    gi = 0
    idx = 0
    while remaining_compute > 0:
        group = group_names[gi % len(group_names)]
        kind = "dsp" if idx % 3 == 0 else "accelerator"
        cores.append(_core("acc%d" % idx, kind, group, rng))
        idx += 1
        gi += 1
        remaining_compute -= 1
    # Peripheral tail: bridge + IO + small blocks.
    cores.append(_core("bridge0", "bridge", "periph", rng))
    for i in range(n_periph - 1):
        kind = "io" if i % 3 == 0 else "peripheral"
        cores.append(_core("per%d" % i, kind, "periph", rng))
    # Trim or top up to the exact requested count (group bookkeeping
    # above can overshoot by construction order).
    if len(cores) > n:
        cores = cores[:n]
    i = 0
    while len(cores) < n:
        cores.append(_core("pad%d" % i, "peripheral", "periph", rng))
        i += 1
    return cores


def _core(name: str, kind: str, group: str, rng: random.Random) -> CoreSpec:
    area, dyn, leak = _KIND_PROFILES[kind]
    return CoreSpec(
        name=name,
        area_mm2=round(_jitter(rng, area), 3),
        dynamic_power_mw=round(_jitter(rng, dyn), 2),
        leakage_power_mw=round(_jitter(rng, leak), 2),
        kind=kind,
        group=group,
        freq_mhz=rng.choice([100.0, 200.0, 250.0, 333.0, 400.0, 500.0]),
    )


def _make_flows(
    config: GeneratorConfig, cores: List[CoreSpec], rng: random.Random
) -> List[TrafficFlow]:
    by_group: Dict[str, List[str]] = {}
    for c in cores:
        by_group.setdefault(c.group, []).append(c.name)
    mems = [c.name for c in cores if c.kind == "memory"]
    cpu = "cpu0"
    cache = "cache0"
    flows: List[TrafficFlow] = []
    seen = set()

    def add(src: str, dst: str, bw: float, lat: float) -> None:
        if src == dst or (src, dst) in seen:
            return
        seen.add((src, dst))
        flows.append(TrafficFlow(src, dst, round(bw, 1), lat))

    lo_h, hi_h = config.hub_bandwidth_mbps
    lo_p, hi_p = config.pipeline_bandwidth_mbps
    lo_t, hi_t = config.tail_bandwidth_mbps
    tight = config.tight_latency_cycles
    loose = config.loose_latency_cycles

    # CPU <-> cache <-> memory backbone.
    add(cpu, cache, rng.uniform(lo_h, hi_h), tight)
    add(cache, cpu, rng.uniform(lo_h, hi_h) * 1.2, tight)
    add(cache, mems[0], rng.uniform(lo_h, hi_h) * 0.6, tight + 4)
    add(mems[0], cache, rng.uniform(lo_h, hi_h) * 0.7, tight + 4)

    # Pipelines inside each compute group + hub to a memory.
    for group, members in sorted(by_group.items()):
        if group in ("cpu", "mem", "periph"):
            continue
        chain = sorted(members)
        for a, b in zip(chain, chain[1:]):
            add(a, b, rng.uniform(lo_p, hi_p), tight + 5)
        if chain:
            mem = mems[rng.randrange(len(mems))]
            add(mem, chain[0], rng.uniform(lo_h, hi_h) * 0.8, tight + 5)
            add(chain[-1], mem, rng.uniform(lo_h, hi_h) * 0.8, tight + 5)
            add(cpu, chain[0], rng.uniform(2.0, 12.0), loose)

    # DMA hub traffic.
    if "dma0" in {c.name for c in cores}:
        add("dma0", mems[0], rng.uniform(lo_h, hi_h) * 0.5, tight + 5)
        add(mems[-1], "dma0", rng.uniform(lo_h, hi_h) * 0.5, tight + 5)

    # Peripheral tail via the bridge.
    periph = sorted(by_group.get("periph", []))
    bridge = "bridge0" if "bridge0" in periph else (periph[0] if periph else None)
    if bridge is not None:
        add(cpu, bridge, rng.uniform(5.0, 15.0), loose - 10)
        for p in periph:
            if p == bridge:
                continue
            add(bridge, p, rng.uniform(lo_t, hi_t), loose)
            if rng.random() < 0.5:
                add(p, bridge, rng.uniform(lo_t, hi_t), loose)
    return flows
