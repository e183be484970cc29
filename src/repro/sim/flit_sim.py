"""Packet-level NoC simulator for latency validation.

The paper quotes *zero-load* latencies computed analytically; this
simulator exists to (a) validate that analytical model against an
independent dynamic execution and (b) go beyond the paper by measuring
contention at non-zero load (an extension hook for the benches).

Model (virtual cut-through approximation of wormhole):

* every flow injects fixed-size packets at its specified bandwidth,
  either CBR (deterministic spacing) or Poisson;
* NI attachment links are port connections (zero latency, no
  serialization), matching the zero-load accounting in
  :mod:`repro.sim.zero_load`;
* each switch delays the packet head by one cycle of its clock domain;
* each switch-to-switch link is a FIFO server: the packet occupies it
  for ``flits x cycle`` (serialization) and the head needs the link's
  latency cycles on top — 1 cycle intra-island, 4 cycles through a
  bi-synchronous converter (the link clock is the slower of the two
  domains, as in the hardware);
* buffers are not modelled (infinite-buffer assumption), so results
  are optimistic under saturation — fine for validation, documented
  for the contention study.

Clock domains follow the GALS structure: delays are computed in each
element's own clock and accumulated in nanoseconds, so islands at
different frequencies interact exactly as they would in silicon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..arch.topology import FlowKey, Topology
from ..exceptions import ValidationError
from .events import EventQueue, run_until


@dataclass(frozen=True)
class FlitSimConfig:
    """Simulation parameters."""

    #: Payload flits per packet (a flit is one link-width word).
    packet_size_flits: int = 8
    #: Multiplier on every flow's bandwidth (1.0 = spec rates).
    load_factor: float = 1.0
    #: Simulated time horizon.
    sim_time_ns: float = 40_000.0
    #: Statistics ignore packets injected before this time.
    warmup_ns: float = 4_000.0
    #: ``"cbr"`` (deterministic) or ``"poisson"`` arrivals.
    arrival_process: str = "cbr"
    #: Inject exactly one packet per flow, widely spaced: a true
    #: zero-load run whose latencies must equal the analytic model.
    single_packet: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.packet_size_flits < 1:
            raise ValueError("packet size must be >= 1 flit")
        if self.load_factor <= 0:
            raise ValueError("load factor must be positive")
        if self.sim_time_ns <= self.warmup_ns:
            raise ValueError("sim time must exceed warmup")
        if self.arrival_process not in ("cbr", "poisson"):
            raise ValueError("arrival process must be 'cbr' or 'poisson'")


@dataclass(frozen=True)
class FlowStats:
    """Per-flow latency statistics (ns and cycles-equivalent)."""

    flow: FlowKey
    packets: int
    mean_latency_ns: float
    max_latency_ns: float
    #: Analytic zero-load latency in ns for comparison.
    zero_load_ns: float


@dataclass(frozen=True)
class SimReport:
    """Whole-run results."""

    per_flow: Mapping[FlowKey, FlowStats]
    packets_delivered: int
    mean_latency_ns: float

    def worst_relative_error(self) -> float:
        """Max over flows of |sim - analytic| / analytic.

        At ``load_factor`` low enough to avoid contention this should be
        ~0: the simulator and the zero-load model must agree.
        """
        worst = 0.0
        for st in self.per_flow.values():
            if st.zero_load_ns <= 0 or st.packets == 0:
                continue
            err = abs(st.mean_latency_ns - st.zero_load_ns) / st.zero_load_ns
            worst = max(worst, err)
        return worst


@dataclass
class _Packet:
    flow: FlowKey
    inject_ns: float
    hop: int = 0  # index into the route's link list


def _cycle_ns(freq_mhz: float) -> float:
    return 1000.0 / freq_mhz


def zero_load_latency_ns(topology: Topology, flow_key: FlowKey) -> float:
    """Analytic zero-load header latency in nanoseconds.

    Per-domain version of :func:`repro.sim.zero_load.route_latency_cycles`:
    each element's cycles are weighted by its own clock period.
    """
    lib = topology.library
    route = topology.routes[flow_key]
    total = 0.0
    for comp in route.components[1:-1]:
        sw = topology.switches[comp]
        total += lib.switch_traversal_cycles * _cycle_ns(sw.freq_mhz)
    for lid in route.links:
        link = topology.links[lid]
        if link.kind in ("ni2sw", "sw2ni"):
            continue
        cycles = (
            lib.fifo_crossing_cycles if link.converter else lib.link_traversal_cycles
        )
        total += cycles * _cycle_ns(link.freq_mhz)
    return total


def simulate(topology: Topology, config: Optional[FlitSimConfig] = None) -> SimReport:
    """Run the packet simulation over every routed flow."""
    cfg = config or FlitSimConfig()
    lib = topology.library
    spec = topology.spec
    rng = random.Random(cfg.seed)

    flit_bytes = lib.data_width_bits // 8
    packet_bytes = cfg.packet_size_flits * flit_bytes

    # Pre-compute per-flow interarrival and per-link service metadata.
    interarrival: Dict[FlowKey, float] = {}
    for flow in spec.flows:
        if flow.key not in topology.routes:
            raise ValidationError("flow %s->%s not routed; cannot simulate" % flow.key)
        bytes_per_ns = flow.bandwidth_mbps * cfg.load_factor / 1000.0
        interarrival[flow.key] = packet_bytes / bytes_per_ns

    link_free: Dict[int, float] = {lid: 0.0 for lid in topology.links}
    queue = EventQueue()
    # Per flow: (inject_ns, latency_ns) samples; inject time drives the
    # warmup filter.
    samples: Dict[FlowKey, List[Tuple[float, float]]] = {f.key: [] for f in spec.flows}

    def schedule_injection(key: FlowKey, t: float) -> None:
        queue.push(t, ("inject", key))

    def next_gap(key: FlowKey) -> float:
        gap = interarrival[key]
        if cfg.arrival_process == "poisson":
            return rng.expovariate(1.0 / gap)
        return gap

    if cfg.single_packet:
        # One packet per flow, serialized in time: no two packets are
        # ever in flight together, so measured latency IS zero-load.
        spacing = 5_000.0
        for i, flow in enumerate(sorted(spec.flows, key=lambda f: f.key)):
            schedule_injection(flow.key, cfg.warmup_ns + i * spacing)
    else:
        # Random initial phase within one interarrival: CBR flows with
        # rationally related periods would otherwise collide in
        # persistent phase lock and bias low-load latencies upward.
        for flow in sorted(spec.flows, key=lambda f: f.key):
            phase = rng.uniform(0.0, interarrival[flow.key])
            schedule_injection(flow.key, phase)

    def handler(t: float, payload: Tuple) -> None:
        kind = payload[0]
        if kind == "inject":
            key = payload[1]
            pkt = _Packet(flow=key, inject_ns=t)
            queue.push(t, ("hop", pkt, t))
            if not cfg.single_packet:
                schedule_injection(key, t + next_gap(key))
            return
        # ("hop", packet, head_time): the head is ready to take the
        # next link of its route at head_time.
        _, pkt, head_time = payload
        route = topology.routes[pkt.flow]
        if pkt.hop >= len(route.links):
            samples[pkt.flow].append((pkt.inject_ns, head_time - pkt.inject_ns))
            return
        lid = route.links[pkt.hop]
        link = topology.links[lid]
        pkt.hop += 1
        if link.kind in ("ni2sw", "sw2ni"):
            # Port connection: no delay; but entering a switch costs its
            # traversal cycle (for ni2sw); leaving to the NI costs none.
            if link.kind == "ni2sw":
                sw = topology.switches[link.dst]
                delay = lib.switch_traversal_cycles * _cycle_ns(sw.freq_mhz)
            else:
                delay = 0.0
            queue.push(head_time + delay, ("hop", pkt, head_time + delay))
            return
        # sw2sw link: wait for the server, serialize, traverse, then pay
        # the downstream switch's traversal cycle.
        cyc = _cycle_ns(link.freq_mhz)
        start = max(head_time, link_free[lid])
        occupancy = cfg.packet_size_flits * cyc
        link_free[lid] = start + occupancy
        lat_cycles = (
            lib.fifo_crossing_cycles if link.converter else lib.link_traversal_cycles
        )
        arrive = start + lat_cycles * cyc
        sw = topology.switches[link.dst]
        arrive += lib.switch_traversal_cycles * _cycle_ns(sw.freq_mhz)
        queue.push(arrive, ("hop", pkt, arrive))

    horizon = cfg.sim_time_ns
    if cfg.single_packet:
        # Ensure the horizon covers every spaced injection plus slack
        # for the slowest route.
        horizon = max(horizon, cfg.warmup_ns + (len(spec.flows) + 2) * 5_000.0)
    run_until(queue, handler, horizon)

    per_flow: Dict[FlowKey, FlowStats] = {}
    delivered = 0
    lat_sum = 0.0
    for key, flow_samples in samples.items():
        kept = [lat for inj, lat in flow_samples if inj >= cfg.warmup_ns]
        analytic = zero_load_latency_ns(topology, key)
        if kept:
            mean = sum(kept) / len(kept)
            mx = max(kept)
        else:
            mean = mx = 0.0
        per_flow[key] = FlowStats(
            flow=key,
            packets=len(kept),
            mean_latency_ns=mean,
            max_latency_ns=mx,
            zero_load_ns=analytic,
        )
        delivered += len(kept)
        lat_sum += sum(kept)
    return SimReport(
        per_flow=per_flow,
        packets_delivered=delivered,
        mean_latency_ns=lat_sum / delivered if delivered else 0.0,
    )
