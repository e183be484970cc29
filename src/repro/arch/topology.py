"""NoC architecture model: switches, NIs, links and topologies.

The synthesized artifact is a :class:`Topology`:

* every core gets a :class:`NetworkInterface` (NI) that converts the
  core's protocol and clock to the island NoC clock (Section 3.1);
* each voltage island contains one or more :class:`Switch` es, all
  clocked at the island frequency (locally synchronous);
* an optional *intermediate NoC island* — identified by
  :data:`INTERMEDIATE_ISLAND` — hosts indirect switches that are never
  shut down;
* :class:`Link` s connect NIs to switches and switches to switches.  A
  link whose endpoints sit in different islands carries an implicit
  bi-synchronous FIFO voltage/frequency converter, costing 4 cycles and
  extra power (Sections 3.1, 5).

The topology is built incrementally by the path allocator and then
consumed read-mostly by floorplanning, power analysis, validation,
simulation and export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.spec import SoCSpec, TrafficFlow
from ..exceptions import ValidationError
from ..power.library import NocLibrary

#: Island id of the intermediate (never-gated) NoC island.
INTERMEDIATE_ISLAND = -1

FlowKey = Tuple[str, str]
#: A flow's ``(key, bandwidth_mbps)`` charge on one link of its route.
FlowCharge = Tuple[FlowKey, float]


def switch_id(island: int, index: int) -> str:
    """Canonical switch component id, e.g. ``"sw2.1"`` or ``"swM.0"``."""
    tag = "M" if island == INTERMEDIATE_ISLAND else str(island)
    return "sw%s.%d" % (tag, index)


def ni_id(core_name: str) -> str:
    """Canonical NI component id for a core."""
    return "ni.%s" % core_name


@dataclass
class Switch:
    """A NoC switch (router) inside one island.

    Port counts are derived from the attached links and maintained by
    :class:`Topology`; ``size`` is ``max(n_in, n_out)`` — the quantity
    the crossbar timing model constrains.
    """

    id: str
    island: int
    freq_mhz: float
    n_in: int = 0
    n_out: int = 0

    @property
    def size(self) -> int:
        """Ports per direction as constrained by ``max_sw_size``."""
        return max(self.n_in, self.n_out)

    @property
    def is_intermediate(self) -> bool:
        """True for indirect switches in the intermediate NoC island."""
        return self.island == INTERMEDIATE_ISLAND


@dataclass(frozen=True)
class NetworkInterface:
    """The NI attaching one core to its island's NoC.

    Frozen, so topologies can share one: every scaffold of a candidate
    pass attaches the same NI per core, clones share their original's,
    and the points of one cached record or fan-out chunk decode into
    shared NIs.
    """

    id: str
    core: str
    island: int
    freq_mhz: float

    def __reduce__(self) -> tuple:
        # The constructor with positional fields: smaller than the
        # default state dict, and pickle's memo writes a shared NI once
        # per payload.
        return (NetworkInterface, (self.id, self.core, self.island, self.freq_mhz))


@dataclass
class Link:
    """A unidirectional physical link between two NoC components.

    A link whose endpoints sit in different islands normally carries a
    bi-synchronous FIFO at the receiving end; ``has_converter`` can
    override that derivation for reinterpreted topologies (the
    VI-oblivious baseline labels islands post-hoc on a single-clock
    design that physically has no converters).  ``length_mm`` is filled
    in by the floorplanner (0.0 before placement).  ``flows`` lists the
    traffic routed over this link with its bandwidth so capacity and
    energy can be computed.
    """

    id: int
    src: str
    dst: str
    src_island: int
    dst_island: int
    freq_mhz: float
    capacity_mbps: float
    kind: str  # "ni2sw" | "sw2ni" | "sw2sw"
    length_mm: float = 0.0
    flows: List[FlowCharge] = field(default_factory=list)
    #: None = derive from islands; True/False = explicit override.
    has_converter: Optional[bool] = None

    def __post_init__(self) -> None:
        # Used bandwidth is kept incrementally (the path allocator reads
        # residual capacity in its innermost loop; summing the flow list
        # on every probe dominated the old profile).  Mutate the flow
        # list only through add_flow/remove_flow so the cache stays true.
        self._used_mbps = sum(bw for _, bw in self.flows)

    def add_flow(self, charge: FlowCharge) -> None:
        """Charge a flow's ``(key, bandwidth_mbps)`` to this link.

        Routes pass the flow's own :attr:`TrafficFlow.charge`, so every
        link a flow crosses holds the one tuple.
        """
        self.flows.append(charge)
        self._used_mbps += charge[1]

    def remove_flow(self, key: FlowKey) -> None:
        """Release every charge of flow ``key`` from this link."""
        kept = [charge for charge in self.flows if charge[0] != key]
        if len(kept) != len(self.flows):
            self.flows = kept
            self._used_mbps = sum(bw for _, bw in kept)

    @property
    def crosses_islands(self) -> bool:
        """True if the endpoints live in different voltage islands."""
        return self.src_island != self.dst_island

    @property
    def converter(self) -> bool:
        """True if a bi-synchronous FIFO sits on this link."""
        if self.has_converter is None:
            return self.crosses_islands
        return self.has_converter

    @property
    def used_mbps(self) -> float:
        """Bandwidth already routed over this link."""
        return self._used_mbps

    @property
    def residual_mbps(self) -> float:
        """Remaining capacity."""
        return self.capacity_mbps - self.used_mbps

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use (0..1)."""
        if self.capacity_mbps <= 0:
            return 0.0
        return self.used_mbps / self.capacity_mbps


@dataclass(frozen=True)
class Route:
    """The path of one traffic flow through the topology.

    ``components`` runs source NI, switches..., destination NI;
    ``links`` holds the link ids joining consecutive components.
    """

    flow: FlowKey
    components: Tuple[str, ...]
    links: Tuple[int, ...]

    @property
    def num_switches(self) -> int:
        """Number of switches on the path (components minus the two NIs)."""
        return len(self.components) - 2


class Topology:
    """A synthesized NoC: components, links and flow routes.

    Parameters
    ----------
    spec:
        The SoC specification this topology serves.
    library:
        Technology library used for capacities and (later) power.
    island_freqs:
        Clock of every island's NoC domain, including
        :data:`INTERMEDIATE_ISLAND` when an intermediate island exists.
    """

    def __init__(
        self,
        spec: SoCSpec,
        library: NocLibrary,
        island_freqs: Mapping[int, float],
    ) -> None:
        self.spec = spec
        self.library = library
        self.island_freqs: Dict[int, float] = dict(island_freqs)
        self.switches: Dict[str, Switch] = {}
        self.nis: Dict[str, NetworkInterface] = {}
        self.links: Dict[int, Link] = {}
        self.routes: Dict[FlowKey, Route] = {}
        self.core_switch: Dict[str, str] = {}
        self._next_link_id = 0
        # (src component, dst component) -> link ids, built by the first
        # query that needs it (see _pair_index).
        self._links_by_pair: Optional[Dict[Tuple[str, str], List[int]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_switch(self, island: int, index: int) -> Switch:
        """Create a switch in ``island`` clocked at the island frequency."""
        sid = switch_id(island, index)
        if sid in self.switches:
            raise ValidationError("duplicate switch id %r" % sid)
        if island not in self.island_freqs:
            raise ValidationError("no frequency planned for island %r" % island)
        sw = Switch(id=sid, island=island, freq_mhz=self.island_freqs[island])
        self.switches[sid] = sw
        return sw

    def attach_core(
        self,
        core_name: str,
        sw: Switch,
        nis: Optional[Dict[str, NetworkInterface]] = None,
    ) -> NetworkInterface:
        """Attach a core to a switch through its NI (two links).

        The NI lives in the core's island; attaching a core to a switch
        of a *different* island is rejected — Section 3.1 mandates that
        "cores in a VI are connected to switches in the same VI".

        ``nis`` is a table of NIs by core name that several topologies
        share: the core's entry is attached when its island and clock
        match, else a new NI is built and stored there.
        """
        island = self.spec.island_of(core_name)
        if sw.island != island:
            raise ValidationError(
                "core %r (island %d) may not attach to switch %s (island %d)"
                % (core_name, island, sw.id, sw.island)
            )
        if ni_id(core_name) in self.nis:
            raise ValidationError("core %r already attached" % core_name)
        ni = None if nis is None else nis.get(core_name)
        if ni is None or ni.island != island or ni.freq_mhz != sw.freq_mhz:
            ni = NetworkInterface(
                id=ni_id(core_name), core=core_name, island=island, freq_mhz=sw.freq_mhz
            )
            if nis is not None:
                nis[core_name] = ni
        # The NI's own id string names it everywhere, so topologies that
        # share the NI share the string too.
        nid = ni.id
        self.nis[nid] = ni
        self.core_switch[core_name] = sw.id
        self._add_link(nid, sw.id, island, sw.island, "ni2sw")
        self._add_link(sw.id, nid, sw.island, island, "sw2ni")
        return ni

    def open_link(self, src_sw: str, dst_sw: str) -> Link:
        """Open a new switch-to-switch link (possibly a parallel one)."""
        a = self.switches[src_sw]
        b = self.switches[dst_sw]
        return self._add_link(a.id, b.id, a.island, b.island, "sw2sw")

    def _add_link(self, src: str, dst: str, src_island: int, dst_island: int, kind: str) -> Link:
        freq = min(self.island_freqs[src_island], self.island_freqs[dst_island])
        link = Link(
            id=self._next_link_id,
            src=src,
            dst=dst,
            src_island=src_island,
            dst_island=dst_island,
            freq_mhz=freq,
            capacity_mbps=self.library.link_capacity_mbps(freq),
            kind=kind,
        )
        self.links[link.id] = link
        self._next_link_id += 1
        self._links_by_pair = None
        # NI-side ports are implicit (an NI always has exactly 1 in and
        # 1 out); only switch port counts are tracked for the size bound.
        if kind == "sw2sw":
            self.switches[dst].n_in += 1
            self.switches[src].n_out += 1
        elif kind == "ni2sw":
            self.switches[dst].n_in += 1
        else:  # sw2ni
            self.switches[src].n_out += 1
        return link

    def assign_route(
        self, flow: TrafficFlow, links: Sequence[int], validate: bool = True
    ) -> Route:
        """Record the route of ``flow`` over the given link sequence.

        Verifies link continuity, endpoint correctness and capacity,
        then charges the flow to every link on the path: each link, the
        route and the ``routes`` entry hold the flow's own
        :attr:`~repro.core.spec.TrafficFlow.charge` and key tuples.
        ``validate=False`` skips the checks for callers that construct
        routes correct by construction (the path allocator, whose every
        reuse/open decision already enforced capacity); the final
        :func:`repro.arch.validate.validate_topology` pass still audits
        the result.
        """
        if flow.key in self.routes:
            raise ValidationError("flow %s->%s already routed" % flow.key)
        if not links:
            raise ValidationError("empty route for flow %s->%s" % flow.key)
        all_links = self.links
        comps: List[str] = [all_links[links[0]].src]
        if validate:
            for lid in links:
                link = all_links[lid]
                if link.src != comps[-1]:
                    raise ValidationError(
                        "discontinuous route for flow %s->%s at link %d"
                        % (flow.src, flow.dst, lid)
                    )
                comps.append(link.dst)
            if comps[0] != ni_id(flow.src) or comps[-1] != ni_id(flow.dst):
                raise ValidationError(
                    "route for flow %s->%s does not join its NIs" % flow.key
                )
            for lid in links:
                link = all_links[lid]
                if link.residual_mbps < flow.bandwidth_mbps - 1e-9:
                    raise ValidationError(
                        "link %d over capacity for flow %s->%s" % (lid, flow.src, flow.dst)
                    )
        else:
            for lid in links:
                comps.append(all_links[lid].dst)
        charge = flow.charge
        for lid in links:
            all_links[lid].add_flow(charge)
        key = charge[0]
        route = Route(flow=key, components=tuple(comps), links=tuple(links))
        self.routes[key] = route
        return route

    def clone_scaffold(self) -> "Topology":
        """Structural copy of this topology that can be mutated freely.

        Spare-path protection routes on copies of a finished design
        point's topology, and tests route on copies to leave a point
        untouched.  Rather than rebuild through :meth:`add_switch` /
        :meth:`attach_core` (re-validating spec invariants and
        re-deriving link capacities), the clone copies the built state
        — switches, NIs, links (with their flow charges), routes and id
        counter — preserving insertion order everywhere, so routing on
        the clone is byte-identical to routing on the original.
        ``spec``, ``library``, NIs and flow charges are immutable and
        shared; everything mutable is copied.  The pair index is left
        for the clone's first query to build.
        """
        clone = Topology.__new__(Topology)
        clone.spec = self.spec
        clone.library = self.library
        clone.island_freqs = dict(self.island_freqs)
        # Components are copied via __new__ + __dict__ snapshot instead
        # of their dataclass constructors: field-by-field __init__ (plus
        # Link.__post_init__ re-summing the flow list) was the dominant
        # cost of cloning at benchmark scale.  Mutable per-instance
        # state (Switch port counts, Link flow charges) is what the
        # copy isolates; ids, islands and frequencies are write-once.
        sw_new = Switch.__new__
        clone.switches = {}
        for sid, sw in self.switches.items():
            c = sw_new(Switch)
            c.__dict__.update(sw.__dict__)
            clone.switches[sid] = c
        # NIs are write-once (no field changes after attach_core), so
        # clones share the objects and copy only the dict.
        clone.nis = dict(self.nis)
        link_new = Link.__new__
        clone.links = {}
        for lid, l in self.links.items():
            c = link_new(Link)
            c.__dict__.update(l.__dict__)
            c.flows = list(l.flows)
            clone.links[lid] = c
        clone.routes = dict(self.routes)  # Route is frozen; entries shareable
        clone.core_switch = dict(self.core_switch)
        clone._next_link_id = self._next_link_id
        clone._links_by_pair = None
        return clone

    def __getstate__(self) -> tuple:
        """Pickle state with one row of live field values per component.

        Rows pickle smaller and decode faster than instance dicts.  NIs
        and flow charges go in as the objects themselves, which other
        topologies share: pickle's memo writes each once per payload,
        and the topologies decoded from it share them again.  Only the
        switches, links and routes are rebuilt on load.
        """
        return (
            self.spec,
            self.library,
            self.island_freqs,
            [(s.id, s.island, s.freq_mhz, s.n_in, s.n_out) for s in self.switches.values()],
            list(self.nis.values()),
            [
                (l.id, l.src, l.dst, l.src_island, l.dst_island, l.freq_mhz,
                 l.capacity_mbps, l.kind, l.length_mm, l.flows, l.has_converter,
                 l._used_mbps)
                for l in self.links.values()
            ],
            [(r.flow, r.components, r.links) for r in self.routes.values()],
            self.core_switch,
            self._next_link_id,
        )

    def __setstate__(self, state: tuple) -> None:
        (self.spec, self.library, self.island_freqs, switches, nis, links, routes,
         core_switch, next_link_id) = state
        # Attributes are assigned in field order (never through
        # ``__dict__``) so every object keeps its class's key-sharing
        # instance dict, as a constructed one does.
        new = object.__new__
        self.switches = {}
        for row in switches:
            sw = new(Switch)
            sw.id, sw.island, sw.freq_mhz, sw.n_in, sw.n_out = row
            self.switches[sw.id] = sw
        self.nis = {ni.id: ni for ni in nis}
        self.links = {}
        for row in links:
            l = new(Link)
            (l.id, l.src, l.dst, l.src_island, l.dst_island, l.freq_mhz,
             l.capacity_mbps, l.kind, l.length_mm, l.flows, l.has_converter,
             l._used_mbps) = row
            self.links[l.id] = l
        self.routes = {}
        set_field = object.__setattr__
        for flow, components, link_ids in routes:
            self.routes[flow] = route = new(Route)
            set_field(route, "flow", flow)
            set_field(route, "components", components)
            set_field(route, "links", link_ids)
        self.core_switch = core_switch
        self._next_link_id = next_link_id
        self._links_by_pair = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def switch_of_core(self, core_name: str) -> Switch:
        """The switch a core's NI attaches to."""
        try:
            return self.switches[self.core_switch[core_name]]
        except KeyError:
            raise ValidationError("core %r is not attached to any switch" % core_name)

    def island_switches(self, island: int) -> List[Switch]:
        """Switches of one island, sorted by id."""
        return sorted(
            (s for s in self.switches.values() if s.island == island),
            key=lambda s: s.id,
        )

    @property
    def intermediate_switches(self) -> List[Switch]:
        """Indirect switches in the intermediate NoC island."""
        return self.island_switches(INTERMEDIATE_ISLAND)

    @property
    def has_intermediate_island(self) -> bool:
        """True when an intermediate NoC island was instantiated."""
        return bool(self.intermediate_switches)

    def sw_links(self) -> List[Link]:
        """All switch-to-switch links."""
        return [l for l in self.links.values() if l.kind == "sw2sw"]

    def _pair_index(self) -> Dict[Tuple[str, str], List[int]]:
        """``(src, dst)`` -> link ids in link order, built on first use.

        Only the exporters and a few lookups query it, so a design point
        carries no index (a key tuple and a list per link) until one
        does; :meth:`_add_link` drops a built index.  Links are never
        removed, and ``links`` holds them in id order.
        """
        index = self._links_by_pair
        if index is None:
            index = {}
            for link in self.links.values():
                index.setdefault((link.src, link.dst), []).append(link.id)
            self._links_by_pair = index
        return index

    def links_between(self, src_sw: str, dst_sw: str) -> List[Link]:
        """Existing (possibly parallel) links from ``src_sw`` to ``dst_sw``."""
        ids = self._pair_index().get((src_sw, dst_sw), [])
        return [self.links[i] for i in ids if self.links[i].kind == "sw2sw"]

    def link_between(self, src: str, dst: str) -> Optional[Link]:
        """The first link from ``src`` to ``dst`` of any kind, if present."""
        ids = self._pair_index().get((src, dst), [])
        return self.links[ids[0]] if ids else None

    def num_converters(self) -> int:
        """Count of bi-synchronous FIFOs (one per island-crossing link)."""
        return sum(1 for l in self.links.values() if l.converter)

    def route_crossings(self, flow_key: FlowKey) -> int:
        """Island crossings (converter traversals) on a flow's route."""
        route = self.routes[flow_key]
        return sum(1 for lid in route.links if self.links[lid].crosses_islands)

    def route_switches(self, flow_key: FlowKey) -> List[Switch]:
        """Switch objects along a flow's route, in order."""
        route = self.routes[flow_key]
        return [self.switches[c] for c in route.components if c in self.switches]

    def islands_touched(self, flow_key: FlowKey) -> Set[int]:
        """Islands whose switches appear on a flow's route."""
        return {s.island for s in self.route_switches(flow_key)}

    def component_island(self, comp_id: str) -> int:
        """Island of any component id (switch or NI)."""
        if comp_id in self.switches:
            return self.switches[comp_id].island
        if comp_id in self.nis:
            return self.nis[comp_id].island
        raise ValidationError("unknown component %r" % comp_id)

    def summary(self) -> str:
        """One-line human description of the topology."""
        n_direct = len([s for s in self.switches.values() if not s.is_intermediate])
        n_mid = len(self.intermediate_switches)
        return (
            "%d switches (+%d intermediate), %d links (%d cross-island), %d flows routed"
            % (
                n_direct,
                n_mid,
                len(self.links),
                self.num_converters(),
                len(self.routes),
            )
        )
