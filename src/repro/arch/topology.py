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
from functools import reduce
from itertools import count, repeat
from operator import add, attrgetter, itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.spec import SoCSpec, TrafficFlow
from ..exceptions import ValidationError
from ..packed import PackedShell
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
        self._used_mbps = _added(self.flows)

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
            self._used_mbps = _added(kept)

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


_BANDWIDTH = itemgetter(1)


def _added(charges: Iterable[FlowCharge]):
    """Used bandwidth of a charge list: the charges added left to right
    from int 0, as :meth:`Link.add_flow` adds them one by one.

    Never ``sum``: from Python 3.12 it compensates float rounding, so a
    re-summed link would differ in the last bit from a routed one.
    """
    return reduce(add, map(_BANDWIDTH, charges), 0)


# Row constructors: a component from its positional fields, set in
# field order.  They skip the dataclass ``__init__`` (keyword parsing,
# ``default_factory``, ``Link.__post_init__``, a global and an attribute
# lookup per frozen ``Route`` field) on every path that builds
# topologies in bulk.  Attributes are set one by one, never through
# ``__dict__``: the instance keeps its values inline with its class's
# shared keys, as a constructed one does, and attribute reads stay on
# the interpreter's fast path (a route whose ``__dict__`` was touched
# reads its fields at half the speed).
_new = object.__new__
_set = object.__setattr__


def _switch(sid: str, island: int, freq_mhz: float, n_in: int, n_out: int) -> Switch:
    sw = _new(Switch)
    sw.id = sid
    sw.island = island
    sw.freq_mhz = freq_mhz
    sw.n_in = n_in
    sw.n_out = n_out
    return sw


def _link(
    lid: int,
    src: str,
    dst: str,
    src_island: int,
    dst_island: int,
    freq_mhz: float,
    capacity_mbps: float,
    kind: str,
    length_mm: float,
    flows: List[FlowCharge],
    has_converter: Optional[bool],
    used_mbps,
) -> Link:
    link = _new(Link)
    link.id = lid
    link.src = src
    link.dst = dst
    link.src_island = src_island
    link.dst_island = dst_island
    link.freq_mhz = freq_mhz
    link.capacity_mbps = capacity_mbps
    link.kind = kind
    link.length_mm = length_mm
    link.flows = flows
    link.has_converter = has_converter
    link._used_mbps = used_mbps
    return link


def _route(flow: FlowKey, components: Tuple[str, ...], links: Tuple[int, ...]) -> Route:
    route = _new(Route)
    _set(route, "flow", flow)  # frozen: Route's own setattr raises
    _set(route, "components", components)
    _set(route, "links", links)
    return route


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
        sw = self.switches[sid] = _switch(sid, island, self.island_freqs[island], 0, 0)
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
        if core_name in self.core_switch:
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
        lid = self._next_link_id
        link = self.links[lid] = _link(
            lid, src, dst, src_island, dst_island, freq,
            self.library.link_capacity_mbps(freq), kind, 0.0, [], None, 0,
        )
        self._next_link_id = lid + 1
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
        route = self.routes[key] = _route(key, tuple(comps), tuple(links))
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
        shared; everything mutable (switch port counts, link charge
        lists) is copied through the row constructors.  The pair index
        is left for the clone's first query to build.
        """
        clone = Topology.__new__(Topology)
        clone.spec = self.spec
        clone.library = self.library
        clone.island_freqs = dict(self.island_freqs)
        clone.switches = {
            sid: _switch(sid, sw.island, sw.freq_mhz, sw.n_in, sw.n_out)
            for sid, sw in self.switches.items()
        }
        clone.nis = dict(self.nis)
        clone.links = {
            lid: _link(lid, l.src, l.dst, l.src_island, l.dst_island, l.freq_mhz,
                       l.capacity_mbps, l.kind, l.length_mm, list(l.flows),
                       l.has_converter, l._used_mbps)
            for lid, l in self.links.items()
        }
        clone.routes = dict(self.routes)  # Route is frozen; entries shareable
        clone.core_switch = dict(self.core_switch)
        clone._next_link_id = self._next_link_id
        clone._links_by_pair = None
        return clone

    def __getstate__(self) -> tuple:
        """Pickle state in the row layout the cache store shares.

        Switches go in as rows, NIs as the objects themselves, and links
        and routes in the lean layout where it gives this topology back
        exactly (:func:`_lean_rows`), else as full rows.  NIs and flow
        charges are objects other topologies share: pickle's memo
        writes each once per payload, and the topologies decoded from
        it share them again.
        """
        rows = _lean_rows(self)
        if rows is None:
            rows = (
                list(map(_LINK_ROW, self.links.values())),
                list(map(_ROUTE_ROW, self.routes.values())),
            )
        return (
            self.spec,
            self.library,
            self.island_freqs,
            list(map(_SWITCH_ROW, self.switches.values())),
            list(self.nis.values()),
            self.core_switch,
            self._next_link_id,
        ) + rows

    def __setstate__(self, state: tuple) -> None:
        """Rebuild from :meth:`__getstate__`'s state."""
        (self.spec, self.library, island_freqs, switches, nis, core_switch,
         next_link_id, links, routes) = state
        _decode(self, island_freqs, switches, nis, core_switch, next_link_id, links, routes)

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


# ----------------------------------------------------------------------
# Row layout
# ----------------------------------------------------------------------
#
# One layout serves the fan-out pipe and ``copy.deepcopy`` (through
# ``Topology.__getstate__``) and the cache store (``TopologyPacker``).
# Switches are ``(id, island, freq_mhz, n_in, n_out)`` rows.  Links and
# routes take the lean layout where it gives the topology back exactly:
#
# * link ids run 0, 1, ... in link order, and links ``2i`` and ``2i+1``
#   are NI ``i``'s links into and out of its switch, with the islands
#   and clock of the NI and the switch and no converter override.  Those
#   rows keep only their wire lengths, plus one capacity per NI clock;
#   the other links are switch-to-switch rows without id and kind;
# * each link's charges are its routes' charges in route order, so
#   routes go in as ``(charge, link ids)`` and the decoder replays the
#   charges and used bandwidths (:func:`_added`) in route order;
# * every route's components are its links' endpoints, which the
#   decoder derives.
#
# Anything else, such as a control-plane reroute that re-charged a link
# out of route order, keeps full rows: every link field, and
# ``(flow, components, links)`` per route.

_SWITCH_ROW = attrgetter("id", "island", "freq_mhz", "n_in", "n_out")
_LINK_ROW = attrgetter(
    "id", "src", "dst", "src_island", "dst_island", "freq_mhz", "capacity_mbps",
    "kind", "length_mm", "flows", "has_converter", "_used_mbps",
)
_SW_LINK_ROW = attrgetter(
    "src", "dst", "src_island", "dst_island", "freq_mhz", "capacity_mbps",
    "length_mm", "has_converter",
)
_NI_LINK_SHAPE = attrgetter(
    "src", "dst", "src_island", "dst_island", "freq_mhz", "capacity_mbps", "kind",
    "has_converter",
)
_ROUTE_ROW = attrgetter("flow", "components", "links")
_ID = attrgetter("id")
_CORE = attrgetter("core")
_ISLAND = attrgetter("island")
_FREQ = attrgetter("freq_mhz")
_CAPACITY = attrgetter("capacity_mbps")
_KIND = attrgetter("kind")
_LENGTH = attrgetter("length_mm")
_DST = attrgetter("dst")
_FLOWS = attrgetter("flows")


def _lean_rows(topology: Topology) -> Optional[tuple]:
    """``(links, routes)`` in the lean layout, or None where it would not
    give ``topology`` back exactly.

    ``links`` is ``(capacity by NI clock, NI link lengths, switch link
    rows)`` and ``routes`` is ``(charges, link id tuples)`` in route
    order.  Components are not compared: a route's components are its
    links' endpoints by construction, which ``validate_topology``
    audits.
    """
    links = topology.links
    link_list = list(links.values())
    n_links = len(link_list)
    nis = list(topology.nis.values())
    pairs = 2 * len(nis)
    if pairs > n_links or list(links) != list(range(n_links)):
        return None

    # NI links: determined by the NI and its switch, but for the length.
    into, out = link_list[0:pairs:2], link_list[1:pairs:2]
    sids = list(map(topology.core_switch.get, map(_CORE, nis)))
    try:
        sw_islands = list(map(_ISLAND, map(topology.switches.get, sids)))
    except AttributeError:  # a core without a switch
        return None
    ni_ids = list(map(_ID, nis))
    ni_islands = list(map(_ISLAND, nis))
    freqs = list(map(_FREQ, nis))
    capacities = dict(zip(freqs, map(_CAPACITY, into)))
    caps = list(map(capacities.__getitem__, freqs))
    if list(map(_NI_LINK_SHAPE, into)) != list(
        zip(ni_ids, sids, ni_islands, sw_islands, freqs, caps, repeat("ni2sw"), repeat(None))
    ) or list(map(_NI_LINK_SHAPE, out)) != list(
        zip(sids, ni_ids, sw_islands, ni_islands, freqs, caps, repeat("sw2ni"), repeat(None))
    ):
        return None
    rest = link_list[pairs:]
    if list(map(_KIND, rest)).count("sw2sw") != len(rest):
        return None

    # Routes: each is keyed by its charge's key, and each link holds its
    # routes' charges in route order, which a replay checks.
    flows = list(map(_FLOWS, link_list))
    replayed = [0] * n_links
    charges: List[FlowCharge] = []
    link_ids: List[Tuple[int, ...]] = []
    try:
        for key, route in topology.routes.items():
            ids = route.links
            first = ids[0]
            charge = flows[first][replayed[first]]
            if charge[0] is not key or route.flow is not key:
                return None
            for lid in ids:
                at = replayed[lid]
                if flows[lid][at] is not charge:
                    return None
                replayed[lid] = at + 1
            charges.append(charge)
            link_ids.append(ids)
    except IndexError:  # an empty route, or more charges replayed than held
        return None
    if replayed != list(map(len, flows)):
        return None
    return (
        (capacities, list(map(_LENGTH, link_list[:pairs])), list(map(_SW_LINK_ROW, rest))),
        (charges, link_ids),
    )


def _decode(
    topology: Topology,
    island_freqs: Dict[int, float],
    switches: Sequence[tuple],
    nis: Sequence[NetworkInterface],
    core_switch: Dict[str, str],
    next_link_id: int,
    links,
    routes,
) -> None:
    """Fill ``topology`` (spec and library set) from its rows: lean rows
    come as tuples of columns, full rows as lists (see the layout notes
    above)."""
    topology.island_freqs = island_freqs
    topology.switches = by_id = {row[0]: _switch(*row) for row in switches}
    topology.nis = {ni.id: ni for ni in nis}
    if type(links) is list:
        topology.links = {row[0]: _link(*row) for row in links}
        topology.routes = {row[0]: _route(*row) for row in routes}
    else:
        capacities, lengths, sw_rows = links
        charges, link_ids = routes
        n_links = len(lengths) + len(sw_rows)
        flows: List[List[FlowCharge]] = [[] for _ in range(n_links)]
        used = [0] * n_links
        for charge, ids in zip(charges, link_ids):
            bw = charge[1]
            for lid in ids:
                flows[lid].append(charge)
                used[lid] += bw
        made: List[Link] = []
        lid = 0
        ends = iter(lengths)
        for ni in nis:
            nid = ni.id
            sw = by_id[core_switch[ni.core]]
            sid, sw_island, freq, island = sw.id, sw.island, ni.freq_mhz, ni.island
            cap = capacities[freq]
            made.append(_link(lid, nid, sid, island, sw_island, freq, cap, "ni2sw",
                              next(ends), flows[lid], None, used[lid]))
            lid += 1
            made.append(_link(lid, sid, nid, sw_island, island, freq, cap, "sw2ni",
                              next(ends), flows[lid], None, used[lid]))
            lid += 1
        for src, dst, src_island, dst_island, freq, cap, length, converter in sw_rows:
            made.append(_link(lid, src, dst, src_island, dst_island, freq, cap, "sw2sw",
                              length, flows[lid], converter, used[lid]))
            lid += 1
        topology.links = dict(enumerate(made))
        # Derive the components: the first link's source, then every
        # link's target.
        dst_of = list(map(_DST, made)).__getitem__
        topology.routes = built = {}
        for charge, ids in zip(charges, link_ids):
            key = charge[0]
            built[key] = _route(key, (made[ids[0]].src, *map(dst_of, ids)), ids)
    topology.core_switch = core_switch
    topology._next_link_id = next_link_id
    topology._links_by_pair = None


class TopologyPacker:
    """Writes the topologies of one cached record as packed shells.

    :meth:`reduce` gives pickle a topology's shell constructor and its
    arguments ``(spec, library, nis, charges, blob)``:

    * ``nis`` holds the topology's NIs and ``charges`` its routes' flow
      charges.  Topologies that hold the same objects get the same
      tuple, so the record's pickle memo writes each NI and charge once
      and the decoded points share them again;
    * ``blob`` is a nested pickle of the lean rows (see the layout notes
      above) without spec, library and NIs, each route's charge stored
      as an index into ``charges``.

    A packer serves one record: it builds a charge table from the first
    topology whose charges no earlier table covers, so a record of one
    candidate pass builds one table (a fanned-out pass, one per chunk).
    A topology without lean rows stays eager (:meth:`reduce` returns
    ``NotImplemented``), and pickles with full rows.
    """

    def __init__(self, protocol: int) -> None:
        self.protocol = protocol
        self._nis: Dict[Tuple[int, ...], Tuple[NetworkInterface, ...]] = {}
        self._tables: List[Tuple[Tuple[FlowCharge, ...], Dict[int, int]]] = []

    def reduce(self, topology: Topology):
        import pickle

        lean = _lean_rows(topology)
        if lean is None:
            return NotImplemented
        links, (charges, link_ids) = lean
        table, refs = self._refs(charges)
        nis = tuple(topology.nis.values())
        nis = self._nis.setdefault(tuple(map(id, nis)), nis)
        rows = (
            topology.island_freqs,
            list(map(_SWITCH_ROW, topology.switches.values())),
            topology.core_switch,
            topology._next_link_id,
            links,
            refs,
            link_ids,
        )
        blob = pickle.dumps(rows, self.protocol)
        return _packed_topology, (topology.spec, topology.library, nis, table, blob)

    def _refs(self, charges: List[FlowCharge]):
        """The first charge table that holds every charge, and the
        charges' indices into it."""
        for table, index in self._tables:
            try:
                return table, list(map(index.__getitem__, map(id, charges)))
            except KeyError:
                pass
        table = tuple(charges)
        self._tables.append((table, dict(zip(map(id, table), count()))))
        return table, list(range(len(table)))


def _packed_topology(spec, library, nis, charges, blob) -> "Topology":
    """A decoded shell: the constructor :class:`TopologyPacker` writes."""
    shell = object.__new__(_PackedTopology)
    shell.spec = spec
    shell.library = library
    shell._packed = (nis, charges, blob)
    return shell


class _PackedTopology(PackedShell, Topology):
    """A topology from a cache hit that nothing has read yet.

    It holds ``spec`` and ``library``, which a hit rebinds without
    unpacking, and ``_packed``: the rest of what :class:`TopologyPacker`
    wrote.  The first read of anything else unpacks it through
    :func:`_decode` (:class:`~repro.packed.PackedShell`).
    """

    def __reduce__(self) -> tuple:
        return _packed_topology, (self.spec, self.library) + self._packed

    def _whole(self) -> Topology:
        import pickle

        nis, charges, blob = self._packed
        (island_freqs, switches, core_switch, next_link_id, links, refs,
         link_ids) = pickle.loads(blob)
        topology = Topology.__new__(Topology)
        topology.spec = self.spec
        topology.library = self.library
        _decode(topology, island_freqs, switches, nis, core_switch, next_link_id, links,
                (list(map(charges.__getitem__, refs)), link_ids))
        return topology
