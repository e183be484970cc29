"""Placement of cores, NIs and switches on the die.

The flow mirrors the paper's "the NoC components are inserted on the
floorplan and the wire lengths, wire power and delay are calculated"
(Section 4, last step):

1. allocate island regions (:mod:`repro.floorplan.islands`);
2. tile each island region with its cores (same slicing machinery,
   cores inflated by a local whitespace factor that reserves room for
   the NoC components — this inflation is what the NoC *area overhead*
   is measured against);
3. drop each NI at its core's boundary-facing center;
4. drop each switch at the bandwidth-weighted centroid of the NIs and
   peer switches it connects to, clamped into its island's region
   (switches must sit inside their island — their power rails come from
   it);
5. intermediate-island switches land in the intermediate region (when
   instantiated).

The result is a :class:`Floorplan` that the wire model
(:mod:`repro.floorplan.wires`) and exports (Figure 5) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch.topology import INTERMEDIATE_ISLAND, Topology
from ..exceptions import FloorplanError
from ..packed import PackedShell
from .geometry import Point, Rect
from .islands import chip_rect, slice_regions


@dataclass(frozen=True)
class FloorplanConfig:
    """Floorplanner knobs."""

    #: Die whitespace on top of the summed region areas.
    whitespace_fraction: float = 0.12
    #: Extra area per island to host NoC components and local routing.
    island_noc_margin: float = 0.06
    #: Die aspect ratio (width / height).
    aspect: float = 1.0
    #: Floor for the intermediate island's region area (mm^2).
    min_intermediate_area_mm2: float = 0.35


@dataclass
class Floorplan:
    """Placed design: die, island regions, core cells, NoC positions."""

    chip: Rect
    island_rects: Dict[int, Rect]
    core_rects: Dict[str, Rect]
    switch_pos: Dict[str, Point]
    ni_pos: Dict[str, Point]

    def position_of(self, comp_id: str) -> Point:
        """Die position of a component (switch or NI) by id."""
        if comp_id in self.switch_pos:
            return self.switch_pos[comp_id]
        if comp_id in self.ni_pos:
            return self.ni_pos[comp_id]
        raise FloorplanError("unplaced component %r" % comp_id)

    def wire_length_mm(self, src_id: str, dst_id: str) -> float:
        """Manhattan distance between two placed components."""
        return self.position_of(src_id).manhattan(self.position_of(dst_id))


class FloorplanPacker:
    """Writes the floorplans of one cached record as packed shells.

    :meth:`reduce` gives pickle a floorplan's shell constructor and
    ``(skeleton, switches)``, two nested pickles.  ``skeleton`` holds
    the chip, island regions, core cells and NI positions, which the
    points of one candidate pass share (see :func:`place`), so the
    packer pickles each distinct skeleton once and hands its bytes to
    every floorplan that has it: the record's pickle memo writes them
    once.  ``switches`` holds the switch positions.
    """

    def __init__(self, protocol: int) -> None:
        self.protocol = protocol
        self._skeletons: Dict[Tuple[int, ...], bytes] = {}

    def reduce(self, floorplan: Floorplan) -> tuple:
        import pickle

        parts = (floorplan.chip, floorplan.island_rects, floorplan.core_rects, floorplan.ni_pos)
        # The skeleton's identity: its objects, keys and values alike.
        key = tuple(map(id, chain(parts[:1], *(chain(d, d.values()) for d in parts[1:]))))
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            skeleton = self._skeletons[key] = pickle.dumps(parts, self.protocol)
        return _packed_floorplan, (skeleton, pickle.dumps(floorplan.switch_pos, self.protocol))


def _packed_floorplan(skeleton: bytes, switches: bytes) -> Floorplan:
    """A decoded shell: the constructor :class:`FloorplanPacker` writes."""
    shell = object.__new__(_PackedFloorplan)
    shell._packed = (skeleton, switches)
    return shell


class _PackedFloorplan(PackedShell, Floorplan):
    """A floorplan from a cache hit that nothing has read yet: the first
    read unpacks it (:class:`~repro.packed.PackedShell`)."""

    def __reduce__(self) -> tuple:
        return _packed_floorplan, self._packed

    def __eq__(self, other: object) -> bool:
        # The dataclass comparison wants equal classes: compare as the
        # floorplan this shell unpacks to.
        self._unpack()
        return self == other

    def _whole(self) -> Floorplan:
        import pickle

        skeleton, switches = self._packed
        chip, island_rects, core_rects, ni_pos = pickle.loads(skeleton)
        return Floorplan(chip, island_rects, core_rects, pickle.loads(switches), ni_pos)


def place(
    topology: Topology,
    config: Optional[FloorplanConfig] = None,
    skeleton_cache: Optional[dict] = None,
) -> Floorplan:
    """Produce a floorplan for a synthesized topology.

    ``skeleton_cache`` memoizes the islands' core areas and the
    floorplan *skeleton* — chip outline, island regions, core
    rectangles and NI positions — across calls for the same spec.  The
    skeleton is a pure function of the island region areas (plus the
    config knobs), and candidates of one synthesis sweep mostly repeat
    the same areas (only intermediate switches change them), so the
    slicing tiler runs once per distinct area vector instead of once
    per design point.  Only switch
    placement depends on the routed links and is recomputed per call;
    cached geometry objects are immutable and shared, the dicts are
    copied.
    """
    cfg = config or FloorplanConfig()
    spec = topology.spec
    lib = topology.library

    # The islands' core areas are the spec's, so the cache holds them
    # for the whole sweep, beside the skeletons.
    areas_key = ("island core areas", cfg.island_noc_margin)
    island_areas = None if skeleton_cache is None else skeleton_cache.get(areas_key)
    if island_areas is None:
        island_areas = _island_core_areas(spec, cfg.island_noc_margin)
        if skeleton_cache is not None:
            skeleton_cache[areas_key] = island_areas
    region_areas: List[Tuple[object, float]] = list(island_areas)
    if topology.has_intermediate_island:
        mid_area = sum(
            lib.switch_area_mm2(max(s.n_in, 1), max(s.n_out, 1))
            for s in topology.intermediate_switches
        )
        region_areas.append(
            (INTERMEDIATE_ISLAND, max(mid_area * 4.0, cfg.min_intermediate_area_mm2))
        )

    skeleton = None
    skeleton_key = None
    if skeleton_cache is not None:
        skeleton_key = (
            tuple(region_areas),
            cfg.whitespace_fraction,
            cfg.island_noc_margin,
            cfg.aspect,
            cfg.min_intermediate_area_mm2,
        )
        skeleton = skeleton_cache.get(skeleton_key)
    if skeleton is None:
        total = sum(a for _, a in region_areas)
        chip = chip_rect(total, cfg.whitespace_fraction, cfg.aspect)
        island_rects_any = slice_regions(chip, region_areas)
        island_rects: Dict[int, Rect] = {
            int(k): v for k, v in island_rects_any.items()
        }

        core_rects: Dict[str, Rect] = {}
        for isl in spec.islands:
            rect = island_rects[isl]
            entries = [(c, spec.core(c).area_mm2) for c in spec.cores_in_island(isl)]
            placed = slice_regions(rect, entries)
            for c, r in placed.items():
                core_rects[str(c)] = r

        ni_pos: Dict[str, Point] = {}
        for nid, ni in topology.nis.items():
            ni_pos[nid] = core_rects[ni.core].center

        skeleton = (chip, island_rects, core_rects, ni_pos)
        if skeleton_key is not None:
            skeleton_cache[skeleton_key] = skeleton
    chip, island_rects, core_rects, ni_pos = skeleton

    switch_pos = _place_switches(topology, island_rects, ni_pos)
    return Floorplan(
        chip=chip,
        island_rects=dict(island_rects),
        core_rects=dict(core_rects),
        switch_pos=switch_pos,
        ni_pos=dict(ni_pos),
    )


def _island_core_areas(spec, margin: float) -> Tuple[Tuple[int, float], ...]:
    """``(island, core area with its NoC margin)`` per island, by island id.

    One pass over the cores lists each island's areas in declaration
    order, and ``sum`` adds them as a per-island scan would.
    """
    areas: Dict[int, List[float]] = {isl: [] for isl in spec.islands}
    vi = spec.vi_assignment
    for core in spec.cores:
        areas[vi[core.name]].append(core.area_mm2)
    return tuple((isl, sum(a) * (1.0 + margin)) for isl, a in sorted(areas.items()))


def _place_switches(
    topology: Topology,
    island_rects: Mapping[int, Rect],
    ni_pos: Mapping[str, Point],
) -> Dict[str, Point]:
    """Bandwidth-weighted centroid placement with island clamping.

    Two fixed-point passes: the first places every switch at the
    centroid of its attached NIs (intermediate switches start at die
    center), the second refines with switch-to-switch link weights now
    that peers have positions.
    """
    # One incidence scan over the links replaces the old
    # per-switch-per-pass full link sweep (O(switches x links) became
    # the evaluation hot spot at benchmark scale).  Each switch gets its
    # attraction list in global link order — the same order the old scan
    # appended in — so the centroid accumulation is bit-identical.  NI
    # anchors are fixed points; switch anchors (``fixed=False``) are
    # resolved against the evolving position map each pass.
    inbound_ni: Dict[str, List[Tuple[Point, float]]] = {
        sid: [] for sid in topology.switches
    }
    pulls: Dict[str, List[Tuple[bool, object, float]]] = {
        sid: [] for sid in topology.switches
    }
    for link in topology.links.values():
        w = max(link.used_mbps, 1.0)
        if link.kind == "ni2sw":
            inbound_ni[link.dst].append((ni_pos[link.src], w))
            pulls[link.dst].append((True, ni_pos[link.src], w))
        elif link.kind == "sw2ni":
            pulls[link.src].append((True, ni_pos[link.dst], w))
        else:  # sw2sw pulls both endpoints toward each other
            pulls[link.dst].append((False, link.src, w))
            pulls[link.src].append((False, link.dst, w))

    positions: Dict[str, Point] = {}
    # Pass 0: NI centroids (inbound NI links only, as before).
    for sid, sw in topology.switches.items():
        pts = inbound_ni[sid]
        if pts:
            positions[sid] = _weighted_centroid(pts)
        else:
            rect = island_rects[sw.island]
            positions[sid] = rect.center
    # Pass 1..2: include switch-to-switch attraction.
    for _ in range(2):
        updated: Dict[str, Point] = {}
        for sid, sw in topology.switches.items():
            plist = pulls[sid]
            if not plist:
                continue
            total = 0.0
            x = 0.0
            y = 0.0
            for fixed, anchor, w in plist:
                p = anchor if fixed else positions[anchor]
                total += w
                x += p.x * w
                y += p.y * w
            if total <= 0:
                total = float(len(plist))
                x = y = 0.0
                for fixed, anchor, w in plist:
                    p = anchor if fixed else positions[anchor]
                    x += p.x * 1.0
                    y += p.y * 1.0
            updated[sid] = island_rects[sw.island].clamp(Point(x / total, y / total))
        positions.update(updated)
    return positions


def _weighted_centroid(points: Sequence[Tuple[Point, float]]) -> Point:
    total = sum(w for _, w in points)
    if total <= 0:
        total = float(len(points))
        points = [(p, 1.0) for p, _ in points]
    x = sum(p.x * w for p, w in points) / total
    y = sum(p.y * w for p, w in points) / total
    return Point(x, y)
