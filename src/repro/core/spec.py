"""SoC problem specification: cores, traffic flows, voltage islands.

This is the input side of the synthesis problem from Section 3 of the
paper.  A :class:`SoCSpec` bundles:

* the cores (IP blocks) with their physical properties,
* the application traffic flows with bandwidth and latency constraints,
* the assignment of cores to voltage islands (an *input* to synthesis,
  per Section 3.1: "The cores of the design are assigned to different
  VIs, which is given as an input to our method").

The spec is deliberately plain data — synthesis, floorplanning and power
analysis all read it but never mutate it.  Use :meth:`SoCSpec.with_vi_assignment`
to derive a re-islanded variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..exceptions import SpecError

#: Functional categories used by the benchmark suite and by logical
#: partitioning.  Free-form strings are allowed; these are the ones the
#: built-in benchmarks use.
CORE_KINDS = (
    "cpu",
    "dsp",
    "cache",
    "memory",
    "dma",
    "accelerator",
    "video",
    "audio",
    "imaging",
    "display",
    "io",
    "bridge",
    "peripheral",
)


@dataclass(frozen=True)
class CoreSpec:
    """One IP block of the SoC.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"arm0"``.
    area_mm2:
        Silicon area of the core.
    dynamic_power_mw:
        Average dynamic power when the core is active.
    leakage_power_mw:
        Leakage power when powered (independent of activity); this is
        what island shutdown eliminates.
    kind:
        Functional category (see :data:`CORE_KINDS`).
    group:
        Functional-group path used by *logical partitioning*, e.g.
        ``"video/decode"``.  Cores sharing a group prefix are clustered
        together when islands are merged.
    freq_mhz:
        The core's own clock.  The NoC network interface performs clock
        conversion, so this does not constrain the island NoC frequency
        (Section 3.1), but it is reported in floorplans and exports.
    """

    name: str
    area_mm2: float
    dynamic_power_mw: float
    leakage_power_mw: float
    kind: str = "peripheral"
    group: str = ""
    freq_mhz: float = 200.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("core name must be a non-empty string")
        if not self.area_mm2 > 0:
            raise SpecError("core %r: area must be positive" % self.name)
        if not self.dynamic_power_mw >= 0:
            raise SpecError("core %r: dynamic power must be >= 0" % self.name)
        if not self.leakage_power_mw >= 0:
            raise SpecError("core %r: leakage power must be >= 0" % self.name)
        if not self.freq_mhz > 0:
            raise SpecError("core %r: frequency must be positive" % self.name)


@dataclass(frozen=True)
class TrafficFlow:
    """A directed communication requirement between two cores.

    Definition 1 of the paper attaches a bandwidth ``bw`` and a latency
    constraint ``lat`` to every flow; both feed the VCG edge weight
    ``h = alpha * bw/max_bw + (1-alpha) * min_lat/lat``.

    Parameters
    ----------
    src, dst:
        Core names; must exist in the owning :class:`SoCSpec`.
    bandwidth_mbps:
        Sustained bandwidth requirement in MB/s; positive and finite.
    latency_cycles:
        Zero-load latency budget in NoC cycles, measured like the paper
        does: from the output of the source NI to the input of the
        destination NI.  Positive; ``inf`` means unconstrained.
    """

    src: str
    dst: str
    bandwidth_mbps: float
    latency_cycles: float = 20.0

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise SpecError("flow endpoints must be non-empty strings")
        if self.src == self.dst:
            raise SpecError("flow %s->%s: self-loops are not allowed" % (self.src, self.dst))
        if not (self.bandwidth_mbps > 0 and math.isfinite(self.bandwidth_mbps)):
            raise SpecError(
                "flow %s->%s: bandwidth must be positive and finite" % (self.src, self.dst)
            )
        if not self.latency_cycles > 0:
            raise SpecError(
                "flow %s->%s: latency constraint must be positive" % (self.src, self.dst)
            )

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(src, dst)`` pair identifying this flow (one tuple per flow)."""
        return self.charge[0]

    @property
    def charge(self) -> Tuple[Tuple[str, str], float]:
        """``(key, bandwidth_mbps)``: what each link of the flow's route holds.

        Built on first use and then handed out as the same tuple, so the
        route keys, link charges and latency entries of every design
        point share one key and one charge per flow.  Stored beside the
        dataclass fields, as :meth:`SoCSpec._index` is, so equality,
        ``repr`` and cache keys never see it, and dropped by
        :meth:`__getstate__`, so a pickled flow carries its fields only.
        """
        charge = self.__dict__.get("_charge")
        if charge is None:
            charge = ((self.src, self.dst), self.bandwidth_mbps)
            object.__setattr__(self, "_charge", charge)
        return charge

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_charge", None)
        return state


@dataclass(frozen=True)
class SoCSpec:
    """Complete synthesis input: cores, flows and the VI assignment.

    Voltage islands are identified by small non-negative integers
    ``0..num_islands-1``.  The special *intermediate NoC island* created
    by synthesis is not part of the spec; it is identified by
    :data:`repro.arch.topology.INTERMEDIATE_ISLAND`.
    """

    name: str
    cores: Tuple[CoreSpec, ...]
    flows: Tuple[TrafficFlow, ...]
    vi_assignment: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("spec name must be non-empty")
        if not self.cores:
            raise SpecError("spec %r: needs at least one core" % self.name)
        names = [c.name for c in self.cores]
        known = set(names)
        if len(known) != len(names):
            seen: Set[str] = set()
            dupes: Set[str] = set()
            for n in names:
                if n in seen:
                    dupes.add(n)
                seen.add(n)
            raise SpecError("spec %r: duplicate core names %s" % (self.name, sorted(dupes)))
        seen_flows: Set[Tuple[str, str]] = set()
        for f in self.flows:
            if f.src not in known:
                raise SpecError("flow %s->%s: unknown source core" % (f.src, f.dst))
            if f.dst not in known:
                raise SpecError("flow %s->%s: unknown destination core" % (f.src, f.dst))
            if f.key in seen_flows:
                raise SpecError("duplicate flow %s->%s" % (f.src, f.dst))
            seen_flows.add(f.key)
        assignment = dict(self.vi_assignment)
        if not assignment:
            # Default: a single island holding every core (the paper's
            # "1 island" reference point).
            assignment = {n: 0 for n in names}
        unknown = set(assignment) - known
        if unknown:
            raise SpecError(
                "vi_assignment mentions unknown cores %s" % sorted(unknown)
            )
        missing = known - set(assignment)
        if missing:
            raise SpecError(
                "vi_assignment misses cores %s" % sorted(missing)
            )
        for core, isl in assignment.items():
            if not isinstance(isl, int) or isl < 0:
                raise SpecError(
                    "core %r: island id must be a non-negative int, got %r" % (core, isl)
                )
        # Island ids must be dense 0..n-1 so sweeps and floorplans can
        # index arrays by island id.
        ids = sorted(set(assignment.values()))
        if ids != list(range(len(ids))):
            raise SpecError(
                "island ids must be dense 0..n-1, got %s" % ids
            )
        object.__setattr__(self, "vi_assignment", assignment)

    # ------------------------------------------------------------------
    # Core / island accessors
    # ------------------------------------------------------------------

    @property
    def core_names(self) -> List[str]:
        """Core names in declaration order."""
        return [c.name for c in self.cores]

    def core(self, name: str) -> CoreSpec:
        """Look up a core by name; raises :class:`SpecError` if absent."""
        try:
            return self._index()[0][name]
        except KeyError:
            raise SpecError("spec %r: no core named %r" % (self.name, name)) from None

    def _index(
        self,
    ) -> Tuple[Dict[str, CoreSpec], Dict[Tuple[str, str], TrafficFlow]]:
        """Name -> core and ``(src, dst)`` -> flow maps, built on first use.

        Stored beside the dataclass fields, so equality, ``repr`` and
        cache keys never see it, and dropped by :meth:`__getstate__`,
        so a pickled spec (and every cached blob holding one) carries
        its fields only.
        """
        index = self.__dict__.get("_lookup")
        if index is None:
            index = ({c.name: c for c in self.cores}, {f.key: f for f in self.flows})
            object.__setattr__(self, "_lookup", index)
        return index

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for transient in ("_lookup", "_texts", "_key_text"):
            state.pop(transient, None)
        return state

    @property
    def num_islands(self) -> int:
        """Number of voltage islands in the assignment."""
        return len(set(self.vi_assignment.values()))

    @property
    def islands(self) -> List[int]:
        """Sorted island ids, ``[0, 1, ..., num_islands-1]``."""
        return sorted(set(self.vi_assignment.values()))

    def island_of(self, core_name: str) -> int:
        """Island id a core belongs to."""
        try:
            return self.vi_assignment[core_name]
        except KeyError:
            raise SpecError("spec %r: no core named %r" % (self.name, core_name))

    def cores_in_island(self, island: int) -> List[str]:
        """Core names assigned to ``island``, in declaration order."""
        return [c.name for c in self.cores if self.vi_assignment[c.name] == island]

    # ------------------------------------------------------------------
    # Flow accessors
    # ------------------------------------------------------------------

    def flow(self, src: str, dst: str) -> TrafficFlow:
        """Look up the flow from ``src`` to ``dst``."""
        try:
            return self._index()[1][(src, dst)]
        except KeyError:
            raise SpecError("spec %r: no flow %s->%s" % (self.name, src, dst)) from None

    def flows_within_island(self, island: int) -> List[TrafficFlow]:
        """Flows whose both endpoints live in ``island``."""
        return [
            f
            for f in self.flows
            if self.vi_assignment[f.src] == island and self.vi_assignment[f.dst] == island
        ]

    def flows_across_islands(self) -> List[TrafficFlow]:
        """Flows whose endpoints live in different islands."""
        return [
            f for f in self.flows if self.vi_assignment[f.src] != self.vi_assignment[f.dst]
        ]

    @property
    def max_bandwidth_mbps(self) -> float:
        """``max_bw`` of Definition 1: largest bandwidth over all flows."""
        if not self.flows:
            return 0.0
        return max(f.bandwidth_mbps for f in self.flows)

    @property
    def min_latency_cycles(self) -> float:
        """``min_lat`` of Definition 1: tightest latency constraint."""
        if not self.flows:
            return 0.0
        return min(f.latency_cycles for f in self.flows)

    def core_peak_bandwidth_mbps(self, core_name: str) -> float:
        """Worst-case bandwidth on the core's single NI link.

        A core attaches to exactly one switch through one NI (Section
        4), so its NI link must carry the *sum* of all its outgoing
        flows in one direction and of all incoming flows in the other.
        The island NoC frequency is driven by the larger of the two.
        """
        out_bw = sum(f.bandwidth_mbps for f in self.flows if f.src == core_name)
        in_bw = sum(f.bandwidth_mbps for f in self.flows if f.dst == core_name)
        return max(out_bw, in_bw)

    def core_peak_bandwidths(self) -> Dict[str, float]:
        """:meth:`core_peak_bandwidth_mbps` of every core, from one pass over the flows.

        Each core's out and in bandwidths are listed in flow order and
        added up by ``sum``, as the per-core scans do, so every value is
        the same float (``sum`` may compensate rounding, so ``+=`` would
        not be), and the same int 0 for a core without flows.
        """
        out_bw: Dict[str, List[float]] = {c.name: [] for c in self.cores}
        in_bw: Dict[str, List[float]] = {c.name: [] for c in self.cores}
        for f in self.flows:
            out_bw[f.src].append(f.bandwidth_mbps)
            in_bw[f.dst].append(f.bandwidth_mbps)
        return {c: max(sum(out_bw[c]), sum(in_bw[c])) for c in out_bw}

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_core_area_mm2(self) -> float:
        """Sum of all core areas (the SoC area baseline)."""
        return sum(c.area_mm2 for c in self.cores)

    @property
    def total_core_dynamic_power_mw(self) -> float:
        """Sum of core dynamic power with every core active."""
        return sum(c.dynamic_power_mw for c in self.cores)

    @property
    def total_core_leakage_power_mw(self) -> float:
        """Sum of core leakage power with every island powered."""
        return sum(c.leakage_power_mw for c in self.cores)

    @property
    def total_flow_bandwidth_mbps(self) -> float:
        """Aggregate bandwidth over all flows."""
        return sum(f.bandwidth_mbps for f in self.flows)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_vi_assignment(self, assignment: Mapping[str, int], name: Optional[str] = None) -> "SoCSpec":
        """Return a copy of the spec with a different island assignment.

        Used by the partitioning strategies (logical / communication
        based) to generate the island-count sweep of Figures 2 and 3.
        The copy holds this spec's own ``cores`` and ``flows`` tuples, so
        it shares their key texts too (:meth:`key_text`).
        """
        derived = replace(
            self,
            name=name if name is not None else self.name,
            vi_assignment=dict(assignment),
        )
        object.__setattr__(derived, "_texts", self._shared_texts())
        return derived

    def single_island(self) -> "SoCSpec":
        """The paper's reference point: every core in one island."""
        return self.with_vi_assignment({c.name: 0 for c in self.cores})

    def communication_matrix(self) -> Dict[Tuple[str, str], float]:
        """Bandwidth between all communicating pairs, as a dict."""
        return {f.key: f.bandwidth_mbps for f in self.flows}

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------

    def canonical(self) -> Dict[str, object]:
        """Normalized plain-data form used for content-addressed hashing.

        Two specs describing the same problem hash identically even when
        their ``vi_assignment`` mappings were built in different key
        orders: the mapping is emitted as sorted ``(core, island)``
        pairs.  Core and flow *sequence* order is preserved — synthesis
        results legitimately depend on it (tiling order, float
        accumulation order in the VCG), so reordering cores or flows is
        a different problem, not the same one.

        The spec ``name`` is intentionally excluded: the cache is
        content-addressed, so two identically-shaped specs under
        different names share results.
        """
        return {
            "cores": self._core_rows(),
            "flows": self._flow_rows(),
            "vi_assignment": self._island_rows(),
        }

    def _core_rows(self) -> List[list]:
        return [
            [c.name, c.area_mm2, c.dynamic_power_mw, c.leakage_power_mw,
             c.kind, c.group, c.freq_mhz]
            for c in self.cores
        ]

    def _flow_rows(self) -> List[list]:
        return [[f.src, f.dst, f.bandwidth_mbps, f.latency_cycles] for f in self.flows]

    def _island_rows(self) -> List[Tuple[str, int]]:
        return sorted(self.vi_assignment.items())

    def _shared_texts(self) -> "_SharedTexts":
        """The key texts of this spec's cores and flows, shared with every
        spec :meth:`with_vi_assignment` derives from it or it from."""
        texts = self.__dict__.get("_texts")
        if texts is None:
            texts = _SharedTexts()
            object.__setattr__(self, "_texts", texts)
        return texts

    def key_text(self) -> str:
        """The JSON text of the spec's canonical form.

        :func:`repro.cache.keys.fingerprint` splices it into every key
        that names the spec.  It is spliced in turn
        (:func:`~repro.cache.keys.object_text`) from three texts, each
        built once: the cores' and the flows', which every spec
        derived by :meth:`with_vi_assignment` shares with its parent
        (whichever is keyed first builds them), and the spec's own
        island assignment's, kept on the spec
        (:func:`~repro.cache.keys.kept_text`).  So the re-islanded specs
        of a sweep canonicalize their cores and flows once between them,
        a sweep caller's hit probe and the task's own lookup share every
        text, and forked workers inherit them.  All of them sit beside
        the dataclass fields as the lookup index does, so equality and
        ``repr`` never see them, and :meth:`__getstate__` drops them, so
        no pickle, copy or cached blob carries them.
        """
        from ..cache.keys import canonical_text, kept_text, object_text

        shared = self._shared_texts()
        if shared.flows is None:
            shared.cores = canonical_text(self._core_rows())
            shared.flows = canonical_text(self._flow_rows())
        own = kept_text(self, lambda spec: canonical_text(spec._island_rows()))
        return object_text(
            self, {"cores": shared.cores, "flows": shared.flows, "vi_assignment": own}
        )

    def fingerprint(self) -> str:
        """Stable content hash of the spec (hex digest).

        Delegates to :func:`repro.cache.keys.fingerprint` so floats get
        the exact (``float.hex``) representation and the versioned
        schema tag; see ``docs/caching.md`` for the key schema.
        """
        from ..cache.keys import fingerprint

        return fingerprint("spec", self.canonical())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "SoCSpec(%s: %d cores, %d flows, %d islands)" % (
            self.name,
            len(self.cores),
            len(self.flows),
            self.num_islands,
        )


class _SharedTexts:
    """The key texts of one ``cores`` tuple and one ``flows`` tuple.

    :meth:`SoCSpec.with_vi_assignment` hands a spec's tuples on to the
    spec it derives, and this holder with them.  Specs are frozen, so
    the texts hold for every spec that shares the holder.
    """

    __slots__ = ("cores", "flows")

    def __init__(self) -> None:
        self.cores: Optional[str] = None
        self.flows: Optional[str] = None


def build_spec(
    name: str,
    cores: Iterable[CoreSpec],
    flows: Iterable[TrafficFlow],
    vi_assignment: Optional[Mapping[str, int]] = None,
) -> SoCSpec:
    """Convenience constructor accepting any iterables.

    >>> c = [CoreSpec("a", 1.0, 10.0, 1.0), CoreSpec("b", 1.0, 10.0, 1.0)]
    >>> s = build_spec("demo", c, [TrafficFlow("a", "b", 100.0)])
    >>> s.num_islands
    1
    """
    return SoCSpec(
        name=name,
        cores=tuple(cores),
        flows=tuple(flows),
        vi_assignment=dict(vi_assignment) if vi_assignment else {},
    )
