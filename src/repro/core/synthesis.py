"""Topology synthesis driver — Algorithm 1 of the paper.

Pipeline per design-point candidate:

1. **Island planning** (steps 1–2): per-island NoC frequency from the
   worst NI link, maximum switch size from crossbar timing, minimum
   switch count from the size bound.
2. **Switch-count sweep** (steps 4–10): one sweep variable ``i`` raises
   every island's switch count in lock-step from its minimum toward
   one-switch-per-core (saturating per island).
3. **Core-to-switch assignment** (step 11): ``k``-way min-cut
   partitioning of each island's VCG; cores in one part share a switch.
4. **Intermediate-island sweep** (step 14): 0..N indirect switches in
   the never-gated NoC island.
5. **Path allocation** (step 15): bandwidth-ordered least-cost routing
   with link opening/reuse under size, capacity, latency and
   shutdown-safety constraints.
6. **Physical evaluation** (final step): floorplan insertion, wire
   lengths, power and zero-load latency; feasible candidates become
   :class:`~repro.core.design_point.DesignPoint` s.

The returned :class:`~repro.core.design_point.DesignSpace` is the
paper's power/performance trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

from ..arch.topology import INTERMEDIATE_ISLAND, Topology
from ..arch.validate import validate_topology
from ..cache.context import active_store
from ..cache.keys import (
    allocation_base_key,
    allocation_context_key,
    allocation_key,
    design_space_key,
)
from ..cache.signatures import allocation_signature, design_space_signature
from ..exceptions import CacheKeyError, InfeasibleError, PartitionError
from ..floorplan.placer import Floorplan, FloorplanConfig, place
from ..floorplan.wires import assign_wire_lengths
from ..obs.spans import span
from ..perf.instrument import active_recorder, maybe_phase
from ..power.library import DEFAULT_LIBRARY, NocLibrary
from ..power.noc_power import compute_noc_power
from ..power.soc_power import compute_soc_power
from ..sim.zero_load import evaluate_latency
from .design_point import DesignPoint, DesignSpace
from .frequency import IslandPlan, plan_all_islands
from .objective import Objective
from .partition import IslandPartitioner, partition_graph
from .paths import AllocationResult, PathAllocator, PathCostConfig
from .spec import SoCSpec
from .vcg import build_all_vcgs

if TYPE_CHECKING:  # pragma: no cover - the store loads with the first cache in use
    from ..cache.store import CacheStore


@dataclass(frozen=True)
class SynthesisConfig:
    """All knobs of the synthesis flow, with paper-faithful defaults."""

    #: Definition 1 weight between bandwidth and latency terms.
    alpha: float = 0.6
    #: Frequency quantization grid for island clocks (MHz).
    freq_step_mhz: float = 25.0
    #: Practical floor for island NoC clocks (MHz).
    min_freq_mhz: float = 100.0
    #: Explore intermediate-island solutions (Section 3.2: only if the
    #: designer provides power/ground resources for it).
    allow_intermediate: bool = True
    #: Cap on indirect switches tried per candidate; ``None`` lets the
    #: sweep run to the largest island's switch count (paper's bound).
    max_intermediate: Optional[int] = 3
    #: Path-cost configuration (power/latency linear combination).
    path_cost: PathCostConfig = field(default_factory=PathCostConfig)
    #: Min-cut partitioner variant ("fm" or "greedy").
    partition_method: str = "fm"
    #: Seed of the simulated-annealing placer (``anneal_placement``);
    #: partitioning is deterministic and draws no random numbers.
    seed: int = 0
    #: Floorplanner knobs.
    floorplan: FloorplanConfig = field(default_factory=FloorplanConfig)
    #: Run simulated-annealing placement refinement (slower, shorter
    #: wires); the constructive placer is the default.
    anneal_placement: bool = False
    #: Use placed wire lengths in power figures.
    use_lengths: bool = True
    #: Validate every design point's structural invariants (cheap; keep
    #: on outside of tight benchmark loops).
    validate_points: bool = True
    #: Stop the sweep after this many feasible points (None = full sweep).
    max_design_points: Optional[int] = None
    #: Enable the synthesis fast path: one partitioner per island that
    #: reuses its partitions and bisections across the switch-count
    #: sweep, cost memos and per-destination search state inside path
    #: allocation, the direct-open dominance shortcut, the search's
    #: open-edge class skip, the floorplan-skeleton cache, and the
    #: probes of an active cache store.  Off reproduces the same design
    #: space through the unmemoized reference path (used by
    #: determinism tests).
    enable_caches: bool = True
    #: Co-synthesis objective: when set, every evaluated candidate is
    #: scored under it *inside* the sweep — points the objective
    #: rejects are recorded as failures (like a routing failure) and
    #: the surviving points carry their :class:`ObjectiveResult`, so
    #: trace energy or QoS deadlines steer Algorithm 1's switch-count
    #: and partition choices directly.  ``None`` (the default) keeps
    #: the historical behaviour: no scoring during synthesis, and
    #: selection helpers fall back to the static-power objective —
    #: byte-identical to passing ``StaticPowerObjective()``.
    objective: Optional[Objective] = None
    #: Objective-aware sweep pruning: once an incumbent best point
    #: exists, a candidate whose cheap *exact cost prefix*
    #: (:meth:`~repro.core.objective.Objective.partial_cost`) compares
    #: strictly greater than the incumbent's cost is dropped without
    #: the expensive remainder of its evaluation (trace replays,
    #: spare-path protection).  Pruned candidates are recorded in
    #: ``DesignSpace.failures`` and never enter ``points`` — the space
    #: is smaller, but selection under the objective is provably
    #: identical to the unpruned sweep (a strictly greater prefix
    #: implies a strictly greater full cost vector).  With no
    #: objective configured, the static-power default drives the prune
    #: decision only (points still carry no ``objective_result``).
    #: Inert when ``max_design_points`` is set: the cap truncates by
    #: accepted-point count, and skipping candidates would shift the
    #: truncation boundary — breaking the identical-selection
    #: guarantee — so the sweep silently evaluates everything instead.
    prune_sweep: bool = False


def synthesize(
    spec: SoCSpec,
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
) -> DesignSpace:
    """Run Algorithm 1 on a spec; return all feasible design points.

    Raises
    ------
    InfeasibleError
        If no candidate in the whole sweep routes all flows within
        constraints.  (Callers wanting the empty space instead can
        catch it or inspect ``DesignSpace.failures``.)
    """
    cfg = config or SynthesisConfig()
    with span("synthesis", spec=spec.name, islands=spec.num_islands) as s:
        space = _cached_synthesize(spec, library, cfg, s)
        space.require_feasible()
        if s is not None:
            s.set(design_points=len(space))
        return space


def _cached_synthesize(
    spec: SoCSpec,
    library: NocLibrary,
    cfg: SynthesisConfig,
    root_span=None,
) -> DesignSpace:
    """Space-tier cache probe around the full sweep.

    Active only when a :class:`~repro.cache.store.CacheStore` is
    installed (``repro.cache.caching``) *and* the config's fast paths
    are on — ``enable_caches=False`` is the reference mode and must
    exercise the real computation.  Infeasible sweeps are cached too
    (the stored space carries the failures; :func:`synthesize` re-raises
    from it), so warm re-runs of infeasible corners stay cheap.
    """
    store = active_store()
    if store is None or not cfg.enable_caches:
        return _synthesize_sweep(spec, library, cfg)
    try:
        key = design_space_key(spec, library, cfg)
    except CacheKeyError:
        # Something in the config (say, a closure-capturing objective)
        # has no stable content address; run cold, don't fail the run.
        store.record_key_error()
        return _synthesize_sweep(spec, library, cfg)
    space = store.get_object(key, "space")
    if space is not None:
        # Keys leave the spec name out, so the hit may have been stored
        # under another name: hand back the caller's own spec objects.
        space.spec_name = spec.name
        for point in space.points:
            _rebind(point.topology, spec, library)
        if root_span is not None:
            root_span.set(cache="hit")
        if store.should_verify():
            fresh = _synthesize_sweep(spec, library, cfg)
            store.check_signature(
                design_space_signature(space),
                design_space_signature(fresh),
                "design space for %s" % spec.name,
            )
        return space
    if root_span is not None:
        root_span.set(cache="miss")
    space = _synthesize_sweep(spec, library, cfg)
    store.put_object(key, space, "space")
    return space


def _rebind(topology: Optional[Topology], spec: SoCSpec, library: NocLibrary) -> None:
    """Point a decoded cached topology at the caller's spec and library."""
    if topology is not None:
        topology.spec = spec
        topology.library = library


def _synthesize_sweep(
    spec: SoCSpec, library: NocLibrary, cfg: SynthesisConfig
) -> DesignSpace:
    """The Algorithm-1 sweep body (root span opened by :func:`synthesize`)."""
    plans = plan_all_islands(spec, library, cfg.freq_step_mhz, cfg.min_freq_mhz)
    vcgs = build_all_vcgs(spec, cfg.alpha)
    space = DesignSpace(spec_name=spec.name, objective=cfg.objective)
    # Allocation-tier probes share the active store; off in reference
    # mode so enable_caches=False really is the unmemoized computation.
    # The spec/library digest is hoisted out of the candidate loop — it
    # is the expensive canonicalization and is sweep-invariant.
    store: Optional[CacheStore] = active_store() if cfg.enable_caches else None
    alloc_ctx: Optional[str] = None
    if store is not None:
        try:
            alloc_ctx = allocation_context_key(spec, library, cfg.path_cost)
        except CacheKeyError:
            store.record_key_error()
    # Pruning needs a full-cost incumbent to compare prefixes against;
    # with no objective configured the static-power default drives the
    # prune decision alone (accepted points stay objective-free).
    # Under max_design_points the cap truncates by accepted-point
    # count; pruning would shift that boundary (a pruned candidate may
    # or may not have been vetoed by the objective, which the skipped
    # evaluation cannot tell), so the guarantee only holds with the
    # prune disabled.
    prune_obj: Optional[Objective] = None
    if cfg.prune_sweep and cfg.max_design_points is None:
        from .objective import StaticPowerObjective

        prune_obj = cfg.objective or StaticPowerObjective()
    incumbent: Optional[Tuple[float, ...]] = None

    max_cores = max(p.num_cores for p in plans.values())
    has_cross_flows = bool(spec.flows_across_islands())
    if cfg.allow_intermediate and has_cross_flows and spec.num_islands > 1:
        mid_cap = max_cores if cfg.max_intermediate is None else cfg.max_intermediate
    else:
        mid_cap = 0

    seen_counts: Set[Tuple[Tuple[int, int], ...]] = set()
    # One step-11 partitioner per island, built on first use: it
    # answers every switch count of the sweep and shares bisections
    # between them.  ``None`` is reference mode (no reuse).
    partitioners: Optional[Dict[int, IslandPartitioner]] = (
        {} if cfg.enable_caches else None
    )
    # Floorplan-skeleton cache shared across the sweep: candidates with
    # identical island region areas re-tile the same chip outline, core
    # rectangles and NI positions (see repro.floorplan.placer.place).
    place_cache: Optional[dict] = {} if cfg.enable_caches else None
    point_index = 0
    for i in range(0, max_cores + 1):
        counts: Dict[int, int] = {}
        for isl, plan in plans.items():
            counts[isl] = min(plan.min_switches + i, plan.num_cores)
        counts_key = tuple(sorted(counts.items()))
        if counts_key in seen_counts:
            continue  # every island saturated; nothing new to explore
        seen_counts.add(counts_key)

        try:
            with maybe_phase("partitioning"), span("partition", sweep_i=i):
                partitions = _partition_islands(vcgs, plans, counts, cfg, partitioners)
        except PartitionError as exc:
            space.failures.append((counts_key, -1, "partitioning: %s" % exc))
            continue

        # One allocator per candidate: flow order, successor rows and
        # cost memos are shared across the intermediate-count sweep.
        allocator = PathAllocator(
            spec,
            library,
            plans,
            partitions,
            cost_config=cfg.path_cost,
            use_cache=cfg.enable_caches,
        )
        # Allocation-tier cache: one base digest per candidate (the
        # spec/library/plans/partitions canonicalization is shared by
        # the whole intermediate-count sweep), per-k keys derived from
        # it.  Routes interact through shared link capacities, so the
        # whole allocation — every island pair's routing plan — is the
        # sound cacheable unit.  Objective-independent by construction:
        # objective re-runs hit this tier.
        alloc_base: Optional[str] = None
        if alloc_ctx is not None:
            alloc_base = allocation_base_key(alloc_ctx, plans, partitions)
        seen_signatures: Set[Tuple[Tuple[Tuple[int, int], ...], int]] = set()
        for k_mid in range(0, mid_cap + 1):
            result = None
            if alloc_base is not None:
                akey = allocation_key(alloc_base, k_mid)
                alloc_entry = store.get_object(akey, "allocation")
                if alloc_entry is not None:
                    result = alloc_entry["result"]
                    _rebind(result.topology, spec, library)
                    if k_mid == 0:
                        # allocate(k>0) is not history-free (the k=0
                        # dominance shortcut); re-arm the state so any
                        # later cold allocate matches the populating run.
                        allocator.seed_k0(result, alloc_entry["k0_unblocked"])
                    if store.should_verify():
                        fresh_alloc = allocator.allocate(num_intermediate=k_mid)
                        store.check_signature(
                            allocation_signature(result),
                            allocation_signature(fresh_alloc),
                            "allocation %s k_mid=%d" % (counts_key, k_mid),
                        )
            alloc_from_cache = result is not None
            if result is None:
                with maybe_phase("allocation"), span(
                    "allocate", k_mid=k_mid
                ) as alloc_span:
                    result = allocator.allocate(num_intermediate=k_mid)
                    if alloc_span is not None:
                        alloc_span.set(success=result.success)
            if not result.success:
                if alloc_base is not None and not alloc_from_cache:
                    store.put_object(
                        akey,
                        {"result": result, "k0_unblocked": allocator.k0_dominance},
                        "allocation",
                    )
                space.failures.append((counts_key, k_mid, result.reason or "unknown"))
                continue
            # Requesting more intermediate switches than the allocator
            # uses reproduces an earlier point; skip the duplicate.
            used_mid = len(result.require_topology().intermediate_switches)
            signature = (counts_key, used_mid)
            if signature in seen_signatures:
                # Never cached: the dominance shortcut aliases this
                # result to the k=0 object, whose topology evaluation
                # has already mutated (wire lengths) — warm runs
                # instead miss here and re-skip via the seeded k=0
                # dominance state, which costs nothing.
                continue
            seen_signatures.add(signature)
            if alloc_base is not None and not alloc_from_cache:
                # Snapshot *before* evaluation: _evaluate_point assigns
                # wire lengths onto this topology in place, and the
                # cached bytes must stay pre-evaluation.
                store.put_object(
                    akey,
                    {"result": result, "k0_unblocked": allocator.k0_dominance},
                    "allocation",
                )
            with maybe_phase("evaluation"), span("evaluate", k_mid=k_mid):
                point = _evaluate_point(
                    result, plans, counts, k_mid, point_index, library, cfg,
                    place_cache,
                )
            if prune_obj is not None and incumbent is not None:
                prefix = prune_obj.partial_cost(point)
                if prefix is not None and prefix > incumbent[: len(prefix)]:
                    # The prefix is an exact prefix of the full cost
                    # vector and already compares strictly greater, so
                    # the candidate can never beat the incumbent —
                    # skip the expensive remainder of its evaluation.
                    recorder = active_recorder()
                    if recorder is not None:
                        recorder.count("sweep_pruned")
                    space.failures.append(
                        (counts_key, k_mid, "pruned: partial cost above incumbent")
                    )
                    continue
            if cfg.objective is not None:
                point = replace(
                    point, objective_result=cfg.objective.evaluate(point)
                )
            if point.objective_result is not None and not point.objective_result.feasible:
                # Co-synthesis rejection: the objective vetoes the
                # candidate mid-sweep, exactly like a routing failure
                # (the freed index goes to the next accepted point).
                space.failures.append(
                    (
                        counts_key,
                        k_mid,
                        "objective: %s" % (point.objective_result.reason or "rejected"),
                    )
                )
                continue
            space.points.append(point)
            if prune_obj is not None:
                cost = (
                    point.objective_result.cost
                    if point.objective_result is not None
                    else prune_obj.evaluate(point).cost
                )
                if incumbent is None or cost < incumbent:
                    incumbent = cost
            point_index += 1
            if cfg.max_design_points is not None and len(space.points) >= cfg.max_design_points:
                return space
    return space


def _partition_islands(
    vcgs: Mapping[int, object],
    plans: Mapping[int, IslandPlan],
    counts: Mapping[int, int],
    cfg: SynthesisConfig,
    partitioners: Optional[Dict[int, IslandPartitioner]] = None,
) -> Dict[int, List[Set[str]]]:
    """Step 11: k-way min-cut partition of every island's VCG.

    ``partitioners`` holds one :class:`IslandPartitioner` per island for
    the whole sweep; its per-k memo counts ``partition_cache_hits`` and
    ``partition_cache_misses``.  The returned groups are shared with
    later candidates and never mutated downstream.  ``None`` is
    reference mode: a fresh :func:`partition_graph` per island and
    candidate.
    """
    recorder = active_recorder()
    partitions: Dict[int, List[Set[str]]] = {}
    for isl in sorted(counts):
        k = counts[isl]
        vcg = vcgs[isl]
        size = plans[isl].max_switch_size
        if partitioners is None:
            partitions[isl] = partition_graph(
                vcg.nodes,
                vcg.symmetric_weights(),
                k,
                max_part_size=size,
                method=cfg.partition_method,
            )
            continue
        partitioner = partitioners.get(isl)
        if partitioner is None:
            partitioner = IslandPartitioner(
                vcg.nodes, vcg.symmetric_weights(), size, cfg.partition_method
            )
            partitioners[isl] = partitioner
        hit = partitioner.memoized(k)
        partitions[isl] = partitioner.parts(k)
        if recorder is not None:
            recorder.count("partition_cache_hits" if hit else "partition_cache_misses")
    return partitions


def _evaluate_point(
    result: AllocationResult,
    plans: Mapping[int, IslandPlan],
    counts: Mapping[int, int],
    k_mid: int,
    index: int,
    library: NocLibrary,
    cfg: SynthesisConfig,
    place_cache: Optional[dict] = None,
) -> DesignPoint:
    """Final step: floorplan, wires, power, latency for one topology."""
    topo = result.require_topology()
    if cfg.anneal_placement:
        from ..floorplan.annealer import AnnealConfig, anneal_placement

        floorplan = anneal_placement(topo, cfg.floorplan, AnnealConfig(seed=cfg.seed))
    else:
        floorplan = place(topo, cfg.floorplan, skeleton_cache=place_cache)
    wires = assign_wire_lengths(topo, floorplan)
    if cfg.validate_points:
        max_sizes = {isl: p.max_switch_size for isl, p in plans.items()}
        if topo.has_intermediate_island:
            max_sizes[INTERMEDIATE_ISLAND] = library.max_switch_size_for_freq(
                topo.island_freqs[INTERMEDIATE_ISLAND]
            )
        validate_topology(topo, max_switch_sizes=max_sizes)
    noc_power = compute_noc_power(topo, use_lengths=cfg.use_lengths)
    soc_power = compute_soc_power(topo, noc_power)
    latency = evaluate_latency(topo)
    # Objective scoring happens in the sweep loop (after the pruning
    # decision), not here — this builds the metrics-only point.
    return DesignPoint(
        index=index,
        switch_counts=dict(counts),
        num_intermediate_requested=k_mid,
        num_intermediate_used=len(topo.intermediate_switches),
        topology=topo,
        floorplan=floorplan,
        wires=wires,
        noc_power=noc_power,
        soc_power=soc_power,
        latency=latency,
    )
