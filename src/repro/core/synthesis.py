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

Steps 1–6 are objective-free and run as one candidate pass over the
whole sweep; a scoring pass then applies the configured objective, its
veto and sweep pruning.  Only the candidate pass's outcomes are
cached.  The returned :class:`~repro.core.design_point.DesignSpace` is
the paper's power/performance trade-off curve.

After step 1 the switch-count steps are independent, so a large spec's
candidate pass is dealt round-robin by step over the CPUs the process
may use (:func:`_fanout_width`) and merged back into candidate order
before scoring: the outcomes are exactly those of one process.
"""

from __future__ import annotations

import gc
import itertools
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..arch.topology import INTERMEDIATE_ISLAND, NetworkInterface
from ..arch.validate import validate_topology
from ..cache.context import active_store
from ..cache.keys import design_space_key
from ..cache.signatures import design_space_signature
from ..exceptions import CacheKeyError, PartitionError
from ..floorplan.placer import FloorplanConfig, place
from ..floorplan.wires import assign_wire_lengths
from ..perf.instrument import active_recorder, span, worker_recording
from ..power.library import DEFAULT_LIBRARY, NocLibrary
from ..power.noc_power import compute_noc_power
from ..power.soc_power import compute_soc_power
from ..sim.zero_load import evaluate_latency
from .design_point import DesignPoint, DesignSpace
from .forked import forked_workers, may_fork
from .frequency import IslandPlan, plan_all_islands
from .objective import Objective
from .partition import IslandPartitioner, partition_graph
from .paths import AllocationResult, PathAllocator, PathCostConfig
from .spec import SoCSpec
from .vcg import build_all_vcgs


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
    #: Floorplanner knobs.
    floorplan: FloorplanConfig = field(default_factory=FloorplanConfig)
    #: Enable the synthesis fast path: one partitioner per island that
    #: reuses its partitions and bisections across the switch-count
    #: sweep, cost memos and per-destination search state inside path
    #: allocation, the direct-open dominance shortcut, the search's
    #: open-edge class skip, the floorplan-skeleton cache, the fan-out
    #: of a large spec's candidate pass over the CPUs, and the active
    #: cache store's candidate record.  Off reproduces the same design
    #: space through the unmemoized reference path (used by
    #: determinism tests) in one process, without touching the store.
    enable_caches: bool = True
    #: Co-synthesis objective: when set, the scoring pass scores every
    #: evaluated candidate under it — points the objective rejects are
    #: recorded as failures (like a routing failure) and the surviving
    #: points carry their :class:`ObjectiveResult`, so trace energy or
    #: QoS deadlines steer which switch-count and partition choices of
    #: Algorithm 1 survive.  ``None`` (the default) keeps the
    #: historical behaviour: no scoring during synthesis, and selection
    #: helpers fall back to the static-power objective — byte-identical
    #: to passing ``StaticPowerObjective()``.  Not part of the cache
    #: key: the cached candidate record is objective-free, so a re-run
    #: under any objective is one record hit plus scoring, and scoring
    #: re-runs ``evaluate`` on every point (a trace replay or spare-path
    #: protection for the costly objectives; docs/performance.md).
    objective: Optional[Objective] = None

    def __getstate__(self) -> Dict[str, object]:
        # Drop the key text design_space_key keeps on the config
        # (repro.cache.keys.kept_text).
        state = dict(self.__dict__)
        state.pop("_key_text", None)
        return state


#: One candidate's outcome in the objective-free pass: a metrics-only
#: :class:`DesignPoint`, or a ``(switch counts, k_mid, reason)`` failure
#: (``k_mid`` is -1 when partitioning failed).
Outcome = Union[DesignPoint, Tuple[Tuple[Tuple[int, int], ...], int, str]]

#: Fewest cores for which one call fans its candidate pass out over the
#: CPUs.  Below it a pass is too short to pay for starting a worker
#: (docs/performance.md, "Candidate fan-out", has the crossover).
_FANOUT_MIN_CORES = 40


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector off.

    The caller's setting comes back in a ``finally``, so a collector the
    caller had disabled stays off.  Only for code that creates no
    reference cycles: reference counting then frees all of its garbage,
    and the collector, which allocation bursts would otherwise set off
    over and over, would find nothing to collect.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def synthesize(
    spec: SoCSpec,
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
) -> DesignSpace:
    """Run Algorithm 1 on a spec; return all feasible design points.

    Two passes: the objective-free candidate pass (partitioning,
    routing, evaluation), served from the active cache store when it
    can be, and the scoring pass, which applies the objective and its
    veto to its outcomes.

    The whole call, cache decode and encode included, runs under
    :func:`gc_paused`.  That rests on synthesis creating no reference
    cycles, under every built-in objective, cold or served from the
    store (``tests/test_synthesis.py::TestNoReferenceCycles``); a
    pause around code that did would hold its cyclic garbage until the
    collector resumes.

    Raises
    ------
    InfeasibleError
        If no candidate in the whole sweep routes all flows within
        constraints.  (Callers wanting the empty space instead can
        catch it or inspect ``DesignSpace.failures``.)
    """
    cfg = config or SynthesisConfig()
    with gc_paused(), span("synthesis", spec=spec.name, islands=spec.num_islands) as s:
        space = _score(spec.name, cfg, _outcomes(spec, library, cfg, s))
        space.require_feasible()
        if s is not None:
            s.set(design_points=len(space))
        return space


def _outcomes(
    spec: SoCSpec,
    library: NocLibrary,
    cfg: SynthesisConfig,
    root_span=None,
) -> Iterable[Outcome]:
    """The candidate pass's outcomes, through the active cache store.

    The store holds one entry per pass: the complete outcome list,
    keyed without the objective, so a run under any objective is served
    by it.  On a miss the list is built and stored before it is scored.
    Active only when a :class:`~repro.cache.store.CacheStore` is installed
    (``repro.cache.caching``) *and* the config's fast paths are on —
    ``enable_caches=False`` is the reference mode and must exercise the
    real computation.  Infeasible sweeps are cached too (the record is
    all failures; :func:`synthesize` re-raises after scoring).
    """
    store = active_store()
    key = store_key(spec, library, cfg) if store is not None else None
    if key is None:
        if store is not None and cfg.enable_caches:
            # Something in the config has no stable content address;
            # run cold, don't fail the run.
            store.record_key_error()
        return _cold_pass(spec, library, cfg)
    record = store.get_object(key, "space")
    if record is None:
        if root_span is not None:
            root_span.set(cache="miss")
        record = list(_cold_pass(spec, library, cfg))
        store.put_object(key, record, "space")
        return record
    # Keys leave the spec name out, so the hit may have been stored
    # under another name: hand back the caller's own spec objects.
    _rebind(record, spec, library)
    if root_span is not None:
        root_span.set(cache="hit")
    if store.should_verify():
        # The pass never touches the store, so this is a clean recompute.
        store.check_signature(
            design_space_signature(record),
            design_space_signature(list(_cold_pass(spec, library, cfg))),
            "candidate record for %s" % spec.name,
        )
    return record


def store_key(
    spec: SoCSpec, library: NocLibrary, cfg: SynthesisConfig
) -> Optional[str]:
    """The key of the candidate record a call with these inputs looks up
    in the active store, or ``None`` when it runs without the store.

    A call consults the store only when the config's fast path is on
    and the inputs have a stable content address
    (:func:`~repro.cache.keys.design_space_key` raises
    :class:`CacheKeyError` otherwise).  :func:`_outcomes` and a sweep
    caller's hit probe (:meth:`ExplorationEngine.run
    <repro.core.explore.ExplorationEngine.run>`) both ask here, so the
    probe never disagrees with the call about whether the store is
    consulted, or under which key.
    """
    if not cfg.enable_caches:
        return None
    try:
        return design_space_key(spec, library, cfg)
    except CacheKeyError:
        return None


def _rebind(
    outcomes: Iterable[Outcome],
    spec: Optional[SoCSpec],
    library: Optional[NocLibrary],
) -> None:
    """Point the points' topologies at the caller's spec and library."""
    for outcome in outcomes:
        if isinstance(outcome, DesignPoint) and outcome.topology is not None:
            outcome.topology.spec = spec
            outcome.topology.library = library


def _cold_pass(
    spec: SoCSpec, library: NocLibrary, cfg: SynthesisConfig
) -> Iterable[Outcome]:
    """The candidate pass, computed: in this process, or fanned out.

    Fanned out (:func:`_fanout_width` above 1), it returns the merged
    list; otherwise a generator that the scoring pass drains as it goes.
    """
    plans = plan_all_islands(spec, library, cfg.freq_step_mhz, cfg.min_freq_mhz)
    width = _fanout_width(spec, cfg, len(_sweep_steps(plans)))
    if width > 1:
        return _fanned_out_pass(spec, library, cfg, plans, width)
    return itertools.chain.from_iterable(_candidate_pass(spec, library, cfg, plans))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fanout_width(spec: SoCSpec, cfg: SynthesisConfig, steps: int) -> int:
    """Processes to deal a candidate pass of ``steps`` steps over (1: none).

    A pass fans out only when every condition holds: the fast path is on
    (the ``enable_caches=False`` reference mode stays one process), the
    spec has at least :data:`_FANOUT_MIN_CORES` cores, the pass has more
    than one step, this process may fork workers
    (:func:`~repro.core.forked.may_fork`; a sweep worker never does),
    and more than one CPU is usable.  The width is then
    ``min(CPUs, steps)``.
    """
    if not cfg.enable_caches or steps < 2 or len(spec.cores) < _FANOUT_MIN_CORES:
        return 1
    if not may_fork():
        return 1
    return min(_usable_cpus(), steps)


def _fanned_out_pass(
    spec: SoCSpec,
    library: NocLibrary,
    cfg: SynthesisConfig,
    plans: Mapping[int, IslandPlan],
    width: int,
) -> List[Outcome]:
    """The candidate pass dealt round-robin by step over ``width`` processes.

    Step ``j`` goes to chunk ``j % width``: round-robin chunks do equal
    work, where contiguous ones would not (per-step cost grows with the
    switch count).  This process runs chunk 0 while ``width - 1``
    forked workers run the others (:func:`_run_chunk`), then decodes
    each worker's result off its pipe; with a recorder installed, each
    worker's snapshot merges here as ``chunk<i>``.  A worker's exception
    re-raises here, and no worker outlives the call
    (:func:`~repro.core.forked.forked_workers`).
    """
    recorder = active_recorder()
    work = partial(_run_chunk, spec, library, cfg, plans, width, recorder is not None)
    with forked_workers(work, range(1, width), "synthesis chunk") as receive:
        chunks = [list(_candidate_pass(spec, library, cfg, plans, 0, width))]
        for chunk in range(1, width):
            steps, snapshot = receive(chunk)
            _rebind(itertools.chain.from_iterable(steps), spec, library)
            chunks.append(steps)
            if snapshot is not None:
                recorder.merge(snapshot, process="chunk%d" % chunk)
    return _merge_chunks(chunks)


def _run_chunk(
    spec: SoCSpec,
    library: NocLibrary,
    cfg: SynthesisConfig,
    plans: Mapping[int, IslandPlan],
    width: int,
    collect_obs: bool,
    chunk: int,
    send: Callable[[object], None],
) -> None:
    """A forked worker's chunk of :func:`_fanned_out_pass`.

    Sends one message: ``(step outcome lists, recorder snapshot or
    None)``.  The topologies travel without their spec and library,
    which the caller already holds.
    """
    payload: Dict[str, object] = {}
    capture = worker_recording(payload) if collect_obs else nullcontext()
    with gc_paused(), capture:
        steps = list(_candidate_pass(spec, library, cfg, plans, chunk, width))
    _rebind(itertools.chain.from_iterable(steps), None, None)
    send((steps, payload.get("obs")))


def _merge_chunks(chunks: Sequence[List[List[Outcome]]]) -> List[Outcome]:
    """Chunks' per-step outcomes back in sweep order, points renumbered.

    Step ``j`` ran in chunk ``j % len(chunks)``, whose points were
    numbered from 0; renumbered, the list equals the one-process pass.
    """
    width = len(chunks)
    merged: List[Outcome] = []
    points = 0
    for j in range(sum(len(c) for c in chunks)):
        for outcome in chunks[j % width][j // width]:
            if isinstance(outcome, DesignPoint):
                if outcome.index != points:
                    outcome = replace(outcome, index=points)
                points += 1
            merged.append(outcome)
    return merged


def _sweep_steps(plans: Mapping[int, IslandPlan]) -> List[Dict[int, int]]:
    """Steps 4–10: every island's switch count at each sweep step.

    One sweep variable ``i`` raises every island's count in lock-step
    from its minimum, each saturating at one switch per core; the sweep
    ends when every island has saturated, since the next step would
    explore nothing new.
    """
    steps: List[Dict[int, int]] = []
    while True:
        i = len(steps)
        counts = {
            isl: min(plan.min_switches + i, plan.num_cores) for isl, plan in plans.items()
        }
        if steps and counts == steps[-1]:
            return steps
        steps.append(counts)


def _candidate_pass(
    spec: SoCSpec,
    library: NocLibrary,
    cfg: SynthesisConfig,
    plans: Mapping[int, IslandPlan],
    chunk: int = 0,
    width: int = 1,
) -> Iterator[List[Outcome]]:
    """Algorithm 1's objective-free pass: each step's candidate outcomes.

    Yields one list per switch-count step, in sweep order, of each
    ``(switch counts, k_mid)`` candidate's metrics-only point or
    failure.  Only the steps ``j`` with ``j % width == chunk`` run (one
    chunk of a fanned-out pass).  Point indices count the points this
    pass yielded so far; scoring renumbers them when it drops any, and
    the fan-out's merge when it interleaves chunks.
    """
    vcgs = build_all_vcgs(spec, cfg.alpha)
    max_cores = max(p.num_cores for p in plans.values())
    has_cross_flows = bool(spec.flows_across_islands())
    if cfg.allow_intermediate and has_cross_flows and spec.num_islands > 1:
        mid_cap = max_cores if cfg.max_intermediate is None else cfg.max_intermediate
    else:
        mid_cap = 0

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
    # One NI per core for the whole pass: island clocks are fixed by the
    # plans, so every scaffold attaches the same frozen NI.
    nis: Dict[str, NetworkInterface] = {}
    point_index = 0
    for i, counts in enumerate(_sweep_steps(plans)):
        if i % width != chunk:
            continue
        counts_key = tuple(sorted(counts.items()))
        outcomes: List[Outcome] = []
        try:
            with span("partition", sweep_i=i):
                partitions = _partition_islands(vcgs, plans, counts, cfg, partitioners)
        except PartitionError as exc:
            yield [(counts_key, -1, "partitioning: %s" % exc)]
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
            nis=nis,
        )
        seen_signatures: Set[Tuple[Tuple[Tuple[int, int], ...], int]] = set()
        for k_mid in range(0, mid_cap + 1):
            with span("allocate", k_mid=k_mid) as alloc_span:
                result = allocator.allocate(num_intermediate=k_mid)
                if alloc_span is not None:
                    alloc_span.set(success=result.success)
            if not result.success:
                outcomes.append((counts_key, k_mid, result.reason or "unknown"))
                continue
            # Requesting more intermediate switches than the allocator
            # uses reproduces an earlier point; skip the duplicate.
            used_mid = len(result.require_topology().intermediate_switches)
            signature = (counts_key, used_mid)
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            with span("evaluate", k_mid=k_mid):
                point = _evaluate_point(
                    result, plans, counts, k_mid, point_index, library, cfg,
                    place_cache,
                )
            point_index += 1
            outcomes.append(point)
        yield outcomes


def _score(
    spec_name: str, cfg: SynthesisConfig, outcomes: Iterable[Outcome]
) -> DesignSpace:
    """The scoring pass: objective, veto and indices.

    A point whose index or objective result changes is a new one
    (``dataclasses.replace``), but it shares the record point's
    topology, floorplan and wires, which a store hit decodes afresh:
    the objective must not mutate them (the :meth:`Objective.evaluate`
    contract), or a cold run and a hit would disagree.
    """
    space = DesignSpace(spec_name=spec_name, objective=cfg.objective)
    for outcome in outcomes:
        if not isinstance(outcome, DesignPoint):
            space.failures.append(outcome)
            continue
        point = outcome
        if point.index != len(space.points):
            point = replace(point, index=len(space.points))
        if cfg.objective is not None:
            point = replace(point, objective_result=cfg.objective.evaluate(point))
        if point.objective_result is not None and not point.objective_result.feasible:
            # Co-synthesis rejection: the objective vetoes the
            # candidate mid-sweep, exactly like a routing failure
            # (the freed index goes to the next accepted point).
            space.failures.append(
                _failure(
                    point, "objective: %s" % (point.objective_result.reason or "rejected")
                )
            )
            continue
        space.points.append(point)
    return space


def _failure(point: DesignPoint, reason: str) -> Outcome:
    """A scored-out candidate, in the pass's failure form."""
    counts_key = tuple(sorted(point.switch_counts.items()))
    return (counts_key, point.num_intermediate_requested, reason)


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
    floorplan = place(topo, cfg.floorplan, skeleton_cache=place_cache)
    wires = assign_wire_lengths(topo, floorplan)
    max_sizes = {isl: p.max_switch_size for isl, p in plans.items()}
    if topo.has_intermediate_island:
        max_sizes[INTERMEDIATE_ISLAND] = library.max_switch_size_for_freq(
            topo.island_freqs[INTERMEDIATE_ISLAND]
        )
    validate_topology(topo, max_switch_sizes=max_sizes)
    noc_power = compute_noc_power(topo)
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
