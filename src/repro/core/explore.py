"""Design-space exploration drivers.

One level above :func:`repro.core.synthesis.synthesize`: structured
sweeps over the knobs a system architect actually turns — island count
and assignment strategy (the paper's Figures 2/3 axis), the VCG weight
``alpha``, and the link data width.  Each sweep returns plain records
so benches, examples and notebooks share one implementation instead of
re-rolling loops.

Sweep points are independent synthesis runs, so :class:`ExplorationEngine`
can fan them out across a *persistent* worker pool (``workers > 1``):
the :class:`~concurrent.futures.ProcessPoolExecutor` is created once,
its initializer installs the sweep-invariant context (the distinct
specs, base library/config, selector) in each worker — shared for free
via copy-on-write under the ``fork`` start method, shipped once per
worker otherwise — and each task then travels as a small descriptor
(spec index, knob labels, config/library field diffs) instead of a full
pickled :class:`SweepTask`.  Results come back in submission order, so
parallel and serial sweeps produce identical record lists; ``workers=1``
never touches the pool machinery at all.  The module-level sweep
functions are thin wrappers over a default engine and accept the same
``workers`` knob.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InfeasibleError, SpecError
from ..perf.instrument import Recorder, active_recorder, span, worker_recording
from ..power.library import DEFAULT_LIBRARY, NocLibrary
from ..soc.partitioning import communication_partitioning, logical_partitioning
from .design_point import DesignPoint, DesignSpace
from .objective import Objective, TraceEnergyObjective
from .spec import SoCSpec
from .synthesis import SynthesisConfig, gc_paused, synthesize

if TYPE_CHECKING:  # pragma: no cover - a sweep without a trace loads no runtime
    from ..power.gating import GatingModel
    from ..runtime.trace import UseCaseTrace

#: Placeholder emitted for metric columns of infeasible sweep rows so
#: feasible and infeasible rows keep identical key sets (column
#: alignment in :func:`repro.io.report.format_table` depends on it).
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SweepRecord:
    """One point of a sweep: the knob values plus the chosen design."""

    knobs: Mapping[str, object]
    point: Optional[DesignPoint]
    design_points: int
    elapsed_s: float
    failure: Optional[str] = None
    #: Objective-contributed columns (e.g. ``trace_mj``); infeasible
    #: records carry the same keys with the :data:`INFEASIBLE`
    #: placeholder so mixed sweeps keep aligned columns.
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.point is not None

    def row(self) -> Dict[str, object]:
        """Flat dict for :func:`repro.io.report.format_table`.

        Feasible and infeasible records emit the same keys — metric
        columns of infeasible rows hold the :data:`INFEASIBLE`
        placeholder — so mixed sweeps tabulate with aligned columns.
        """
        out: Dict[str, object] = dict(self.knobs)
        if self.point is not None:
            out.update(
                {
                    "noc_power_mw": round(self.point.power_mw, 2),
                    "avg_latency_cycles": round(self.point.avg_latency_cycles, 2),
                    "switches": self.point.total_switches,
                    "converters": self.point.topology.num_converters(),
                }
            )
        else:
            out.update(
                {
                    "noc_power_mw": INFEASIBLE,
                    "avg_latency_cycles": INFEASIBLE,
                    "switches": INFEASIBLE,
                    "converters": INFEASIBLE,
                }
            )
        out.update(self.extras)
        out["design_points"] = self.design_points
        out["seconds"] = round(self.elapsed_s, 3)
        return out


@dataclass(frozen=True)
class SweepTask:
    """One synthesis run of a sweep, ready to execute anywhere.

    Fully self-contained (spec, library, config, knob labels, selector)
    so the engine can ship it to a pool worker; every field must be
    picklable when ``workers > 1``.
    """

    spec: SoCSpec
    library: NocLibrary
    config: SynthesisConfig
    knobs: Mapping[str, object]
    select: Callable[[DesignSpace], DesignPoint]


def _selector_columns(
    select: Callable[[DesignSpace], DesignPoint], point: DesignPoint
) -> Dict[str, object]:
    """Objective-contributed sweep columns of a selected point."""
    columns = getattr(select, "columns", None)
    return dict(columns(point)) if callable(columns) else {}


def _selector_column_names(
    select: Callable[[DesignSpace], DesignPoint],
) -> Tuple[str, ...]:
    """Column keys a selector contributes (for infeasible placeholders)."""
    names = getattr(select, "column_names", None)
    return tuple(names()) if callable(names) else ()


def _run_one(
    spec: SoCSpec,
    library: NocLibrary,
    config: SynthesisConfig,
    knobs: Mapping[str, object],
    select: Callable[[DesignSpace], DesignPoint],
) -> SweepRecord:
    """One sweep task, serial or on a pool worker: synthesize, then select.

    The whole task runs under :func:`~repro.core.synthesis.gc_paused`,
    so reference counting frees the unselected points before the
    collector resumes, and the collector then walks only the returned
    record.  That rests on the premise ``synthesize`` states: synthesis
    and selection create no reference cycles.
    """
    t0 = time.perf_counter()
    design_points = 0
    with gc_paused(), span("explore.task", **dict(knobs)):
        try:
            space = synthesize(spec, library, config)
            design_points = len(space)
            point = select(space)
            del space  # free the unselected points while the collector is off
            return SweepRecord(
                knobs=dict(knobs),
                point=point,
                design_points=design_points,
                elapsed_s=time.perf_counter() - t0,
                extras=_selector_columns(select, point),
            )
        except InfeasibleError as exc:
            # Either the sweep found no routable candidate, or the
            # objective rejected every one (QoS): both are infeasible rows.
            return SweepRecord(
                knobs=dict(knobs),
                point=None,
                design_points=design_points,
                elapsed_s=time.perf_counter() - t0,
                failure=str(exc),
                extras={k: INFEASIBLE for k in _selector_column_names(select)},
            )


def _execute_task(task: SweepTask) -> SweepRecord:
    """Module-level task runner (picklable for the process pool)."""
    return _run_one(task.spec, task.library, task.config, task.knobs, task.select)


# ----------------------------------------------------------------------
# Persistent worker pool plumbing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TaskDescriptor:
    """Slim wire format of one pool task.

    The sweep-invariant context (specs, base library/config, selector)
    lives in the worker already (see :func:`_pool_init`); a descriptor
    carries only what differs for this task: the spec's index into the
    shared spec table, the knob labels, and either a field diff against
    the base config/library (reconstructed with ``dataclasses.replace``)
    or — when a diff cannot represent the change — the full object.
    At most one of ``config_diff`` / ``config_full`` is set; both
    ``None`` means "use the base" (same for the library and selector).
    """

    spec_index: int
    knobs: Mapping[str, object]
    config_diff: Optional[Mapping[str, object]] = None
    config_full: Optional[SynthesisConfig] = None
    library_diff: Optional[Mapping[str, object]] = None
    library_full: Optional[NocLibrary] = None
    select: Optional[Callable[[DesignSpace], DesignPoint]] = None
    #: When set, the worker records the task under a fresh recorder and
    #: ships its snapshot home alongside the record — the parent merges
    #: it so parallel sweeps lose no observability.
    collect_obs: bool = False


#: Per-worker sweep context installed by :func:`_pool_init`:
#: ``(specs, base_library, base_config, base_select)``.
_WORKER_CONTEXT: Optional[tuple] = None


def _pool_init(
    specs: Sequence[SoCSpec],
    library: NocLibrary,
    config: SynthesisConfig,
    select: Callable[[DesignSpace], DesignPoint],
    cache_store=None,
) -> None:
    """Worker initializer: install the shared read-only sweep context.

    Runs once per worker process at pool start-up; under the ``fork``
    start method the argument pickle is the only per-worker cost and the
    large objects behind it stay copy-on-write shared with the parent.

    ``cache_store`` carries the parent's active
    :class:`~repro.cache.store.CacheStore` into the worker.  Under
    ``fork`` the worker inherits the parent's store module-global —
    including its warm in-memory tier, copy-on-write shared — so the
    shipped store only installs itself where nothing is active yet
    (spawn platforms, whose pickled copy drops memory-tier contents
    and re-reads from disk).
    """
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (list(specs), library, config, select)
    if cache_store is not None:
        from ..cache.context import active_store, set_store

        if active_store() is None:
            set_store(cache_store)


def _execute_descriptor(desc: _TaskDescriptor):
    """Rehydrate a descriptor against the worker context and run it.

    Returns ``(record, payload)``: the payload is ``None`` unless the
    descriptor asked for observability capture or a cache store is
    active.  It carries the task recorder's snapshot (``obs``) and the
    cache hit/miss counter delta this task produced (``cache``), for
    the parent to merge.
    """
    assert _WORKER_CONTEXT is not None, "worker pool not initialized"
    specs, base_library, base_config, base_select = _WORKER_CONTEXT
    spec = specs[desc.spec_index]
    config = base_config
    if desc.config_full is not None:
        config = desc.config_full
    elif desc.config_diff:
        config = dataclasses.replace(base_config, **dict(desc.config_diff))
    library = base_library
    if desc.library_full is not None:
        library = desc.library_full
    elif desc.library_diff:
        library = dataclasses.replace(base_library, **dict(desc.library_diff))
    select = desc.select if desc.select is not None else base_select
    from ..cache.context import active_store

    store = active_store()
    stats_before = store.stats.snapshot() if store is not None else None
    payload: Dict[str, object] = {}
    if not desc.collect_obs:
        record = _run_one(spec, library, config, desc.knobs, select)
    else:
        with worker_recording(payload) as rec:
            rec.emit(
                "heartbeat",
                "task",
                attrs={"phase": "start", "knobs": dict(desc.knobs)},
            )
            record = _run_one(spec, library, config, desc.knobs, select)
            rec.emit(
                "heartbeat",
                "task",
                attrs={"phase": "end", "feasible": record.feasible},
            )
    if store is not None:
        payload["cache"] = store.stats.diff(stats_before)
    return record, payload or None


def _dataclass_diff(base: object, value: object):
    """``(diff, full)`` decomposition of ``value`` against ``base``.

    Returns a field-name -> value dict of the init fields that differ
    (possibly empty, meaning ``value`` equals ``base``) and ``None``,
    or ``(None, value)`` when no faithful diff exists (different types,
    a differing non-init field, or a comparison that refuses) and the
    full object must ship instead.
    """
    if value is base:
        return {}, None
    if type(value) is not type(base) or not dataclasses.is_dataclass(base):
        return None, value
    diff: Dict[str, object] = {}
    for f in dataclasses.fields(base):  # type: ignore[arg-type]
        a = getattr(base, f.name)
        b = getattr(value, f.name)
        if a is b:
            continue
        try:
            if bool(a == b):
                continue
        except Exception:
            return None, value
        if not f.init:
            return None, value
        diff[f.name] = b
    return diff, None


def pareto_merge(records: Sequence[SweepRecord]) -> List[SweepRecord]:
    """Non-dominated feasible records in the (power, latency) plane.

    The cross-sweep analogue of :meth:`DesignSpace.pareto_front`: each
    record contributes its chosen point, and a record survives unless
    another feasible record is no worse in both objectives and strictly
    better in one.  Output order is (power, latency) ascending with the
    original sweep position as the deterministic tiebreak.
    """
    feasible = [(i, r) for i, r in enumerate(records) if r.point is not None]
    front: List[Tuple[int, SweepRecord]] = []
    for i, r in feasible:
        p = r.point
        dominated = False
        for _, q in feasible:
            if q is r:
                continue
            qp = q.point
            if (
                qp.power_mw <= p.power_mw + 1e-12
                and qp.avg_latency_cycles <= p.avg_latency_cycles + 1e-12
                and (
                    qp.power_mw < p.power_mw - 1e-12
                    or qp.avg_latency_cycles < p.avg_latency_cycles - 1e-12
                )
            ):
                dominated = True
                break
        if not dominated:
            front.append((i, r))
    front.sort(key=lambda ir: (ir[1].point.power_mw, ir[1].point.avg_latency_cycles, ir[0]))
    return [r for _, r in front]


class ExplorationEngine:
    """Executes sweep tasks serially or across a persistent worker pool.

    ``workers=1`` (the default) runs every task inline — no pool, no
    pickling requirements, identical to the historical serial loops.
    ``workers>1`` fans tasks out to a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor`: the pool is
    created lazily on the first parallel :meth:`run`, seeds every
    worker with the sweep-invariant context (the distinct specs, base
    library/config, selector) via its initializer, and is then reused
    by subsequent runs over the same context — repeated sweeps pay the
    worker start-up cost once, and each task crosses the process
    boundary as a :class:`_TaskDescriptor` of a few small fields.
    Results are collected in submission order so the returned records
    match the serial run element for element.  With a pool, task fields
    — including a custom ``select`` — must be picklable (module-level
    functions; lambdas only work serially).

    The engine owns the pool: call :meth:`close` (or use the engine as
    a context manager) to release the worker processes; a dropped
    engine cleans up on garbage collection as a fallback.

    The engine carries the sweep-invariant context (library, base
    config, selector) so call sites only name the knob values.
    """

    def __init__(
        self,
        workers: int = 1,
        library: NocLibrary = DEFAULT_LIBRARY,
        config: Optional[SynthesisConfig] = None,
        select: Callable[[DesignSpace], DesignPoint] = DesignSpace.best_by_power,
        objective: Optional[Objective] = None,
    ) -> None:
        if workers < 1:
            raise SpecError("workers must be >= 1, got %r" % workers)
        self.workers = workers
        self.library = library
        self.config = config or SynthesisConfig(max_intermediate=1)
        if objective is not None:
            if select is not DesignSpace.best_by_power:
                raise SpecError(
                    "pass either select= or objective=, not both "
                    "(a custom selector would be silently ignored)"
                )
            select = ObjectiveSelector(objective)
        self.select = select
        self.objective = objective
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Context the live pool was initialized with — identity key
        #: plus strong references that keep the ``id()`` values stable.
        self._pool_key: Optional[tuple] = None
        self._pool_refs: tuple = ()
        #: In-flight futures of the current parallel :meth:`run`, with
        #: their deterministic ``task<i>`` labels and a merged flag —
        #: :meth:`close` flushes the payloads of completed tasks the
        #: result loop never reached (mid-sweep teardown) into the
        #: ``(recorder, store)`` of :attr:`_merge_into`.
        self._inflight: List[Dict[str, object]] = []
        self._merge_into: Optional[tuple] = None

    # -- pool lifecycle ------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent; serial engines no-op).

        Tasks still queued are cancelled, running ones are allowed to
        finish, and the payloads (recorder snapshot, cache delta) of any
        *completed but unmerged* tasks are flushed into the recorder and
        store that were active when the sweep started — a pool torn
        down mid-sweep loses no observability.
        """
        pool, self._pool = self._pool, None
        self._pool_key = None
        self._pool_refs = ()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        self._flush_inflight()

    def _flush_inflight(self) -> int:
        """Merge payloads of completed-but-unmerged tasks; count them."""
        inflight, self._inflight = self._inflight, []
        targets, self._merge_into = self._merge_into, None
        if not inflight or targets is None:
            return 0
        flushed = 0
        for entry in inflight:
            if entry["merged"]:
                continue
            future = entry["future"]
            if (
                not future.done()  # type: ignore[attr-defined]
                or future.cancelled()  # type: ignore[attr-defined]
                or future.exception() is not None  # type: ignore[attr-defined]
            ):
                continue
            _, payload = future.result()  # type: ignore[attr-defined]
            self._merge_payload(str(entry["label"]), payload, *targets)
            flushed += 1
        return flushed

    @staticmethod
    def _merge_payload(label: str, payload, rec, store) -> None:
        """Fold one worker payload into the parent's recorder and store."""
        if payload is None:
            return
        if rec is not None and "obs" in payload:
            rec.merge(payload["obs"], process=label)
        if store is not None and "cache" in payload:
            # Worker hit/miss deltas fold into the parent store's
            # stats, so sweep-level cache accounting covers the
            # whole pool, not just the parent process.
            store.stats.merge(payload["cache"])

    def __enter__(self) -> "ExplorationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def _ensure_pool(self, specs: Sequence[SoCSpec]) -> ProcessPoolExecutor:
        """The persistent pool, (re)created when the context changes.

        The context key is identity-based (the spec objects and the
        engine's library/config/selector); the engine holds strong
        references to the keyed objects so the ids cannot be recycled
        while the pool lives.  Re-running the same sweep — the common
        case for benchmarks and iterative exploration — reuses the
        warm pool and ships only descriptors.
        """
        from ..cache.context import active_store

        store = active_store()
        key = (
            self.workers,
            id(self.library),
            id(self.config),
            id(self.select),
            id(store),
            tuple(id(s) for s in specs),
        )
        if self._pool is not None and self._pool_key == key:
            return self._pool
        self.close()
        self._pool_refs = (self.library, self.config, self.select, tuple(specs), store)
        self._pool_key = key
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_pool_init,
            initargs=(tuple(specs), self.library, self.config, self.select, store),
        )
        return self._pool

    # -- execution -----------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> List[SweepRecord]:
        """Execute tasks, preserving input order in the output.

        When the caller has an active :func:`~repro.perf.active_recorder`,
        parallel runs ask each worker to record its task under a fresh
        recorder and merge the snapshot back here — serial and parallel
        sweeps then observe the same counters, spans and events.  Merged
        worker streams are relabelled ``task<i>`` by submission index, so
        the combined trace stays deterministic even though worker pids
        and scheduling are not.  A recorder with sinks also gets a
        ``progress`` feed: ``sweep.start``, one ``sweep.task`` per
        point and ``sweep.done``.
        """
        tasks = list(tasks)
        rec = active_recorder()
        parallel = self.workers > 1 and len(tasks) > 1
        if not parallel and (rec is None or not rec.sinks):
            return [_execute_task(t) for t in tasks]
        from ..cache.context import active_store

        store = active_store()
        if rec is not None:
            # The same progress feed serially and on the pool, so live
            # observers need not care about ``workers``.
            rec.emit(
                "progress",
                "sweep.start",
                attrs={
                    "tasks": len(tasks),
                    "workers": self.workers if parallel else 1,
                },
            )
        if parallel:
            records = self._run_pool(tasks, rec, store)
        else:
            records = []
            for i, t in enumerate(tasks):
                before = store.stats.snapshot() if store is not None else None
                records.append(_execute_task(t))
                self._emit_task_progress(
                    rec,
                    i,
                    len(tasks),
                    records[-1],
                    cache=store.stats.diff(before) if store is not None else None,
                )
        if rec is not None:
            rec.emit(
                "progress",
                "sweep.done",
                attrs={
                    "tasks": len(tasks),
                    "feasible": sum(1 for r in records if r.feasible),
                },
            )
        return records

    def _run_pool(self, tasks: List[SweepTask], rec, store) -> List[SweepRecord]:
        """The pool half of :meth:`run`: submit descriptors, merge results."""
        specs: List[SoCSpec] = []
        spec_index: Dict[int, int] = {}
        descriptors: List[_TaskDescriptor] = []
        for t in tasks:
            i = spec_index.get(id(t.spec))
            if i is None:
                i = len(specs)
                spec_index[id(t.spec)] = i
                specs.append(t.spec)
            cfg_diff, cfg_full = _dataclass_diff(self.config, t.config)
            lib_diff, lib_full = _dataclass_diff(self.library, t.library)
            descriptors.append(
                _TaskDescriptor(
                    spec_index=i,
                    knobs=dict(t.knobs),
                    config_diff=cfg_diff or None,
                    config_full=cfg_full,
                    library_diff=lib_diff or None,
                    library_full=lib_full,
                    select=None if t.select is self.select else t.select,
                    collect_obs=rec is not None,
                )
            )
        pool = self._ensure_pool(specs)
        futures = [pool.submit(_execute_descriptor, d) for d in descriptors]
        self._inflight = [
            {"future": f, "label": "task%d" % i, "merged": False}
            for i, f in enumerate(futures)
        ]
        self._merge_into = (rec, store)
        records: List[SweepRecord] = []
        try:
            # Results are consumed in submission order: the merge (and
            # every progress event the parent emits) happens at a
            # deterministic point in the feed even though worker
            # scheduling is not.
            for i, future in enumerate(futures):
                record, payload = future.result()
                self._inflight[i]["merged"] = True
                self._merge_payload("task%d" % i, payload, rec, store)
                records.append(record)
                if rec is not None:
                    self._emit_task_progress(
                        rec,
                        i,
                        len(tasks),
                        record,
                        cache=payload.get("cache") if payload else None,
                    )
        except Exception:
            # A broken pool (worker crash, unpicklable payload) stays
            # broken; drop it so the next run starts clean.  close()
            # flushes the payloads of tasks that did complete.
            self.close()
            raise
        self._inflight = []
        self._merge_into = None
        return records

    @staticmethod
    def _emit_task_progress(
        rec: Recorder,
        index: int,
        total: int,
        record: SweepRecord,
        cache: Optional[Mapping[str, int]] = None,
    ) -> None:
        """One ``progress`` event per finished sweep point.

        Wall-clock (the point's ``elapsed_s``) rides in ``timing`` so
        the feed stays byte-deterministic under ``timing=False``;
        ``cache`` is the task's hit/miss counter delta (live view of
        the store's effectiveness per point).
        """
        attrs: Dict[str, object] = {
            "index": index,
            "total": total,
            "knobs": dict(record.knobs),
            "feasible": record.feasible,
            "design_points": record.design_points,
        }
        if cache is not None:
            attrs["cache_hits"] = sum(
                v for k, v in cache.items() if k.startswith("hits.")
            )
            attrs["cache_misses"] = sum(
                v for k, v in cache.items() if k.startswith("misses.")
            )
        rec.emit(
            "progress",
            "sweep.task",
            attrs=attrs,
            timing={"elapsed_s": record.elapsed_s},
        )

    def task(
        self,
        spec: SoCSpec,
        knobs: Mapping[str, object],
        library: Optional[NocLibrary] = None,
        config: Optional[SynthesisConfig] = None,
    ) -> SweepTask:
        """One sweep task carrying the engine's context (public: call
        sites with pre-partitioned specs build task lists directly)."""
        return SweepTask(
            spec=spec,
            library=library if library is not None else self.library,
            config=config if config is not None else self.config,
            knobs=dict(knobs),
            select=self.select,
        )

    # Historical private name, used by older call sites.
    _task = task

    # -- single-axis sweeps --------------------------------------------

    def island_count_tasks(
        self,
        spec: SoCSpec,
        counts: Sequence[int],
        strategies: Sequence[str] = ("logical", "communication"),
    ) -> List[SweepTask]:
        """Tasks of the Figures 2/3 sweep: island count x strategy."""
        tasks = []
        for strategy in strategies:
            partition = _strategy_fn(strategy)
            for n in counts:
                tasks.append(
                    self._task(
                        partition(spec, n), {"islands": n, "strategy": strategy}
                    )
                )
        return tasks

    def island_count_exploration(
        self,
        spec: SoCSpec,
        counts: Sequence[int],
        strategies: Sequence[str] = ("logical", "communication"),
    ) -> List[SweepRecord]:
        return self.run(self.island_count_tasks(spec, counts, strategies))

    def alpha_exploration(
        self, spec: SoCSpec, alphas: Sequence[float]
    ) -> List[SweepRecord]:
        """Sweep the Definition-1 weight between bandwidth and latency."""
        return self.run(
            [
                self._task(
                    spec,
                    {"alpha": alpha},
                    config=dataclasses.replace(self.config, alpha=alpha),
                )
                for alpha in alphas
            ]
        )

    def data_width_exploration(
        self, spec: SoCSpec, widths: Sequence[int]
    ) -> List[SweepRecord]:
        """Sweep the NoC link data width ("could be varied in a range")."""
        tasks = []
        for width in widths:
            if width <= 0:
                raise SpecError("link width must be positive, got %r" % width)
            tasks.append(
                self._task(
                    spec,
                    {"width_bits": width},
                    library=dataclasses.replace(self.library, data_width_bits=width),
                )
            )
        return self.run(tasks)

    # -- runtime-energy objective --------------------------------------

    def runtime_exploration(
        self,
        spec: SoCSpec,
        counts: Sequence[int],
        trace: UseCaseTrace,
        strategies: Sequence[str] = ("logical",),
        policy: str = "break_even",
        model: Optional[GatingModel] = None,
    ) -> List[SweepRecord]:
        """Island-count sweep selecting by *trace energy*, not mW snapshot.

        Each sweep point synthesizes as usual but the chosen design
        point is the one with the lowest simulated energy over
        ``trace`` under ``policy`` (:class:`RuntimeEnergySelector`) —
        the dynamic analogue of ``best_by_power``.  The trace's use
        cases must validate against every partitioned spec, so traces
        built from curated scenario sets require partitionings that
        keep the benchmark name (see ``cli._partitioned``).
        """
        select = RuntimeEnergySelector(trace=trace, policy=policy, model=model)
        tasks = [
            dataclasses.replace(t, select=select)
            for t in self.island_count_tasks(spec, counts, strategies)
        ]
        return self.run(tasks)

    # -- cross-product sweep -------------------------------------------

    def grid_exploration(
        self,
        spec: SoCSpec,
        islands: Optional[Sequence[int]] = None,
        strategies: Sequence[str] = ("logical",),
        alphas: Optional[Sequence[float]] = None,
        widths: Optional[Sequence[int]] = None,
    ) -> "GridResult":
        """Sweep the cross-product of every provided knob axis.

        Axes left as ``None`` are pinned at the engine config's value
        and omitted from the knob labels.  ``islands=None`` uses the
        spec's existing island assignment (then ``strategies`` is
        ignored).  Returns every record plus the Pareto-merged subset
        (:func:`pareto_merge`) over the whole grid.
        """
        isl_axis: Sequence[Tuple[Optional[str], Optional[int]]]
        if islands is None:
            isl_axis = [(None, None)]
        else:
            isl_axis = [(s, n) for s in strategies for n in islands]
            for s in strategies:
                _strategy_fn(s)  # validate up front, before any synthesis
        alpha_axis: Sequence[Optional[float]] = (
            [None] if alphas is None else list(alphas)
        )
        width_axis: Sequence[Optional[int]] = [None] if widths is None else list(widths)
        for width in width_axis:
            if width is not None and width <= 0:
                raise SpecError("link width must be positive, got %r" % width)

        tasks = []
        partitioned: Dict[Tuple[str, int], SoCSpec] = {}
        for (strategy, n), alpha, width in itertools.product(
            isl_axis, alpha_axis, width_axis
        ):
            knobs: Dict[str, object] = {}
            task_spec = spec
            if strategy is not None:
                key = (strategy, n)
                if key not in partitioned:
                    partitioned[key] = _strategy_fn(strategy)(spec, n)
                task_spec = partitioned[key]
                knobs["islands"] = n
                knobs["strategy"] = strategy
            config = self.config
            if alpha is not None:
                knobs["alpha"] = alpha
                config = dataclasses.replace(config, alpha=alpha)
            library = self.library
            if width is not None:
                knobs["width_bits"] = width
                library = dataclasses.replace(library, data_width_bits=width)
            tasks.append(self._task(task_spec, knobs, library=library, config=config))
        records = self.run(tasks)
        return GridResult(records=records, pareto=pareto_merge(records))


@dataclass(frozen=True)
class GridResult:
    """Outcome of :meth:`ExplorationEngine.grid_exploration`."""

    #: Every sweep point, in deterministic grid order.
    records: List[SweepRecord]
    #: Non-dominated feasible records over the whole grid.
    pareto: List[SweepRecord]

    def rows(self) -> List[Dict[str, object]]:
        """All records as table rows (aligned keys, see ``row``)."""
        return [r.row() for r in self.records]

    def pareto_rows(self) -> List[Dict[str, object]]:
        """The Pareto-merged records as table rows."""
        return [r.row() for r in self.pareto]


@dataclass(frozen=True)
class ObjectiveSelector:
    """Adapt any :class:`~repro.core.objective.Objective` to a selector.

    The pickling-friendly bridge between the objective layer and
    :class:`SweepTask`: selection delegates to
    :meth:`Objective.select` (deterministic cost-then-index
    tie-breaking), and the objective's sweep columns flow into
    :attr:`SweepRecord.extras`.
    """

    objective: Objective

    def __call__(self, space: DesignSpace) -> DesignPoint:
        return self.objective.select(space)

    def columns(self, point: DesignPoint) -> Dict[str, object]:
        return self.objective.columns(point)

    def column_names(self) -> Tuple[str, ...]:
        return self.objective.column_names()


@dataclass(frozen=True)
class RuntimeEnergySelector:
    """Pick the design point with the lowest trace energy.

    Historical name for the trace-energy sweep objective, kept as a
    thin shim over
    :class:`~repro.core.objective.TraceEnergyObjective` (identical
    selection, including the static-power-then-index tie-break); new
    code should pass ``objective=TraceEnergyObjective(...)`` to the
    engine instead (see ``docs/objectives.md``).
    """

    trace: UseCaseTrace
    policy: str = "break_even"
    model: Optional[GatingModel] = None

    def _objective(self) -> TraceEnergyObjective:
        return TraceEnergyObjective(
            trace=self.trace, policy=self.policy, model=self.model
        )

    def __call__(self, space: DesignSpace) -> DesignPoint:
        return self._objective().select(space)

    def columns(self, point: DesignPoint) -> Dict[str, object]:
        return self._objective().columns(point)

    def column_names(self) -> Tuple[str, ...]:
        return self._objective().column_names()


def runtime_exploration(
    spec: SoCSpec,
    counts: Sequence[int],
    trace: UseCaseTrace,
    strategies: Sequence[str] = ("logical",),
    policy: str = "break_even",
    model: Optional[GatingModel] = None,
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
    workers: int = 1,
) -> List[SweepRecord]:
    """Module-level wrapper over :meth:`ExplorationEngine.runtime_exploration`."""
    with ExplorationEngine(workers, library, config) as engine:
        return engine.runtime_exploration(spec, counts, trace, strategies, policy, model)


def _strategy_fn(strategy: str) -> Callable[[SoCSpec, int], SoCSpec]:
    if strategy == "logical":
        return logical_partitioning
    if strategy == "communication":
        return communication_partitioning
    raise SpecError("unknown strategy %r" % strategy)


# ----------------------------------------------------------------------
# Module-level wrappers (historical API, plus the ``workers`` knob)
# ----------------------------------------------------------------------


def island_count_exploration(
    spec: SoCSpec,
    counts: Sequence[int],
    strategies: Sequence[str] = ("logical", "communication"),
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
    select: Callable[[DesignSpace], DesignPoint] = DesignSpace.best_by_power,
    workers: int = 1,
    objective: Optional[Objective] = None,
) -> List[SweepRecord]:
    """The Figures 2/3 sweep: island count x assignment strategy."""
    with ExplorationEngine(workers, library, config, select, objective) as engine:
        return engine.island_count_exploration(spec, counts, strategies)


def alpha_exploration(
    spec: SoCSpec,
    alphas: Sequence[float],
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
    select: Callable[[DesignSpace], DesignPoint] = DesignSpace.best_by_power,
    workers: int = 1,
    objective: Optional[Objective] = None,
) -> List[SweepRecord]:
    """Sweep the Definition-1 weight between bandwidth and latency."""
    with ExplorationEngine(workers, library, config, select, objective) as engine:
        return engine.alpha_exploration(spec, alphas)


def data_width_exploration(
    spec: SoCSpec,
    widths: Sequence[int],
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
    select: Callable[[DesignSpace], DesignPoint] = DesignSpace.best_by_power,
    workers: int = 1,
    objective: Optional[Objective] = None,
) -> List[SweepRecord]:
    """Sweep the NoC link data width ("could be varied in a range")."""
    with ExplorationEngine(workers, library, config, select, objective) as engine:
        return engine.data_width_exploration(spec, widths)


def grid_exploration(
    spec: SoCSpec,
    islands: Optional[Sequence[int]] = None,
    strategies: Sequence[str] = ("logical",),
    alphas: Optional[Sequence[float]] = None,
    widths: Optional[Sequence[int]] = None,
    library: NocLibrary = DEFAULT_LIBRARY,
    config: Optional[SynthesisConfig] = None,
    select: Callable[[DesignSpace], DesignPoint] = DesignSpace.best_by_power,
    workers: int = 1,
    objective: Optional[Objective] = None,
) -> GridResult:
    """Cross-product sweep over island/strategy/alpha/width knobs."""
    with ExplorationEngine(workers, library, config, select, objective) as engine:
        return engine.grid_exploration(spec, islands, strategies, alphas, widths)


def pareto_records(space: DesignSpace) -> List[Dict[str, object]]:
    """The (power, latency) Pareto front as table rows."""
    return [
        {
            "point": p.label(),
            "noc_power_mw": round(p.power_mw, 2),
            "avg_latency_cycles": round(p.avg_latency_cycles, 2),
            "switches": p.total_switches,
            "intermediate": p.num_intermediate_used,
        }
        for p in space.pareto_front()
    ]
