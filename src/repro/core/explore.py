"""Design-space exploration drivers.

One level above :func:`repro.core.synthesis.synthesize`: structured
sweeps over the knobs a system architect actually turns — island count
and assignment strategy (the paper's Figures 2/3 axis), the VCG weight
``alpha``, and the link data width.  One grid path
(:meth:`ExplorationEngine.grid_exploration`) crosses whichever of these
axes a caller names and returns plain records, so benches, examples
and notebooks share one implementation instead of re-rolling loops.

Sweep points are independent synthesis runs, so :class:`ExplorationEngine`
can deal them over forked workers (``workers > 1``,
:mod:`repro.core.forked`): each worker inherits the task list, runs
the tasks dealt to it and sends each record home as it finishes.  With
a cache store active, the caller serves the tasks whose records the
store holds, and only the others are dealt.  The caller takes the
records in submission order, so parallel and serial sweeps produce
identical record lists; ``workers=1`` never forks.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InfeasibleError, SpecError
from ..perf.instrument import Recorder, active_recorder, span, worker_recording
from ..power.library import DEFAULT_LIBRARY, NocLibrary
from ..soc.partitioning import island_count_sweep
from .design_point import DesignPoint, DesignSpace
from .forked import forked_workers, may_fork
from .objective import Objective
from .spec import SoCSpec
from .synthesis import SynthesisConfig, gc_paused, store_key, synthesize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.store import CacheStore

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
    """One synthesis run of a sweep: spec, library, config, knob labels
    and selector.  A forked worker inherits it, so nothing in it has to
    pickle; its record does."""

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


def _run_one(task: SweepTask) -> SweepRecord:
    """One sweep task, in the caller or on a worker: synthesize, then select.

    The whole task runs under :func:`~repro.core.synthesis.gc_paused`,
    so reference counting frees the unselected points before the
    collector resumes, and the collector then walks only the returned
    record.  That rests on the premise ``synthesize`` states: synthesis
    and selection create no reference cycles.
    """
    t0 = time.perf_counter()
    design_points = 0
    select = task.select
    with gc_paused(), span("explore.task", **dict(task.knobs)):
        try:
            space = synthesize(task.spec, task.library, task.config)
            design_points = len(space)
            point = select(space)
            del space  # free the unselected points while the collector is off
            return SweepRecord(
                knobs=dict(task.knobs),
                point=point,
                design_points=design_points,
                elapsed_s=time.perf_counter() - t0,
                extras=_selector_columns(select, point),
            )
        except InfeasibleError as exc:
            # Either the sweep found no routable candidate, or the
            # objective rejected every one (QoS): both are infeasible rows.
            return SweepRecord(
                knobs=dict(task.knobs),
                point=None,
                design_points=design_points,
                elapsed_s=time.perf_counter() - t0,
                failure=str(exc),
                extras={k: INFEASIBLE for k in _selector_column_names(select)},
            )


def _run_share(
    tasks: Sequence[SweepTask],
    owners: Sequence[Optional[int]],
    collect_obs: bool,
    worker: Optional[int],
    send: Callable[[object], None],
) -> None:
    """One share of a sweep: the tasks ``owners`` deals to ``worker``
    (``None``: the caller), in submission order.

    Forked workers and the caller run their tasks through it alike.
    Sends ``(record, payload)`` as each task finishes.  The payload
    holds the task's recorder snapshot (``obs``, with a start and an end
    heartbeat) when the caller records, and the task's cache hit/miss
    counter delta (``cache``) when a store is active.
    """
    from ..cache.context import active_store

    store = active_store()
    for task, owner in zip(tasks, owners):
        if owner != worker:
            continue
        payload: Dict[str, object] = {}
        before = store.stats.snapshot() if store is not None else None
        if collect_obs:
            with worker_recording(payload) as rec:
                rec.emit(
                    "heartbeat", "task", attrs={"phase": "start", "knobs": dict(task.knobs)}
                )
                record = _run_one(task)
                rec.emit(
                    "heartbeat", "task", attrs={"phase": "end", "feasible": record.feasible}
                )
        else:
            record = _run_one(task)
        if store is not None:
            payload["cache"] = store.stats.diff(before)
        send((record, payload))


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
    """Executes sweep tasks serially or over forked workers.

    ``workers=1`` (the default) runs every task inline, identical to the
    historical serial loops.  ``workers>1`` deals the tasks the active
    cache store cannot answer over forked workers (:meth:`run`), which
    inherit them: a custom ``select`` need not pickle (a lambda works),
    only the records do.
    Results are collected in submission order, so the returned records
    match the serial run element for element.  The engine holds no
    process between runs; it is still a context manager, for the call
    sites that use it as one.

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

    def __enter__(self) -> "ExplorationEngine":
        return self

    def __exit__(self, *exc) -> None:
        return None

    # -- execution -----------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> List[SweepRecord]:
        """Execute tasks, preserving input order in the output.

        A run may fork when ``workers > 1``, it has more than one task
        and the process may fork (:func:`~repro.core.forked.may_fork`);
        otherwise every task runs here, in order.  A run that may fork
        deals its tasks first (:meth:`_deal`): with a store active, the
        caller keeps each task whose candidate record the store holds,
        and only the others go to forked workers.  Workers and caller
        run their shares through :func:`_run_share`, the caller while
        the workers run.  The caller then takes the records in
        submission order, merging each task's recorder snapshot under
        ``task<i>`` (deterministic, though worker pids and scheduling
        are not) and a worker's cache-stats delta into the active store.
        Serial and forked sweeps then observe the same records,
        counters, spans and events.  A recorder with sinks also gets a
        ``progress`` feed: ``sweep.start`` (its ``workers`` is the
        number forked, 1 when none), one ``sweep.task`` per point and
        ``sweep.done``.
        """
        tasks = list(tasks)
        rec = active_recorder()
        may_deal = min(self.workers, len(tasks)) > 1 and may_fork()
        if not may_deal and (rec is None or not rec.sinks):
            return [_run_one(t) for t in tasks]
        from ..cache.context import active_store

        store = active_store()
        owners, width = self._deal(tasks, store) if may_deal else ([], 0)
        if rec is not None:
            # The same progress feed serially and forked, so live
            # observers need not care about ``workers``.
            rec.emit(
                "progress",
                "sweep.start",
                attrs={"tasks": len(tasks), "workers": max(width, 1)},
            )
        records: List[SweepRecord] = []
        if not may_deal:
            for i, t in enumerate(tasks):
                before = store.stats.snapshot() if store is not None else None
                records.append(_run_one(t))
                self._emit_task_progress(
                    rec,
                    i,
                    len(tasks),
                    records[-1],
                    cache=store.stats.diff(before) if store is not None else None,
                )
        else:
            work = partial(_run_share, tasks, owners, rec is not None)
            with forked_workers(work, range(width), "sweep worker") as receive:
                served: List[object] = []
                try:
                    work(None, served.append)
                except Exception as exc:  # raised when the merge reaches its task
                    served.append(exc)
                here = iter(served)
                for i, owner in enumerate(owners):
                    if owner is None:
                        message = next(here)
                        if isinstance(message, BaseException):
                            raise message
                        record, payload = message
                    else:
                        record, payload = receive(owner)
                        if store is not None:
                            # Cache accounting covers every worker's tasks.
                            store.stats.merge(payload["cache"])
                    records.append(record)
                    if rec is not None:
                        rec.merge(payload["obs"], process="task%d" % i)
                        self._emit_task_progress(
                            rec, i, len(tasks), record, cache=payload.get("cache")
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

    def _deal(
        self, tasks: Sequence[SweepTask], store: Optional[CacheStore]
    ) -> Tuple[List[Optional[int]], int]:
        """Who runs each task of a run that may fork: ``(owners, width)``.

        ``owners[i]`` is the worker of task ``i``, or ``None`` for the
        caller, and ``width`` is how many workers to fork.  With a store
        active, the caller keeps every task whose candidate record the
        store holds: one membership test on the task's
        :func:`~repro.core.synthesis.store_key`, the key its own lookup
        will use.  The other tasks, the misses, are dealt round-robin in
        submission order, except that a miss whose key an earlier miss
        has goes to that miss's worker, where it is a memory hit.  So
        ``width`` is min(``workers``, misses with distinct keys); below
        two it forks none, and the caller runs every task.  Without a
        store, every task is a miss with a key of its own.
        """
        groups: Dict[object, int] = {}
        dealt: List[Optional[int]] = []
        for i, task in enumerate(tasks):
            key = None if store is None else store_key(task.spec, task.library, task.config)
            if key is not None and key in store:
                dealt.append(None)
            else:
                dealt.append(groups.setdefault(i if key is None else key, len(groups)))
        width = min(self.workers, len(groups))
        if width < 2:
            return [None] * len(tasks), 0
        return [None if group is None else group % width for group in dealt], width

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

    # -- sweeps --------------------------------------------------------

    def alpha_exploration(
        self, spec: SoCSpec, alphas: Sequence[float]
    ) -> List[SweepRecord]:
        """Sweep the Definition-1 weight between bandwidth and latency:
        the records of :meth:`grid_exploration` along its ``alphas`` axis."""
        return self.grid_exploration(spec, alphas=alphas).records

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
        alpha_axis: Sequence[Optional[float]] = (
            [None] if alphas is None else list(alphas)
        )
        width_axis: Sequence[Optional[int]] = [None] if widths is None else list(widths)
        for width in width_axis:
            if width is not None and width <= 0:
                raise SpecError("link width must be positive, got %r" % width)
        isl_axis: Sequence[Tuple[Optional[str], Optional[int]]] = [(None, None)]
        # Every strategy's specs before any synthesis (a bad strategy or
        # count raises here), each strategy's from one partitioner.
        partitioned: Dict[Tuple[str, int], SoCSpec] = {}
        if islands is not None:
            isl_axis = [(s, n) for s in strategies for n in islands]
            for s in strategies:
                specs = island_count_sweep(spec, islands, s)
                partitioned.update(((s, n), p) for n, p in zip(islands, specs))

        # One config per alpha and one library per width, which every
        # task naming it shares, so each is keyed once.
        config_axis = [
            (alpha, self.config if alpha is None else dataclasses.replace(self.config, alpha=alpha))
            for alpha in alpha_axis
        ]
        library_axis = [
            (width, self.library if width is None
             else dataclasses.replace(self.library, data_width_bits=width))
            for width in width_axis
        ]
        tasks = []
        for (strategy, n), (alpha, config), (width, library) in itertools.product(
            isl_axis, config_axis, library_axis
        ):
            knobs: Dict[str, object] = {}
            task_spec = spec
            if strategy is not None:
                task_spec = partitioned[strategy, n]
                knobs["islands"] = n
                knobs["strategy"] = strategy
            if alpha is not None:
                knobs["alpha"] = alpha
            if width is not None:
                knobs["width_bits"] = width
            tasks.append(self.task(task_spec, knobs, library=library, config=config))
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

    The bridge between the objective layer and :class:`SweepTask`:
    selection delegates to :meth:`Objective.select` (deterministic
    cost-then-index tie-breaking), and the objective's sweep columns
    flow into :attr:`SweepRecord.extras`.
    """

    objective: Objective

    def __call__(self, space: DesignSpace) -> DesignPoint:
        return self.objective.select(space)

    def columns(self, point: DesignPoint) -> Dict[str, object]:
        return self.objective.columns(point)

    def column_names(self) -> Tuple[str, ...]:
        return self.objective.column_names()

