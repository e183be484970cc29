"""Unified objective layer: pluggable cost models for synthesis and DSE.

Every layer of the flow used to score design points its own way:
``DesignSpace.best_by_power`` hard-coded the Figure-2 power snapshot,
``RuntimeEnergySelector`` re-rolled a trace-energy key, and the runtime
policies compared island economics inline.  This module extracts the
one abstraction they all share — *given a design point, produce a
deterministic cost vector and a feasibility verdict* — so new objective
families (trace energy, wake-latency QoS, weighted composites) plug
into Algorithm 1, the sweep engine and the CLI without touching them.

Contract
--------

An :class:`Objective` maps a
:class:`~repro.core.design_point.DesignPoint` to an
:class:`ObjectiveResult`:

* ``cost`` — a tuple of floats compared lexicographically, lower is
  better.  Every built-in appends enough tie-break components that
  equal-cost points resolve deterministically; selection always appends
  the point index as the final tie-break.
* ``feasible`` — objectives may *reject* points outright (the QoS
  family does), not just rank them.  Rejected points never win
  selection, and under co-synthesis
  (``SynthesisConfig(objective=...)``) they are dropped from the design
  space mid-sweep, exactly like a routing failure.
* ``metrics`` — named numbers for reports (trace energy, worst stall).

Objectives must be deterministic and side-effect free (frozen
dataclasses).  Forked sweep workers inherit them, so they need not
pickle; the :class:`ObjectiveResult` a point carries does.

Built-ins
---------

:class:`StaticPowerObjective`
    The paper's Algorithm-1 objective: Figure-2 dynamic power, with
    average zero-load latency as tie-break.  The default everywhere —
    selection under it is byte-identical to the historical
    ``best_by_power`` path.
:class:`StaticLatencyObjective`
    The Figure-3 metric, with power as tie-break (``best_by_latency``).
:class:`StaticAreaObjective` / :class:`WireLengthObjective`
    Floorplan-quality objectives over ``soc_power.noc_area_mm2`` and
    ``wires.total_length_mm``; the resilience subsystem reuses their
    metrics to cost spare-path overhead.
:class:`TraceEnergyObjective`
    Replays a use-case trace through the runtime shutdown simulator
    (:func:`repro.runtime.simulate.simulate_trace`) and scores total
    trace energy.  Passing it to ``SynthesisConfig(objective=...)``
    makes Algorithm 1 spend its switch-count/partition choices on
    *gating opportunity* instead of the static snapshot — trace-driven
    co-synthesis, not post-selection.
:class:`WakeLatencyQoSObjective`
    A constraint wrapper: per-island wake stalls are propagated into
    per-flow wake-latency budgets, and any point (or gating policy)
    whose worst-case flow stall exceeds its budget is rejected as
    infeasible — energy alone never overrides a deadline.  Scoring of
    surviving points delegates to a base objective.
:class:`MultiTraceObjective`
    Worst-case (or mean) trace energy over a *set* of traces, so
    co-synthesis stops overfitting a single Markov walk.
:class:`CompositeObjective`
    Weighted sum over the primary cost components of several
    objectives; feasibility is the conjunction.

:class:`repro.resilience.coverage.ResilienceObjective` joins the
registry from the resilience package: it vetoes points whose
k-protected fault coverage misses a target and costs the spare-path
overhead lexicographically after a base objective (see
``docs/resilience.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InfeasibleError, SpecError
from ..names import DEFAULT_WAKE_BUDGET_MS, OBJECTIVE_NAMES

# Typing only: the runtime package loads when a trace objective first
# replays (the imports inside the replay methods), not with this module.
if TYPE_CHECKING:  # pragma: no cover
    from ..power.gating import GatingModel
    from ..runtime.trace import UseCaseTrace
    from .design_point import DesignPoint, DesignSpace


@dataclass(frozen=True)
class ObjectiveResult:
    """Outcome of evaluating one objective on one design point."""

    #: Lexicographic cost vector; lower is better.  Meaningless when
    #: ``feasible`` is False (by convention ``(inf,)``).
    cost: Tuple[float, ...]
    #: False when the objective *rejects* the point (constraint family).
    feasible: bool = True
    #: Human-readable rejection reason (None when feasible).
    reason: Optional[str] = None
    #: Named metrics for reports and sweep columns.
    metrics: Mapping[str, float] = field(default_factory=dict)


class Objective:
    """Base cost model: scores (and may reject) design points.

    Subclasses implement :meth:`evaluate`; everything else — selection,
    tie-breaking, sweep columns — is shared.  Subclasses should be
    frozen dataclasses.
    """

    #: Canonical objective name; subclasses override.
    name = "abstract"

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        """Score one design point.

        Must not mutate ``point`` or its topology, floorplan or wires:
        during synthesis they belong to the cached candidate record,
        which every objective is served from (work on
        ``topology.clone_scaffold()`` or another copy instead).
        """
        raise NotImplementedError

    def key(self, point: "DesignPoint") -> Tuple[float, ...]:
        """Deterministic comparison key: cost vector plus point index."""
        return self.evaluate(point).cost + (float(point.index),)

    def partial_cost(self, point: "DesignPoint") -> Optional[Tuple[float, ...]]:
        """A cheap *exact prefix* of :meth:`evaluate`'s cost vector.

        The objective-aware sweep pruning hook
        (``SynthesisConfig(prune_sweep=True)``): when the returned
        prefix already compares strictly greater than the incumbent's
        cost over its length, the candidate can never win selection
        and the expensive remainder of the evaluation (trace replay,
        spare-path protection) is skipped.  Contract: the returned
        tuple must equal ``evaluate(point).cost[:len(prefix)]`` for
        every feasible point — a *bound* is not enough, only an exact
        prefix preserves lexicographic comparability.  Return ``None``
        (the default) when no cheap prefix exists; such objectives are
        never pruned.
        """
        return None

    def select(self, space: "DesignSpace") -> "DesignPoint":
        """The best feasible point of a design space under this objective.

        Raises :class:`InfeasibleError` when the space is empty or the
        objective rejects every point.  Ties resolve by cost vector
        then point index, so selection is deterministic whatever order
        equal-cost points were synthesized in.
        """
        space.require_feasible()
        # Co-synthesis already scored every point under the space's
        # objective; reuse those results instead of re-evaluating
        # (for trace objectives that halves the simulation count).
        reuse = space.objective is self
        best: Optional["DesignPoint"] = None
        best_key: Optional[Tuple[float, ...]] = None
        reasons: List[str] = []
        for point in space.points:
            if reuse and point.objective_result is not None:
                result = point.objective_result
            else:
                result = self.evaluate(point)
            if not result.feasible:
                reasons.append(result.reason or "rejected")
                continue
            k = result.cost + (float(point.index),)
            if best_key is None or k < best_key:
                best, best_key = point, k
        if best is None:
            raise InfeasibleError(
                "objective %s rejected all %d design points of %s (%s)"
                % (
                    self.describe(),
                    len(space.points),
                    space.spec_name,
                    "; ".join(sorted(set(reasons))[:3]),
                )
            )
        return best

    def column_names(self) -> Tuple[str, ...]:
        """Names of the sweep columns this objective contributes."""
        return ()

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        """Sweep-row columns for a selected point (see ``column_names``)."""
        return {}

    def describe(self) -> str:
        """Human-readable one-liner for reports and error messages."""
        return self.name


@dataclass(frozen=True)
class StaticPowerObjective(Objective):
    """Figure-2 dynamic power, latency tie-break (the paper's default)."""

    name = "static_power"

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        return ObjectiveResult(cost=(point.power_mw, point.avg_latency_cycles))

    def partial_cost(self, point: "DesignPoint") -> Tuple[float, ...]:
        return (point.power_mw, point.avg_latency_cycles)


@dataclass(frozen=True)
class StaticLatencyObjective(Objective):
    """Figure-3 zero-load latency, power tie-break."""

    name = "static_latency"

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        return ObjectiveResult(cost=(point.avg_latency_cycles, point.power_mw))

    def partial_cost(self, point: "DesignPoint") -> Tuple[float, ...]:
        return (point.avg_latency_cycles, point.power_mw)


@dataclass(frozen=True)
class StaticAreaObjective(Objective):
    """NoC silicon area, power then latency tie-breaks.

    The floorplan-quality objective the ROADMAP asked for: selection
    minimizes ``soc_power.noc_area_mm2`` (crossbars, NIs, converters),
    so area-frugal topologies win even when a bigger crossbar would
    shave a few mW.  The resilience objective reuses the same metric to
    cost spare-port area overhead.
    """

    name = "static_area"

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        return ObjectiveResult(
            cost=(
                point.soc_power.noc_area_mm2,
                point.power_mw,
                point.avg_latency_cycles,
            ),
            metrics={"noc_area_mm2": point.soc_power.noc_area_mm2},
        )

    def partial_cost(self, point: "DesignPoint") -> Tuple[float, ...]:
        return (
            point.soc_power.noc_area_mm2,
            point.power_mw,
            point.avg_latency_cycles,
        )

    def column_names(self) -> Tuple[str, ...]:
        return ("noc_area_mm2",)

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        return {"noc_area_mm2": round(point.soc_power.noc_area_mm2, 4)}


@dataclass(frozen=True)
class WireLengthObjective(Objective):
    """Total placed wire length, power then latency tie-breaks.

    Minimizes ``wires.total_length_mm`` over the placed design — the
    routability/congestion proxy.  Like :class:`StaticAreaObjective`
    this is a pure selection objective (no veto) whose metric the
    spare-path overhead costing reuses.
    """

    name = "wire_length"

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        return ObjectiveResult(
            cost=(
                point.wires.total_length_mm,
                point.power_mw,
                point.avg_latency_cycles,
            ),
            metrics={"wire_mm": point.wires.total_length_mm},
        )

    def partial_cost(self, point: "DesignPoint") -> Tuple[float, ...]:
        return (
            point.wires.total_length_mm,
            point.power_mw,
            point.avg_latency_cycles,
        )

    def column_names(self) -> Tuple[str, ...]:
        return ("wire_mm",)

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        return {"wire_mm": round(point.wires.total_length_mm, 2)}


@dataclass(frozen=True)
class TraceEnergyObjective(Objective):
    """Total simulated energy over a use-case trace under a gating policy.

    The co-synthesis objective: static power only enters as tie-break,
    so a topology that looks worse in mW can win by letting more
    islands gate more often on the actual mode sequence.  Simulation
    runs without the routability audit by default (selection-speed
    parity with the historical ``RuntimeEnergySelector``); QoS-style
    rejection belongs to :class:`WakeLatencyQoSObjective`.
    """

    name = "trace_energy"

    trace: UseCaseTrace = None  # type: ignore[assignment]
    policy: str = "break_even"
    model: Optional[GatingModel] = None
    check_routability: bool = False

    def __post_init__(self) -> None:
        if self.trace is None:
            raise SpecError("trace_energy objective needs a trace")

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        from ..runtime.policies import make_policy
        from ..runtime.simulate import simulate_trace

        report = simulate_trace(
            point.topology,
            self.trace,
            make_policy(self.policy),
            model=self.model,
            check_routability=self.check_routability,
        )
        return ObjectiveResult(
            cost=(report.total_mj, point.power_mw),
            metrics={
                "trace_mj": report.total_mj,
                "trace_avg_mw": report.average_power_mw,
            },
        )

    def column_names(self) -> Tuple[str, ...]:
        return ("trace_mj",)

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        return {"trace_mj": round(self.evaluate(point).metrics["trace_mj"], 4)}

    def describe(self) -> str:
        return "%s(%s, %s)" % (self.name, self.trace.name, self.policy)


@dataclass(frozen=True)
class MultiTraceObjective(Objective):
    """Worst-case (or mean) trace energy over a *set* of traces.

    Co-synthesis against a single Markov walk can overfit its
    particular mode sequence; scoring each point over several seeded
    traces and ranking by the worst (default) or mean energy keeps the
    chosen topology robust to which walk the device actually takes.
    The cost vector carries both aggregates — worst first under
    ``aggregate="worst"``, mean first under ``"mean"`` — then static
    power, so equal-robustness points still resolve deterministically.
    """

    name = "multi_trace"

    traces: Tuple[UseCaseTrace, ...] = ()
    policy: str = "break_even"
    model: Optional[GatingModel] = None
    check_routability: bool = False
    #: "worst" ranks by max energy over the traces, "mean" by average.
    aggregate: str = "worst"

    def __post_init__(self) -> None:
        if not self.traces:
            raise SpecError("multi_trace objective needs at least one trace")
        if self.aggregate not in ("worst", "mean"):
            raise SpecError(
                "multi_trace aggregate must be 'worst' or 'mean', got %r"
                % self.aggregate
            )
        names = [t.name for t in self.traces]
        if len(set(names)) != len(names):
            raise SpecError("multi_trace objective: duplicate trace names")

    def energies(self, point: "DesignPoint") -> Dict[str, float]:
        """Per-trace simulated energy (mJ), keyed by trace name."""
        from ..runtime.policies import make_policy
        from ..runtime.simulate import simulate_trace

        policy = make_policy(self.policy)
        return {
            trace.name: simulate_trace(
                point.topology,
                trace,
                policy,
                model=self.model,
                check_routability=self.check_routability,
            ).total_mj
            for trace in self.traces
        }

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        energies = self.energies(point)
        worst = max(energies.values())
        mean = sum(energies.values()) / len(energies)
        if self.aggregate == "worst":
            cost = (worst, mean, point.power_mw)
        else:
            cost = (mean, worst, point.power_mw)
        metrics = {"trace_worst_mj": worst, "trace_mean_mj": mean}
        for name, mj in energies.items():
            metrics["trace_mj.%s" % name] = mj
        return ObjectiveResult(cost=cost, metrics=metrics)

    def column_names(self) -> Tuple[str, ...]:
        return ("trace_worst_mj", "trace_mean_mj")

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        metrics = self.evaluate(point).metrics
        return {
            "trace_worst_mj": round(metrics["trace_worst_mj"], 4),
            "trace_mean_mj": round(metrics["trace_mean_mj"], 4),
        }

    def describe(self) -> str:
        return "%s(%d traces, %s, %s)" % (
            self.name,
            len(self.traces),
            self.policy,
            self.aggregate,
        )


@dataclass(frozen=True)
class QoSViolation:
    """One flow whose worst-case wake stall exceeds its budget."""

    flow: Tuple[str, str]
    stall_ms: float
    budget_ms: float

    def describe(self) -> str:
        return "flow %s->%s stalled %.3f ms > budget %.3f ms" % (
            self.flow[0],
            self.flow[1],
            self.stall_ms,
            self.budget_ms,
        )


@dataclass(frozen=True)
class WakeLatencyQoSObjective(Objective):
    """Per-flow wake-latency deadlines as a hard synthesis constraint.

    Replays ``trace`` under ``policy`` with the routability audit on,
    reads the per-flow worst-case wake stall the simulator recorded
    (:attr:`repro.runtime.report.RuntimeReport.flow_stall_ms`), and
    rejects the point when any flow stalls longer than its budget — or
    when any routability violation occurs (a flow crossing a gated
    island has effectively unbounded latency).  Surviving points are
    scored by ``base`` (default: trace energy on the same trace and
    policy), so the objective *composes*: QoS constrains, the base
    ranks.

    Budgets are wake-latency budgets in milliseconds: ``budgets`` maps
    ``(src, dst)`` flow keys to per-flow deadlines, every other flow
    gets ``budget_ms``.
    """

    name = "wake_qos"

    trace: UseCaseTrace = None  # type: ignore[assignment]
    policy: str = "break_even"
    model: Optional[GatingModel] = None
    budget_ms: float = DEFAULT_WAKE_BUDGET_MS
    budgets: Optional[Mapping[Tuple[str, str], float]] = None
    base: Optional[Objective] = None

    def __post_init__(self) -> None:
        if self.trace is None:
            raise SpecError("wake_qos objective needs a trace")
        if not self.budget_ms >= 0:  # NaN fails too; inf is no budget
            raise SpecError(
                "wake budget must be >= 0 ms, got %r" % self.budget_ms
            )

    def _base(self) -> Objective:
        if self.base is not None:
            return self.base
        return TraceEnergyObjective(
            trace=self.trace, policy=self.policy, model=self.model
        )

    def flow_budget_ms(self, flow: Tuple[str, str]) -> float:
        """The wake-latency budget of one flow."""
        if self.budgets is not None and flow in self.budgets:
            return self.budgets[flow]
        return self.budget_ms

    def _simulate(self, topology):
        """One trace replay with the routability/stall audit on."""
        from ..runtime.policies import make_policy
        from ..runtime.simulate import simulate_trace

        return simulate_trace(
            topology,
            self.trace,
            make_policy(self.policy),
            model=self.model,
            check_routability=True,
        )

    def violations(self, topology) -> List[QoSViolation]:
        """Per-flow deadline violations of ``policy`` on one topology.

        The policy-admission check: a gating policy whose wake stalls
        break any flow's deadline is rejected here even when it wins on
        energy.  Routability violations are reported as zero-budget
        QoS violations with an infinite stall (no wake ever repairs a
        flow routed through a gated third-party island).
        """
        return self._violations_from(self._simulate(topology))

    def _violations_from(self, report) -> List[QoSViolation]:
        out: List[QoSViolation] = []
        seen = set()
        for v in report.violations:
            if v.flow in seen:
                continue
            seen.add(v.flow)
            out.append(
                QoSViolation(
                    flow=v.flow,
                    stall_ms=math.inf,
                    budget_ms=self.flow_budget_ms(v.flow),
                )
            )
        for flow in sorted(report.flow_stall_ms):
            stall = report.flow_stall_ms[flow]
            budget = self.flow_budget_ms(flow)
            if flow not in seen and stall > budget + 1e-12:
                out.append(
                    QoSViolation(flow=flow, stall_ms=stall, budget_ms=budget)
                )
        return out

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        report = self._simulate(point.topology)
        violations = self._violations_from(report)
        if violations:
            worst = max(violations, key=lambda v: v.stall_ms)
            return ObjectiveResult(
                cost=(math.inf,),
                feasible=False,
                reason="wake QoS: %s%s"
                % (
                    worst.describe(),
                    " (+%d more)" % (len(violations) - 1)
                    if len(violations) > 1
                    else "",
                ),
                metrics={"qos_violations": float(len(violations))},
            )
        if self.base is None:
            # Default base is trace energy on the same trace/policy —
            # the audit replay above already integrated it (the
            # routability check never changes the energy terms), so
            # skip the second simulation a separate base would run.
            base_result = ObjectiveResult(
                cost=(report.total_mj, point.power_mw),
                metrics={
                    "trace_mj": report.total_mj,
                    "trace_avg_mw": report.average_power_mw,
                },
            )
        else:
            base_result = self.base.evaluate(point)
        metrics = dict(base_result.metrics)
        metrics["qos_violations"] = 0.0
        return ObjectiveResult(
            cost=base_result.cost,
            feasible=base_result.feasible,
            reason=base_result.reason,
            metrics=metrics,
        )

    def column_names(self) -> Tuple[str, ...]:
        return self._base().column_names() + ("qos_violations",)

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        if self.base is None:
            # One audit replay yields both columns (see evaluate()).
            report = self._simulate(point.topology)
            return {
                "trace_mj": round(report.total_mj, 4),
                "qos_violations": len(self._violations_from(report)),
            }
        out = self.base.columns(point)
        out["qos_violations"] = len(self.violations(point.topology))
        return out

    def describe(self) -> str:
        return "%s(%s, %s, %.2fms, base=%s)" % (
            self.name,
            self.trace.name,
            self.policy,
            self.budget_ms,
            self._base().describe(),
        )


@dataclass(frozen=True)
class CompositeObjective(Objective):
    """Weighted sum over the primary cost components of several parts.

    ``cost[0]`` of each part is scaled by its weight and summed; the
    parts' own tie-break components are appended in order so equal
    sums still resolve deterministically.  A point is feasible only
    when *every* part accepts it — constraint objectives keep their
    veto inside a composite.
    """

    parts: Tuple[Objective, ...] = ()
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.parts:
            raise SpecError("composite objective needs at least one part")
        if self.weights is not None and len(self.weights) != len(self.parts):
            raise SpecError(
                "composite objective: %d weights for %d parts"
                % (len(self.weights), len(self.parts))
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return "+".join(p.name for p in self.parts)

    def _weights(self) -> Tuple[float, ...]:
        return self.weights if self.weights is not None else (1.0,) * len(self.parts)

    def evaluate(self, point: "DesignPoint") -> ObjectiveResult:
        total = 0.0
        tail: List[float] = []
        metrics: Dict[str, float] = {}
        for part, weight in zip(self.parts, self._weights()):
            result = part.evaluate(point)
            if not result.feasible:
                return ObjectiveResult(
                    cost=(math.inf,),
                    feasible=False,
                    reason="%s: %s" % (part.name, result.reason or "rejected"),
                    metrics=dict(result.metrics),
                )
            total += weight * result.cost[0]
            tail.extend(result.cost)
            for k, v in result.metrics.items():
                metrics["%s.%s" % (part.name, k)] = v
        return ObjectiveResult(cost=(total,) + tuple(tail), metrics=metrics)

    def column_names(self) -> Tuple[str, ...]:
        names: List[str] = []
        for part in self.parts:
            for col in part.column_names():
                if col not in names:
                    names.append(col)
        return tuple(names)

    def columns(self, point: "DesignPoint") -> Dict[str, object]:
        out: Dict[str, object] = {}
        for part in self.parts:
            for k, v in part.columns(point).items():
                out.setdefault(k, v)
        return out

    def describe(self) -> str:
        return "+".join(
            "%.3g*%s" % (w, p.describe())
            for p, w in zip(self.parts, self._weights())
        )


def make_objective(
    name: str,
    trace: Optional[UseCaseTrace] = None,
    policy: str = "break_even",
    model: Optional[GatingModel] = None,
    budget_ms: float = DEFAULT_WAKE_BUDGET_MS,
    budgets: Optional[Mapping[Tuple[str, str], float]] = None,
    traces: Optional[Sequence[UseCaseTrace]] = None,
    aggregate: str = "worst",
    fault_model: str = "single_link",
    spare_k: int = 1,
    min_coverage: float = 1.0,
    base: Optional[Objective] = None,
) -> Objective:
    """Instantiate an objective by canonical name (CLI plumbing).

    Hyphens are accepted as underscores; the trace-driven objectives
    (``trace_energy``, ``wake_qos``) require ``trace``, ``multi_trace``
    requires ``traces``, and ``resilience`` takes the fault-model knobs
    (``fault_model``, ``spare_k``, ``min_coverage``) plus an optional
    ``base`` objective to rank the surviving points.
    """
    key = name.strip().lower().replace("-", "_")
    if key == "static_power":
        return StaticPowerObjective()
    if key == "static_latency":
        return StaticLatencyObjective()
    if key == "static_area":
        return StaticAreaObjective()
    if key == "wire_length":
        return WireLengthObjective()
    if key == "multi_trace":
        if not traces:
            raise SpecError("objective %r needs a set of traces" % name)
        return MultiTraceObjective(
            traces=tuple(traces), policy=policy, model=model, aggregate=aggregate
        )
    if key == "resilience":
        # Deferred import: the resilience package sits above the core
        # objective layer (its coverage module imports this one).
        from ..resilience.coverage import ResilienceObjective

        return ResilienceObjective(
            fault_model=fault_model,
            k=spare_k,
            min_coverage=min_coverage,
            base=base,
        )
    if key == "recovery":
        # Deferred import: the control package sits above both the
        # resilience layer and this module.
        from ..control.objective import RecoveryObjective

        return RecoveryObjective(
            fault_model=fault_model,
            k=spare_k,
            min_coverage=min_coverage,
            base=base,
        )
    if key in ("trace_energy", "wake_qos"):
        if trace is None:
            raise SpecError("objective %r needs a use-case trace" % name)
        if key == "trace_energy":
            return TraceEnergyObjective(trace=trace, policy=policy, model=model)
        return WakeLatencyQoSObjective(
            trace=trace,
            policy=policy,
            model=model,
            budget_ms=budget_ms,
            budgets=budgets,
        )
    raise SpecError(
        "unknown objective %r (choose from %s)"
        % (name, ", ".join(OBJECTIVE_NAMES))
    )
