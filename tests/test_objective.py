"""Unified objective layer: cost models, composition, co-synthesis.

Covers the ISSUE-4 tentpole contracts:

* the default :class:`StaticPowerObjective` reproduces the historical
  ``best_by_power`` selection — and synthesis under it yields
  byte-identical design points to the objective-free path (the
  determinism acceptance criterion, pinned on tiny and d26; the d38
  variant lives with the slow benches);
* :class:`TraceEnergyObjective` matches the historical
  ``RuntimeEnergySelector``;
* :class:`WakeLatencyQoSObjective` rejects points and policies that
  violate per-flow wake-latency deadlines even when energy alone would
  accept them;
* composition: constraint objectives veto inside composites, weighted
  sums score deterministically.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import (
    CompositeObjective,
    InfeasibleError,
    OBJECTIVE_NAMES,
    ObjectiveResult,
    SpecError,
    StaticLatencyObjective,
    StaticPowerObjective,
    SynthesisConfig,
    TraceEnergyObjective,
    WakeLatencyQoSObjective,
    make_objective,
    make_use_case,
    synthesize,
)
from repro.runtime import make_policy, scripted_trace, simulate_trace


def point_signature(space):
    """Order-sensitive identity of every design point in a space."""
    return [
        (p.label(), p.power_mw, p.avg_latency_cycles, p.total_switches)
        for p in space.points
    ]


@pytest.fixture(scope="module")
def idle_trace(tiny_spec):
    """Trace that idles (and re-needs) the io island — wake stalls exist."""
    cases = [
        make_use_case("full", [c.name for c in tiny_spec.cores], 0.4),
        make_use_case("compute", ["cpu", "mem", "acc"], 0.6),
    ]
    return scripted_trace(
        cases,
        [("compute", 100.0), ("full", 50.0), ("compute", 100.0), ("full", 50.0)],
        name="idle_io",
    )


class TestStaticObjectives:
    def test_matches_best_by_power(self, tiny_space):
        chosen = StaticPowerObjective().select(tiny_space)
        legacy = min(
            tiny_space.points,
            key=lambda p: (p.power_mw, p.avg_latency_cycles, p.index),
        )
        assert chosen is legacy
        assert chosen is tiny_space.best_by_power()

    def test_matches_best_by_latency(self, tiny_space):
        chosen = StaticLatencyObjective().select(tiny_space)
        legacy = min(
            tiny_space.points,
            key=lambda p: (p.avg_latency_cycles, p.power_mw, p.index),
        )
        assert chosen is legacy
        assert chosen is tiny_space.best_by_latency()

    def test_key_appends_point_index(self, tiny_space):
        p = tiny_space.points[0]
        obj = StaticPowerObjective()
        assert obj.key(p) == (p.power_mw, p.avg_latency_cycles, float(p.index))

    def test_space_best_defaults_to_static_power(self, tiny_space):
        assert tiny_space.best() is tiny_space.best_by_power()
        assert tiny_space.best(StaticLatencyObjective()) is tiny_space.best_by_latency()


class TestRegistry:
    def test_static_names(self):
        assert isinstance(make_objective("static_power"), StaticPowerObjective)
        assert isinstance(make_objective("static-latency"), StaticLatencyObjective)

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecError):
            make_objective("vibes")

    def test_trace_objectives_require_trace(self):
        for name in ("trace_energy", "wake_qos"):
            assert name in OBJECTIVE_NAMES
            with pytest.raises(SpecError):
                make_objective(name)

    def test_trace_objective_construction(self, idle_trace):
        obj = make_objective("trace_energy", trace=idle_trace, policy="always_off")
        assert isinstance(obj, TraceEnergyObjective)
        assert obj.policy == "always_off"
        qos = make_objective("wake_qos", trace=idle_trace, budget_ms=1.0)
        assert isinstance(qos, WakeLatencyQoSObjective)
        assert qos.budget_ms == 1.0


@pytest.mark.runtime
class TestTraceEnergy:
    def test_needs_trace(self):
        with pytest.raises(SpecError):
            TraceEnergyObjective()

    def test_selects_lowest_trace_energy(self, tiny_space, idle_trace):
        obj = TraceEnergyObjective(trace=idle_trace)
        chosen = obj.select(tiny_space)
        policy = make_policy("break_even")
        energies = {
            p.index: simulate_trace(
                p.topology, idle_trace, policy, check_routability=False
            ).total_mj
            for p in tiny_space.points
        }
        assert energies[chosen.index] == pytest.approx(min(energies.values()))

    def test_matches_runtime_energy_selector(self, tiny_space, idle_trace):
        from repro.core.explore import RuntimeEnergySelector

        obj = TraceEnergyObjective(trace=idle_trace)
        selector = RuntimeEnergySelector(trace=idle_trace)
        assert obj.select(tiny_space) is selector(tiny_space)

    def test_columns(self, tiny_space, idle_trace):
        obj = TraceEnergyObjective(trace=idle_trace)
        assert obj.column_names() == ("trace_mj",)
        cols = obj.columns(tiny_space.points[0])
        assert cols["trace_mj"] > 0


@pytest.mark.runtime
class TestWakeLatencyQoS:
    def test_rejects_what_energy_accepts(self, tiny_space, idle_trace):
        """The acceptance criterion: energy alone accepts always_off
        gating here (it saves energy vs never), but the wake stalls it
        causes break a microsecond-scale flow deadline."""
        point = tiny_space.best_by_power()
        energy = TraceEnergyObjective(trace=idle_trace, policy="always_off")
        accepted = energy.evaluate(point)
        assert accepted.feasible
        never_mj = simulate_trace(
            point.topology, idle_trace, make_policy("never"), check_routability=False
        ).total_mj
        assert accepted.cost[0] < never_mj  # gating genuinely wins on energy

        qos = WakeLatencyQoSObjective(
            trace=idle_trace, policy="always_off", budget_ms=1e-6
        )
        rejected = qos.evaluate(point)
        assert not rejected.feasible
        assert rejected.cost == (math.inf,)
        assert "wake QoS" in rejected.reason and "budget" in rejected.reason

    def test_accepts_within_budget(self, tiny_space, idle_trace):
        point = tiny_space.best_by_power()
        qos = WakeLatencyQoSObjective(
            trace=idle_trace, policy="always_off", budget_ms=1.0
        )
        result = qos.evaluate(point)
        assert result.feasible
        base = TraceEnergyObjective(trace=idle_trace, policy="always_off")
        assert result.cost == base.evaluate(point).cost
        assert result.metrics["qos_violations"] == 0.0

    def test_violations_name_flows_and_stalls(self, tiny_space, idle_trace):
        point = tiny_space.best_by_power()
        qos = WakeLatencyQoSObjective(
            trace=idle_trace, policy="always_off", budget_ms=1e-6
        )
        violations = qos.violations(point.topology)
        assert violations
        for v in violations:
            assert v.stall_ms > v.budget_ms
            assert "->" in v.describe()

    def test_per_flow_budget_override(self, tiny_space, idle_trace):
        point = tiny_space.best_by_power()
        report = simulate_trace(
            point.topology,
            idle_trace,
            make_policy("always_off"),
            check_routability=True,
        )
        stalled = [f for f, s in report.flow_stall_ms.items() if s > 0]
        assert stalled
        target = sorted(stalled)[0]
        qos = WakeLatencyQoSObjective(
            trace=idle_trace,
            policy="always_off",
            budget_ms=1.0,
            budgets={target: 1e-6},
        )
        violations = qos.violations(point.topology)
        assert [v.flow for v in violations] == [target]

    def test_selection_falls_back_to_compliant_policy(self, tiny_space, idle_trace):
        """Same space, same trace: the QoS objective under `never`
        accepts what it rejects under always_off — deadline pressure
        picks the policy, not the energy ranking."""
        tight = 1e-6
        gated = WakeLatencyQoSObjective(
            trace=idle_trace, policy="always_off", budget_ms=tight
        )
        with pytest.raises(InfeasibleError):
            gated.select(tiny_space)
        safe = WakeLatencyQoSObjective(
            trace=idle_trace, policy="never", budget_ms=tight
        )
        assert safe.select(tiny_space) is not None

    def test_negative_budget_rejected(self, idle_trace):
        with pytest.raises(SpecError):
            WakeLatencyQoSObjective(trace=idle_trace, budget_ms=-1.0)

    def test_nan_budget_rejected(self, idle_trace):
        with pytest.raises(SpecError, match="wake budget"):
            WakeLatencyQoSObjective(trace=idle_trace, budget_ms=float("nan"))
        # An infinite budget stays legal: it never rejects a point.
        assert WakeLatencyQoSObjective(trace=idle_trace, budget_ms=float("inf"))


class TestComposite:
    def test_weighted_sum(self, tiny_space):
        p = tiny_space.points[0]
        composite = CompositeObjective(
            parts=(StaticPowerObjective(), StaticLatencyObjective()),
            weights=(2.0, 1.0),
        )
        result = composite.evaluate(p)
        assert result.cost[0] == pytest.approx(
            2.0 * p.power_mw + p.avg_latency_cycles
        )
        assert result.feasible

    def test_constraint_part_vetoes(self, tiny_space, idle_trace):
        p = tiny_space.best_by_power()
        composite = CompositeObjective(
            parts=(
                StaticPowerObjective(),
                WakeLatencyQoSObjective(
                    trace=idle_trace, policy="always_off", budget_ms=1e-6
                ),
            )
        )
        result = composite.evaluate(p)
        assert not result.feasible
        assert "wake_qos" in result.reason

    def test_bad_construction_rejected(self):
        with pytest.raises(SpecError):
            CompositeObjective(parts=())
        with pytest.raises(SpecError):
            CompositeObjective(
                parts=(StaticPowerObjective(),), weights=(1.0, 2.0)
            )

    def test_name_joins_parts(self):
        composite = CompositeObjective(
            parts=(StaticPowerObjective(), StaticLatencyObjective())
        )
        assert composite.name == "static_power+static_latency"


class TestCoSynthesis:
    """SynthesisConfig(objective=...): scoring inside Algorithm 1."""

    def test_default_objective_is_byte_identical_tiny(self, tiny_spec, tiny_space):
        scored = synthesize(
            tiny_spec, config=SynthesisConfig(objective=StaticPowerObjective())
        )
        assert point_signature(scored) == point_signature(tiny_space)
        assert scored.best().label() == tiny_space.best_by_power().label()

    def test_default_objective_is_byte_identical_d26(self, d26_log6, d26_space):
        """The determinism acceptance criterion on the d26 bench."""
        scored = synthesize(
            d26_log6,
            config=SynthesisConfig(
                max_intermediate=2, objective=StaticPowerObjective()
            ),
        )
        assert point_signature(scored) == point_signature(d26_space)
        assert scored.best().label() == d26_space.best_by_power().label()

    @pytest.mark.slow
    def test_default_objective_is_byte_identical_d38(self):
        """The d38 bench variant (slow: full synthesis, twice)."""
        from repro.soc.benchmarks import load_benchmark
        from repro.soc.partitioning import logical_partitioning

        spec = logical_partitioning(load_benchmark("d38_media"), 6)
        cfg = SynthesisConfig(max_intermediate=1)
        plain = synthesize(spec, config=cfg)
        scored = synthesize(
            spec,
            config=dataclasses.replace(cfg, objective=StaticPowerObjective()),
        )
        assert point_signature(scored) == point_signature(plain)

    def test_points_carry_objective_results(self, tiny_spec):
        space = synthesize(
            tiny_spec, config=SynthesisConfig(objective=StaticPowerObjective())
        )
        for p in space.points:
            assert p.objective_result is not None
            assert p.objective_cost == (p.power_mw, p.avg_latency_cycles)

    def test_no_objective_attaches_nothing(self, tiny_space):
        for p in tiny_space.points:
            assert p.objective_result is None
            assert p.objective_cost is None

    @pytest.mark.runtime
    def test_qos_rejection_during_synthesis(self, tiny_spec, idle_trace):
        """Co-synthesis veto: an impossible deadline empties the space,
        and the rejection reasons surface through the failure summary
        exactly like routing failures do."""
        cfg = SynthesisConfig(
            objective=WakeLatencyQoSObjective(
                trace=idle_trace, policy="always_off", budget_ms=1e-9
            )
        )
        with pytest.raises(InfeasibleError, match="objective: wake QoS"):
            synthesize(tiny_spec, config=cfg)

    @pytest.mark.runtime
    def test_trace_objective_steers_selection(self, tiny_spec, idle_trace):
        """best() on a co-synthesized space uses the synthesis objective."""
        obj = TraceEnergyObjective(trace=idle_trace)
        space = synthesize(tiny_spec, config=SynthesisConfig(objective=obj))
        assert space.objective is obj
        assert space.best() is obj.select(space)

    @pytest.mark.runtime
    def test_select_reuses_cosynthesis_scores(self, tiny_spec, idle_trace, monkeypatch):
        """Selection on a co-synthesized space must not re-simulate:
        the scores attached during synthesis are reused verbatim."""
        # The trace objectives look the simulator up at call time.
        from repro.runtime import simulate as simulate_mod

        obj = TraceEnergyObjective(trace=idle_trace)
        space = synthesize(tiny_spec, config=SynthesisConfig(objective=obj))

        def boom(*args, **kwargs):
            raise AssertionError("select() re-ran the trace simulator")

        monkeypatch.setattr(simulate_mod, "simulate_trace", boom)
        chosen = space.best()
        assert chosen.objective_result is not None


class TestObjectiveResult:
    def test_defaults(self):
        r = ObjectiveResult(cost=(1.0,))
        assert r.feasible and r.reason is None and r.metrics == {}


class TestAreaAndWireObjectives:
    """The ROADMAP floorplan-quality objectives (ISSUE-5 satellite)."""

    def test_registry_names(self):
        from repro import StaticAreaObjective, WireLengthObjective

        assert isinstance(make_objective("static_area"), StaticAreaObjective)
        assert isinstance(make_objective("wire-length"), WireLengthObjective)
        assert "static_area" in OBJECTIVE_NAMES
        assert "wire_length" in OBJECTIVE_NAMES

    def test_area_selection_minimizes_area(self, d26_space):
        best = d26_space.best(objective=make_objective("static_area"))
        assert best.soc_power.noc_area_mm2 == min(
            p.soc_power.noc_area_mm2 for p in d26_space.points
        )

    def test_wire_selection_minimizes_wire(self, d26_space):
        best = d26_space.best(objective=make_objective("wire_length"))
        assert best.wires.total_length_mm == min(
            p.wires.total_length_mm for p in d26_space.points
        )

    def test_cost_vectors_and_columns(self, tiny_best):
        area = make_objective("static_area")
        result = area.evaluate(tiny_best)
        assert result.cost == (
            tiny_best.soc_power.noc_area_mm2,
            tiny_best.power_mw,
            tiny_best.avg_latency_cycles,
        )
        assert area.partial_cost(tiny_best) == result.cost
        assert area.columns(tiny_best)["noc_area_mm2"] == round(
            tiny_best.soc_power.noc_area_mm2, 4
        )
        wire = make_objective("wire_length")
        assert wire.evaluate(tiny_best).cost[0] == tiny_best.wires.total_length_mm
        assert wire.partial_cost(tiny_best) == wire.evaluate(tiny_best).cost


@pytest.mark.runtime
class TestMultiTrace:
    """Worst-case/mean scoring over a trace set (ISSUE-5 satellite)."""

    def _traces(self, spec, n=3):
        from repro.runtime import markov_trace
        from repro.soc.usecases import use_cases_for

        return tuple(
            markov_trace(use_cases_for(spec), n_segments=24, seed=s)
            for s in range(n)
        )

    def test_validation(self, d26_log6):
        from repro import MultiTraceObjective

        with pytest.raises(SpecError):
            MultiTraceObjective()
        traces = self._traces(d26_log6, 2)
        with pytest.raises(SpecError):
            MultiTraceObjective(traces=traces, aggregate="median")
        with pytest.raises(SpecError):
            make_objective("multi_trace")

    def test_worst_dominates_mean(self, d26_log6, d26_best):
        from repro import MultiTraceObjective, TraceEnergyObjective

        traces = self._traces(d26_log6)
        obj = MultiTraceObjective(traces=traces)
        result = obj.evaluate(d26_best)
        worst, mean = result.cost[0], result.cost[1]
        assert worst >= mean - 1e-12
        # The aggregates really are over the per-trace energies.
        singles = [
            TraceEnergyObjective(trace=t).evaluate(d26_best).cost[0]
            for t in traces
        ]
        assert worst == pytest.approx(max(singles))
        assert mean == pytest.approx(sum(singles) / len(singles))
        for t in traces:
            assert "trace_mj.%s" % t.name in result.metrics

    def test_mean_aggregate_reorders_cost(self, d26_log6, d26_best):
        from repro import MultiTraceObjective

        traces = self._traces(d26_log6, 2)
        worst = MultiTraceObjective(traces=traces).evaluate(d26_best)
        mean = MultiTraceObjective(traces=traces, aggregate="mean").evaluate(
            d26_best
        )
        assert worst.cost[0] == mean.cost[1] and worst.cost[1] == mean.cost[0]

    def test_selection_robust_over_seeds(self, d26_log6, d26_space):
        """The multi-trace pick is never worse in worst-case energy than
        any single-seed pick, on that same trace set."""
        from repro import MultiTraceObjective

        traces = self._traces(d26_log6)
        multi = MultiTraceObjective(traces=traces)
        chosen = d26_space.best(objective=multi)
        chosen_worst = multi.evaluate(chosen).cost[0]
        for point in d26_space.points:
            assert chosen_worst <= multi.evaluate(point).cost[0] + 1e-9


class TestSweepPruning:
    """prune_sweep=True: smaller space, provably identical selection."""

    def test_static_prune_identical_selection_tiny(self, tiny_spec, tiny_space):
        pruned = synthesize(
            tiny_spec, config=SynthesisConfig(prune_sweep=True)
        )
        assert pruned.best_by_power().label() == tiny_space.best_by_power().label()
        assert len(pruned) <= len(tiny_space)

    def test_static_prune_identical_selection_d26(self, d26_log6, d26_space):
        cfg = SynthesisConfig(max_intermediate=2, prune_sweep=True)
        pruned = synthesize(d26_log6, config=cfg)
        a, b = pruned.best_by_power(), d26_space.best_by_power()
        assert a.label() == b.label()
        assert (a.power_mw, a.avg_latency_cycles) == (
            b.power_mw,
            b.avg_latency_cycles,
        )
        # The sweep actually pruned something on d26.
        assert any("pruned" in reason for _, _, reason in pruned.failures)

    def test_prune_with_objective_identical_selection(self, d26_log6):
        from repro import ResilienceObjective

        cfg = SynthesisConfig(
            max_intermediate=1, objective=ResilienceObjective()
        )
        plain = synthesize(d26_log6, config=cfg)
        pruned = synthesize(
            d26_log6, config=dataclasses.replace(cfg, prune_sweep=True)
        )
        assert plain.best().label() == pruned.best().label()
        assert plain.best().objective_result.cost == (
            pruned.best().objective_result.cost
        )
        assert any("pruned" in reason for _, _, reason in pruned.failures)

    @pytest.mark.runtime
    def test_prune_never_fires_without_partial_cost(self, tiny_spec, idle_trace):
        """Objectives with no cheap prefix are never pruned."""
        obj = TraceEnergyObjective(trace=idle_trace)
        cfg = SynthesisConfig(objective=obj)
        plain = synthesize(tiny_spec, config=cfg)
        pruned = synthesize(
            tiny_spec, config=dataclasses.replace(cfg, prune_sweep=True)
        )
        assert point_signature(plain) == point_signature(pruned)
        assert not any("pruned" in reason for _, _, reason in pruned.failures)

    def test_pruned_points_carry_no_objective_result(self, tiny_spec):
        """With no objective configured, pruning stays metrics-only."""
        space = synthesize(tiny_spec, config=SynthesisConfig(prune_sweep=True))
        for p in space.points:
            assert p.objective_result is None
