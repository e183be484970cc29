"""Control-plane tests: closed-loop fault detection, repair, reroute.

Covers the reconfiguration controller (``repro.control``): the
deterministic latency model, per-scenario decisions (spare activation,
recomputed reroutes, degraded loss), the staged
failed -> detected -> rerouted -> repaired -> restored timeline inside
the runtime simulator, deadlock audits of every installed routing,
byte-identical determinism of telemetry and recovery timelines, and the
``recovery`` objective plus the ``control`` CLI subcommand.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    SynthesisConfig,
    make_objective,
    protect_design_point,
    synthesize,
)
from repro.arch.routing import is_deadlock_free
from repro.cli import main
from repro.control import (
    ACTION_LOST,
    ACTION_REROUTE,
    ACTION_SPARE,
    ControlLatencyModel,
    ReconfigurationController,
    RecoveryObjective,
    TELEMETRY_KINDS,
    recovery_rows,
    recovery_summary,
    sort_telemetry,
    telemetry_summary,
)
from repro.exceptions import SpecError
from repro.io.json_io import control_summary
from repro.resilience import (
    FaultEvent,
    endpoint_failed,
    enumerate_scenarios,
    route_affected,
)
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.benchmarks import load_benchmark
from repro.soc.partitioning import logical_partitioning
from repro.soc.usecases import use_cases_for

pytestmark = pytest.mark.control


@pytest.fixture(scope="module")
def tiny_protected(tiny_best):
    return protect_design_point(tiny_best, k=1)


@pytest.fixture(scope="module")
def d26_protected(d26_best):
    return protect_design_point(d26_best, k=1)


@pytest.fixture(scope="module")
def tiny_trace(tiny_spec):
    return markov_trace(use_cases_for(tiny_spec), n_segments=24, seed=3)


@pytest.fixture(scope="module")
def d26_trace(d26_log6):
    return markov_trace(use_cases_for(d26_log6), n_segments=48, seed=11)


def _live_scenario(prot, model="single_link"):
    """First scenario of the model that hits a primary route."""
    topo = prot.topology
    for sc in enumerate_scenarios(topo, model):
        if any(route_affected(sc, topo, r) for r in topo.routes.values()):
            return sc
    pytest.skip("no live %s scenario on this topology" % model)


def _controlled_replay(prot, trace, events, policy="break_even", latency=None):
    controller = ReconfigurationController(
        prot.topology, spare_plan=prot.plan, latency=latency
    )
    return simulate_trace(
        prot.topology,
        trace,
        make_policy(policy),
        fault_events=events,
        spare_plan=prot.plan,
        controller=controller,
    )


def _mid_event(trace, scenario):
    return FaultEvent(
        scenario=scenario,
        start_ms=0.25 * trace.total_ms,
        end_ms=0.6 * trace.total_ms,
    )


# ----------------------------------------------------------------------
# Latency model
# ----------------------------------------------------------------------


class TestLatencyModel:
    def test_validation(self):
        with pytest.raises(SpecError):
            ControlLatencyModel(detection_base_ms=-0.1)
        with pytest.raises(SpecError):
            ControlLatencyModel(install_per_flow_ms=-1.0)

    @pytest.mark.parametrize(
        "field",
        [
            "detection_base_ms",
            "detection_jitter_ms",
            "install_base_ms",
            "install_per_flow_ms",
            "repair_detection_factor",
        ],
    )
    def test_nan_rejected(self, field):
        with pytest.raises(SpecError, match=field):
            ControlLatencyModel(**{field: float("nan")})

    def test_detection_within_jitter_band(self, tiny_protected):
        lat = ControlLatencyModel()
        for sc in enumerate_scenarios(tiny_protected.topology, "single_link"):
            d = lat.detection_ms(sc)
            assert lat.detection_base_ms <= d
            assert d <= lat.detection_base_ms + lat.detection_jitter_ms

    def test_detection_is_name_stable(self, tiny_protected):
        sc = enumerate_scenarios(tiny_protected.topology, "single_link")[0]
        assert ControlLatencyModel().detection_ms(
            sc
        ) == ControlLatencyModel().detection_ms(sc)

    def test_install_scales_with_migrations(self):
        lat = ControlLatencyModel()
        assert lat.install_ms(0) == lat.install_base_ms
        assert lat.install_ms(5) == pytest.approx(
            lat.install_base_ms + 5 * lat.install_per_flow_ms
        )
        assert lat.install_ms(-3) == lat.install_ms(0)

    def test_repair_and_recovery_compose(self, tiny_protected):
        lat = ControlLatencyModel()
        sc = enumerate_scenarios(tiny_protected.topology, "single_link")[0]
        assert lat.repair_detection_ms(sc) == pytest.approx(
            lat.repair_detection_factor * lat.detection_ms(sc)
        )
        assert lat.recovery_ms(sc, 2) == pytest.approx(
            lat.detection_ms(sc) + lat.install_ms(2)
        )


# ----------------------------------------------------------------------
# Controller decisions
# ----------------------------------------------------------------------


class TestControllerDecisions:
    def test_spare_activation(self, tiny_protected):
        sc = _live_scenario(tiny_protected)
        ctrl = ReconfigurationController(
            tiny_protected.topology, spare_plan=tiny_protected.plan
        )
        decision = ctrl.decide(sc)
        assert decision.deadlock_free
        acted = [a for a in decision.actions if a.action == ACTION_SPARE]
        assert acted and all(a.backup_index >= 0 for a in acted)
        # The installed routing never uses a failed component.
        dead = set(sc.failed_links)
        for route in decision.installed_routes.values():
            assert not dead & set(route.links)

    def test_decisions_are_memoized(self, tiny_protected):
        sc = _live_scenario(tiny_protected)
        ctrl = ReconfigurationController(
            tiny_protected.topology, spare_plan=tiny_protected.plan
        )
        assert ctrl.decide(sc) is ctrl.decide(sc)

    def test_reroute_without_plan(self, d26_protected):
        """No spare plan: the controller recomputes routes live via the
        path allocator; anything it installs avoids the failure and
        stays deadlock-free."""
        sc = _live_scenario(d26_protected)
        topo = d26_protected.topology
        ctrl = ReconfigurationController(topo, spare_plan=None)
        decision = ctrl.decide(sc)
        assert decision.actions  # the scenario hits at least one flow
        dead = set(sc.failed_links)
        for a in decision.actions:
            assert a.action in (ACTION_REROUTE, ACTION_LOST)
            if a.action == ACTION_REROUTE:
                assert a.route is not None
                assert not dead & set(a.route.links)
        assert is_deadlock_free(topo, routes=decision.installed_routes)

    def test_endpoint_failure_is_lost(self, tiny_protected):
        topo = tiny_protected.topology
        ctrl = ReconfigurationController(
            topo, spare_plan=tiny_protected.plan
        )
        for sc in enumerate_scenarios(topo, "switch"):
            decision = ctrl.decide(sc)
            for a in decision.actions:
                if endpoint_failed(sc, topo, a.flow):
                    assert a.action == ACTION_LOST
                    assert a.flow not in decision.installed_routes

    def test_every_installed_routing_deadlock_free(self, d26_protected):
        """The audit invariant of the whole PR: no scenario's installed
        routing may introduce a channel-dependency cycle."""
        topo = d26_protected.topology
        ctrl = ReconfigurationController(
            topo, spare_plan=d26_protected.plan
        )
        for sc in enumerate_scenarios(topo, "single_link"):
            decision = ctrl.decide(sc)
            assert decision.deadlock_free
            assert is_deadlock_free(topo, routes=decision.installed_routes)

    def test_alternates_closing_a_cycle_demote_the_smallest_flow(self):
        """Three flows detour off a failed hub onto a one-way ring
        a -> b -> c -> a; together their reroutes close the channel-
        dependency cycle ab -> bc -> ca -> ab, so the controller demotes
        the smallest-keyed one to lost and installs the other two."""
        from repro import DEFAULT_LIBRARY, CoreSpec, Topology, TrafficFlow, build_spec
        from repro.arch.routing import find_cdg_cycle
        from repro.core.paths import PathAllocator
        from repro.resilience import FaultScenario

        flows = {("u", "v"): ("c", "b"), ("w", "x"): ("a", "c"), ("y", "z"): ("b", "a")}
        spec = build_spec(
            "ring_hub",
            [CoreSpec(name, 1.0, 10.0, 2.0) for name in "uvwxyz"],
            [TrafficFlow(src, dst, 50.0, 20.0) for src, dst in flows],
        )
        topo = Topology(spec, DEFAULT_LIBRARY, {0: 200.0})
        sw = {name: topo.add_switch(0, i).id for i, name in enumerate("abcd")}
        for src, dst in ("ab", "bc", "ca", "ad", "da", "bd", "db", "cd", "dc"):
            topo.open_link(sw[src], sw[dst])
        link = lambda src, dst: topo.link_between(src, dst).id
        for (src, dst), (first, last) in flows.items():
            topo.attach_core(src, topo.switches[sw[first]])
            topo.attach_core(dst, topo.switches[sw[last]])
            # Healthy routing: every flow crosses the hub d.
            hops = ["ni." + src, sw[first], sw["d"], sw[last], "ni." + dst]
            topo.assign_route(
                spec.flow(src, dst), [link(s, t) for s, t in zip(hops, hops[1:])]
            )
        assert is_deadlock_free(topo)
        hub = sw["d"]
        sc = FaultScenario(
            name="hub",
            kind="switch",
            failed_links=tuple(
                sorted(l.id for l in topo.links.values() if hub in (l.src, l.dst))
            ),
            failed_switches=(hub,),
        )
        alloc = PathAllocator.for_topology(topo)
        rerouted = {
            flow: alloc.route_around(topo, flow, sc.failed_links, sc.failed_switches)[0]
            for flow in flows
        }
        assert find_cdg_cycle(topo, routes=rerouted) is not None
        decision = ReconfigurationController(topo).decide(sc)
        actions = {a.flow: a.action for a in decision.actions}
        assert actions == {
            ("u", "v"): ACTION_LOST,
            ("w", "x"): ACTION_REROUTE,
            ("y", "z"): ACTION_REROUTE,
        }
        assert decision.demoted == (("u", "v"),)
        assert decision.deadlock_free
        assert is_deadlock_free(topo, routes=decision.installed_routes)
        assert ("u", "v") not in decision.installed_routes

    def test_simulate_rejects_foreign_controller(
        self, tiny_protected, d26_best, tiny_trace
    ):
        ctrl = ReconfigurationController(d26_best.topology)
        sc = _live_scenario(tiny_protected)
        with pytest.raises(SpecError):
            simulate_trace(
                tiny_protected.topology,
                tiny_trace,
                make_policy("never"),
                fault_events=[FaultEvent(scenario=sc, start_ms=0.0)],
                controller=ctrl,
            )


# ----------------------------------------------------------------------
# Staged recovery in the runtime loop
# ----------------------------------------------------------------------


class TestStagedRecovery:
    def test_d26_single_link_recovery(self, d26_protected, d26_trace):
        """The acceptance scenario: a single-link fault on the k=1
        protected d26 design is detected, failed over, and repaired
        within the modeled latencies, with zero routability violations
        and deadlock-free routing at every stage."""
        prot = d26_protected
        sc = _live_scenario(prot)
        event = _mid_event(d26_trace, sc)
        lat = ControlLatencyModel()
        report = _controlled_replay(prot, d26_trace, [event], latency=lat)
        assert report.routable
        assert report.controlled
        assert report.recoveries_deadlock_free
        (rec,) = report.recoveries
        # Stage ordering.
        assert rec.fault_ms == pytest.approx(event.start_ms)
        assert rec.fault_ms < rec.detected_ms < rec.installed_ms
        assert rec.repaired_ms == pytest.approx(event.end_ms)
        assert rec.installed_ms <= rec.restored_ms
        assert rec.repaired_ms < rec.restored_ms
        # Modeled latencies, exactly.
        assert rec.detection_ms == pytest.approx(lat.detection_ms(sc))
        migrated = rec.recovered_flows
        assert migrated > 0 and rec.lost_flows == 0  # full k=1 coverage
        assert rec.failover_ms == pytest.approx(
            lat.detection_ms(sc) + lat.install_ms(migrated)
        )
        assert report.worst_recovery_ms == pytest.approx(rec.failover_ms)
        assert rec.repaired

    def test_recovered_flow_accounting(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = _live_scenario(prot)
        report = _controlled_replay(prot, d26_trace, [_mid_event(d26_trace, sc)])
        (rec,) = report.recoveries
        for fr in rec.flows:
            assert fr.recovered
            # Outage is bounded by the detect+install window; the
            # degraded window runs from install to restore.
            assert 0.0 <= fr.outage_ms <= rec.failover_ms + 1e-9
            assert fr.degraded_ms <= rec.degraded_window_ms + 1e-9
            assert fr.lost_mbits >= 0.0
        # Legacy impact view stays populated and consistent.
        assert report.degraded
        assert {i.flow for i in report.fault_impacts} == {
            f.flow for f in rec.flows
        }
        assert all(i.fate == "rerouted" for i in report.fault_impacts)

    def test_lost_flows_counted_without_plan(self, d26_best, d26_trace):
        """With no spares and the allocator unable to save everything,
        lost flows accrue lost traffic over the outage."""
        topo = d26_best.topology
        sc = _live_scenario_unprotected(topo)
        ctrl = ReconfigurationController(topo, spare_plan=None)
        report = simulate_trace(
            topo,
            d26_trace,
            make_policy("never"),
            fault_events=[FaultEvent(scenario=sc, start_ms=0.0)],
            controller=ctrl,
        )
        (rec,) = report.recoveries
        assert rec.flows  # the scenario touched active flows
        if rec.lost_flows:
            assert report.lost_traffic_mbits > 0.0
            assert report.lost_flow_events == len(
                [i for i in report.fault_impacts if i.fate == "lost"]
            )

    def test_telemetry_stream_is_canonical(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = _live_scenario(prot)
        report = _controlled_replay(prot, d26_trace, [_mid_event(d26_trace, sc)])
        stream = report.telemetry
        assert stream and stream[0].kind == "fault_raised"
        kinds = [e.kind for e in stream]
        assert set(kinds) <= set(TELEMETRY_KINDS)
        # Stage events appear in causal order.
        assert kinds.index("fault_detected") < kinds.index("routing_installed")
        assert kinds.index("routing_installed") < kinds.index("repair_observed")
        assert kinds.index("repair_observed") < kinds.index("primary_restored")
        # Already in canonical sort order, within the trace window.
        assert list(stream) == list(sort_telemetry(stream))
        for ev in stream:
            assert 0.0 <= ev.t_ms <= d26_trace.total_ms + 1e-9
            assert ev.describe()

    def test_never_repaired_fault_stays_degraded(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = _live_scenario(prot)
        event = FaultEvent(scenario=sc, start_ms=0.25 * d26_trace.total_ms)
        report = _controlled_replay(prot, d26_trace, [event])
        (rec,) = report.recoveries
        assert not rec.repaired
        kinds = [e.kind for e in report.telemetry]
        assert "repair_observed" not in kinds
        assert "primary_restored" not in kinds
        # JSON view maps the open-ended stages to null.
        summary = recovery_summary(rec)
        assert summary["repaired_ms"] is None
        assert summary["restored_ms"] is None

    def test_rows_and_summaries_serialize(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = _live_scenario(prot)
        report = _controlled_replay(prot, d26_trace, [_mid_event(d26_trace, sc)])
        rows = recovery_rows(report.recoveries)
        assert rows and rows[0]["scenario"] == sc.name
        json.dumps(rows)
        json.dumps(telemetry_summary(report.telemetry))
        data = control_summary(report)
        json.dumps(data)
        assert data["controlled"] and data["deadlock_free"]
        assert len(data["recoveries"]) == 1


def _live_scenario_unprotected(topo, model="single_link"):
    for sc in enumerate_scenarios(topo, model):
        if any(route_affected(sc, topo, r) for r in topo.routes.values()):
            return sc
    pytest.skip("no live %s scenario on this topology" % model)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


class TestControlDeterminism:
    def _double_run(self, prot, trace):
        sc = _live_scenario(prot)
        event = _mid_event(trace, sc)
        dumps = []
        for _ in range(2):
            report = _controlled_replay(prot, trace, [event])
            dumps.append(json.dumps(control_summary(report), sort_keys=True))
        return dumps

    def test_tiny_byte_identical(self, tiny_protected, tiny_trace):
        a, b = self._double_run(tiny_protected, tiny_trace)
        assert a == b

    def test_d26_byte_identical(self, d26_protected, d26_trace):
        a, b = self._double_run(d26_protected, d26_trace)
        assert a == b

    @pytest.mark.slow
    def test_d38_byte_identical(self):
        spec = logical_partitioning(load_benchmark("d38_media"), 6)
        spec = spec.with_vi_assignment(spec.vi_assignment, name="d38_media")
        best = synthesize(spec, config=SynthesisConfig()).best_by_power()
        prot = protect_design_point(best, k=1)
        trace = markov_trace(use_cases_for(spec), n_segments=48, seed=11)
        sc = _live_scenario(prot)
        event = _mid_event(trace, sc)
        dumps = []
        for _ in range(2):
            report = _controlled_replay(prot, trace, [event])
            dumps.append(json.dumps(control_summary(report), sort_keys=True))
        assert dumps[0] == dumps[1]


# ----------------------------------------------------------------------
# Recovery objective
# ----------------------------------------------------------------------


class TestRecoveryObjective:
    def test_registry(self):
        obj = make_objective("recovery", fault_model="single_link", spare_k=1)
        assert isinstance(obj, RecoveryObjective)

    def test_validation(self):
        with pytest.raises(SpecError):
            RecoveryObjective(fault_model="cosmic_ray")
        with pytest.raises(SpecError):
            RecoveryObjective(k=-1)
        with pytest.raises(SpecError):
            RecoveryObjective(min_coverage=1.5)

    def test_evaluate_costs_worst_recovery(self, tiny_best):
        obj = RecoveryObjective(k=1)
        result = obj.evaluate(tiny_best)
        assert result.feasible
        assert result.metrics["coverage"] == pytest.approx(1.0)
        assert result.metrics["worst_recovery_ms"] > 0.0
        # Base cost vector first, then recovery time and spare power.
        base_cost = obj._base().evaluate(tiny_best).cost
        assert result.cost[: len(base_cost)] == base_cost
        assert result.cost[len(base_cost)] == pytest.approx(
            result.metrics["worst_recovery_ms"]
        )

    def test_vetoes_uncovered_points(self, tiny_best):
        """k=0 leaves affected flows uncoverable -> full-coverage veto."""
        obj = RecoveryObjective(k=0, min_coverage=1.0)
        result = obj.evaluate(tiny_best)
        assert not result.feasible
        assert "coverage" in (result.reason or "")

    def test_columns(self, tiny_best):
        obj = RecoveryObjective(k=1)
        names = obj.column_names()
        assert "coverage" in names and "recovery_ms" in names
        cols = obj.columns(tiny_best)
        assert set(names) <= set(cols)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestControlCli:
    def test_control_subcommand(self, capsys):
        code = main(
            [
                "control",
                "d12_auto",
                "--islands",
                "3",
                "--telemetry",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "controller recovery" in out
        assert "fault_raised" in out
        assert "routing_installed" in out
        assert "deadlock-free True" in out

    def test_control_scenario_by_name_and_index(self, capsys):
        assert main(["control", "d12_auto", "--islands", "3", "--scenario", "0"]) == 0
        capsys.readouterr()

    def test_control_unknown_scenario(self, capsys):
        code = main(
            ["control", "d12_auto", "--islands", "3", "--scenario", "nope"]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_resilience_availability_flag(self, capsys):
        code = main(
            ["resilience", "d12_auto", "--islands", "3", "--availability"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "expected availability" in out
