"""Resilience subsystem: fault models, spare paths, coverage, runtime.

The invariants this suite pins:

* scenario enumeration is deterministic and complete per model;
* spare allocation is byte-identical across runs, honors the VI
  shutdown-safety rule, respects switch-size bounds, and reserves
  disjoint cold-standby capacity;
* k=1 protection reaches full single-link coverage on the tiny and
  d26 specs while the unprotected baselines do not;
* every degraded (post-failure) routing the coverage analysis emits
  passes the channel-dependency deadlock check — the turn-model
  guarantee must survive failover, not just the healthy routing;
* the runtime simulator's fault injection conserves energy accounting
  (rerouted flows pay the backup path, lost flows stop paying) and
  folds failover stalls into the per-flow QoS numbers;
* :class:`ResilienceObjective` vetoes under-covered points, orders
  overhead lexicographically after the base cost, and composes with
  the trace/QoS objectives through :class:`CompositeObjective`.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    CompositeObjective,
    ResilienceObjective,
    SparePathConfig,
    StaticPowerObjective,
    TraceEnergyObjective,
    WakeLatencyQoSObjective,
    allocate_spare_paths,
    analyze_model,
    degraded_routes,
    make_objective,
    protect_design_point,
)
from repro.arch.routing import is_deadlock_free
from repro.arch.topology import INTERMEDIATE_ISLAND
from repro.arch.validate import validate_topology
from repro.exceptions import SpecError
from repro.io.json_io import spare_plan_summary
from repro.resilience import (
    FAULT_MODEL_NAMES,
    FaultEvent,
    FaultScenario,
    FitRates,
    LOST,
    REROUTED,
    UNAFFECTED,
    double_link_failures,
    enumerate_scenarios,
    island_failures,
    route_affected,
    single_link_failures,
    switch_failures,
)
from repro.runtime import (
    canonical_fault_events,
    make_policy,
    markov_trace,
    simulate_trace,
)
from repro.soc.usecases import use_cases_for

pytestmark = pytest.mark.resilience


# ----------------------------------------------------------------------
# Fault models
# ----------------------------------------------------------------------


class TestFaultModels:
    def test_scenario_requires_failures(self):
        with pytest.raises(SpecError):
            FaultScenario(name="empty", kind="single_link")

    def test_event_window_validation(self):
        sc = FaultScenario(name="l0", kind="single_link", failed_links=(0,))
        with pytest.raises(SpecError):
            FaultEvent(scenario=sc, start_ms=5.0, end_ms=5.0)
        with pytest.raises(SpecError):
            FaultEvent(scenario=sc, start_ms=-1.0)
        ev = FaultEvent(scenario=sc, start_ms=10.0, end_ms=30.0)
        assert ev.overlap_ms(0.0, 20.0) == pytest.approx(10.0)
        assert ev.overlap_ms(40.0, 50.0) == 0.0

    @pytest.mark.parametrize("field", ["start_ms", "end_ms", "reroute_stall_ms"])
    def test_event_nan_rejected(self, field):
        sc = FaultScenario(name="l0", kind="single_link", failed_links=(0,))
        with pytest.raises(SpecError):
            FaultEvent(scenario=sc, **{field: float("nan")})
        # An infinite end (the default) stays legal: never repaired.
        assert FaultEvent(scenario=sc).end_ms == float("inf")

    def test_single_link_enumeration(self, tiny_best):
        topo = tiny_best.topology
        scenarios = single_link_failures(topo)
        sw_links = [l for l in topo.links.values() if l.kind == "sw2sw"]
        assert len(scenarios) == len(sw_links)
        assert [s.failed_links[0] for s in scenarios] == sorted(
            l.id for l in sw_links
        )

    def test_double_link_enumeration(self, tiny_best):
        topo = tiny_best.topology
        n = len([l for l in topo.links.values() if l.kind == "sw2sw"])
        assert len(double_link_failures(topo)) == n * (n - 1) // 2

    def test_switch_failure_carries_links(self, tiny_best):
        topo = tiny_best.topology
        for sc in switch_failures(topo):
            sid = sc.failed_switches[0]
            touching = {
                l.id for l in topo.links.values() if sid in (l.src, l.dst)
            }
            assert set(sc.failed_links) == touching

    def test_island_failures_exclude_intermediate(self, d26_best):
        topo = d26_best.topology
        scenarios = island_failures(topo)
        assert [s.failed_islands[0] for s in scenarios] == sorted(
            isl for isl in topo.island_freqs if isl != INTERMEDIATE_ISLAND
        )

    def test_enumerate_by_name_and_unknown(self, d26_best):
        for name in FAULT_MODEL_NAMES:
            assert enumerate_scenarios(d26_best.topology, name)
        with pytest.raises(SpecError):
            enumerate_scenarios(d26_best.topology, "cosmic_ray")


# ----------------------------------------------------------------------
# Spare-path allocation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_protected(tiny_best):
    return protect_design_point(tiny_best, k=1)


@pytest.fixture(scope="module")
def d26_protected(d26_best):
    return protect_design_point(d26_best, k=1)


class TestSparePaths:
    def test_backups_disjoint_from_primary(self, tiny_protected):
        prot = tiny_protected
        topo = prot.topology
        for key, routes in prot.plan.backups.items():
            primary = {
                lid
                for lid in topo.routes[key].links
                if topo.links[lid].kind == "sw2sw"
            }
            for backup in routes:
                backup_sw = {
                    lid
                    for lid in backup.links
                    if topo.links[lid].kind == "sw2sw"
                }
                assert not (primary & backup_sw)

    def test_backups_pairwise_disjoint(self, d26_best):
        prot = protect_design_point(d26_best, k=2)
        topo = prot.topology
        for key, routes in prot.plan.backups.items():
            seen = set()
            for backup in routes:
                links = {
                    lid
                    for lid in backup.links
                    if topo.links[lid].kind == "sw2sw"
                }
                assert not (seen & links)
                seen |= links

    def test_backups_honor_vi_constraint(self, d26_protected):
        prot = d26_protected
        spec = prot.topology.spec
        for key, routes in prot.plan.backups.items():
            allowed = {
                spec.island_of(key[0]),
                spec.island_of(key[1]),
                INTERMEDIATE_ISLAND,
            }
            for backup in routes:
                for comp in backup.components[1:-1]:
                    assert prot.topology.switches[comp].island in allowed

    def test_protected_topology_validates(self, d26_protected):
        # Spare ports must respect the per-island switch-size bounds.
        validate_topology(d26_protected.topology)

    def test_protection_does_not_mutate_point(self, tiny_best, tiny_protected):
        assert tiny_protected.plan.links_opened > 0
        assert len(tiny_protected.topology.links) > len(tiny_best.topology.links)

    def test_reservations_cover_backup_bandwidth(self, d26_protected):
        prot = d26_protected
        topo = prot.topology
        spec = topo.spec
        want = {}
        for key, routes in prot.plan.backups.items():
            bw = spec.flow(*key).bandwidth_mbps
            for backup in routes:
                for lid in backup.links:
                    if topo.links[lid].kind == "sw2sw":
                        want[lid] = want.get(lid, 0.0) + bw
        assert prot.plan.reserved_mbps == pytest.approx(want)
        # Reserved + primary traffic never exceeds capacity.
        for lid, mbps in prot.plan.reserved_mbps.items():
            link = topo.links[lid]
            assert link.used_mbps + mbps <= link.capacity_mbps + 1e-6

    def test_allocation_deterministic(self, d26_best):
        a = protect_design_point(d26_best, k=1)
        b = protect_design_point(d26_best, k=1)
        dump = lambda p: json.dumps(spare_plan_summary(p.plan), sort_keys=True)
        assert dump(a) == dump(b)

    def test_node_disjoint_mode(self, d26_best):
        prot = protect_design_point(
            d26_best, config=SparePathConfig(k=1, node_disjoint=True)
        )
        topo = prot.topology
        for key, routes in prot.plan.backups.items():
            transit = set(topo.routes[key].components[1:-1]) - {
                topo.switch_of_core(key[0]).id,
                topo.switch_of_core(key[1]).id,
            }
            for backup in routes:
                assert not (set(backup.components[1:-1]) & transit)

    def test_k_zero_is_a_no_op(self, tiny_best):
        topo = tiny_best.topology.clone_scaffold()
        plan = allocate_spare_paths(topo, k=0)
        assert plan.links_opened == 0 and not plan.backups


# ----------------------------------------------------------------------
# Coverage analysis
# ----------------------------------------------------------------------


class TestCoverage:
    def test_unprotected_baseline_has_losses(self, d26_best):
        report = analyze_model(d26_best.topology, "single_link")
        assert report.coverage < 1.0
        assert report.uncovered_flows

    def test_k1_full_single_link_coverage_tiny(self, tiny_protected):
        report = analyze_model(
            tiny_protected.topology, "single_link", plan=tiny_protected.plan
        )
        assert report.full_coverage
        assert not report.uncovered_flows

    def test_k1_full_single_link_coverage_d26(self, d26_protected):
        report = analyze_model(
            d26_protected.topology, "single_link", plan=d26_protected.plan
        )
        assert report.full_coverage and report.coverage == 1.0
        assert not report.uncovered_flows

    def test_fates_are_consistent(self, d26_protected):
        prot = d26_protected
        report = analyze_model(prot.topology, "single_link", plan=prot.plan)
        for sc in report.scenarios:
            for impact in sc.impacts:
                route = prot.topology.routes[impact.flow]
                affected = route_affected(sc.scenario, prot.topology, route)
                if impact.fate == UNAFFECTED:
                    assert not affected
                elif impact.fate == REROUTED:
                    assert affected and impact.backup_index >= 0
                    backup = prot.plan.backups[impact.flow][impact.backup_index]
                    assert not route_affected(sc.scenario, prot.topology, backup)
                    assert impact.added_cycles >= 0
                elif impact.fate == LOST:
                    assert affected

    def test_switch_failure_excludes_endpoints(self, d26_protected):
        prot = d26_protected
        report = analyze_model(prot.topology, "switch", plan=prot.plan)
        for sc in report.scenarios:
            dead = set(sc.scenario.failed_switches)
            for impact in sc.impacts:
                src_sw = prot.topology.switch_of_core(impact.flow[0]).id
                dst_sw = prot.topology.switch_of_core(impact.flow[1]).id
                if {src_sw, dst_sw} & dead:
                    assert impact.fate == "endpoint_lost"

    def test_degraded_routes_deadlock_free(self, d26_protected):
        prot = d26_protected
        for sc in enumerate_scenarios(prot.topology, "single_link"):
            routes = degraded_routes(prot.topology, prot.plan, sc)
            assert is_deadlock_free(prot.topology, routes=routes)


# ----------------------------------------------------------------------
# Runtime fault injection
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def d26_trace(d26_log6):
    return markov_trace(use_cases_for(d26_log6), n_segments=48, seed=11)


@pytest.mark.runtime
class TestRuntimeFaults:
    def _first_live_scenario(self, prot, trace):
        """A single-link scenario that actually hits an active flow."""
        policy = make_policy("never")
        for sc in enumerate_scenarios(prot.topology, "single_link"):
            report = simulate_trace(
                prot.topology,
                trace,
                policy,
                fault_events=[FaultEvent(scenario=sc, start_ms=0.0)],
                spare_plan=prot.plan,
            )
            if report.fault_impacts:
                return sc
        pytest.skip("no scenario touches an active flow on this trace")

    def test_reroute_conserves_service(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = self._first_live_scenario(prot, d26_trace)
        report = simulate_trace(
            prot.topology,
            d26_trace,
            make_policy("never"),
            fault_events=[FaultEvent(scenario=sc, start_ms=0.0)],
            spare_plan=prot.plan,
        )
        assert report.degraded
        assert report.lost_flow_events == 0  # full k=1 coverage
        assert report.rerouted_flow_events > 0
        assert report.fault_stall_ms > 0.0
        # Failover stalls feed the per-flow QoS numbers.
        stalled = [i.flow for i in report.fault_impacts if i.stall_ms > 0]
        for flow in stalled:
            assert report.flow_stall_ms[flow] >= 0.05 - 1e-12

    def test_lost_flows_without_plan(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = self._first_live_scenario(prot, d26_trace)
        report = simulate_trace(
            prot.topology,
            d26_trace,
            make_policy("never"),
            fault_events=[FaultEvent(scenario=sc, start_ms=0.0)],
        )
        assert report.lost_flow_events > 0
        assert report.fault_delta_mj < 0.0  # lost traffic stops paying

    def test_fault_window_bounds_delta(self, d26_protected, d26_trace):
        """A half-trace fault costs at most the full-trace fault."""
        prot = d26_protected
        sc = self._first_live_scenario(prot, d26_trace)
        half = d26_trace.total_ms / 2.0
        full = simulate_trace(
            prot.topology,
            d26_trace,
            make_policy("never"),
            fault_events=[FaultEvent(scenario=sc, start_ms=0.0)],
        )
        windowed = simulate_trace(
            prot.topology,
            d26_trace,
            make_policy("never"),
            fault_events=[FaultEvent(scenario=sc, start_ms=0.0, end_ms=half)],
        )
        assert abs(windowed.fault_delta_mj) <= abs(full.fault_delta_mj) + 1e-9

    def test_no_faults_is_byte_identical(self, d26_protected, d26_trace):
        prot = d26_protected
        a = simulate_trace(prot.topology, d26_trace, make_policy("break_even"))
        b = simulate_trace(
            prot.topology,
            d26_trace,
            make_policy("break_even"),
            fault_events=[],
            spare_plan=prot.plan,
        )
        assert a.total_mj == b.total_mj
        assert not b.degraded and b.fault_delta_mj == 0.0


# ----------------------------------------------------------------------
# Fault-event canonicalization (injection hardening)
# ----------------------------------------------------------------------


@pytest.mark.runtime
class TestFaultEventHardening:
    def _scenario(self, prot):
        for sc in enumerate_scenarios(prot.topology, "single_link"):
            if any(
                route_affected(sc, prot.topology, r)
                for r in prot.topology.routes.values()
            ):
                return sc
        pytest.skip("no live single-link scenario")

    def _replay(self, prot, trace, events):
        return simulate_trace(
            prot.topology,
            trace,
            make_policy("never"),
            fault_events=events,
            spare_plan=prot.plan,
        )

    def test_canonical_sorts_and_dedups(self, tiny_protected):
        sc = enumerate_scenarios(tiny_protected.topology, "single_link")[0]
        a = FaultEvent(scenario=sc, start_ms=50.0, end_ms=80.0)
        b = FaultEvent(scenario=sc, start_ms=10.0, end_ms=20.0)
        out = canonical_fault_events([a, b, a])
        assert [(e.start_ms, e.end_ms) for e in out] == [
            (10.0, 20.0),
            (50.0, 80.0),
        ]

    def test_canonical_merges_overlap_same_scenario(self, tiny_protected):
        """A component cannot fail again while already failed: same-
        scenario windows that overlap or touch merge into their union,
        keeping the larger switchover stall."""
        sc = enumerate_scenarios(tiny_protected.topology, "single_link")[0]
        a = FaultEvent(scenario=sc, start_ms=10.0, end_ms=40.0)
        b = FaultEvent(
            scenario=sc, start_ms=30.0, end_ms=60.0, reroute_stall_ms=0.2
        )
        (merged,) = canonical_fault_events([a, b])
        assert merged.start_ms == 10.0
        assert merged.end_ms == 60.0
        assert merged.reroute_stall_ms == pytest.approx(0.2)

    def test_canonical_keeps_distinct_scenarios(self, tiny_protected):
        scs = enumerate_scenarios(tiny_protected.topology, "single_link")
        if len(scs) < 2:
            pytest.skip("needs two sw2sw links")
        a = FaultEvent(scenario=scs[0], start_ms=10.0, end_ms=40.0)
        b = FaultEvent(scenario=scs[1], start_ms=30.0, end_ms=60.0)
        assert len(canonical_fault_events([a, b])) == 2

    def test_duplicate_events_equal_single(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = self._scenario(prot)
        ev = FaultEvent(scenario=sc, start_ms=0.0)
        one = self._replay(prot, d26_trace, [ev])
        dup = self._replay(prot, d26_trace, [ev, ev, ev])
        assert dup.fault_impacts == one.fault_impacts
        assert dup.fault_delta_mj == one.fault_delta_mj
        assert dup.fault_stall_ms == one.fault_stall_ms

    def test_event_order_is_irrelevant(self, d26_protected, d26_trace):
        prot = d26_protected
        scs = enumerate_scenarios(prot.topology, "single_link")
        half = d26_trace.total_ms / 2.0
        events = [
            FaultEvent(scenario=scs[0], start_ms=half, end_ms=half + 100.0),
            FaultEvent(scenario=scs[-1], start_ms=0.0, end_ms=half),
        ]
        fwd = self._replay(prot, d26_trace, events)
        rev = self._replay(prot, d26_trace, list(reversed(events)))
        assert fwd.fault_impacts == rev.fault_impacts
        assert fwd.fault_delta_mj == rev.fault_delta_mj
        assert fwd.fault_stall_ms == rev.fault_stall_ms

    def test_overlapping_windows_equal_merged(self, d26_protected, d26_trace):
        prot = d26_protected
        sc = self._scenario(prot)
        t = d26_trace.total_ms
        split = [
            FaultEvent(scenario=sc, start_ms=0.0, end_ms=0.5 * t),
            FaultEvent(scenario=sc, start_ms=0.3 * t, end_ms=0.8 * t),
        ]
        merged = [FaultEvent(scenario=sc, start_ms=0.0, end_ms=0.8 * t)]
        a = self._replay(prot, d26_trace, split)
        b = self._replay(prot, d26_trace, merged)
        assert a.fault_impacts == b.fault_impacts
        assert a.fault_delta_mj == b.fault_delta_mj
        assert a.fault_stall_ms == b.fault_stall_ms

    def test_waking_overlap_never_double_charges(
        self, d26_protected, d26_trace
    ):
        """The failover stall runs concurrent with any wake ramp the
        flow is already waiting on, so a gating policy (which has wake
        stalls) can only *reduce* the incremental fault stall relative
        to the never-gate replay (which has none)."""
        prot = d26_protected
        sc = self._scenario(prot)
        ev = FaultEvent(scenario=sc, start_ms=0.0)
        never = self._replay(prot, d26_trace, [ev])
        gated = simulate_trace(
            prot.topology,
            d26_trace,
            make_policy("break_even"),
            fault_events=[ev],
            spare_plan=prot.plan,
        )
        assert gated.fault_impacts == never.fault_impacts
        assert gated.fault_stall_ms <= never.fault_stall_ms + 1e-9
        # The per-flow QoS number still sees the full switchover floor.
        for imp in gated.fault_impacts:
            if imp.stall_ms > 0:
                assert gated.flow_stall_ms[imp.flow] >= 0.05 - 1e-12


# ----------------------------------------------------------------------
# Probabilistic fault model (FIT rates -> expected availability)
# ----------------------------------------------------------------------


class TestFitRates:
    def test_validation(self):
        with pytest.raises(SpecError):
            FitRates(link_fit=-1.0)
        with pytest.raises(SpecError):
            FitRates(repair_hours=0.0)
        with pytest.raises(SpecError):
            FaultScenario(
                name="l0", kind="single_link", failed_links=(0,), fit=-5.0
            )

    @pytest.mark.parametrize("field", ["link_fit", "switch_fit", "island_fit", "repair_hours"])
    def test_nan_rejected(self, field):
        with pytest.raises(SpecError):
            FitRates(**{field: float("nan")})
        with pytest.raises(SpecError):
            FaultScenario(
                name="l0", kind="single_link", failed_links=(0,), fit=float("nan")
            )

    def test_scenario_fit_by_kind(self):
        rates = FitRates(link_fit=10.0, switch_fit=25.0, island_fit=5.0)
        link = FaultScenario(name="l", kind="single_link", failed_links=(0,))
        sw = FaultScenario(
            name="s", kind="switch", failed_links=(0,), failed_switches=("sw0",)
        )
        isl = FaultScenario(
            name="i", kind="island", failed_links=(0,), failed_islands=(1,)
        )
        assert rates.scenario_fit(link) == 10.0
        assert rates.scenario_fit(sw) == 25.0
        assert rates.scenario_fit(isl) == 5.0

    def test_double_link_is_coincidence(self):
        rates = FitRates(link_fit=10.0, repair_hours=8.0)
        double = FaultScenario(
            name="d", kind="double_link", failed_links=(0, 1)
        )
        expected = 2.0 * 10.0 * 10.0 * 8.0 / 1e9
        assert rates.scenario_fit(double) == pytest.approx(expected)
        # Vanishingly rarer than either single fault.
        assert rates.scenario_fit(double) < 1e-3 * rates.link_fit

    def test_enumeration_annotates_only_on_request(self, tiny_best):
        topo = tiny_best.topology
        plain = enumerate_scenarios(topo, "single_link")
        rated = enumerate_scenarios(topo, "single_link", rates=FitRates())
        assert all(sc.fit == 0.0 for sc in plain)
        assert all(sc.fit == 10.0 for sc in rated)
        # Identical apart from the annotation.
        assert [sc.name for sc in rated] == [sc.name for sc in plain]

    def test_protection_raises_availability(self, d26_best, d26_protected):
        rates = FitRates()
        base = analyze_model(d26_best.topology, "single_link", rates=rates)
        prot = analyze_model(
            d26_protected.topology,
            "single_link",
            plan=d26_protected.plan,
            rates=rates,
        )
        a_base = base.expected_availability(rates.repair_hours)
        a_prot = prot.expected_availability(rates.repair_hours)
        assert 0.0 < a_base < 1.0  # some flows are lost somewhere
        assert a_prot == pytest.approx(1.0)  # full k=1 coverage
        assert a_prot >= a_base
        assert base.downtime_minutes_per_year(rates.repair_hours) > 0.0

    def test_summary_fields_gated_on_fit(self, tiny_protected):
        topo = tiny_protected.topology
        plain = analyze_model(topo, "single_link", plan=tiny_protected.plan)
        rated = analyze_model(
            topo, "single_link", plan=tiny_protected.plan, rates=FitRates()
        )
        assert not plain.has_fit
        assert "expected_availability" not in plain.summary()
        assert rated.has_fit
        summary = rated.summary()
        assert 0.0 <= summary["expected_availability"] <= 1.0
        assert summary["downtime_min_year"] >= 0.0
        json.dumps(summary)

    def test_availability_rejects_bad_repair_window(self, tiny_protected):
        rep = analyze_model(
            tiny_protected.topology,
            "single_link",
            plan=tiny_protected.plan,
            rates=FitRates(),
        )
        with pytest.raises(SpecError):
            rep.expected_availability(repair_hours=0.0)


# ----------------------------------------------------------------------
# Objective integration
# ----------------------------------------------------------------------


class TestResilienceObjective:
    def test_registry(self):
        obj = make_objective("resilience", fault_model="single_link", spare_k=1)
        assert isinstance(obj, ResilienceObjective)
        with pytest.raises(SpecError):
            ResilienceObjective(fault_model="meteor")
        with pytest.raises(SpecError):
            ResilienceObjective(min_coverage=1.5)

    def test_cost_orders_overhead_after_base(self, d26_best):
        obj = ResilienceObjective()
        result = obj.evaluate(d26_best)
        assert result.feasible
        base = StaticPowerObjective().evaluate(d26_best)
        assert result.cost[: len(base.cost)] == base.cost
        assert len(result.cost) == len(base.cost) + 3
        assert result.metrics["coverage"] == 1.0
        assert result.metrics["spare_links"] > 0

    def test_selection_never_picks_uncovered_point(self, d26_space):
        obj = ResilienceObjective(min_coverage=1.0)
        best = d26_space.best(objective=obj)
        prot = protect_design_point(best, k=1)
        report = analyze_model(prot.topology, "single_link", plan=prot.plan)
        assert report.full_coverage

    def test_veto_on_unreachable_coverage(self, tiny_best):
        # A zero degraded-mode latency budget admits no spare, so
        # coverage falls short of the full coverage demanded and the
        # objective must veto rather than rank.
        obj = ResilienceObjective(
            spare_config=SparePathConfig(k=1, latency_stretch=0.0)
        )
        result = obj.evaluate(tiny_best)
        assert not result.feasible
        assert "coverage" in (result.reason or "")

    def test_composes_with_trace_and_qos(self, d26_best, d26_trace):
        composite = CompositeObjective(
            parts=(
                ResilienceObjective(),
                TraceEnergyObjective(trace=d26_trace),
            )
        )
        result = composite.evaluate(d26_best)
        assert result.feasible
        assert "resilience.coverage" in result.metrics
        assert "trace_energy.trace_mj" in result.metrics

        qos_base = WakeLatencyQoSObjective(trace=d26_trace, budget_ms=1e9)
        guarded = ResilienceObjective(base=qos_base)
        assert guarded.evaluate(d26_best).feasible

    def test_columns(self, d26_best):
        obj = ResilienceObjective()
        assert "coverage" in obj.column_names()
        cols = obj.columns(d26_best)
        assert cols["coverage"] == 1.0 and cols["spare_links"] > 0


# ----------------------------------------------------------------------
# Deadlock analysis under rerouted backup paths (arch/deadlock coverage)
# ----------------------------------------------------------------------


class TestDegradedDeadlock:
    """The turn-model/CDG guarantee must survive failover routing."""

    def test_every_switch_failure_routing_acyclic(self, d26_protected):
        prot = d26_protected
        for sc in enumerate_scenarios(prot.topology, "switch"):
            routes = degraded_routes(prot.topology, prot.plan, sc)
            assert is_deadlock_free(prot.topology, routes=routes), sc.name

    def test_double_link_routings_acyclic(self, tiny_best):
        prot = protect_design_point(tiny_best, k=2)
        for sc in enumerate_scenarios(prot.topology, "double_link"):
            routes = degraded_routes(prot.topology, prot.plan, sc)
            assert is_deadlock_free(prot.topology, routes=routes), sc.name

    def test_cdg_detects_cycle_in_alternative_route_set(self):
        """A hand-built failover routing with a wormhole cycle is caught
        by the ``routes=`` CDG check even though the healthy routing is
        clean — the negative case the degraded audit depends on."""
        from repro import DEFAULT_LIBRARY, CoreSpec, Topology, TrafficFlow, build_spec
        from repro.arch.routing import find_cdg_cycle
        from repro.arch.topology import Route

        cores = [
            CoreSpec("w", 1.0, 10.0, 2.0),
            CoreSpec("x", 1.0, 10.0, 2.0),
            CoreSpec("y", 1.0, 10.0, 2.0),
            CoreSpec("z", 1.0, 10.0, 2.0),
        ]
        flows = [
            TrafficFlow("w", "x", 50.0, 20.0),
            TrafficFlow("y", "z", 50.0, 20.0),
        ]
        spec = build_spec("cyclic_alt", cores, flows)
        topo = Topology(spec, DEFAULT_LIBRARY, {0: 200.0})
        a = topo.add_switch(0, 0)
        b = topo.add_switch(0, 1)
        topo.attach_core("w", a)
        topo.attach_core("x", a)
        topo.attach_core("y", b)
        topo.attach_core("z", b)
        ab = topo.open_link(a.id, b.id)
        ba = topo.open_link(b.id, a.id)
        link = lambda s, d: topo.link_between(s, d).id
        # Healthy routing: both flows stay on their own switch.
        topo.assign_route(
            spec.flow("w", "x"), [link("ni.w", a.id), link(a.id, "ni.x")]
        )
        topo.assign_route(
            spec.flow("y", "z"), [link("ni.y", b.id), link(b.id, "ni.z")]
        )
        assert is_deadlock_free(topo)
        # "Failover" routing: both flows detour through the other
        # switch, each holding one inter-switch link while requesting
        # the other — the textbook cycle, in an alternative route set.
        bad = {
            ("w", "x"): Route(
                flow=("w", "x"),
                components=("ni.w", a.id, b.id, a.id, "ni.x"),
                links=(link("ni.w", a.id), ab.id, ba.id, link(a.id, "ni.x")),
            ),
            ("y", "z"): Route(
                flow=("y", "z"),
                components=("ni.y", b.id, a.id, b.id, "ni.z"),
                links=(link("ni.y", b.id), ba.id, ab.id, link(b.id, "ni.z")),
            ),
        }
        assert find_cdg_cycle(topo, routes=bad) is not None
        assert not is_deadlock_free(topo, routes=bad)
        # The topology's own routing is still judged clean.
        assert is_deadlock_free(topo)


class TestBackupLatencyBudget:
    """A budget-violating spare is no spare (degraded-mode QoS)."""

    def _two_switch_topology(self):
        """w on switch A, z on switch B, detour switch C; direct route
        meets the flow's 3-cycle budget exactly, the only disjoint
        detour (A->C->B, parallel links forbidden) costs 5."""
        from repro import DEFAULT_LIBRARY, CoreSpec, Topology, TrafficFlow, build_spec

        cores = [
            CoreSpec("w", 1.0, 10.0, 2.0),
            CoreSpec("z", 1.0, 10.0, 2.0),
        ]
        flows = [TrafficFlow("w", "z", 50.0, 3.0)]
        spec = build_spec("latbudget", cores, flows)
        topo = Topology(spec, DEFAULT_LIBRARY, {0: 200.0})
        a = topo.add_switch(0, 0)
        b = topo.add_switch(0, 1)
        topo.add_switch(0, 2)  # the detour switch C
        topo.attach_core("w", a)
        topo.attach_core("z", b)
        ab = topo.open_link(a.id, b.id)
        link = lambda s, d: topo.link_between(s, d).id
        topo.assign_route(
            spec.flow("w", "z"), [link("ni.w", a.id), ab.id, link(b.id, "ni.z")]
        )
        return topo

    def test_budget_violating_detour_is_rejected(self):
        from repro.core.paths import PathCostConfig

        cfg = SparePathConfig(
            k=1, cost_config=PathCostConfig(allow_parallel_links=False)
        )
        plan = allocate_spare_paths(self._two_switch_topology(), config=cfg)
        # The only disjoint alternative misses the 3-cycle budget, so
        # the flow must stay unprotected rather than "covered" by a
        # route that breaks the same hard constraint synthesis enforces.
        assert plan.unprotected == (("w", "z"),)
        assert not plan.backups

    def test_latency_stretch_relaxes_the_budget(self):
        from repro.core.paths import PathCostConfig

        cfg = SparePathConfig(
            k=1,
            cost_config=PathCostConfig(allow_parallel_links=False),
            latency_stretch=2.0,
        )
        topo = self._two_switch_topology()
        plan = allocate_spare_paths(topo, config=cfg)
        assert not plan.unprotected
        (cycles,) = plan.backup_cycles[("w", "z")]
        assert cycles == 5  # the detour, now within 2x budget
        assert cycles <= 2.0 * 3.0

    def test_every_backup_meets_its_budget(self, d26_protected):
        prot = d26_protected
        spec = prot.topology.spec
        for key, cycles in prot.plan.backup_cycles.items():
            budget = spec.flow(*key).latency_cycles
            for c in cycles:
                assert c <= budget + 1e-9
