"""Simulation stack: events, zero-load latency, flit simulator, scenarios."""

import pytest

from repro import SpecError, make_use_case, validate_scenario_set
from repro.soc.usecases import use_cases_for
from repro.sim.events import EventQueue, run_until
from repro.sim.flit_sim import FlitSimConfig, simulate, zero_load_latency_ns
from repro.sim.zero_load import route_latency_cycles


class TestEventQueue:
    def test_fifo_order_for_ties(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.push(1.0, "b")
        assert q.pop() == (1.0, "a")
        assert q.pop() == (1.0, "b")

    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, "late")
        q.push(1.0, "early")
        assert q.pop()[1] == "early"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_run_until_horizon(self):
        q = EventQueue()
        seen = []
        for t in (1.0, 2.0, 3.0, 10.0):
            q.push(t, t)
        n = run_until(q, lambda t, p: seen.append(p), 5.0)
        assert n == 3
        assert seen == [1.0, 2.0, 3.0]
        assert len(q) == 1  # the t=10 event remains

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(2.0, "x")
        assert q.peek_time() == 2.0


class TestZeroLoad:
    def test_intra_switch_flow_is_one_cycle(self, tiny_best):
        topo = tiny_best.topology
        for flow in topo.spec.flows:
            route = topo.routes[flow.key]
            if route.num_switches == 1:
                assert route_latency_cycles(topo, flow.key) == 1

    def test_cross_island_at_least_six_cycles(self, tiny_best, tiny_spec):
        topo = tiny_best.topology
        for flow in tiny_spec.flows_across_islands():
            assert route_latency_cycles(topo, flow.key) >= 6

    def test_report_consistent(self, tiny_best, tiny_spec):
        rep = tiny_best.latency
        assert len(rep.per_flow) == len(tiny_spec.flows)
        assert rep.max_cycles == max(rep.per_flow.values())
        assert rep.average_cycles == pytest.approx(
            sum(rep.per_flow.values()) / len(rep.per_flow)
        )

    def test_bw_weighted_average_defined(self, tiny_best):
        rep = tiny_best.latency
        assert rep.bw_weighted_average_cycles > 0

    def test_unrouted_flow_raises(self, tiny_best):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            route_latency_cycles(tiny_best.topology, ("ghost", "flow"))


class TestFlitSim:
    def test_single_packet_matches_analytic_exactly(self, tiny_best):
        rep = simulate(
            tiny_best.topology,
            FlitSimConfig(single_packet=True, warmup_ns=0.0, sim_time_ns=1000.0),
        )
        assert rep.packets_delivered == len(tiny_best.topology.routes)
        assert rep.worst_relative_error() < 1e-9

    def test_low_load_close_to_analytic(self, tiny_best):
        rep = simulate(
            tiny_best.topology,
            FlitSimConfig(
                load_factor=0.05,
                sim_time_ns=150_000.0,
                warmup_ns=10_000.0,
                arrival_process="poisson",
                seed=4,
            ),
        )
        assert rep.packets_delivered > 100
        assert rep.worst_relative_error() < 0.30

    def test_contention_raises_latency(self, tiny_best):
        low = simulate(
            tiny_best.topology,
            FlitSimConfig(load_factor=0.05, sim_time_ns=80_000.0, warmup_ns=8_000.0),
        )
        high = simulate(
            tiny_best.topology,
            FlitSimConfig(load_factor=1.0, sim_time_ns=80_000.0, warmup_ns=8_000.0),
        )
        assert high.mean_latency_ns > low.mean_latency_ns * 0.9

    def test_deterministic_given_seed(self, tiny_best):
        cfg = FlitSimConfig(load_factor=0.3, sim_time_ns=40_000.0, seed=7)
        a = simulate(tiny_best.topology, cfg)
        b = simulate(tiny_best.topology, cfg)
        assert a.mean_latency_ns == b.mean_latency_ns
        assert a.packets_delivered == b.packets_delivered

    def test_zero_load_ns_positive(self, tiny_best):
        for key in tiny_best.topology.routes:
            assert zero_load_latency_ns(tiny_best.topology, key) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlitSimConfig(packet_size_flits=0)
        with pytest.raises(ValueError):
            FlitSimConfig(load_factor=0.0)
        with pytest.raises(ValueError):
            FlitSimConfig(sim_time_ns=10.0, warmup_ns=20.0)
        with pytest.raises(ValueError):
            FlitSimConfig(arrival_process="bursty")


class TestUseCases:
    def test_idle_islands(self, tiny_spec):
        case = make_use_case("compute", ["cpu", "mem", "acc"])
        assert case.idle_islands(tiny_spec) == [1]

    def test_active_flows_need_both_endpoints(self, tiny_spec):
        case = make_use_case("compute", ["cpu", "mem", "acc"])
        keys = {f.key for f in case.active_flows(tiny_spec)}
        assert ("cpu", "mem") in keys
        assert ("cpu", "io0") not in keys  # io0 inactive

    def test_validation_against_spec(self, tiny_spec):
        case = make_use_case("bad", ["ghost"])
        with pytest.raises(SpecError):
            case.validate_against(tiny_spec)

    def test_empty_use_case_rejected(self):
        with pytest.raises(SpecError):
            make_use_case("empty", [])

    def test_time_fraction_bounds(self):
        with pytest.raises(SpecError):
            make_use_case("x", ["a"], time_fraction=0.0)
        with pytest.raises(SpecError):
            make_use_case("x", ["a"], time_fraction=1.5)


class TestScenarioSetValidation:
    def test_fractions_must_sum_to_at_most_one(self):
        cases = [
            make_use_case("a", ["x"], 0.6),
            make_use_case("b", ["x"], 0.6),
        ]
        with pytest.raises(SpecError, match="sum to"):
            validate_scenario_set(cases)

    def test_exact_one_and_thirds_tolerated(self):
        validate_scenario_set(
            [
                make_use_case("a", ["x"], 0.5),
                make_use_case("b", ["x"], 0.5),
            ]
        )
        validate_scenario_set(
            [make_use_case(n, ["x"], 1.0 / 3.0) for n in ("a", "b", "c")]
        )

    def test_partial_coverage_allowed(self):
        validate_scenario_set([make_use_case("a", ["x"], 0.4)])

    def test_duplicate_names_rejected(self):
        cases = [
            make_use_case("a", ["x"], 0.2),
            make_use_case("a", ["y"], 0.2),
        ]
        with pytest.raises(SpecError, match="duplicate"):
            validate_scenario_set(cases)

    def test_empty_set_rejected(self):
        with pytest.raises(SpecError):
            validate_scenario_set([])

    def test_builtin_sets_validate(self, d26_log6):
        # The curated registry path runs the validator on every lookup.
        cases = use_cases_for(d26_log6)
        assert sum(u.time_fraction for u in cases) <= 1.0 + 1e-9
