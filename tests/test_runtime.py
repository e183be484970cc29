"""Runtime shutdown simulator: traces, state machines, policies, energy.

Everything here is marked ``runtime`` (see ``pytest.ini``) so the
trace-driven suite can be deselected like the slow paper benches:
``pytest -m "not runtime"``.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SpecError, make_use_case, synthesize
from repro.runtime import (
    AlwaysOff,
    BreakEvenOracle,
    IdleTimeout,
    IslandEconomics,
    IslandState,
    IslandStateMachine,
    NeverGate,
    POLICY_NAMES,
    certified_policy_comparison,
    compare_policies,
    day_in_the_life_trace,
    default_policies,
    make_policy,
    markov_trace,
    policy_comparison_rows,
    scripted_trace,
    simulate_trace,
)

from repro.power.noc_power import compute_noc_power
from repro.runtime.simulate import _economics_from_idle

from _helpers import make_tiny_spec

pytestmark = pytest.mark.runtime


def island_economics(topology, model=None):
    """Each island's economics as :func:`simulate_trace` derives them."""
    return _economics_from_idle(topology, compute_noc_power(topology, active_flows=[]), model)


def dwell_ms(trace, use_case):
    """Total dwell of ``use_case`` over ``trace``."""
    return sum(seg.dwell_ms for seg in trace.segments if seg.use_case == use_case)


# ----------------------------------------------------------------------
# Shared scenario material for the tiny 2-island spec
# ----------------------------------------------------------------------


def tiny_cases(spec):
    """Modes that actually idle islands (the generic set never does)."""
    return [
        make_use_case("full", [c.name for c in spec.cores], 0.2),
        make_use_case("compute", ["cpu", "mem", "acc"], 0.5),  # island 1 idle
        make_use_case("io_only", ["io0", "io1", "per"], 0.3),  # island 0 idle
    ]


@pytest.fixture(scope="module")
def tiny_topology():
    spec = make_tiny_spec(2)
    return synthesize(spec).best_by_power().topology


@pytest.fixture(scope="module")
def tiny_trace(tiny_topology):
    cases = tiny_cases(tiny_topology.spec)
    return scripted_trace(
        cases,
        [
            ("full", 10.0),
            ("compute", 100.0),
            ("io_only", 0.0005),  # far below any break-even time
            ("compute", 50.0),
            ("io_only", 80.0),
            ("full", 5.0),
            ("compute", 200.0),
        ],
        name="tiny_script",
    )


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------


class TestTraces:
    def test_scripted_trace_totals(self, tiny_trace):
        assert tiny_trace.total_ms == pytest.approx(445.0005)
        assert len(tiny_trace.segments) == 7
        assert tiny_trace.num_transitions == 6
        assert dwell_ms(tiny_trace, "compute") == pytest.approx(350.0)

    def test_boundaries_cover_trace(self, tiny_trace):
        bounds = tiny_trace.boundaries()
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == pytest.approx(tiny_trace.total_ms)
        for (_, end_a, _), (start_b, _, _) in zip(bounds, bounds[1:]):
            assert end_a == pytest.approx(start_b)

    def test_unknown_use_case_rejected(self):
        spec = make_tiny_spec(2)
        cases = tiny_cases(spec)
        with pytest.raises(SpecError):
            scripted_trace(cases, [("nope", 10.0)])

    def test_nonpositive_dwell_rejected(self):
        spec = make_tiny_spec(2)
        cases = tiny_cases(spec)
        with pytest.raises(SpecError):
            scripted_trace(cases, [("full", 0.0)])

    def test_markov_trace_deterministic(self):
        cases = tiny_cases(make_tiny_spec(2))
        a = markov_trace(cases, n_segments=32, seed=9)
        b = markov_trace(cases, n_segments=32, seed=9)
        c = markov_trace(cases, n_segments=32, seed=10)
        assert a.segments == b.segments
        assert a.segments != c.segments

    @pytest.mark.parametrize("dwell", [{"mean_dwell_ms": math.nan}, {"min_dwell_ms": math.nan}])
    def test_markov_trace_nan_dwell_rejected(self, dwell):
        cases = tiny_cases(make_tiny_spec(2))
        with pytest.raises(SpecError, match="dwell"):
            markov_trace(cases, n_segments=8, **dwell)

    def test_markov_trace_infinite_mean_dwell_rejected(self):
        cases = tiny_cases(make_tiny_spec(2))
        with pytest.raises(SpecError, match="finite"):
            markov_trace(cases, n_segments=8, mean_dwell_ms=math.inf)

    def test_markov_trace_no_self_loops(self):
        cases = tiny_cases(make_tiny_spec(2))
        t = markov_trace(cases, n_segments=64, seed=1)
        for x, y in zip(t.segments, t.segments[1:]):
            assert x.use_case != y.use_case

    def test_day_in_the_life_matches_fractions(self):
        cases = tiny_cases(make_tiny_spec(2))
        t = day_in_the_life_trace(cases, total_ms=1000.0, rounds=2)
        assert dwell_ms(t, "compute") == pytest.approx(500.0)
        assert dwell_ms(t, "io_only") == pytest.approx(300.0)
        assert t.total_ms == pytest.approx(1000.0)


# ----------------------------------------------------------------------
# State machines
# ----------------------------------------------------------------------


class TestStateMachine:
    def test_gate_and_wake_cycle(self):
        m = IslandStateMachine(0, wakeup_latency_ms=2.0)
        m.gate_off(10.0)
        ready = m.request_wake(20.0)
        assert ready == pytest.approx(22.0)
        m.finalize(30.0)
        times = m.time_in()
        assert times[IslandState.ON] == pytest.approx(18.0)
        assert times[IslandState.OFF] == pytest.approx(10.0)
        assert times[IslandState.WAKING] == pytest.approx(2.0)
        assert m.gate_events == 1 and m.wake_events == 1
        assert m.state_at(5.0) is IslandState.ON
        assert m.state_at(15.0) is IslandState.OFF
        assert m.state_at(21.0) is IslandState.WAKING
        assert m.state_at(25.0) is IslandState.ON

    def test_wake_on_powered_island_is_noop(self):
        m = IslandStateMachine(0, wakeup_latency_ms=2.0)
        assert m.request_wake(5.0) == 5.0
        assert m.wake_events == 0

    def test_gate_while_off_rejected(self):
        m = IslandStateMachine(0, wakeup_latency_ms=1.0)
        m.gate_off(1.0)
        with pytest.raises(SpecError):
            m.gate_off(2.0)

    def test_time_moving_backwards_rejected(self):
        m = IslandStateMachine(0, wakeup_latency_ms=1.0)
        m.gate_off(5.0)
        with pytest.raises(SpecError):
            m.request_wake(3.0)

    def test_overlap_queries(self):
        m = IslandStateMachine(0, wakeup_latency_ms=4.0)
        m.gate_off(10.0)
        m.request_wake(20.0)
        m.finalize(40.0)
        assert m.off_overlap_ms(0.0, 15.0) == pytest.approx(5.0)
        assert m.off_overlap_ms(25.0, 40.0) == 0.0
        assert m.waking_overlap_ms(19.0, 23.0) == pytest.approx(3.0)


def _scanned_overlap_ms(timeline, start_ms, end_ms, state):
    """The overlap as a scan of the whole timeline adds it up."""
    total = 0.0
    for iv in timeline:
        if iv.state is not state:
            continue
        lo = max(iv.start_ms, start_ms)
        hi = min(iv.end_ms, end_ms)
        if hi > lo:
            total += hi - lo
    return total


def _window_queries(machine):
    return {
        IslandState.OFF: machine.off_overlap_ms,
        IslandState.WAKING: machine.waking_overlap_ms,
    }


def _scanned_state_at(timeline, t_ms):
    """``state_at`` from a start list built afresh for the query."""
    i = bisect_right([iv.start_ms for iv in timeline], t_ms) - 1
    return timeline[0].state if i < 0 else timeline[min(i, len(timeline) - 1)].state


@st.composite
def finalized_machines(draw):
    """A machine driven through random gates and wakes, some of them a
    step back within the 1e-9 ms that transitions tolerate (which makes
    intervals overlap), finalized before or after its last transition."""
    machine = IslandStateMachine(
        0, wakeup_latency_ms=draw(st.sampled_from([0.0, 1e-10, 0.5, 2.0]))
    )
    now = 0.0
    steps = st.tuples(st.floats(min_value=0.0, max_value=10.0), st.booleans())
    for gap, step_back in draw(st.lists(steps, max_size=24)):
        t = now - 5e-10 if step_back else now + gap
        if machine.state is IslandState.ON:
            machine.gate_off(t)
        else:
            now = max(now, machine.request_wake(t))
        now = max(now, t)
    machine.finalize(draw(st.floats(min_value=1e-6, max_value=now + 10.0)))
    return machine


class TestTimelineQueries:
    """Window queries bisect the finalized timeline and give the scan's
    floats exactly."""

    @given(machine=finalized_machines(), data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_queries_equal_the_scan(self, machine, data):
        timeline = machine.timeline
        bounds = [iv.start_ms for iv in timeline] + [iv.end_ms for iv in timeline]
        end = timeline[-1].end_ms
        points = st.sampled_from(bounds) | st.floats(min_value=-1.0, max_value=end + 1.0)
        for start_ms, end_ms in data.draw(st.lists(st.tuples(points, points), max_size=12)):
            for state, query in _window_queries(machine).items():
                assert query(start_ms, end_ms) == _scanned_overlap_ms(
                    timeline, start_ms, end_ms, state
                )
            assert machine.state_at(start_ms) is _scanned_state_at(timeline, start_ms)

    def test_overlapping_intervals_are_scanned(self):
        """A gate a step before the wake's ready time leaves the WAKING
        interval ending past the OFF one's start."""
        machine = IslandStateMachine(0, wakeup_latency_ms=2.0)
        machine.gate_off(1.0)
        ready = machine.request_wake(3.0)
        machine.gate_off(ready - 5e-10)
        machine.finalize(9.0)
        timeline = machine.timeline
        assert timeline[-2].end_ms > timeline[-1].start_ms
        for start_ms, end_ms in [(4.9999999, 6.0), (ready - 4e-10, 9.0), (0.0, 9.0)]:
            for state, query in _window_queries(machine).items():
                assert query(start_ms, end_ms) == _scanned_overlap_ms(
                    timeline, start_ms, end_ms, state
                )
        assert machine.waking_overlap_ms(ready - 4e-10, 9.0) > 0.0


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


def _econ(on=10.0, off=1.0, event_nj=18.0, latency=0.01):
    return IslandEconomics(
        island=0,
        on_static_mw=on,
        off_static_mw=off,
        event_energy_nj=event_nj,
        wakeup_latency_ms=latency,
    )


class TestPolicies:
    def test_break_even_ms(self):
        econ = _econ(on=10.0, off=1.0, event_nj=18.0)
        # 18 nJ / 9 mW = 2 µs = 0.002 ms
        assert econ.break_even_ms == pytest.approx(0.002)
        assert _econ(on=1.0, off=1.0).break_even_ms == math.inf

    def test_policy_decisions(self):
        econ = _econ()
        be = econ.break_even_ms
        assert NeverGate().gate_time(0.0, 100.0, econ) is None
        assert AlwaysOff().gate_time(5.0, 100.0, econ) == 5.0
        assert IdleTimeout(2.0).gate_time(5.0, 100.0, econ) == 7.0
        assert IdleTimeout(200.0).gate_time(5.0, 100.0, econ) is None
        assert BreakEvenOracle().gate_time(0.0, be * 2, econ) == 0.0
        assert BreakEvenOracle().gate_time(0.0, be * 0.5, econ) is None

    def test_make_policy_names(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name
        assert make_policy("break-even").name == "break_even"
        assert make_policy("idle_timeout", timeout_ms=3.0).timeout_ms == 3.0
        with pytest.raises(SpecError):
            make_policy("yolo")

    def test_default_policies_order(self):
        assert tuple(p.name for p in default_policies()) == POLICY_NAMES

    def test_economics_pays_off_matches_break_even(self):
        econ = _econ()
        be = econ.break_even_ms
        assert econ.gating_pays_off(be * 2)
        assert not econ.gating_pays_off(be * 0.5)
        assert econ.gate_net_gain_uj(be * 2) > 0
        assert econ.gate_net_gain_uj(be * 0.5) < 0
        # At exactly break-even the net gain is zero and gating is moot.
        assert econ.gate_net_gain_uj(be) == pytest.approx(0.0)


class TestEwmaPredictor:
    """The causal history-based policy (ISSUE-4 satellite)."""

    def test_first_interval_never_gates(self):
        econ = _econ()
        policy = make_policy("ewma_predictor")
        assert policy.gate_time(0.0, 1000.0, econ) is None

    def test_learns_from_long_idle_history(self):
        econ = _econ()
        be = econ.break_even_ms
        policy = make_policy("ewma_predictor")
        policy.gate_time(0.0, be * 10, econ)  # history: one long idle
        assert policy.gate_time(20.0, 20.0 + be * 10, econ) == 20.0

    def test_short_idle_history_suppresses_gating(self):
        econ = _econ()
        be = econ.break_even_ms
        policy = make_policy("ewma_predictor")
        policy.gate_time(0.0, be * 0.1, econ)
        assert policy.gate_time(1.0, 1.0 + be * 10, econ) is None

    def test_decision_is_causal(self):
        """The decision for interval i ignores interval i's own length:
        identical histories yield identical decisions whatever comes."""
        econ = _econ()
        be = econ.break_even_ms
        a = make_policy("ewma_predictor")
        b = make_policy("ewma_predictor")
        a.gate_time(0.0, be * 10, econ)
        b.gate_time(0.0, be * 10, econ)
        assert a.gate_time(20.0, 20.0 + be * 100, econ) == b.gate_time(
            20.0, 20.0 + be * 0.01, econ
        )

    def test_state_is_per_island(self):
        econ0 = _econ()
        econ1 = IslandEconomics(
            island=1,
            on_static_mw=10.0,
            off_static_mw=1.0,
            event_energy_nj=18.0,
            wakeup_latency_ms=0.01,
        )
        be = econ0.break_even_ms
        policy = make_policy("ewma_predictor")
        policy.gate_time(0.0, be * 10, econ0)  # island 0 history only
        assert policy.gate_time(20.0, 20.0 + be * 10, econ1) is None

    def test_reset_clears_history(self):
        econ = _econ()
        be = econ.break_even_ms
        policy = make_policy("ewma_predictor")
        policy.gate_time(0.0, be * 10, econ)
        policy.reset()
        assert policy.gate_time(20.0, 20.0 + be * 10, econ) is None

    def test_ewma_smoothing(self):
        econ = _econ()
        policy = make_policy("ewma_predictor", alpha=0.5)
        policy.gate_time(0.0, 8.0, econ)  # ewma = 8
        policy.gate_time(10.0, 14.0, econ)  # ewma = 0.5*4 + 0.5*8 = 6
        assert policy._ewma[econ.island] == pytest.approx(6.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(SpecError):
            make_policy("ewma_predictor", alpha=0.0)
        with pytest.raises(SpecError):
            make_policy("ewma_predictor", alpha=1.5)

    def test_oracle_dominates_ewma_on_trace(self, tiny_topology, tiny_trace):
        reports = compare_policies(tiny_topology, tiny_trace)
        assert (
            reports["break_even"].total_mj
            <= reports["ewma_predictor"].total_mj + 1e-9
        )

    def test_simulation_resets_between_replays(self, tiny_topology, tiny_trace):
        """One policy instance replayed twice gives identical energy."""
        policy = make_policy("ewma_predictor")
        first = simulate_trace(tiny_topology, tiny_trace, policy)
        second = simulate_trace(tiny_topology, tiny_trace, policy)
        assert first.total_mj == pytest.approx(second.total_mj)


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------


class TestSimulate:
    def test_never_policy_matches_manual_integration(self, tiny_topology, tiny_trace):
        report = simulate_trace(tiny_topology, tiny_trace, NeverGate())
        econ = island_economics(tiny_topology)
        # With no gating every island draws on-power the whole trace.
        expected_static = sum(e.on_static_mw for e in econ.values()) * report.total_ms
        assert report.islands_on_mj == pytest.approx(expected_static * 1e-3)
        assert report.islands_off_mj == 0.0
        assert report.wake_energy_mj == 0.0
        assert report.gate_events == 0
        assert report.stalled_ms == 0.0
        assert report.routable

    def test_break_even_dominates(self, tiny_topology, tiny_trace):
        reports = compare_policies(tiny_topology, tiny_trace)
        be = reports["break_even"]
        assert be.total_mj <= reports["never"].total_mj + 1e-9
        assert be.total_mj <= reports["always_off"].total_mj + 1e-9
        assert be.total_mj <= reports["idle_timeout"].total_mj + 1e-9
        # The trace's long idle stretches make gating strictly win.
        assert be.total_mj < reports["never"].total_mj

    def test_always_off_pays_for_short_blip(self, tiny_topology, tiny_trace):
        reports = compare_policies(tiny_topology, tiny_trace)
        # The 0.5 µs io_only blip idles island 0 for far less than its
        # break-even time: the oracle skips that cycle, always_off pays.
        assert reports["always_off"].gate_events > reports["break_even"].gate_events

    def test_policy_independent_terms_are_identical(self, tiny_topology, tiny_trace):
        reports = compare_policies(tiny_topology, tiny_trace)
        base = reports["never"]
        for r in reports.values():
            assert r.core_dynamic_mj == pytest.approx(base.core_dynamic_mj)
            assert r.noc_traffic_mj == pytest.approx(base.noc_traffic_mj)
            assert r.always_on_mj == pytest.approx(base.always_on_mj)

    def test_synthesized_topology_has_zero_violations(self, tiny_topology, tiny_trace):
        for name, report in compare_policies(tiny_topology, tiny_trace).items():
            assert report.routable, name

    def test_energy_balance(self, tiny_topology, tiny_trace):
        r = simulate_trace(tiny_topology, tiny_trace, AlwaysOff())
        parts = (
            r.core_dynamic_mj
            + r.noc_traffic_mj
            + r.islands_on_mj
            + r.islands_off_mj
            + r.always_on_mj
            + r.wake_energy_mj
        )
        assert r.total_mj == pytest.approx(parts)
        # Per-island ON+OFF+WAKING time covers the whole trace.
        for ir in r.per_island.values():
            assert ir.on_ms + ir.off_ms + ir.waking_ms == pytest.approx(r.total_ms)

    def test_wake_latency_counts_as_stall(self, tiny_topology, tiny_trace):
        r = simulate_trace(tiny_topology, tiny_trace, AlwaysOff())
        assert r.wake_events > 0
        assert r.stalled_ms > 0.0
        assert r.stalled_flows > 0

    def test_pinned_islands_never_gate(self, tiny_topology, tiny_trace):
        r = simulate_trace(
            tiny_topology, tiny_trace, AlwaysOff(), pinned_islands=[0, 1]
        )
        assert r.gate_events == 0
        assert r.total_mj == pytest.approx(
            simulate_trace(tiny_topology, tiny_trace, NeverGate()).total_mj
        )

    def test_wake_spill_does_not_trick_the_oracle(self, tiny_topology):
        """A wake ramp spilling into the next idle interval shrinks the
        OFF window the oracle can actually own; it must judge that
        effective window, not the nominal interval length."""
        from repro.power.gating import GatingModel

        model = GatingModel(
            rail_cycle_energy_nj_per_mm2=18000.0, wakeup_fixed_us=2000.0
        )
        econ = island_economics(tiny_topology, model)[0]
        lat, be = econ.wakeup_latency_ms, econ.break_even_ms
        assert 0.8 * lat > 0.9 * be  # the spill dominates the window
        # First idle barely clears break-even (tiny profit); the second
        # looks generous (0.8*lat + 0.1*be) but 0.8*lat of it is wake
        # ramp, so the owned OFF window is only 0.1*be — gating there
        # loses ~0.9 event energies, far more than the first interval's
        # ~0.05 profit.  A naive oracle judging nominal interval
        # lengths ends up *above* never on this trace.
        trace = scripted_trace(
            tiny_cases(tiny_topology.spec),
            [
                ("io_only", 1.05 * be),  # idle: gating barely pays
                ("compute", 0.2 * lat),  # needed; wake spills 0.8*lat
                ("io_only", 0.8 * lat + 0.1 * be),  # owned window 0.1*be
                ("compute", 5 * be + lat),
            ],
            name="wake_spill",
        )
        reports = {
            name: simulate_trace(
                tiny_topology,
                trace,
                make_policy(name),
                model=model,
                pinned_islands=[1],  # isolate island 0's decisions
            )
            for name in ("never", "always_off", "break_even")
        }
        be_rep = reports["break_even"]
        assert be_rep.total_mj <= reports["never"].total_mj + 1e-9
        assert be_rep.total_mj <= reports["always_off"].total_mj + 1e-9

    def test_wake_spilling_past_trace_end(self, tiny_topology):
        """A wake requested just before the trace ends must clip, not crash."""
        from repro.power.gating import GatingModel

        model = GatingModel(wakeup_fixed_us=2000.0)  # ~2 ms ramp
        cases = tiny_cases(tiny_topology.spec)
        trace = scripted_trace(
            cases,
            [("io_only", 50.0), ("compute", 0.001)],  # final dwell << ramp
            name="spill_end",
        )
        r = simulate_trace(tiny_topology, trace, AlwaysOff(), model=model)
        assert r.total_ms == pytest.approx(50.001)
        for ir in r.per_island.values():
            assert ir.on_ms + ir.off_ms + ir.waking_ms == pytest.approx(r.total_ms)
        # Island 0's wake started but could not finish inside the trace.
        assert r.per_island[0].waking_ms == pytest.approx(0.001)
        assert r.stalled_ms == pytest.approx(0.001)

    def test_certified_equals_plain_on_vi_aware(self, tiny_topology, tiny_trace):
        plain = compare_policies(tiny_topology, tiny_trace)
        certified = certified_policy_comparison(tiny_topology, tiny_trace)
        for name in plain:
            assert certified[name].total_mj == pytest.approx(plain[name].total_mj)

    def test_comparison_rows_have_savings(self, tiny_topology, tiny_trace):
        reports = compare_policies(tiny_topology, tiny_trace)
        rows = policy_comparison_rows(list(reports.values()))
        assert [r["policy"] for r in rows][: len(POLICY_NAMES)]
        assert all("savings" in r for r in rows)


# ----------------------------------------------------------------------
# Routability violations (the dynamic safety check)
# ----------------------------------------------------------------------


class TestViolations:
    def test_oblivious_crossing_flow_loses_path(self):
        """A flow routed through a third island breaks when that island gates."""
        from repro import SynthesisConfig
        from repro.baseline.flat import synthesize_vi_oblivious

        spec = make_tiny_spec(3)
        oblivious = synthesize_vi_oblivious(spec, config=SynthesisConfig())
        topo = oblivious.topology
        crossing = None
        for key in sorted(topo.routes):
            extra = topo.islands_touched(key) - {
                spec.island_of(key[0]),
                spec.island_of(key[1]),
                -1,
            }
            if extra:
                crossing = (key, extra)
                break
        if crossing is None:
            pytest.skip("oblivious tiny baseline crossed no third island")
        (src, dst), extra = crossing
        case = make_use_case("pair", [src, dst], 1.0)
        trace = scripted_trace([case], [("pair", 50.0)])
        report = simulate_trace(topo, trace, AlwaysOff())
        assert not report.routable
        assert {v.island for v in report.violations} <= extra
        assert all(v.flow == (src, dst) for v in report.violations)
        # The certified controller pins those islands instead.
        certified = certified_policy_comparison(topo, trace)
        assert certified["always_off"].routable

    def test_hand_routed_third_island_crossing_is_flagged(self):
        """Deterministic violation: a route threaded through island 1.

        Builds a 3-island chain topology by hand (sw0 - sw1 - sw2) and
        routes ``cpu -> io0`` through island 1's switch — exactly the
        shape VI-aware synthesis forbids.  With only cpu and io0
        active, island 1 idles, ``always_off`` gates it, and the
        simulator must flag the flow.
        """
        from repro import DEFAULT_LIBRARY, Topology

        spec = make_tiny_spec(3)  # 0:{cpu,mem} 1:{acc} 2:{io0,io1,per}
        topo = Topology(spec, DEFAULT_LIBRARY, {0: 400.0, 1: 400.0, 2: 400.0})
        switches = {i: topo.add_switch(i, 0) for i in (0, 1, 2)}
        for core in spec.core_names:
            topo.attach_core(core, switches[spec.island_of(core)])
        l01 = topo.open_link("sw0.0", "sw1.0")
        l12 = topo.open_link("sw1.0", "sw2.0")
        ni_out = topo.link_between("ni.cpu", "sw0.0")
        ni_in = topo.link_between("sw2.0", "ni.io0")
        topo.assign_route(
            spec.flow("cpu", "io0"), [ni_out.id, l01.id, l12.id, ni_in.id]
        )
        case = make_use_case("pair", ["cpu", "io0"], 1.0)
        trace = scripted_trace([case], [("pair", 50.0)])
        report = simulate_trace(topo, trace, AlwaysOff())
        assert not report.routable
        assert {v.island for v in report.violations} == {1}
        assert report.violations[0].flow == ("cpu", "io0")
        # never-gate keeps the path alive; the certified controller
        # pins island 1 instead of gating it.
        assert simulate_trace(topo, trace, NeverGate()).routable
        assert certified_policy_comparison(topo, trace)["always_off"].routable

    def test_violation_description(self, tiny_topology, tiny_trace):
        from repro.runtime import RoutabilityViolation

        v = RoutabilityViolation(3, "audio", ("a", "b"), 2)
        text = v.describe()
        assert "audio" in text and "a->b" in text and "island 2" in text
