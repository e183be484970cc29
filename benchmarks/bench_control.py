"""Control-plane bench: closed-loop recovery on the paper benchmarks.

Pins the serving-system story of the reconfiguration controller on
d26 (and the restore path end to end):

* every live single-link scenario on the k=1 protected design is
  detected, failed over, and restored within the modeled latencies —
  zero routability violations, zero lost flows, and a deadlock-free
  installed routing at every stage;
* the recovery-time distribution is tight (all failovers within the
  detection + install budget of the latency model) and recorded under
  ``benchmarks/results/control_recovery.txt``;
* the full recovery timeline + telemetry stream is byte-identical
  across reruns with a fresh controller;
* FIT-rate availability: the spare plan the controller leans on takes
  the expected flow availability to 1.0 under single-link faults.
"""

from __future__ import annotations

import json

import pytest

from repro import synthesize
from repro.control import ControlLatencyModel, ReconfigurationController
from repro.io.json_io import control_summary
from repro.io.report import format_table
from repro.resilience import (
    FaultEvent,
    FitRates,
    analyze_model,
    enumerate_scenarios,
    protect_design_point,
    route_affected,
)
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.benchmarks import load_benchmark
from repro.soc.partitioning import logical_partitioning
from repro.soc.usecases import use_cases_for

from _bench_utils import BENCH_CONFIG, write_result

pytestmark = pytest.mark.control

ISLANDS = 6


@pytest.fixture(scope="module")
def d26_setup():
    spec = logical_partitioning(load_benchmark("d26_media"), ISLANDS)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    best = synthesize(spec, config=BENCH_CONFIG).best_by_power()
    prot = protect_design_point(best, k=1)
    trace = markov_trace(use_cases_for(spec), n_segments=48, seed=11)
    return best, prot, trace


def _live_scenarios(topology):
    return [
        sc
        for sc in enumerate_scenarios(topology, "single_link")
        if any(route_affected(sc, topology, r) for r in topology.routes.values())
    ]


def _replay(prot, trace, scenario, controller):
    event = FaultEvent(
        scenario=scenario,
        start_ms=0.25 * trace.total_ms,
        end_ms=0.6 * trace.total_ms,
    )
    return simulate_trace(
        prot.topology,
        trace,
        make_policy("break_even"),
        fault_events=[event],
        spare_plan=prot.plan,
        controller=controller,
    )


def test_every_live_fault_recovers_d26(d26_setup):
    """The acceptance pin: detect -> fail over -> restore, every time."""
    _, prot, trace = d26_setup
    lat = ControlLatencyModel()
    controller = ReconfigurationController(
        prot.topology, spare_plan=prot.plan, latency=lat
    )
    live = _live_scenarios(prot.topology)
    assert live
    recoveries = []
    for sc in live:
        report = _replay(prot, trace, sc, controller)
        assert report.routable, sc.name
        assert report.controlled
        assert report.recoveries_deadlock_free, sc.name
        (rec,) = report.recoveries
        # Full k=1 coverage: no flow is ever lost, and the failover
        # fits the modeled detection + install budget.
        assert rec.lost_flows == 0, sc.name
        assert rec.failover_ms <= lat.recovery_ms(sc, rec.recovered_flows) + 1e-9
        assert rec.repaired and rec.restored_ms > rec.repaired_ms
        recoveries.append(rec)
    ordered = sorted(r.failover_ms for r in recoveries)
    rows = [
        {
            "benchmark": "d26_media",
            "live_scenarios": len(live),
            "recovery_p50_ms": round(ordered[len(ordered) // 2], 6),
            "recovery_max_ms": round(ordered[-1], 6),
            "migrated_flows_max": max(r.recovered_flows for r in recoveries),
            "lost_flows": sum(r.lost_flows for r in recoveries),
        }
    ]
    table = format_table(
        rows,
        title="closed-loop single-link recovery on d26_media @ %d islands"
        % ISLANDS,
    )
    print()
    print(table, end="")
    write_result("control_recovery", table, rows)


def test_recovery_timeline_is_byte_identical(d26_setup):
    _, prot, trace = d26_setup
    sc = _live_scenarios(prot.topology)[0]
    dumps = []
    for _ in range(2):
        controller = ReconfigurationController(
            prot.topology, spare_plan=prot.plan
        )
        report = _replay(prot, trace, sc, controller)
        dumps.append(json.dumps(control_summary(report), sort_keys=True))
    assert dumps[0] == dumps[1]


def test_fit_availability_reaches_one(d26_setup):
    """What the loop defends, in numbers: protection closes the
    single-link unavailability entirely."""
    best, prot, _ = d26_setup
    rates = FitRates()
    base = analyze_model(best.topology, "single_link", rates=rates)
    rep = analyze_model(
        prot.topology, "single_link", plan=prot.plan, rates=rates
    )
    a_base = base.expected_availability(rates.repair_hours)
    a_prot = rep.expected_availability(rates.repair_hours)
    assert a_base < 1.0
    assert a_prot == pytest.approx(1.0)
    rows = [
        {
            "benchmark": "d26_media",
            "unprotected_availability": round(a_base, 9),
            "protected_availability": round(a_prot, 9),
            "unprotected_downtime_min_year": round(
                base.downtime_minutes_per_year(rates.repair_hours), 4
            ),
            "protected_downtime_min_year": round(
                rep.downtime_minutes_per_year(rates.repair_hours), 4
            ),
        }
    ]
    table = format_table(rows, title="FIT-weighted expected availability")
    print()
    print(table, end="")
    write_result("control_availability", table, rows)
