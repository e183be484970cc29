"""Closed-loop fault recovery: detect, fail over, restore — live.

The resilience example (``fault_tolerant_soc.py``) shows the *planning*
side: spare routes exist and coverage is complete.  This example shows
the *runtime* side (``repro.control``, see docs/control_plane.md): an
in-simulation reconfiguration controller that only learns about a fault
through a modeled telemetry channel, decides per affected flow (spare /
recomputed reroute / lost), installs the new routing with a modeled
install delay, and restores primaries once the component is repaired —
re-auditing deadlock freedom at every installation.

1. synthesize d26 @ 6 islands, protect with k=1 spare routes;
2. inject a single-link failure into a Markov trace and let the
   controller run the failed -> detected -> rerouted -> repaired ->
   restored staged repair;
3. print the per-fault recovery timeline and the telemetry stream;
4. annotate the same scenarios with FIT rates and report the expected
   availability the control loop defends.

Run:  PYTHONPATH=src python examples/control_plane.py
"""

from repro import (
    FaultEvent,
    SynthesisConfig,
    analyze_model,
    mobile_soc_26,
    protect_design_point,
    synthesize,
)
from repro.control import ControlLatencyModel, ReconfigurationController, recovery_rows
from repro.io.report import format_table
from repro.resilience import FitRates, enumerate_scenarios, route_affected
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.partitioning import logical_partitioning
from repro.soc.usecases import use_cases_for


def main() -> None:
    spec = logical_partitioning(mobile_soc_26(), 6)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    best = synthesize(spec, config=SynthesisConfig()).best_by_power()
    prot = protect_design_point(best, k=1)
    topology = prot.topology

    # A fault that actually hits a primary route, injected mid-trace.
    trace = markov_trace(use_cases_for(spec), n_segments=64, seed=11)
    scenario = next(
        sc
        for sc in enumerate_scenarios(topology, "single_link")
        if any(route_affected(sc, topology, r) for r in topology.routes.values())
    )
    event = FaultEvent(
        scenario=scenario,
        start_ms=0.25 * trace.total_ms,
        end_ms=0.6 * trace.total_ms,
    )

    controller = ReconfigurationController(
        topology, spare_plan=prot.plan, latency=ControlLatencyModel()
    )
    report = simulate_trace(
        topology,
        trace,
        make_policy("break_even"),
        fault_events=[event],
        spare_plan=prot.plan,
        controller=controller,
    )

    print(
        format_table(
            recovery_rows(report.recoveries),
            title="staged recovery of %s (%.0f ms trace)"
            % (scenario.name, trace.total_ms),
        )
    )
    for ev in report.telemetry:
        print(ev.describe())
    print(
        "\nworst recovery %.4f ms, lost traffic %.3f Mbit, "
        "degraded-mode energy %+.6f mJ, deadlock-free installs: %s"
        % (
            report.worst_recovery_ms,
            report.lost_traffic_mbits,
            report.fault_delta_mj,
            report.recoveries_deadlock_free,
        )
    )

    # What the loop is defending, in availability terms.
    rates = FitRates()
    base = analyze_model(best.topology, "single_link", rates=rates)
    rep = analyze_model(topology, "single_link", plan=prot.plan, rates=rates)
    print(
        "expected availability: %.9f unprotected -> %.9f protected "
        "(%.4f -> %.4f min/year downtime)"
        % (
            base.expected_availability(rates.repair_hours),
            rep.expected_availability(rates.repair_hours),
            base.downtime_minutes_per_year(rates.repair_hours),
            rep.downtime_minutes_per_year(rates.repair_hours),
        )
    )


if __name__ == "__main__":
    main()
