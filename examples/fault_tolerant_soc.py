"""Fault-tolerant synthesis: spare paths, coverage, degraded runtime.

A planned island shutdown and an unplanned link failure are the same
routing problem — a component the flow relied on goes away.  The
resilience subsystem (``repro.resilience``, see docs/resilience.md)
answers both with the same machinery:

1. synthesize d26 @ 6 islands and measure how the *unprotected*
   best-power point fares under every single inter-switch link
   failure (spoiler: some flows have exactly one path);
2. protect the point with k=1 edge-disjoint backup routes — backups
   honor the VI shutdown-safety rule, so protection never costs the
   gating guarantee — and show coverage hit 100% at a measured power
   overhead;
3. let :class:`ResilienceObjective` drive selection instead: the
   cheapest point *whose protected coverage is complete* wins, with
   the spare overhead costed lexicographically after static power;
4. replay a use-case trace with an injected link failure: flows fail
   over to their spares (one-time switchover stall, backup-path
   energy), and without spares the simulator reports lost service.

Run:  PYTHONPATH=src python examples/fault_tolerant_soc.py
"""

from repro import (
    FaultEvent,
    ResilienceObjective,
    SynthesisConfig,
    analyze_model,
    mobile_soc_26,
    protect_design_point,
    synthesize,
)
from repro.io.report import format_table, percent
from repro.resilience import single_link_failures
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.partitioning import logical_partitioning
from repro.soc.usecases import use_cases_for


def main() -> None:
    spec = logical_partitioning(mobile_soc_26(), 6)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    space = synthesize(spec, config=SynthesisConfig())
    best = space.best_by_power()

    # 1. the unprotected design under single link failures
    base = analyze_model(best.topology, "single_link")
    print(
        "unprotected %s: %s coverage over %d scenarios (%d flows lost somewhere)"
        % (
            best.label(),
            percent(base.coverage),
            base.num_scenarios,
            len(base.uncovered_flows),
        )
    )

    # 2. k=1 spare protection
    prot = protect_design_point(best, k=1)
    rep = analyze_model(prot.topology, "single_link", plan=prot.plan)
    print(
        "k=1 protected: %s coverage, %d spare links, +%.2f mW (%s), +%.1f mm wire"
        % (
            percent(rep.coverage),
            prot.plan.links_opened,
            prot.power_overhead_mw,
            percent(prot.power_overhead_mw / best.power_mw),
            prot.wire_overhead_mm,
        )
    )

    # 3. resilience-aware selection over the whole design space
    objective = ResilienceObjective()  # single_link, k=1, full coverage
    chosen = space.best(objective=objective)
    result = objective.evaluate(chosen)
    print(
        "resilience objective picks %s (cost %s)"
        % (chosen.label(), tuple(round(c, 2) for c in result.cost))
    )

    # 4. degraded-mode runtime: inject the first link failure mid-trace
    trace = markov_trace(use_cases_for(spec), n_segments=64, seed=11)
    scenario = single_link_failures(prot.topology)[0]
    event = FaultEvent(scenario=scenario, start_ms=trace.total_ms / 4.0)
    rows = []
    for label, plan in (("with spares", prot.plan), ("no spares", None)):
        report = simulate_trace(
            prot.topology,
            trace,
            make_policy("break_even"),
            fault_events=[event],
            spare_plan=plan,
        )
        rows.append(
            {
                "design": label,
                "energy_mj": round(report.total_mj, 2),
                "fault_delta_mj": round(report.fault_delta_mj, 4),
                "rerouted": report.rerouted_flow_events,
                "lost": report.lost_flow_events,
                "failover_stall_ms": round(report.fault_stall_ms, 3),
            }
        )
    print()
    print(
        format_table(
            rows,
            title="trace replay with %s injected at %.0f ms"
            % (scenario.name, event.start_ms),
        ),
        end="",
    )


if __name__ == "__main__":
    main()
