"""Resilience bench: coverage-vs-overhead of spare-path protection.

Pins the headline claim of the resilience subsystem on d26 and d38:

* the unprotected best-power synthesis does **not** survive every
  single inter-switch link failure (some flows have only one path);
* k=1 spare protection reaches **100% flow coverage** under every
  single link failure — zero uncovered flows — at a measured power /
  wire / link overhead (recorded under ``benchmarks/results/``);
* k=2 protection extends coverage to double link failures (fully on
  d26; d38's densest switches run out of ports for a third disjoint
  route on a few flows, pinned as a strict improvement instead);
* the whole analysis is deterministic — two protection runs serialize
  byte-identically — and every degraded routing stays deadlock-free
  and VI-safe, so protection never costs the shutdown guarantee.
"""

from __future__ import annotations

import json

import pytest

from repro import synthesize
from repro.arch.routing import is_deadlock_free
from repro.arch.topology import INTERMEDIATE_ISLAND
from repro.arch.validate import validate_topology
from repro.io.json_io import spare_plan_summary
from repro.io.report import format_table, percent
from repro.resilience import (
    analyze_model,
    degraded_routes,
    enumerate_scenarios,
    protect_design_point,
)
from repro.soc.benchmarks import load_benchmark
from repro.soc.partitioning import logical_partitioning

from _bench_utils import BENCH_CONFIG, write_result

pytestmark = pytest.mark.resilience

ISLANDS = 6


def _best_point(name: str):
    spec = logical_partitioning(load_benchmark(name), ISLANDS)
    spec = spec.with_vi_assignment(spec.vi_assignment, name=name)
    return synthesize(spec, config=BENCH_CONFIG).best_by_power()


@pytest.fixture(scope="module")
def d26_best_point():
    return _best_point("d26_media")


@pytest.fixture(scope="module")
def d38_best_point():
    return _best_point("d38_media")


def _coverage_rows(label, best, prot, base_report, prot_report):
    overhead = prot.power_overhead_mw
    return [
        {
            "benchmark": label,
            "design": "unprotected",
            "scenarios": base_report.num_scenarios,
            "coverage": percent(base_report.coverage),
            "worst_scenario": percent(base_report.worst_scenario_coverage),
            "uncovered_flows": len(base_report.uncovered_flows),
            "spare_links": 0,
            "power_mw": round(best.power_mw, 2),
            "overhead": "-",
            "wire_mm": round(best.wires.total_length_mm, 1),
        },
        {
            "benchmark": label,
            "design": "k=%d protected" % prot.plan.k,
            "scenarios": prot_report.num_scenarios,
            "coverage": percent(prot_report.coverage),
            "worst_scenario": percent(prot_report.worst_scenario_coverage),
            "uncovered_flows": len(prot_report.uncovered_flows),
            "spare_links": prot.plan.links_opened,
            "power_mw": round(prot.noc_power.fig2_dynamic_mw, 2),
            "overhead": percent(overhead / best.power_mw),
            "wire_mm": round(prot.wires.total_length_mm, 1),
        },
    ]


def test_k1_single_link_coverage_d26(d26_best_point):
    """The acceptance pin: 100% coverage at measured overhead on d26."""
    best = d26_best_point
    base_report = analyze_model(best.topology, "single_link")
    prot = protect_design_point(best, k=1)
    prot_report = analyze_model(prot.topology, "single_link", plan=prot.plan)
    rows = _coverage_rows("d26_media", best, prot, base_report, prot_report)
    table = format_table(
        rows, title="single-link fault coverage on d26_media @ %d islands" % ISLANDS
    )
    print()
    print(table, end="")
    write_result("resilience_coverage", table, rows)

    # Unprotected synthesis is not failure-proof...
    assert base_report.coverage < 1.0
    assert base_report.uncovered_flows
    # ...k=1 protection is, with zero uncovered flows.
    assert prot_report.full_coverage and prot_report.coverage == 1.0
    assert not prot_report.uncovered_flows
    assert not prot.plan.unprotected
    # The protection is real hardware with a real, bounded bill.
    assert prot.plan.links_opened > 0
    overhead = prot.power_overhead_mw
    assert 0.0 < overhead < 0.5 * best.power_mw

    # Deterministic end to end: two runs serialize byte-identically.
    again = protect_design_point(best, k=1)
    dump = lambda p: json.dumps(spare_plan_summary(p.plan), sort_keys=True)
    assert dump(prot) == dump(again)


def test_k1_protection_keeps_every_guarantee_d26(d26_best_point):
    """Protection must not cost validity, VI-safety or deadlock freedom."""
    best = d26_best_point
    prot = protect_design_point(best, k=1)
    validate_topology(prot.topology)
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
    for sc in enumerate_scenarios(prot.topology, "single_link"):
        routes = degraded_routes(prot.topology, prot.plan, sc)
        assert is_deadlock_free(prot.topology, routes=routes), sc.name


def test_k1_single_link_coverage_d38(d38_best_point):
    """The larger benchmark protects fully at k=1 too."""
    best = d38_best_point
    base_report = analyze_model(best.topology, "single_link")
    prot = protect_design_point(best, k=1)
    prot_report = analyze_model(prot.topology, "single_link", plan=prot.plan)
    rows = _coverage_rows("d38_media", best, prot, base_report, prot_report)
    table = format_table(
        rows, title="single-link fault coverage on d38_media @ %d islands" % ISLANDS
    )
    print()
    print(table, end="")
    write_result("resilience_coverage_d38", table, rows)
    assert base_report.coverage < 1.0
    assert prot_report.full_coverage
    assert not prot.plan.unprotected


def test_k2_double_link_coverage(d26_best_point, d38_best_point):
    """k backups buy k-failure coverage where ports allow.

    On d26, k=2 pairwise-disjoint backups cover every double link
    failure completely.  On d38 a few flows max out their switches'
    ports before a third disjoint route exists, so the pin there is a
    strict improvement over the unprotected double-failure coverage.
    """
    rows = []
    for label, best in (("d26_media", d26_best_point), ("d38_media", d38_best_point)):
        base = analyze_model(best.topology, "double_link")
        prot = protect_design_point(best, k=2)
        rep = analyze_model(prot.topology, "double_link", plan=prot.plan)
        rows.append(
            {
                "benchmark": label,
                "scenarios": rep.num_scenarios,
                "unprotected": percent(base.coverage),
                "k2_protected": percent(rep.coverage),
                "k2_unprotected_flows": len(prot.plan.unprotected),
                "spare_links": prot.plan.links_opened,
            }
        )
        assert rep.coverage > base.coverage
        if label == "d26_media":
            assert rep.full_coverage
            assert not prot.plan.unprotected
    table = format_table(rows, title="double-link coverage with k=2 backups")
    print()
    print(table, end="")
    write_result("resilience_double_link", table, rows)
