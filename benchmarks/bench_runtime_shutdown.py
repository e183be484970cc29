"""Runtime shutdown bench: trace-driven policy comparison on d26.

The dynamic counterpart of ``bench_leakage_savings.py``: instead of
time-fraction-weighted averages, a seeded-Markov day-in-the-life trace
is replayed through per-island power-state machines under all four
gating policies, on both the VI-aware topology and the VI-oblivious
baseline (the latter under a certifiable controller with its
third-party-crossed islands pinned awake).

Pinned invariants:

* the break-even oracle is never worse than ``never`` or
  ``always_off`` on the same trace (it is the per-interval optimum of
  the simulator's own economics);
* the VI-aware topology reports **zero** routability violations — the
  paper's synthesis guarantee, verified dynamically;
* the VI-aware topology recovers at least as much trace energy as the
  certified VI-oblivious baseline;
* the causal ``ewma_predictor`` lands between ``never`` and the
  clairvoyant oracle (its oracle gap is the price of causality);
* trace-driven co-synthesis (``TraceEnergyObjective`` inside
  Algorithm 1) never selects a worse-in-trace-energy point than
  static-power selection — and on d26 @ 4 islands it selects a
  strictly different, strictly better one.
"""

from __future__ import annotations

import pytest

from repro import SynthesisConfig, mobile_soc_26, synthesize
from repro.baseline.flat import synthesize_vi_oblivious
from repro.io.report import format_table
from repro.power.leakage import statically_pinned_islands
from repro.runtime import (
    certified_policy_comparison,
    compare_policies,
    markov_trace,
    policy_comparison_rows,
)
from repro.soc.partitioning import logical_partitioning
from repro.soc.usecases import use_cases_for

from _bench_utils import BENCH_CONFIG, write_result

TRACE_SEED = 11
TRACE_SEGMENTS = 192
MEAN_DWELL_MS = 40.0


@pytest.fixture(scope="module")
def d26_spec():
    spec = logical_partitioning(mobile_soc_26(), 6)
    return spec.with_vi_assignment(spec.vi_assignment, name="d26_media")


@pytest.fixture(scope="module")
def d26_trace(d26_spec):
    return markov_trace(
        use_cases_for(d26_spec),
        n_segments=TRACE_SEGMENTS,
        seed=TRACE_SEED,
        mean_dwell_ms=MEAN_DWELL_MS,
    )


@pytest.fixture(scope="module")
def aware_reports(d26_spec, d26_trace):
    aware = synthesize(d26_spec, config=BENCH_CONFIG).best_by_power()
    return compare_policies(aware.topology, d26_trace)


@pytest.fixture(scope="module")
def oblivious_reports(d26_spec, d26_trace):
    oblivious = synthesize_vi_oblivious(d26_spec, config=SynthesisConfig())
    return certified_policy_comparison(oblivious.topology, d26_trace)


def test_runtime_policy_comparison(aware_reports, oblivious_reports, d26_trace):
    """The headline table: four policies on both topologies."""
    rows = []
    for label, reports in (
        ("vi_aware", aware_reports),
        ("vi_oblivious_certified", oblivious_reports),
    ):
        for row in policy_comparison_rows(list(reports.values())):
            rows.append(dict({"topology": label}, **row))
    table = format_table(
        rows,
        title="runtime shutdown on d26_media, trace %s (%d segments)"
        % (d26_trace.name, len(d26_trace.segments)),
    )
    print()
    print(table, end="")
    write_result("runtime_shutdown", table, rows)

    be = aware_reports["break_even"]
    assert be.total_mj <= aware_reports["never"].total_mj + 1e-9
    assert be.total_mj <= aware_reports["always_off"].total_mj + 1e-9
    obe = oblivious_reports["break_even"]
    assert obe.total_mj <= oblivious_reports["never"].total_mj + 1e-9
    assert obe.total_mj <= oblivious_reports["always_off"].total_mj + 1e-9


def test_vi_aware_routable_under_every_policy(aware_reports):
    """The synthesis guarantee, dynamically: no flow crosses a gated island."""
    for name, report in aware_reports.items():
        assert report.routable, "%s: %d violations" % (name, len(report.violations))


def test_vi_aware_beats_certified_baseline(aware_reports, oblivious_reports):
    """VI-aware recovers more trace energy than a certifiable oblivious NoC."""
    aware_sav = aware_reports["break_even"].savings_vs(aware_reports["never"])
    obl_sav = oblivious_reports["break_even"].savings_vs(oblivious_reports["never"])
    assert aware_sav >= obl_sav - 1e-9
    assert aware_sav > 0.0


def test_uncurated_mode_breaks_oblivious_routability(d26_spec, d26_trace):
    """A mode outside the curated set exposes the baseline's unsafety.

    Activate only the endpoints of a flow that the oblivious router
    sent through a third island; an uncertified always-off controller
    gates that island and the flow loses its path.  The VI-aware
    topology stays routable on the same trace by construction.
    """
    from repro import make_use_case
    from repro.runtime import AlwaysOff, scripted_trace, simulate_trace

    oblivious = synthesize_vi_oblivious(d26_spec, config=SynthesisConfig())
    topo = oblivious.topology
    spec = d26_spec
    crossing = None
    for key in sorted(topo.routes):
        extra = topo.islands_touched(key) - {
            spec.island_of(key[0]),
            spec.island_of(key[1]),
            -1,
        }
        if extra:
            crossing = (key, sorted(extra))
            break
    assert crossing is not None, "oblivious baseline crossed no third island"
    (src, dst), extra = crossing
    lone = make_use_case("uncurated_pair", [src, dst], 1.0)
    trace = scripted_trace([lone], [("uncurated_pair", 100.0)], name="uncurated")
    report = simulate_trace(topo, trace, AlwaysOff())
    assert not report.routable
    assert {v.island for v in report.violations} <= set(extra)

    aware = synthesize(d26_spec, config=BENCH_CONFIG).best_by_power()
    aware_report = simulate_trace(aware.topology, trace, AlwaysOff())
    assert aware_report.routable


def test_certified_controller_pins_oblivious_islands(d26_spec):
    """The certified comparison actually pins the statically unsafe islands."""
    oblivious = synthesize_vi_oblivious(d26_spec, config=SynthesisConfig())
    pinned = statically_pinned_islands(oblivious.topology)
    assert pinned, "expected third-party routes on the oblivious baseline"


def test_ewma_predictor_gap_vs_oracle(aware_reports):
    """The causal EWMA predictor approaches (never beats) the oracle.

    The oracle gap is the headline number of the causal-policy
    follow-up: how much of the clairvoyant savings a history-based
    controller actually captures on this trace.
    """
    never = aware_reports["never"].total_mj
    ewma = aware_reports["ewma_predictor"].total_mj
    oracle = aware_reports["break_even"].total_mj
    assert oracle <= ewma + 1e-9, "clairvoyant oracle beaten by a causal policy"
    assert ewma <= never + 1e-9, "EWMA predictor lost energy vs never gating"
    gap = ewma - oracle
    rows = [
        {
            "policy": name,
            "energy_mj": round(aware_reports[name].total_mj, 4),
            "oracle_gap_mj": round(aware_reports[name].total_mj - oracle, 4),
        }
        for name in ("never", "ewma_predictor", "break_even")
    ]
    table = format_table(
        rows, title="ewma oracle gap on d26_media: %.2f mJ" % gap
    )
    print()
    print(table, end="")
    write_result("runtime_ewma_gap", table, rows)


@pytest.fixture(scope="module")
def d26_4isl_spec():
    spec = logical_partitioning(mobile_soc_26(), 4)
    return spec.with_vi_assignment(spec.vi_assignment, name="d26_media")


def test_trace_cosynthesis_beats_static_selection(d26_4isl_spec):
    """Co-synthesis picks a different, lower-trace-energy point on d26@4.

    With :class:`TraceEnergyObjective` inside the synthesis loop the
    chosen topology trades ~5 mW of static power for gating
    opportunity and wins on the actual mode sequence — the
    co-synthesis acceptance demo.
    """
    import dataclasses

    from repro import TraceEnergyObjective
    from repro.runtime import make_policy, simulate_trace

    spec = d26_4isl_spec
    trace = markov_trace(
        use_cases_for(spec),
        n_segments=96,
        seed=11,
        mean_dwell_ms=MEAN_DWELL_MS,
    )
    cfg = SynthesisConfig(max_intermediate=1)
    static_best = synthesize(spec, config=cfg).best_by_power()
    objective = TraceEnergyObjective(trace=trace)
    co_space = synthesize(
        spec, config=dataclasses.replace(cfg, objective=objective)
    )
    co_best = co_space.best()
    # Every surviving point carries its co-synthesis score.
    assert all(p.objective_result is not None for p in co_space.points)

    policy = make_policy("break_even")

    def trace_mj(point):
        return simulate_trace(
            point.topology, trace, policy, check_routability=False
        ).total_mj

    static_mj, co_mj = trace_mj(static_best), trace_mj(co_best)
    assert co_mj <= static_mj + 1e-9
    assert co_best.label() != static_best.label(), (
        "expected the trace objective to diverge from static selection "
        "on d26 @ 4 islands"
    )
    assert co_mj < static_mj
    assert co_best.power_mw > static_best.power_mw  # the trade, explicitly
