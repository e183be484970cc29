"""End-to-end integration: the paper's qualitative results must hold.

Each test asserts a *shape* from the paper (who wins, in which
direction, roughly by how much) rather than absolute mW values, which
depend on the substituted 65 nm library.
"""

import pytest

from repro import (
    SynthesisConfig,
    analyze_shutdown,
    synthesize,
    validate_topology,
)
from repro.power.soc_power import area_overhead_fraction, dynamic_overhead_fraction
from repro.soc.benchmarks import load_benchmark
from repro.soc.partitioning import communication_partitioning, logical_partitioning
from repro.soc.usecases import use_cases_for
from repro.power.leakage import weighted_savings_fraction


FAST = SynthesisConfig(max_intermediate=1)


@pytest.fixture(scope="module")
def sweep_results(d26):
    """Best-power points for island counts x strategies (Figs 2/3)."""
    results = {}
    for n in (1, 3, 5, 7):
        for strat, fn in (
            ("logical", logical_partitioning),
            ("communication", communication_partitioning),
        ):
            spec = fn(d26, n)
            results[(n, strat)] = synthesize(spec, config=FAST).best_by_power()
    return results


class TestFig2PowerShape:
    """Figure 2: island count vs NoC dynamic power."""

    def test_communication_beats_reference(self, sweep_results):
        ref = sweep_results[(1, "logical")].power_mw
        for n in (3, 5, 7):
            assert sweep_results[(n, "communication")].power_mw < ref, (
                "communication partitioning at %d islands should save power" % n
            )

    def test_logical_pays_overhead(self, sweep_results):
        ref = sweep_results[(1, "logical")].power_mw
        overheads = [
            sweep_results[(n, "logical")].power_mw - ref for n in (3, 5, 7)
        ]
        assert max(overheads) > 0, "logical partitioning should cost power"

    def test_both_strategies_agree_at_one_island(self, sweep_results):
        a = sweep_results[(1, "logical")].power_mw
        b = sweep_results[(1, "communication")].power_mw
        assert a == pytest.approx(b, rel=1e-6)

    def test_communication_cheaper_than_logical(self, sweep_results):
        for n in (3, 5, 7):
            assert (
                sweep_results[(n, "communication")].power_mw
                < sweep_results[(n, "logical")].power_mw
            )


class TestFig3LatencyShape:
    """Figure 3: island count vs average zero-load latency."""

    def test_latency_rises_with_island_count(self, sweep_results):
        for strat in ("logical", "communication"):
            l1 = sweep_results[(1, strat)].avg_latency_cycles
            l7 = sweep_results[(7, strat)].avg_latency_cycles
            assert l7 > l1, "%s latency should rise with islands" % strat

    def test_crossings_explain_latency(self, sweep_results):
        # More islands -> more converter crossings -> higher latency.
        for strat in ("logical", "communication"):
            c1 = sweep_results[(1, strat)].topology.num_converters()
            c7 = sweep_results[(7, strat)].topology.num_converters()
            assert c7 > c1

    def test_communication_latency_not_worse(self, sweep_results):
        # Keeping heavy flows on-island also keeps them off converters.
        for n in (3, 5, 7):
            com = sweep_results[(n, "communication")].avg_latency_cycles
            log = sweep_results[(n, "logical")].avg_latency_cycles
            assert com <= log + 1.0


class TestExtremePoint:
    """The 26-islands-of-one-core end of Figures 2/3."""

    @pytest.fixture(scope="class")
    def point26(self, d26):
        spec = logical_partitioning(d26, 26)
        return synthesize(spec, config=FAST).best_by_power()

    def test_every_flow_crosses(self, point26, d26):
        assert point26.topology.num_converters() >= len(d26.flows)

    def test_maximum_power(self, point26, sweep_results):
        for key, p in sweep_results.items():
            assert point26.power_mw > p.power_mw

    def test_maximum_latency(self, point26, sweep_results):
        assert point26.avg_latency_cycles >= 6.0
        for key, p in sweep_results.items():
            assert point26.avg_latency_cycles >= p.avg_latency_cycles


class TestOverheadClaims:
    """Text claims: ~3% SoC dynamic power overhead, <0.5% area overhead."""

    def test_d26_overheads_in_paper_range(self, d26, sweep_results):
        ref = synthesize(d26.single_island(), config=FAST).best_by_power()
        dyn = []
        area = []
        for n in (3, 5, 7):
            cand = sweep_results[(n, "logical")]
            dyn.append(dynamic_overhead_fraction(cand.soc_power, ref.soc_power))
            area.append(area_overhead_fraction(cand.soc_power, ref.soc_power))
        assert max(dyn) < 0.06, "SoC dynamic overhead should be a few percent"
        # Paper: "less than 0.5% increase in the total SoC area" on
        # average; allow slack on the single worst point.
        assert sum(area) / len(area) < 0.005
        assert max(area) < 0.007

    def test_noc_is_small_share_of_system(self, sweep_results):
        for p in sweep_results.values():
            assert p.soc_power.noc_dynamic_fraction < 0.10
            assert p.soc_power.noc_area_fraction < 0.03


class TestLeakageClaim:
    """Text claim: shutdown enables >= 25% total power reduction."""

    def test_weighted_savings_reach_paper_range(self, d26_best, d26_log6):
        cases = use_cases_for(d26_log6)
        reports = [analyze_shutdown(d26_best.topology, c) for c in cases]
        w = weighted_savings_fraction(reports, cases)
        assert w > 0.20, "weighted savings %.1f%% too low" % (100 * w)

    def test_standby_savings_dominant(self, d26_best, d26_log6):
        standby = [c for c in use_cases_for(d26_log6) if c.name == "standby"][0]
        report = analyze_shutdown(d26_best.topology, standby)
        assert report.savings_fraction > 0.40


class TestSuiteWide:
    """Every built-in benchmark must synthesize and validate."""

    @pytest.mark.parametrize("name", ["d12_auto", "d20_tele", "d16_net"])
    def test_benchmark_synthesizes_clean(self, name):
        spec = load_benchmark(name)
        for n in (1, 3):
            part = logical_partitioning(spec, n)
            space = synthesize(part, config=FAST)
            best = space.best_by_power()
            validate_topology(best.topology)
            assert best.latency.meets_constraints
