"""ExplorationEngine: parallel fan-out, grid sweeps, record plumbing."""

from __future__ import annotations

import pytest

from repro import SynthesisConfig
from repro.core.explore import (
    INFEASIBLE,
    ExplorationEngine,
    SweepRecord,
    alpha_exploration,
    grid_exploration,
    pareto_merge,
)
from repro.exceptions import SpecError
from repro.io.report import format_table


def strip_timing(record):
    row = record.row()
    row.pop("seconds")
    return row


class TestSweepRecordRow:
    def test_infeasible_row_keeps_all_metric_columns(self):
        rec = SweepRecord(
            knobs={"alpha": 0.5}, point=None, design_points=0, elapsed_s=0.1,
            failure="no feasible design point",
        )
        row = rec.row()
        for col in ("noc_power_mw", "avg_latency_cycles", "switches", "converters"):
            assert row[col] == INFEASIBLE
        assert row["design_points"] == 0

    def test_mixed_rows_tabulate_aligned(self, tiny_space):
        good = SweepRecord(
            knobs={"alpha": 0.2},
            point=tiny_space.best_by_power(),
            design_points=len(tiny_space),
            elapsed_s=0.5,
        )
        bad = SweepRecord(
            knobs={"alpha": 0.9}, point=None, design_points=0, elapsed_s=0.1,
            failure="x",
        )
        assert set(good.row()) == set(bad.row())
        table = format_table([good.row(), bad.row()])
        assert INFEASIBLE in table
        # Every line of the table body has the same column structure.
        lines = table.strip().splitlines()
        assert len(lines) == 4


class TestEngine:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(SpecError):
            ExplorationEngine(workers=0)

    def test_rejects_select_and_objective_together(self):
        from repro import StaticLatencyObjective

        def my_selector(space):
            return space.points[0]

        with pytest.raises(SpecError, match="not both"):
            ExplorationEngine(
                select=my_selector, objective=StaticLatencyObjective()
            )

    def test_parallel_matches_serial(self, tiny_spec):
        alphas = [0.2, 0.8]
        serial = alpha_exploration(tiny_spec, alphas, workers=1)
        parallel = alpha_exploration(tiny_spec, alphas, workers=2)
        assert [strip_timing(r) for r in serial] == [
            strip_timing(r) for r in parallel
        ]

    def test_island_count_tasks_label_knobs(self, tiny_spec):
        engine = ExplorationEngine()
        tasks = engine.island_count_tasks(
            tiny_spec.single_island(), [1, 2], strategies=("logical",)
        )
        assert [t.knobs for t in tasks] == [
            {"islands": 1, "strategy": "logical"},
            {"islands": 2, "strategy": "logical"},
        ]

    @pytest.mark.runtime
    def test_objective_sweep_parallel_matches_serial(self, tiny_spec):
        """Objectives are picklable: pool and serial sweeps agree, and
        the objective's trace_mj column survives the round-trip."""
        from repro import SynthesisConfig, TraceEnergyObjective, make_use_case
        from repro.runtime import scripted_trace

        cases = [
            make_use_case("full", [c.name for c in tiny_spec.cores], 0.4),
            make_use_case("compute", ["cpu", "mem", "acc"], 0.6),
        ]
        trace = scripted_trace(cases, [("compute", 100.0), ("full", 50.0)])
        objective = TraceEnergyObjective(trace=trace)
        config = SynthesisConfig(max_intermediate=1)
        serial = ExplorationEngine(workers=1, config=config, objective=objective)
        pooled = ExplorationEngine(workers=2, config=config, objective=objective)
        s = serial.alpha_exploration(tiny_spec, [0.2, 0.8])
        p = pooled.alpha_exploration(tiny_spec, [0.2, 0.8])
        assert [strip_timing(r) for r in s] == [strip_timing(r) for r in p]
        assert all("trace_mj" in r.row() for r in s)

    def test_engine_methods_match_wrappers(self, tiny_spec):
        engine = ExplorationEngine(config=SynthesisConfig(max_intermediate=1))
        via_engine = engine.alpha_exploration(tiny_spec, [0.5])
        via_wrapper = alpha_exploration(tiny_spec, [0.5])
        assert [strip_timing(r) for r in via_engine] == [
            strip_timing(r) for r in via_wrapper
        ]


class TestGridExploration:
    def test_cross_product_and_knob_labels(self, tiny_spec):
        result = grid_exploration(tiny_spec, alphas=[0.2, 0.8], widths=[32, 64])
        assert len(result.records) == 4
        assert [r.knobs for r in result.records] == [
            {"alpha": 0.2, "width_bits": 32},
            {"alpha": 0.2, "width_bits": 64},
            {"alpha": 0.8, "width_bits": 32},
            {"alpha": 0.8, "width_bits": 64},
        ]
        assert result.pareto
        assert all(any(p is r for r in result.records) for p in result.pareto)
        assert len(result.rows()) == 4 and len(result.pareto_rows()) == len(
            result.pareto
        )

    def test_default_axes_run_spec_as_is(self, tiny_spec):
        result = grid_exploration(tiny_spec)
        assert len(result.records) == 1
        assert result.records[0].knobs == {}

    def test_island_axis(self, tiny_spec):
        result = grid_exploration(
            tiny_spec.single_island(), islands=[1, 2], strategies=("logical",)
        )
        assert [r.knobs["islands"] for r in result.records] == [1, 2]

    def test_rejects_bad_axes(self, tiny_spec):
        with pytest.raises(SpecError):
            grid_exploration(tiny_spec, islands=[2], strategies=("psychic",))
        with pytest.raises(SpecError):
            grid_exploration(tiny_spec, widths=[0])

    def test_pareto_merge_drops_dominated(self, tiny_spec):
        result = grid_exploration(tiny_spec, widths=[32, 64])
        merged = pareto_merge(result.records)
        # The 64-bit design dominates on power at equal latency here.
        assert merged
        powers = [r.point.power_mw for r in merged]
        assert powers == sorted(powers)
        for survivor in merged:
            for other in result.records:
                if other.point is None or other is survivor:
                    continue
                assert not (
                    other.point.power_mw < survivor.point.power_mw - 1e-12
                    and other.point.avg_latency_cycles
                    <= survivor.point.avg_latency_cycles + 1e-12
                )

    def test_pareto_merge_ignores_infeasible(self):
        rec = SweepRecord(knobs={}, point=None, design_points=0, elapsed_s=0.0)
        assert pareto_merge([rec]) == []


class _StubPoint:
    """Just enough DesignPoint surface for selection/merge logic."""

    def __init__(self, index, power, latency, topology=None):
        self.index = index
        self.power_mw = power
        self.avg_latency_cycles = latency
        self.topology = topology


def _stub_record(index, power, latency):
    return SweepRecord(
        knobs={"i": index},
        point=_StubPoint(index, power, latency),
        design_points=1,
        elapsed_s=0.0,
    )


class TestTieBreaking:
    """Equal-cost points must resolve deterministically (ISSUE-4)."""

    def test_pareto_merge_keeps_equal_cost_points(self):
        """Neither of two identical-cost records dominates the other, so
        both survive, ordered by original sweep position."""
        records = [_stub_record(0, 5.0, 3.0), _stub_record(1, 5.0, 3.0)]
        merged = pareto_merge(records)
        assert [r.point.index for r in merged] == [0, 1]

    def test_pareto_merge_sorted_key_order(self):
        """Output order is (power, latency, sweep position) — stable
        whatever order the records arrive in."""
        records = [
            _stub_record(0, 7.0, 1.0),
            _stub_record(1, 5.0, 3.0),
            _stub_record(2, 5.0, 3.0),  # duplicate cost of record 1
            _stub_record(3, 6.0, 2.0),
        ]
        merged = pareto_merge(records)
        assert [r.point.index for r in merged] == [1, 2, 3, 0]
        shuffled = [records[2], records[0], records[3], records[1]]
        remerged = pareto_merge(shuffled)
        # Same survivors; equal-cost order follows input position.
        assert [r.point.index for r in remerged] == [2, 1, 3, 0]

    def test_runtime_selector_tie_breaks_by_power_then_index(self, monkeypatch):
        """With trace energy forced equal, selection falls back to the
        sorted (static power, index) key — never dict/arrival order."""
        import types

        from repro.core.design_point import DesignSpace
        from repro.core.explore import RuntimeEnergySelector
        from repro.runtime import simulate as simulate_mod

        # The trace objectives look the simulator up at call time.
        monkeypatch.setattr(
            simulate_mod,
            "simulate_trace",
            lambda *a, **k: types.SimpleNamespace(
                total_mj=42.0, average_power_mw=1.0
            ),
        )
        selector = RuntimeEnergySelector(trace=object())  # simulator stubbed
        points = [
            _StubPoint(0, 9.0, 1.0),
            _StubPoint(1, 5.0, 1.0),  # lowest power wins the energy tie
            _StubPoint(2, 5.0, 1.0),  # equal power: lower index wins
        ]
        space = DesignSpace(spec_name="stub", points=points)
        assert selector(space).index == 1
        reordered = DesignSpace(
            spec_name="stub", points=[points[2], points[0], points[1]]
        )
        assert selector(reordered).index == 1


@pytest.mark.runtime
class TestRuntimeObjective:
    """The trace-energy sweep objective (ISSUE 3 integration)."""

    @pytest.fixture(scope="class")
    def trace(self, tiny_spec):
        from repro import make_use_case
        from repro.runtime import scripted_trace

        cases = [
            make_use_case("full", [c.name for c in tiny_spec.cores], 0.4),
            make_use_case("compute", ["cpu", "mem", "acc"], 0.6),
        ]
        return scripted_trace(
            cases, [("full", 20.0), ("compute", 150.0), ("full", 10.0)]
        )

    def test_selector_picks_lowest_trace_energy(self, tiny_space, trace):
        from repro.core.explore import RuntimeEnergySelector
        from repro.runtime import make_policy, simulate_trace

        selector = RuntimeEnergySelector(trace=trace)
        chosen = selector(tiny_space)
        policy = make_policy("break_even")
        energies = {
            p.index: simulate_trace(
                p.topology, trace, policy, check_routability=False
            ).total_mj
            for p in tiny_space.points
        }
        assert energies[chosen.index] == pytest.approx(min(energies.values()))

    def test_runtime_exploration_records(self, tiny_spec, trace):
        from repro.core.explore import runtime_exploration

        records = runtime_exploration(
            tiny_spec.single_island(),
            counts=[2],
            trace=trace,
            strategies=("logical",),
            config=SynthesisConfig(max_intermediate=1),
        )
        assert len(records) == 1
        assert records[0].feasible
        assert records[0].knobs == {"islands": 2, "strategy": "logical"}
