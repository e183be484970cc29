"""ExplorationEngine: parallel fan-out, grid sweeps, record plumbing."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SynthesisConfig
from repro.cache import CacheStore, caching
from repro.cache.signatures import design_space_signature
from repro.core.explore import (
    INFEASIBLE,
    ExplorationEngine,
    SweepRecord,
    pareto_merge,
)
from repro.exceptions import SpecError
from repro.io.report import format_table
from repro.obs import MemorySink, event_lines
from repro.perf import Recorder, recording
from repro.soc import partitioning
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning


def strip_timing(record):
    row = record.row()
    row.pop("seconds")
    return row


def sweep_identity(records):
    """Every output of a sweep but its timings: knobs, counts, failures,
    columns, and each chosen point's metrics, topology and switch
    positions."""
    return [
        (
            r.knobs,
            r.design_points,
            r.failure,
            dict(r.extras),
            r.point and design_space_signature([r.point]),
        )
        for r in records
    ]


def handed_tasks(engine, monkeypatch):
    """The tasks ``engine`` is handed, which it then does not run."""
    handed = []
    monkeypatch.setattr(engine, "run", lambda tasks: handed.extend(tasks) or [])
    return handed


class TaskFailure(Exception):
    """Raised by a sweep task on a worker (module level, so it pickles)."""


class PidSelector:
    """The cheapest point, with the pid of the process that selected it
    as a sweep column."""

    def __call__(self, space):
        return space.best_by_power()

    def columns(self, point):
        return {"pid": os.getpid()}

    def column_names(self):
        return ("pid",)


@pytest.fixture
def one_thread(monkeypatch):
    """No other thread in this process, so the engine may fork (a stray
    thread left by another test would otherwise keep sweeps serial)."""
    monkeypatch.setattr(threading, "active_count", lambda: 1)


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
        serial = ExplorationEngine(workers=1).alpha_exploration(tiny_spec, alphas)
        parallel = ExplorationEngine(workers=2).alpha_exploration(tiny_spec, alphas)
        assert [strip_timing(r) for r in serial] == [
            strip_timing(r) for r in parallel
        ]

    def test_island_count_tasks_label_knobs(self, tiny_spec, monkeypatch):
        """The island axis labels each task with its count and strategy,
        counts inside strategies (the CLI sweep's order)."""
        engine = ExplorationEngine()
        tasks = handed_tasks(engine, monkeypatch)
        engine.grid_exploration(
            tiny_spec.single_island(), [1, 2], strategies=("logical", "communication")
        )
        assert [t.knobs for t in tasks] == [
            {"islands": 1, "strategy": "logical"},
            {"islands": 2, "strategy": "logical"},
            {"islands": 1, "strategy": "communication"},
            {"islands": 2, "strategy": "communication"},
        ]

    @pytest.mark.runtime
    def test_objective_sweep_parallel_matches_serial(self, tiny_spec):
        """Forked and serial sweeps agree under an objective, and the
        objective's trace_mj column survives the trip home."""
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
        forked = ExplorationEngine(workers=2, config=config, objective=objective)
        s = serial.alpha_exploration(tiny_spec, [0.2, 0.8])
        p = forked.alpha_exploration(tiny_spec, [0.2, 0.8])
        assert [strip_timing(r) for r in s] == [strip_timing(r) for r in p]
        assert all("trace_mj" in r.row() for r in s)


@pytest.mark.usefixtures("one_thread")
class TestForkedSweep:
    """``workers > 1`` deals a sweep's tasks over forked workers, which
    the caller waits on: it runs no task itself."""

    ALPHAS = [0.2, 0.4, 0.6, 0.8, 1.0]

    def test_tasks_are_dealt_round_robin_off_the_caller(self, tiny_spec):
        engine = ExplorationEngine(workers=2, select=PidSelector())
        pids = [r.extras["pid"] for r in engine.alpha_exploration(tiny_spec, self.ALPHAS)]
        assert os.getpid() not in pids
        assert pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 2
        assert pids[0] != pids[1]

    def test_workers_above_the_task_count_fork_one_per_task(self, tiny_spec):
        engine = ExplorationEngine(workers=4, select=PidSelector())
        pids = [r.extras["pid"] for r in engine.alpha_exploration(tiny_spec, [0.2, 0.8])]
        assert len(set(pids)) == 2 and os.getpid() not in pids

    def test_lambda_selector(self, tiny_spec):
        """Workers inherit the tasks: nothing pickles the selector."""
        last = lambda space: space.points[-1]  # noqa: E731
        serial = ExplorationEngine(select=last).alpha_exploration(tiny_spec, self.ALPHAS)
        forked = ExplorationEngine(workers=2, select=last).alpha_exploration(
            tiny_spec, self.ALPHAS
        )
        assert sweep_identity(forked) == sweep_identity(serial)

    def test_task_exception_reaches_the_caller(self, tiny_spec):
        def failing(space):
            raise TaskFailure("task 3")

        engine = ExplorationEngine(workers=2)
        tasks = [engine.task(tiny_spec, {"i": i}) for i in range(4)]
        tasks[3] = dataclasses.replace(tasks[3], select=failing)
        with pytest.raises(TaskFailure, match="task 3"):
            engine.run(tasks)
        assert multiprocessing.active_children() == []

    def test_worker_killed_mid_sweep_is_an_error(self, tiny_spec):
        def dying(space):
            os._exit(3)

        engine = ExplorationEngine(workers=2)
        tasks = [engine.task(tiny_spec, {"i": i}) for i in range(4)]
        tasks[3] = dataclasses.replace(tasks[3], select=dying)
        with pytest.raises(RuntimeError, match="sweep worker 1: worker exited without a result"):
            engine.run(tasks)
        assert multiprocessing.active_children() == []

    def test_spawn_platform_runs_serially(self, tiny_spec, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_start_method", lambda allow_none=False: "spawn"
        )
        serial = ExplorationEngine(select=PidSelector()).alpha_exploration(
            tiny_spec, self.ALPHAS
        )
        forked = ExplorationEngine(workers=2, select=PidSelector()).alpha_exploration(
            tiny_spec, self.ALPHAS
        )
        assert {r.extras["pid"] for r in forked} == {os.getpid()}
        assert sweep_identity(forked) == sweep_identity(serial)


def without_pids(records):
    """:func:`sweep_identity` minus :class:`PidSelector`'s column."""
    identity = sweep_identity(records)
    for _, _, _, extras, _ in identity:
        extras.pop("pid", None)
    return identity


@pytest.mark.usefixtures("one_thread")
class TestCallerServedHits:
    """With a store active, a sweep that may fork forks only for the
    tasks the store cannot answer: the caller serves the hits."""

    ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]

    def sweep(self, directory, workers, alphas=ALPHAS, select=None, **store_options):
        store = CacheStore.open(directory, **store_options)
        with caching(store):
            engine = ExplorationEngine(workers=workers, select=select or PidSelector())
            records = engine.alpha_exploration(self.spec, alphas)
        return records, store.stats.counters

    @pytest.fixture(autouse=True)
    def _spec(self, tiny_spec):
        self.spec = tiny_spec

    def test_warm_sweep_forks_no_process(self, tmp_path, monkeypatch):
        self.sweep(tmp_path, 1)
        serial, serial_counters = self.sweep(tmp_path, 1)

        def no_fork():
            raise AssertionError("a warm sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        capture = MemorySink()
        with recording(Recorder(sinks=[capture])):
            forked, forked_counters = self.sweep(tmp_path, 2)
        # Every record comes from the caller, the pid column included.
        assert sweep_identity(forked) == sweep_identity(serial)
        assert forked_counters == serial_counters
        assert forked_counters["hits.disk.space"] == len(self.ALPHAS)
        start = json.loads(event_lines(capture.events, timing=False)[0])
        assert start["attrs"] == {"tasks": len(self.ALPHAS), "workers": 1}

    def test_half_warm_sweep_forks_for_its_misses_only(self, tmp_path):
        cold, _ = self.sweep(tmp_path / "cold", 1)
        self.sweep(tmp_path / "half", 1, self.ALPHAS[:3])
        half, counters = self.sweep(tmp_path / "half", 2)
        assert without_pids(half) == without_pids(cold)
        pids = [r.extras["pid"] for r in half]
        assert pids[:3] == [os.getpid()] * 3
        # The five misses are dealt round-robin over two workers.
        assert os.getpid() not in pids[3:]
        assert pids[3::2] == [pids[3]] * 3 and pids[4::2] == [pids[4]] * 2
        assert pids[3] != pids[4]
        assert (counters["hits.disk.space"], counters["misses.space"]) == (3, 5)

    def test_cold_distinct_keys_are_dealt_round_robin(self, tmp_path):
        records, counters = self.sweep(tmp_path, 2)
        pids = [r.extras["pid"] for r in records]
        assert os.getpid() not in pids
        assert pids[0::2] == [pids[0]] * 4 and pids[1::2] == [pids[1]] * 4
        assert pids[0] != pids[1]
        assert counters["misses.space"] == len(self.ALPHAS)

    def test_one_miss_runs_in_the_caller(self, tmp_path):
        self.sweep(tmp_path, 1, self.ALPHAS[:-1])
        records, counters = self.sweep(tmp_path, 2)
        assert {r.extras["pid"] for r in records} == {os.getpid()}
        assert counters["misses.space"] == 1

    @pytest.mark.parametrize("every, runs", [(1, 8), (5, 1)])
    def test_hit_sampling_counts_as_in_a_serial_run(self, tmp_path, every, runs):
        self.sweep(tmp_path, 1)
        _, serial = self.sweep(tmp_path, 1, verify_every=every)
        _, forked = self.sweep(tmp_path, 2, verify_every=every)
        assert forked["verify_runs"] == serial["verify_runs"] == runs
        assert "verify_mismatches" not in forked

    def test_equal_keys_share_one_worker(self, tmp_path):
        """Both strategies split the spec alike into 1 and into 2
        islands, so tasks 0 and 3, and 1 and 4, share a key.  Dealt
        round-robin, each pair would split over the two workers; each
        later task goes to its earlier twin's worker instead, where it is
        a memory hit, as in a serial sweep."""
        counters = {}
        for workers in (1, 2):
            store = CacheStore.open(tmp_path / str(workers))
            with caching(store):
                ExplorationEngine(workers=workers).grid_exploration(
                    self.spec, [1, 2, 3], strategies=("logical", "communication")
                )
            counters[workers] = store.stats.counters
        assert counters[2] == counters[1]
        assert (counters[2]["misses.space"], counters[2]["hits.memory.space"]) == (4, 2)

    def test_caller_task_exception_reaches_the_caller_at_its_task(self, tmp_path):
        def failing(space):
            raise TaskFailure("hit 1")

        self.sweep(tmp_path, 1, self.ALPHAS[:2])
        engine = ExplorationEngine(workers=2)
        tasks = [
            engine.task(self.spec, {"alpha": a}, config=SynthesisConfig(max_intermediate=1, alpha=a))
            for a in self.ALPHAS
        ]
        tasks[1] = dataclasses.replace(tasks[1], select=failing)
        with caching(CacheStore.open(tmp_path)):
            with pytest.raises(TaskFailure, match="hit 1"):
                engine.run(tasks)
        assert multiprocessing.active_children() == []


@st.composite
def generated_socs(draw):
    n_cores = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=999))
    return generate_soc(
        GeneratorConfig(
            name="sweep%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=draw(st.integers(min_value=2, max_value=4)),
            seed=seed,
        )
    )


@given(generated_socs())
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_forked_sweeps_match_serial(one_thread, soc):
    """Records are equal at 1, 2 and 3 workers, and the merged event
    feeds at 2 and 3 differ only in ``sweep.start``'s ``workers``."""
    records, feeds = {}, {}
    for workers in (1, 2, 3):
        capture = MemorySink()
        with recording(Recorder(sinks=[capture])):
            records[workers] = ExplorationEngine(workers=workers).grid_exploration(
                soc, [2, 3], strategies=("logical", "communication")
            ).records
        feeds[workers] = event_lines(capture.events, timing=False)
    assert sweep_identity(records[2]) == sweep_identity(records[1])
    assert sweep_identity(records[3]) == sweep_identity(records[1])
    for workers in (2, 3):
        start = json.loads(feeds[workers][0])
        assert start["name"] == "sweep.start"
        assert start["attrs"] == {"tasks": 4, "workers": workers}
    assert feeds[2][1:] == feeds[3][1:]
    assert {json.loads(line)["process"] for line in feeds[2]} == {
        "main", "task0", "task1", "task2", "task3"
    }


class TestGridExploration:
    @pytest.fixture
    def engine(self):
        return ExplorationEngine()

    def test_cross_product_and_knob_labels(self, engine, tiny_spec):
        result = engine.grid_exploration(tiny_spec, alphas=[0.2, 0.8], widths=[32, 64])
        assert len(result.records) == 4
        assert [r.knobs for r in result.records] == [
            {"alpha": 0.2, "width_bits": 32},
            {"alpha": 0.2, "width_bits": 64},
            {"alpha": 0.8, "width_bits": 32},
            {"alpha": 0.8, "width_bits": 64},
        ]
        assert result.pareto
        assert all(any(p is r for r in result.records) for p in result.pareto)
        assert len(result.rows()) == 4

    def test_default_axes_run_spec_as_is(self, engine, tiny_spec):
        result = engine.grid_exploration(tiny_spec)
        assert len(result.records) == 1
        assert result.records[0].knobs == {}

    def test_island_axis(self, engine, tiny_spec):
        result = engine.grid_exploration(
            tiny_spec.single_island(), islands=[1, 2], strategies=("logical",)
        )
        assert [r.knobs["islands"] for r in result.records] == [1, 2]

    def test_rejects_bad_axes(self, engine, tiny_spec):
        with pytest.raises(SpecError):
            engine.grid_exploration(tiny_spec, islands=[2], strategies=("psychic",))
        with pytest.raises(SpecError):
            engine.grid_exploration(tiny_spec, widths=[0])

    def test_pareto_merge_drops_dominated(self, engine, tiny_spec):
        result = engine.grid_exploration(tiny_spec, widths=[32, 64])
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


class TestOnePartitionerPerSweep:
    """Each strategy partitions all of a sweep's island counts with one
    ``IslandPartitioner``, whose specs equal the per-count calls'."""

    COUNTS = [2, 4, 6, 8]

    @pytest.fixture
    def built(self, monkeypatch):
        """Graph sizes of the partitioners ``soc.partitioning`` builds."""
        sizes = []
        real = partitioning.IslandPartitioner

        def counting(nodes, *args, **kwargs):
            sizes.append(len(nodes))
            return real(nodes, *args, **kwargs)

        monkeypatch.setattr(partitioning, "IslandPartitioner", counting)
        return sizes

    def test_grid_sweep(self, built, monkeypatch):
        spec = generate_soc(GeneratorConfig(name="gen40", num_cores=40, num_groups=2, seed=4))
        engine = ExplorationEngine(workers=1)
        tasks = handed_tasks(engine, monkeypatch)
        engine.grid_exploration(
            spec, islands=self.COUNTS, strategies=("communication", "logical"),
            alphas=[0.4, 0.8],
        )
        assert built == [40]
        expected = [communication_partitioning(spec, n) for n in self.COUNTS]
        communication = [t.spec for t in tasks if t.knobs["strategy"] == "communication"]
        assert communication == [s for s in expected for _ in (0.4, 0.8)]
        logical = [t.spec for t in tasks if t.knobs["strategy"] == "logical"]
        assert logical == [logical_partitioning(spec, n) for n in self.COUNTS for _ in (0.4, 0.8)]

    def test_island_count_tasks(self, built, d26, monkeypatch):
        engine = ExplorationEngine(workers=1)
        tasks = handed_tasks(engine, monkeypatch)
        engine.grid_exploration(d26, self.COUNTS, strategies=("communication",))
        assert built == [len(d26.cores)]
        assert [t.spec for t in tasks] == [
            communication_partitioning(d26, n) for n in self.COUNTS
        ]

    def test_one_count_form_checks_the_count(self, d26):
        with pytest.raises(SpecError, match="island count"):
            communication_partitioning(d26, len(d26.cores) + 1)


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

        from repro import TraceEnergyObjective
        from repro.core.design_point import DesignSpace
        from repro.core.explore import ObjectiveSelector
        from repro.runtime import simulate as simulate_mod

        # The trace objectives look the simulator up at call time.
        monkeypatch.setattr(
            simulate_mod,
            "simulate_trace",
            lambda *a, **k: types.SimpleNamespace(
                total_mj=42.0, average_power_mw=1.0
            ),
        )
        selector = ObjectiveSelector(TraceEnergyObjective(trace=object()))  # simulator stubbed
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
        from repro import TraceEnergyObjective
        from repro.core.explore import ObjectiveSelector
        from repro.runtime import make_policy, simulate_trace

        selector = ObjectiveSelector(TraceEnergyObjective(trace=trace))
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
        from repro import TraceEnergyObjective

        engine = ExplorationEngine(
            config=SynthesisConfig(max_intermediate=1),
            objective=TraceEnergyObjective(trace=trace),
        )
        records = engine.grid_exploration(tiny_spec.single_island(), [2]).records
        assert len(records) == 1
        assert records[0].feasible
        assert records[0].knobs == {"islands": 2, "strategy": "logical"}
        assert records[0].extras["trace_mj"] > 0
