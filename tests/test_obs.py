"""Observability layer tests: spans, metrics, exporters, dashboard.

Covers ``repro.obs`` end to end over the ``repro.perf`` recorder:
deterministic span identity and ordering, the typed metrics registry
(counter/gauge/histogram) and its projection of a recorder,
byte-identical exports across reruns (Chrome trace, JSON lines,
Prometheus text), the cross-process span/counter merge of parallel
exploration sweeps, the runtime/control metric builders, the
text/HTML dashboard, and the ``repro-noc obs`` / ``control
--telemetry-out`` CLI surfaces.  See docs/observability.md.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro import SynthesisConfig, protect_design_point, synthesize
from repro.cli import main
from repro.control import TELEMETRY_KINDS, ReconfigurationController
from repro.core.explore import ExplorationEngine
from repro.exceptions import SpecError
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    chrome_trace_events,
    chrome_trace_json,
    counter_lines,
    event_lines,
    follow_render,
    island_gantt_lines,
    phase_breakdown_lines,
    prometheus_text,
    record_control_metrics,
    record_perf_metrics,
    record_runtime_metrics,
    recovery_timeline_lines,
    render_dashboard,
    render_html,
    telemetry_log_lines,
    write_lines,
)
from repro.perf import Recorder, active_recorder, recording, span, stable_span_id
from repro.perf.instrument import _NULL_SPAN
from repro.resilience import FaultEvent, enumerate_scenarios, route_affected
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.usecases import use_cases_for

pytestmark = pytest.mark.obs

FAST = SynthesisConfig(max_intermediate=1)


@pytest.fixture(scope="module")
def controlled_report(tiny_spec, tiny_best):
    """A controlled fault replay on the tiny spec (recoveries present)."""
    prot = protect_design_point(tiny_best, k=1)
    topology = prot.topology
    trace = markov_trace(use_cases_for(tiny_spec), n_segments=24, seed=3)
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
    controller = ReconfigurationController(topology, spare_plan=prot.plan)
    return simulate_trace(
        topology,
        trace,
        make_policy("break_even"),
        fault_events=[event],
        spare_plan=prot.plan,
        controller=controller,
    )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_stable_span_id_is_pure(self):
        assert stable_span_id("synthesis/allocate", 3) == stable_span_id(
            "synthesis/allocate", 3
        )
        assert stable_span_id("synthesis/allocate", 3) != stable_span_id(
            "synthesis/allocate", 4
        )
        assert stable_span_id("a", 0) != stable_span_id("b", 0)

    def test_disabled_span_is_shared_null(self):
        assert active_recorder() is None
        s = span("anything", k=1)
        assert s is _NULL_SPAN
        assert s is span("something_else")
        with s as opened:
            assert opened is None

    def test_nesting_paths_depths_and_parents(self):
        with recording() as recorder:
            with span("a") as sa:
                with span("b"):
                    pass
                with span("c"):
                    pass
        ordered = recorder.ordered()
        assert [(s.name, s.path, s.depth, s.seq) for s in ordered] == [
            ("a", "a", 0, 0),
            ("b", "a/b", 1, 1),
            ("c", "a/c", 1, 2),
        ]
        root = ordered[0]
        assert root.parent_id is None
        assert all(s.parent_id == root.span_id for s in ordered[1:])
        assert root.span_id == stable_span_id("a", 0)
        assert sa is not None

    def test_set_attaches_result_attrs(self):
        with recording() as recorder:
            with span("work", input=3) as s:
                s.set(output=9)
        (rec,) = recorder.spans
        assert rec.attrs == {"input": 3, "output": 9}

    def test_merge_relabels_and_tracks_pid(self):
        worker = Recorder("worker")
        with worker.span("explore.task", alpha=0.2):
            pass
        snap = worker.snapshot()
        snap["pid"] = 4242  # simulate a different process
        parent = Recorder()
        parent.merge(snap, process="task0")
        (s,) = parent.spans
        assert s.process == "task0"
        assert s.name == "explore.task"
        assert parent.process_meta["task0"] == 4242
        assert "main" in parent.process_meta

    def test_synthesis_span_taxonomy(self, tiny_spec):
        with recording() as recorder:
            synthesize(tiny_spec, config=FAST)
        paths = {s.path for s in recorder.spans}
        assert "synthesis" in paths
        assert "synthesis/partition" in paths
        assert "synthesis/allocate" in paths
        assert "synthesis/evaluate" in paths
        root = next(s for s in recorder.spans if s.path == "synthesis")
        assert root.attrs["design_points"] >= 1

    def test_simulate_span(self, tiny_spec, tiny_best):
        trace = markov_trace(use_cases_for(tiny_spec), n_segments=8, seed=3)
        with recording() as recorder:
            simulate_trace(tiny_best.topology, trace, make_policy("break_even"))
        root = next(s for s in recorder.spans if s.path == "runtime.simulate")
        assert root.attrs["policy"] == "break_even"
        assert root.attrs["controlled"] is False


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(2, island=1)
        c.inc(3, island=1)
        assert c.value(island=1) == 5
        with pytest.raises(SpecError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("g")
        g.set(1.0, island=0)
        g.set(7.5, island=0)
        assert g.value(island=0) == 7.5
        assert g.value(island=9) is None

    def test_histogram_bucket_placement(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 3.0, 10.0):
            h.observe(v)
        (counts, total, n) = h.samples[()]
        # le-semantics: 0.5 and 1.0 land in the le=1 bucket, 3.0 in
        # le=5, 10.0 in the implicit +Inf bucket.
        assert counts == [2, 0, 1, 1]
        assert total == pytest.approx(14.5)
        assert n == 4 == h.count()
        assert h.sum() == pytest.approx(14.5)

    def test_histogram_rejects_bad_edges(self):
        reg = MetricsRegistry()
        with pytest.raises(SpecError):
            reg.histogram("bad", buckets=())
        with pytest.raises(SpecError):
            reg.histogram("bad2", buckets=(1.0, 1.0, 2.0))

    def test_kind_and_edge_clashes_raise(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(SpecError):
            reg.gauge("x")
        reg.histogram("h", buckets=(1.0, 2.0))
        assert reg.histogram("h", buckets=(1.0, 2.0)).buckets == (1.0, 2.0)
        with pytest.raises(SpecError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_registry_iterates_sorted(self):
        a = MetricsRegistry()
        a.counter("z").inc(1)
        a.counter("a").inc(2)
        a.gauge("g").set(1.0)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        assert [m.name for m in a] == ["a", "g", "h", "z"]

    def test_perf_metrics_projection(self):
        rec = Recorder()
        rec.count("dijkstra_pops", 11)
        with rec.span("synthesis"):
            with rec.span("allocate"):
                pass
            with rec.span("allocate"):
                pass
        reg = MetricsRegistry()
        record_perf_metrics(reg, rec)
        assert reg.counter("perf.counters.dijkstra_pops").value() == 11
        phases = reg.counter("perf.phase_seconds")
        assert {dict(key)["phase"] for key in phases.samples} == {
            "synthesis", "allocate",
        }
        assert phases.value(phase="allocate") == pytest.approx(
            rec.seconds_by_name()["allocate"], abs=1e-6
        )

    def test_runtime_and_control_metric_builders(self, controlled_report):
        reg = MetricsRegistry()
        record_runtime_metrics(reg, controlled_report)
        record_control_metrics(reg, controlled_report)
        residency = reg.gauge("runtime.island.residency_ms")
        assert residency.samples  # one sample per (island, state)
        energy = reg.gauge("runtime.energy_mj")
        assert energy.value(source="total") == pytest.approx(
            controlled_report.total_mj
        )
        assert controlled_report.recoveries  # the fixture hits a route
        recover = reg.histogram("control.recovery_ms")
        assert sum(
            entry[2] for entry in recover.samples.values()
        ) == len(controlled_report.recoveries)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_chrome_trace_shape_and_timing_flag(self, tiny_spec):
        with recording() as recorder:
            synthesize(tiny_spec, config=FAST)
        events = chrome_trace_events(recorder, timing=False)
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta and meta[0]["name"] == "process_name"
        assert spans
        assert all("ts" not in e and "dur" not in e for e in spans)
        timed = chrome_trace_events(recorder, timing=True)
        assert all("ts" in e for e in timed if e["ph"] == "X")
        doc = json.loads(chrome_trace_json(recorder))
        assert "traceEvents" in doc

    def test_exports_byte_identical_across_reruns(self, tiny_spec):
        outs = []
        for _ in range(2):
            capture = MemorySink()
            with recording(Recorder(sinks=[capture])) as recorder:
                synthesize(tiny_spec, config=FAST)
            outs.append(
                (
                    chrome_trace_json(recorder, timing=False),
                    "\n".join(event_lines(capture.events, timing=False)),
                )
            )
        assert outs[0] == outs[1]

    def test_span_events_carry_stable_ids(self, tiny_spec):
        capture = MemorySink()
        with recording(Recorder(sinks=[capture])):
            synthesize(tiny_spec, config=FAST)
        assert capture.events
        for line in event_lines(capture.events):
            rec = json.loads(line)
            assert rec["type"] == "span"
            attrs = rec["attrs"]
            assert attrs["span_id"] == stable_span_id(attrs["path"], attrs["span_seq"])

    def test_telemetry_log_lines_keep_event_kind(self, controlled_report):
        lines = telemetry_log_lines(controlled_report.telemetry)
        assert len(lines) == len(controlled_report.telemetry)
        for line in lines:
            rec = json.loads(line)
            assert rec["type"] == "telemetry"
            assert rec["kind"] in TELEMETRY_KINDS

    def test_write_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        n = write_lines(path, ['{"a":1}', '{"b":2}'])
        assert n == 2
        with open(path) as fh:
            assert fh.read() == '{"a":1}\n{"b":2}\n'

    def test_prometheus_text(self, controlled_report):
        reg = MetricsRegistry()
        record_runtime_metrics(reg, controlled_report)
        record_control_metrics(reg, controlled_report)
        text = prometheus_text(reg)
        assert "# TYPE runtime_island_residency_ms gauge" in text
        assert "# TYPE control_recovery_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "control_recovery_ms_count" in text
        # No raw dotted names escape the sanitizer.
        for line in text.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split("{", 1)[0].split(" ", 1)[0]


# ----------------------------------------------------------------------
# Cross-process merge (parallel exploration sweeps)
# ----------------------------------------------------------------------


class TestParallelMerge:
    def test_workers2_sweep_merges_counters_and_spans(self, tiny_spec):
        # Regression: parallel sweeps used to drop worker counters
        # entirely — the parent saw zero counters.  Both the counters
        # and the span streams must merge.
        alphas = [0.2, 0.4, 0.6, 0.8]
        with recording() as rec:
            with ExplorationEngine(workers=2, config=FAST) as engine:
                records = engine.alpha_exploration(tiny_spec, alphas)
        assert len(records) == len(alphas)
        assert rec.counters, "worker counters were dropped"
        assert "edge_evals" in rec.counters
        task_spans = [s for s in rec.spans if s.process.startswith("task")]
        assert {s.process for s in task_spans} == {
            "task%d" % i for i in range(len(alphas))
        }
        assert all(s.name == "explore.task" for s in task_spans if s.depth == 0)
        # Worker pids were recorded for every merged stream, and each
        # is a worker's, not the parent's.
        assert all(
            rec.process_meta["task%d" % i] != os.getpid()
            for i in range(len(alphas))
        )

    def test_parallel_records_match_serial(self, tiny_spec):
        alphas = [0.2, 0.6]
        with ExplorationEngine(workers=1, config=FAST) as engine:
            serial = engine.alpha_exploration(tiny_spec, alphas)
        with recording():
            with ExplorationEngine(workers=2, config=FAST) as engine:
                parallel = engine.alpha_exploration(tiny_spec, alphas)
        def rows(records):
            # row() carries wall-clock seconds; everything else must match.
            return [
                {k: v for k, v in r.row().items() if k != "seconds"}
                for r in records
            ]

        assert [r.feasible for r in serial] == [r.feasible for r in parallel]
        assert rows(serial) == rows(parallel)

    def test_sweep_without_observers_ships_no_payload(self, tiny_spec):
        # With no recorder installed the workers must not pay for
        # snapshotting (collect_obs stays False end to end).
        with ExplorationEngine(workers=2, config=FAST) as engine:
            records = engine.alpha_exploration(tiny_spec, [0.2, 0.8])
        assert len(records) == 2


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------


class TestDashboard:
    def test_report_carries_island_timelines(self, controlled_report):
        assert any(
            r.timeline for r in controlled_report.per_island.values()
        )
        for r in controlled_report.per_island.values():
            for iv in r.timeline:
                assert str(iv.state) in ("on", "off", "waking")
                assert iv.end_ms >= iv.start_ms

    def test_phase_breakdown(self, tiny_spec):
        with recording() as recorder:
            synthesize(tiny_spec, config=FAST)
        lines = phase_breakdown_lines(recorder)
        text = "\n".join(lines)
        assert "synthesis" in text
        assert "allocate" in text

    def test_recovery_timeline(self, controlled_report):
        text = "\n".join(recovery_timeline_lines(controlled_report))
        assert controlled_report.recoveries[0].scenario in text
        assert "F fault" in text  # marker legend

    def test_island_gantt(self, controlled_report):
        lines = island_gantt_lines(controlled_report)
        assert len(lines) >= len(controlled_report.per_island)
        assert any("#" in line or "." in line for line in lines)

    def test_counter_lines_empty_registry(self):
        assert counter_lines(MetricsRegistry()) == ["  (no counters recorded)"]

    def test_render_dashboard_sections(self, tiny_spec, controlled_report):
        with recording() as recorder:
            synthesize(tiny_spec, config=FAST)
        reg = MetricsRegistry()
        record_runtime_metrics(reg, controlled_report)
        record_control_metrics(reg, controlled_report)
        text = render_dashboard(
            recorder=recorder, registry=reg, report=controlled_report, title="t"
        )
        assert "phase breakdown" in text
        assert "recovery timeline" in text
        assert "island states" in text
        assert "top counters" in text

    def test_render_html_self_contained(self, controlled_report):
        html = render_html(report=controlled_report, title="<t&t>")
        assert html.startswith("<!DOCTYPE html>")
        assert "<pre>" in html
        assert "&lt;t&amp;t&gt;" in html  # title is escaped


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_obs_subcommand_renders_and_exports(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        events_path = str(tmp_path / "events.jsonl")
        prom_path = str(tmp_path / "metrics.prom")
        code = main(
            [
                "obs",
                "d12_auto",
                "--islands",
                "3",
                "--segments",
                "16",
                "--chrome-trace",
                trace_path,
                "--events",
                events_path,
                "--prom",
                prom_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "island states" in out
        with open(trace_path) as fh:
            doc = json.load(fh)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        types = set()
        with open(events_path) as fh:
            for line in fh:
                types.add(json.loads(line)["type"])
        assert "span" in types
        with open(prom_path) as fh:
            assert fh.read().startswith("# ")

    def test_obs_events_feed_follows(self, tmp_path, capsys):
        # `obs --events` writes the feed `obs --follow` reads: span
        # timings and the telemetry kind and scenario survive the trip.
        events_path = str(tmp_path / "events.jsonl")
        code = main(
            ["obs", "d12_auto", "--islands", "3", "--segments", "16",
             "--events", events_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        status = follow_render(
            events_path, stream=io.StringIO(), poll_s=0.02, idle_timeout_s=0.2
        )
        assert status.span_counts
        assert all(status.span_seconds.get(p, 0.0) > 0 for p in status.span_counts)
        kind, scenario = status.telemetry_last.split(" ", 1)
        assert kind in TELEMETRY_KINDS
        assert "under fault %s (" % scenario in out

    def test_obs_subcommand_html(self, tmp_path, capsys):
        html_path = str(tmp_path / "dash.html")
        code = main(
            ["obs", "d12_auto", "--islands", "3", "--segments", "16",
             "--html", html_path]
        )
        assert code == 0
        with open(html_path) as fh:
            html = fh.read()
        assert html.startswith("<!DOCTYPE html>")
        assert "Island states" in html

    def test_control_telemetry_out(self, tmp_path, capsys):
        out_path = str(tmp_path / "telemetry.jsonl")
        code = main(
            ["control", "d12_auto", "--islands", "3", "--segments", "16",
             "--telemetry-out", out_path]
        )
        assert code == 0
        assert ("wrote %s" % out_path) in capsys.readouterr().out
        with open(out_path) as fh:
            for line in fh:
                rec = json.loads(line)
                assert rec["type"] == "telemetry"
                assert rec["kind"] in TELEMETRY_KINDS
