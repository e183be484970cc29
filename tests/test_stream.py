"""Event-feed tests: the recorder's events, sinks, merge, follow mode.

Covers the feed of ``repro.perf.Recorder`` with ``repro.obs.stream``
and ``repro.obs.live`` end to end: monotone per-process sequence
numbers, sink fan-out and bounded capture, cross-process merge
ordering byte-identical to the post-hoc export, JSONL sink determinism
under ``timing=False``, tailing a partially written feed, the emit
hooks (spans, control telemetry), the engine's ``close()`` flush of
mid-sweep worker payloads, the cache hit-rate satellite, and the
``--live`` / ``--stream`` / ``--follow`` CLI surfaces.  See
docs/observability.md.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import SynthesisConfig, protect_design_point
from repro.cli import main
from repro.control import ReconfigurationController, TELEMETRY_KINDS
from repro.control.telemetry import TelemetryEvent, publish_telemetry
from repro.core.explore import ExplorationEngine
from repro.exceptions import SpecError
from repro.obs import (
    CallbackSink,
    JsonlSink,
    LiveRenderer,
    LiveStatus,
    MemorySink,
    MetricsRegistry,
    cache_lines,
    canonical_events,
    event_from_record,
    event_lines,
    event_record,
    follow_events,
    prometheus_text,
    read_events,
    record_cache_hit_rates,
    render_dashboard,
    status_lines,
)
from repro.obs.live import follow_render
from repro.perf import ObsEvent, Outbox, Recorder, recording, span
from repro.resilience import FaultEvent, enumerate_scenarios, route_affected
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.usecases import use_cases_for

pytestmark = [pytest.mark.obs, pytest.mark.stream]

FAST = SynthesisConfig(max_intermediate=1)


# ----------------------------------------------------------------------
# Recorder feed: sequence numbers, sinks, merge
# ----------------------------------------------------------------------


class TestRecorderFeed:
    def test_sequence_monotone_across_kinds(self):
        capture = MemorySink()
        rec = Recorder(sinks=[capture])
        events = [
            rec.emit(kind, "e%d" % i)
            for i, kind in enumerate(
                ["span", "telemetry", "progress", "heartbeat"] * 3
            )
        ]
        assert [e.seq for e in events] == list(range(12))
        assert all(e.process == "main" for e in events)
        assert capture.events == events
        assert capture.dropped == 0

    def test_memory_sink_bounded(self):
        sink = MemorySink(max_events=3)
        rec = Recorder(sinks=[sink])
        for i in range(5):
            rec.emit("span", "e%d" % i)
        assert [e.name for e in sink.events] == ["e2", "e3", "e4"]
        assert sink.dropped == 2
        with pytest.raises(SpecError):
            MemorySink(max_events=-1)

    def test_callback_sink_swallows_errors(self):
        seen = []

        def cb(event):
            if event.name == "bad":
                raise RuntimeError("sink bug")
            seen.append(event.name)

        rec = Recorder(sinks=[CallbackSink(cb)])
        rec.emit("span", "ok")
        rec.emit("span", "bad")
        rec.emit("span", "ok2")
        assert seen == ["ok", "ok2"]
        assert rec.sinks[0].errors == 1

    def test_emit_needs_a_recorder_with_sinks(self):
        rec = Recorder()
        assert rec.emit("span", "nobody-listening") is None
        capture = MemorySink()
        rec.sinks.append(capture)
        event = rec.emit("progress", "x", attrs={"i": 1})
        # Nothing was built (or numbered) while the recorder had no sinks.
        assert event is not None and event.seq == 0
        assert capture.events == [event]

    def test_merge_relabels_events_and_keeps_seqs(self):
        worker = Recorder("worker", sinks=[Outbox()])
        worker.emit("heartbeat", "task")
        worker.emit("span", "s")
        capture = MemorySink()
        parent = Recorder(sinks=[capture])
        parent.emit("progress", "sweep.start")
        parent.merge(worker.snapshot(), process="task3")
        assert [(e.process, e.seq) for e in capture.events] == [
            ("main", 0), ("task3", 0), ("task3", 1),
        ]
        assert "task3" in parent.process_meta


# ----------------------------------------------------------------------
# Serialization: records, canonical order, JSONL determinism
# ----------------------------------------------------------------------


class TestSerialization:
    def test_timing_strip_and_roundtrip(self):
        event = ObsEvent(
            process="main", seq=7, kind="span", name="synthesis",
            attrs={"k": 1}, t_s=0.5, timing={"duration_s": 0.25},
        )
        with_timing = event_record(event, timing=True)
        assert with_timing["t_s"] == 0.5
        assert with_timing["timing"] == {"duration_s": 0.25}
        stripped = event_record(event, timing=False)
        assert "t_s" not in stripped and "timing" not in stripped
        back = event_from_record(with_timing)
        assert (back.process, back.seq, back.kind, back.name) == (
            "main", 7, "span", "synthesis",
        )
        assert back.attrs == {"k": 1}

    def test_canonical_order_is_process_then_seq(self):
        events = [
            ObsEvent(process="task1", seq=0, kind="span", name="b"),
            ObsEvent(process="main", seq=1, kind="span", name="a2"),
            ObsEvent(process="task0", seq=1, kind="span", name="c"),
            ObsEvent(process="main", seq=0, kind="span", name="a1"),
            ObsEvent(process="task0", seq=0, kind="span", name="d"),
        ]
        ordered = canonical_events(events)
        assert [(e.process, e.seq) for e in ordered] == [
            ("main", 0), ("main", 1),
            ("task0", 0), ("task0", 1), ("task1", 0),
        ]

    def test_jsonl_sink_deterministic_without_timing(self, tmp_path):
        def run(path):
            with recording(Recorder(sinks=[JsonlSink(path, timing=False)])) as rec:
                rec.emit("progress", "start", attrs={"n": 2})
                rec.emit("span", "work", attrs={"i": 0}, timing={"duration_s": 0.1})
                rec.emit("progress", "done")

        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run(a)
        run(b)
        bytes_a = (tmp_path / "a.jsonl").read_bytes()
        assert bytes_a == (tmp_path / "b.jsonl").read_bytes()
        assert b"duration_s" not in bytes_a  # timing stripped at the sink

    def test_read_events_tolerates_partial_tail(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        good = json.dumps({"type": "span", "process": "main", "seq": 0,
                           "name": "a", "attrs": {}})
        path.write_text(good + "\n" + '{"type": "span", "se')
        events = read_events(str(path))
        assert len(events) == 1 and events[0].name == "a"

    def test_read_events_raises_on_interior_corruption(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('not json at all\n{"type": "span"}\n')
        with pytest.raises(SpecError):
            read_events(str(path))


# ----------------------------------------------------------------------
# Follow mode: tailing a live (partially written) feed
# ----------------------------------------------------------------------


class TestFollow:
    def test_follow_holds_partial_line_until_newline(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        line = lambda i: json.dumps(
            {"type": "span", "process": "main", "seq": i, "name": "e%d" % i,
             "attrs": {}}
        )
        with open(path, "w") as fh:
            fh.write(line(0) + "\n" + line(1) + "\n")
            half = line(2)
            fh.write(half[: len(half) // 2])  # writer caught mid-line
        got = list(
            follow_events(str(path), poll_s=0.02, idle_timeout_s=0.2)
        )
        assert [e.name for e in got] == ["e0", "e1"]
        # The writer finishes the line: a fresh follow sees all three.
        with open(path, "a") as fh:
            fh.write(half[len(half) // 2:] + "\n")
        got = list(
            follow_events(str(path), poll_s=0.02, idle_timeout_s=0.2)
        )
        assert [e.name for e in got] == ["e0", "e1", "e2"]

    def test_follow_skips_corrupt_interior_lines(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(
            '{"type":"span","process":"main","seq":0,"name":"ok","attrs":{}}\n'
            "garbage line\n"
            '{"type":"span","process":"main","seq":1,"name":"ok2","attrs":{}}\n'
        )
        got = list(follow_events(str(path), poll_s=0.02, idle_timeout_s=0.2))
        assert [e.name for e in got] == ["ok", "ok2"]

    def test_follow_missing_file_times_out_empty(self, tmp_path):
        got = list(
            follow_events(
                str(tmp_path / "never.jsonl"), poll_s=0.02, idle_timeout_s=0.1
            )
        )
        assert got == []

    def test_follow_restarts_when_feed_is_recreated(self, tmp_path):
        # JsonlSink truncates on open, so a producer re-run rewrites the
        # feed from byte 0; the follower must read it again from there.
        path = tmp_path / "feed.jsonl"
        line = lambda name: json.dumps(
            {"type": "span", "process": "main", "seq": 0, "name": name,
             "attrs": {}}
        ) + "\n"
        path.write_text("".join(line("old%d" % i) for i in range(20)))
        follower = follow_events(str(path), poll_s=0.02, idle_timeout_s=0.3)
        assert [next(follower).name for _ in range(20)] == [
            "old%d" % i for i in range(20)
        ]
        path.write_text("".join(line("new%d" % i) for i in range(3)))
        with open(path, "a") as fh:
            fh.write("".join(line("new%d" % i) for i in range(3, 6)))
        assert [e.name for e in follower] == ["new%d" % i for i in range(6)]

    def test_follow_stop_callback(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("")
        got = list(
            follow_events(str(path), poll_s=0.02, idle_timeout_s=None,
                          stop=lambda: True)
        )
        assert got == []


# ----------------------------------------------------------------------
# Emit hooks: spans, control telemetry
# ----------------------------------------------------------------------


class TestEmitHooks:
    def test_span_close_emits_event(self):
        capture = MemorySink()
        with recording(Recorder(sinks=[capture])) as rec:
            with span("synthesis", spec="tiny"):
                with span("allocate", k_mid=1):
                    pass
        # Spans close inner-first; events follow completion order.
        events = capture.events
        assert [e.name for e in events] == ["synthesis/allocate", "synthesis"]
        inner = events[0]
        assert inner.kind == "span"
        assert inner.attrs["path"] == "synthesis/allocate"
        assert inner.attrs["depth"] == 1
        assert inner.attrs["attrs"] == {"k_mid": 1}
        assert "duration_s" in inner.timing
        # Same identity as the recorded span.
        assert inner.attrs["span_id"] == rec.ordered()[1].span_id

    def test_span_without_bus_records_only(self):
        with recording() as rec:
            with span("solo"):
                pass
        assert len(rec.spans) == 1  # no sinks, no crash, no event
        assert rec._event_seq == 0

    def test_publish_telemetry_event_shape(self):
        capture = MemorySink()
        with recording(Recorder(sinks=[capture])):
            ok = publish_telemetry(
                TelemetryEvent(
                    t_ms=1.25, kind="fault_raised", scenario="link3",
                    flow=("a", "b"), detail="x",
                )
            )
        assert ok
        event = capture.events[0]
        assert event.kind == "telemetry" and event.name == "fault_raised"
        assert event.attrs == {
            "t_ms": 1.25, "kind": "fault_raised", "scenario": "link3",
            "flow": "a->b", "detail": "x",
        }
        assert not publish_telemetry(
            TelemetryEvent(t_ms=0.0, kind="fault_raised", scenario="s")
        )

    def test_controller_streams_telemetry_live(self, tiny_spec, tiny_best):
        prot = protect_design_point(tiny_best, k=1)
        topology = prot.topology
        trace = markov_trace(use_cases_for(tiny_spec), n_segments=24, seed=3)
        scenario = next(
            sc
            for sc in enumerate_scenarios(topology, "single_link")
            if any(
                route_affected(sc, topology, r)
                for r in topology.routes.values()
            )
        )
        event = FaultEvent(
            scenario=scenario,
            start_ms=0.25 * trace.total_ms,
            end_ms=0.6 * trace.total_ms,
        )
        controller = ReconfigurationController(topology, spare_plan=prot.plan)
        capture = MemorySink()
        with recording(Recorder(sinks=[capture])):
            report = simulate_trace(
                topology,
                trace,
                make_policy("break_even"),
                fault_events=[event],
                spare_plan=prot.plan,
                controller=controller,
            )
        streamed = [e for e in capture.events if e.kind == "telemetry"]
        # Every recorded telemetry event was also streamed, live.
        assert len(streamed) == len(report.telemetry)
        assert {e.name for e in streamed} <= set(TELEMETRY_KINDS)
        streamed_keys = sorted(
            (e.attrs["t_ms"], e.attrs["kind"], e.attrs["scenario"])
            for e in streamed
        )
        recorded_keys = sorted(
            (round(t.t_ms, 6), t.kind, t.scenario) for t in report.telemetry
        )
        assert streamed_keys == recorded_keys


# ----------------------------------------------------------------------
# Sweep feed: progress, cross-process merge
# ----------------------------------------------------------------------


def _sweep_events(tiny_spec, workers, sink_path=None):
    """Run a 4-point alpha sweep under a recorder with sinks; return events."""
    capture = MemorySink()
    sinks = [capture]
    if sink_path is not None:
        sinks.append(JsonlSink(sink_path, timing=False))
    with recording(Recorder(sinks=sinks)):
        with ExplorationEngine(workers=workers, config=FAST) as engine:
            records = engine.alpha_exploration(
                tiny_spec, [0.2, 0.4, 0.6, 0.8]
            )
    return records, capture.events


class TestSweepStreaming:
    def test_serial_sweep_emits_progress(self, tiny_spec):
        records, events = _sweep_events(tiny_spec, workers=1)
        assert len(records) == 4
        progress = [e for e in events if e.kind == "progress"]
        assert progress[0].name == "sweep.start"
        assert progress[0].attrs == {"tasks": 4, "workers": 1}
        tasks = [e for e in progress if e.name == "sweep.task"]
        assert [e.attrs["index"] for e in tasks] == [0, 1, 2, 3]
        assert all(e.attrs["total"] == 4 for e in tasks)
        assert progress[-1].name == "sweep.done"
        assert progress[-1].attrs["feasible"] == sum(
            1 for r in records if r.feasible
        )

    def test_parallel_merge_matches_posthoc_export(self, tiny_spec, tmp_path):
        path = str(tmp_path / "live.jsonl")
        records, captured = _sweep_events(tiny_spec, workers=2, sink_path=path)
        assert len(records) == 4
        # Worker streams arrived relabelled task0..task3, with their
        # heartbeats and spans, alongside the parent's progress feed.
        processes = {e.process for e in captured}
        assert processes == {"main", "task0", "task1", "task2", "task3"}
        assert {e.kind for e in captured} >= {"progress", "heartbeat", "span"}
        # The acceptance property: the live JSONL feed, canonicalized
        # and timing-stripped, is byte-identical to the post-hoc export
        # of the in-memory capture of the same run.
        live = event_lines(canonical_events(read_events(path)), timing=False)
        posthoc = event_lines(canonical_events(captured), timing=False)
        assert "\n".join(live) == "\n".join(posthoc)

    def test_parallel_stream_deterministic_across_runs(self, tiny_spec):
        _, first = _sweep_events(tiny_spec, workers=2)
        _, second = _sweep_events(tiny_spec, workers=2)
        lines = lambda evs: event_lines(canonical_events(evs), timing=False)
        assert lines(first) == lines(second)

    def test_serial_and_parallel_worker_spans_agree(self, tiny_spec):
        # Within each task<i> stream, span events appear in the same
        # deterministic completion order the serial run produces.
        _, parallel = _sweep_events(tiny_spec, workers=2)
        per_task = {}
        for e in canonical_events(parallel):
            if e.kind == "span":
                per_task.setdefault(e.process, []).append(e.name)
        assert set(per_task) == {"task%d" % i for i in range(4)}
        roots = {names[-1] for names in per_task.values()}
        assert roots == {"explore.task"}  # the task root closes last
        _, serial = _sweep_events(tiny_spec, workers=1)
        serial_names = [e.name for e in serial if e.kind == "span"]
        assert serial_names == [
            name for i in range(4) for name in per_task["task%d" % i]
        ]

    def test_no_bus_means_no_worker_event_payloads(self, tiny_spec):
        with ExplorationEngine(workers=2, config=FAST) as engine:
            records = engine.alpha_exploration(tiny_spec, [0.2, 0.8])
        assert len(records) == 2  # no observers: nothing to ship or merge


# ----------------------------------------------------------------------
# Cache hit-rate satellite
# ----------------------------------------------------------------------


class TestCacheHitRate:
    def _registry(self):
        reg = MetricsRegistry()
        hits = reg.counter("cache.hits")
        hits.inc(3, tier="memory", kind="space")
        hits.inc(1, tier="disk", kind="space")
        reg.counter("cache.misses").inc(4, kind="space")
        return reg

    def test_rates_share_total_lookup_denominator(self):
        reg = self._registry()
        rates = record_cache_hit_rates(reg)
        assert rates == {"memory": 3 / 8, "disk": 1 / 8, "overall": 4 / 8}
        gauge = reg.get("cache.hit_rate")
        assert gauge.value(tier="overall") == 0.5
        assert gauge.value(tier="memory") == pytest.approx(0.375)

    def test_no_lookups_no_gauge(self):
        reg = MetricsRegistry()
        assert record_cache_hit_rates(reg) == {}
        assert reg.get("cache.hit_rate") is None

    def test_dashboard_and_prometheus_surface_rates(self):
        reg = self._registry()
        record_cache_hit_rates(reg)
        lines = cache_lines(reg)
        assert any("overall" in line and "50.0%" in line for line in lines)
        text = render_dashboard(registry=reg)
        assert "cache hit rate" in text
        prom = prometheus_text(reg)
        assert "cache_hit_rate" in prom
        assert 'cache_hit_rate{tier="overall"} 0.5' in prom

    def test_rates_recompute_idempotently(self):
        reg = self._registry()
        record_cache_hit_rates(reg)
        reg.counter("cache.hits").inc(4, tier="memory", kind="space")
        rates = record_cache_hit_rates(reg)
        # 7 memory + 1 disk hits over 12 lookups now.
        assert rates["overall"] == pytest.approx(8 / 12)
        assert rates["memory"] == pytest.approx(7 / 12)


# ----------------------------------------------------------------------
# Live renderer
# ----------------------------------------------------------------------


def _progress(seq, name, attrs):
    return ObsEvent(
        process="main", seq=seq, kind="progress", name=name, attrs=attrs
    )


class TestLiveView:
    def test_status_folds_progress_and_spans(self):
        status = LiveStatus()
        status.apply(_progress(0, "sweep.start", {"tasks": 2, "workers": 2}))
        status.apply(
            ObsEvent(process="task0", seq=0, kind="heartbeat", name="task",
                     attrs={"phase": "start"})
        )
        status.apply(
            ObsEvent(process="task0", seq=1, kind="span", name="explore.task",
                     timing={"duration_s": 0.5})
        )
        status.apply(
            _progress(1, "sweep.task",
                      {"index": 0, "total": 2, "feasible": True,
                       "design_points": 7, "cache_hits": 3, "cache_misses": 1})
        )
        status.apply(_progress(2, "sweep.done", {"tasks": 2, "feasible": 1}))
        assert (status.tasks_total, status.tasks_done) == (2, 1)
        assert status.feasible == 1 and status.design_points == 7
        assert (status.cache_hits, status.cache_misses) == (3, 1)
        assert status.span_seconds["explore.task"] == pytest.approx(0.5)
        assert status.done
        lines = status_lines(status)
        assert "sweep 1/2 tasks" in lines[0] and "done" in lines[0]
        assert any("cache 3 hits / 1 misses" in line for line in lines)

    def test_sweep_start_begins_a_fresh_tally(self):
        # A re-run writing the same feed: the view shows the new sweep,
        # not a sum whose total is one run's and whose done is both's.
        status = LiveStatus()
        task = {"feasible": True, "design_points": 7, "cache_hits": 3,
                "cache_misses": 1}
        status.apply(_progress(0, "sweep.start", {"tasks": 2, "workers": 2}))
        status.apply(_progress(1, "sweep.task", task))
        status.apply(_progress(2, "sweep.task", task))
        status.apply(_progress(3, "sweep.done", {"tasks": 2, "feasible": 2}))
        status.apply(_progress(0, "sweep.start", {"tasks": 3, "workers": 1}))
        status.apply(_progress(1, "sweep.task", dict(task, feasible=False)))
        assert (status.tasks_total, status.tasks_done, status.feasible) == (3, 1, 0)
        assert status.design_points == 7
        assert (status.cache_hits, status.cache_misses) == (3, 1)
        assert not status.done
        assert status_lines(status)[0].startswith("sweep 1/3 tasks")

    def test_stall_detection_uses_arrival_clock(self):
        status = LiveStatus()
        beat = lambda proc, phase, t: status.apply(
            ObsEvent(process=proc, seq=0, kind="heartbeat", name="task",
                     attrs={"phase": phase}),
            now=t,
        )
        beat("task0", "start", 100.0)
        beat("task1", "start", 105.9)
        beat("task2", "end", 100.0)
        # task0 is mid-task and silent past the threshold; task1 is
        # fresh; task2 finished, so its silence is idleness, not a stall.
        assert status.stalled(5.0, now=106.0) == ["task0"]
        assert status.stalled(5.0, now=103.0) == []

    def test_renderer_non_tty_logs_headlines(self):
        out = io.StringIO()
        renderer = LiveRenderer(stream=out, interval_s=0.0)
        renderer.on_event(_progress(0, "sweep.start", {"tasks": 1, "workers": 1}))
        renderer.on_event(
            _progress(1, "sweep.task",
                      {"index": 0, "total": 1, "feasible": True,
                       "design_points": 3})
        )
        renderer.close()
        text = out.getvalue()
        assert "sweep 1/1 tasks" in text
        assert "\x1b[" not in text  # no ANSI control codes off-TTY

    def test_follow_render_consumes_feed(self, tiny_spec, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        _sweep_events(tiny_spec, workers=2, sink_path=path)
        status = follow_render(
            path, stream=io.StringIO(), poll_s=0.02, idle_timeout_s=0.2
        )
        assert status.tasks_done == 4 and status.done
        assert status.by_kind["span"] > 0


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestCli:
    def test_sweep_live_events_then_follow(self, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        code = main(
            ["sweep", "d12_auto", "--counts", "1,2", "--workers", "2",
             "--live", "--events", events, "--no-timing"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote %s" % events in out
        feed = read_events(events)
        assert {e.kind for e in feed} >= {"progress", "heartbeat", "span"}
        # Deterministic feed: canonicalized lines match a re-read.
        assert event_lines(canonical_events(feed), timing=False)
        code = main(["obs", "--follow", events, "--follow-timeout", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "followed %s: %d events" % (events, len(feed)) in out
        assert "4/4 tasks" in out

    def test_obs_without_benchmark_or_follow_errors(self, capsys):
        assert main(["obs"]) == 2
        assert "benchmark is required" in capsys.readouterr().err

    def test_control_stream_prints_live_telemetry(self, capsys):
        code = main(
            ["control", "d12_auto", "--islands", "3", "--scenario", "0",
             "--stream"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault_raised" in out
        # The live lines precede the post-hoc table.
        assert out.index("fault_raised") < out.index("scenario")
