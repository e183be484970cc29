"""Edge cases of the instrumentation recorder (repro.perf.instrument).

The recorder is module-global state consulted from hot paths, so the
corners matter: repeated and nested spans must accumulate into their
name's phase time (not overwrite), ``recording()`` must restore the
previously installed recorder even when the block raises, counter
flushes and spans with no active recorder must be true no-ops (the hot
path is traversed unrecorded far more often than recorded), and
``merge`` must sum — it is how parallel exploration workers ship their
share of the run home.  ``TestPinnedWork`` pins how much instrumentation
one synthesis does, so a span or flush added to a per-pop or per-edge
path fails here.
"""

from __future__ import annotations

import collections
import time

import pytest

from repro import SynthesisConfig, synthesize
from repro.perf import Recorder, active_recorder, recording, span
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning

from _helpers import pin_fanout_width

pytestmark = pytest.mark.obs

FAST = SynthesisConfig(max_intermediate=1)


class TestPhases:
    """A stage's phase time is the total of its spans by name."""

    def test_repeated_phase_accumulates(self):
        with recording() as rec:
            with span("alloc"):
                time.sleep(0.001)
            first = rec.seconds_by_name()["alloc"]
            with span("alloc"):
                time.sleep(0.001)
        assert rec.seconds_by_name()["alloc"] > first

    def test_nested_same_name_phases_accumulate_both_intervals(self):
        # A name re-entered while already open adds *both* intervals
        # (cumulative semantics): the total can exceed the wall-clock
        # of the outer block alone.
        with recording() as rec:
            t0 = time.perf_counter()
            with span("stage"):
                with span("stage"):
                    time.sleep(0.002)
            outer = time.perf_counter() - t0
        assert list(rec.seconds_by_name()) == ["stage"]
        assert rec.seconds_by_name()["stage"] >= outer
        assert rec.seconds_by_name()["stage"] >= 2 * 0.002

    def test_phase_records_on_exception(self):
        with recording() as rec:
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        assert rec.seconds_by_name()["doomed"] >= 0.0
        assert rec._stack == []


class TestRecordingScope:
    def test_recording_restores_previous_recorder_on_exception(self):
        with recording() as outer:
            with pytest.raises(RuntimeError):
                with recording(Recorder()) as inner:
                    assert active_recorder() is inner
                    assert inner is not outer
                    raise RuntimeError("boom")
            assert active_recorder() is outer
        assert active_recorder() is None

    def test_recording_yields_fresh_recorder_and_uninstalls(self):
        assert active_recorder() is None
        with recording() as rec:
            assert active_recorder() is rec
        assert active_recorder() is None

    def test_nested_recording_scopes(self):
        with recording() as outer:
            with recording() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer


class TestCounterFlush:
    def test_flush_without_recorder_is_noop(self, tiny_spec):
        # Synthesis flushes its hot-path counters per allocation; with
        # no recorder installed the flush must vanish without leaving
        # pending state behind.  Identical recorded runs bracketing an
        # unrecorded one must therefore count identically.
        assert active_recorder() is None
        with recording() as before:
            synthesize(tiny_spec, config=FAST)
        synthesize(tiny_spec, config=FAST)  # unrecorded: None path
        with recording() as after:
            synthesize(tiny_spec, config=FAST)
        assert before.counters
        assert before.counters == after.counters

    def test_count_accumulates(self):
        rec = Recorder()
        rec.count("x")
        rec.count("x", 4)
        assert rec.counters == {"x": 5}


class TestMergeSnapshot:
    def test_merge_sums_counters_and_phases(self):
        a = Recorder()
        a.count("pops", 2)
        with a.span("alloc"):
            pass
        b = Recorder("worker")
        b.count("pops", 3)
        b.count("evals", 7)
        with b.span("alloc"):
            pass
        with b.span("eval"):
            pass
        a.merge(b.snapshot(), process="task0")
        assert a.counters == {"pops": 5, "evals": 7}
        totals = a.totals_by_path()
        assert totals["alloc"][0] == 2 and totals["eval"][0] == 1
        assert a.seconds_by_name()["alloc"] == pytest.approx(
            sum(s.duration_s for s in a.spans if s.name == "alloc")
        )
        assert {s.process for s in a.spans} == {"main", "task0"}

    def test_merge_empty_snapshot_is_noop(self):
        a = Recorder()
        a.count("x", 1)
        a.merge(Recorder("worker").snapshot(), process="task0")
        assert a.counters == {"x": 1}
        assert a.spans == []


#: Spans and ``count`` calls of one ``synthesize`` of the gen80 spec
#: (generator seed 0, 4 islands, default config) that
#: ``tests/test_partition.py::TestPinnedWork`` pins step-11 work on.
PINNED_SPANS = {"synthesis": 1, "partition": 20, "allocate": 80, "evaluate": 20}
PINNED_COUNT_CALLS = 280


class TestPinnedWork:
    """The ``count`` wrapper sees calls in this process only, so the
    synthesis run is pinned to one process."""

    def test_generated_80_core_instrumentation(self, monkeypatch):
        spec = communication_partitioning(
            generate_soc(GeneratorConfig(name="gen80", num_cores=80, num_groups=4, seed=0)),
            4,
        )
        pin_fanout_width(monkeypatch, 1)
        calls = []
        original = Recorder.count

        def count(self, name, n=1):
            calls.append(name)
            original(self, name, n)

        monkeypatch.setattr(Recorder, "count", count)
        with recording() as rec:
            synthesize(spec)
        assert dict(collections.Counter(s.name for s in rec.spans)) == PINNED_SPANS
        assert len(rec.spans) == 121
        assert len(calls) == PINNED_COUNT_CALLS
