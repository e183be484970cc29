"""Content-addressed synthesis cache: keys, tiers, warm-run parity."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import pickle
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _helpers import make_tiny_spec
from repro import DEFAULT_LIBRARY, OBJECTIVE_NAMES, CoreSpec, TrafficFlow, build_spec
from repro.cache import (
    SCHEMA_VERSION,
    CacheStats,
    CacheStore,
    MemoryTier,
    caching,
    canonical,
    design_space_key,
    design_space_signature,
    fingerprint,
)
from repro.cache import store as store_module
from repro.cli import main
from repro.core import synthesis
from repro.core.explore import ExplorationEngine
from repro.core.objective import (
    Objective,
    ObjectiveResult,
    StaticLatencyObjective,
    make_objective,
)
from repro.core.synthesis import SynthesisConfig, synthesize
from repro.exceptions import (
    CacheCorruptionError,
    CacheError,
    CacheKeyError,
    InfeasibleError,
)
from repro.io.json_io import design_point_summary, topology_to_dict
from repro.runtime import markov_trace
from repro.soc.benchmarks import load_benchmark
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning
from repro.soc.usecases import use_cases_for
from repro.obs import MetricsRegistry, counter_lines, record_cache_metrics
from repro.perf import recording


def _space_summaries(space):
    return [design_point_summary(p) for p in space.points]


def _answer(spec, cfg):
    """What a run hands back: signature, objective results and failures
    in order, or the infeasibility it raised."""
    try:
        space = synthesize(spec, config=cfg)
    except InfeasibleError as exc:
        return "infeasible: %s" % exc
    return (
        design_space_signature(space),
        [p.objective_result for p in space.points],
        space.failures,
    )


def _served(directory, spec, cfg):
    """``cfg``'s run from a fresh store on a populated ``directory``,
    every hit verified, plus the store's hit/miss/put counters."""
    store = CacheStore.open(directory, verify_every=1)
    with caching(store):
        answer = _answer(spec, cfg)
    counters = store.stats.counters
    traffic = {k: v for k, v in counters.items() if k.startswith(("hits.", "misses.", "puts."))}
    return answer, traffic, counters.get("verify_mismatches", 0)


def _named_objective(name, spec):
    """The objective ``name`` as the CLI builds it, with short traces."""
    cases = use_cases_for(spec)
    traces = [markov_trace(cases, n_segments=24, seed=seed) for seed in (0, 1)]
    return make_objective(name, trace=traces[0], traces=traces)


#: The payloads two processes race to store under one key.
_RACE_PAYLOADS = {"small": b"s" * 1_000, "large": b"L" * 300_000}


def _rewrite_header(path, **fields):
    """Overwrite header fields of a stored blob, keeping its payload."""
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header.update(fields)
    path.write_bytes(json.dumps(header).encode() + raw[newline:])


def _put_repeatedly(directory, key, name, times):
    """Writer process body (module level, so any start method can run it)."""
    store = CacheStore(directory, max_memory_bytes=0)
    for _ in range(times):
        store.put_object(key, (name, _RACE_PAYLOADS[name]), kind="space")


class TestCanonicalization:
    def test_vi_assignment_order_insensitive(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0, "cpu", "g"),
            CoreSpec("b", 1.0, 10.0, 1.0, "cpu", "g"),
        ]
        flows = [TrafficFlow("a", "b", 10.0, 10.0)]
        s1 = build_spec("x", cores, flows, {"a": 0, "b": 1})
        s2 = build_spec("x", cores, flows, {"b": 1, "a": 0})
        assert s1.fingerprint() == s2.fingerprint()

    def test_spec_name_excluded(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0, "cpu", "g"),
            CoreSpec("b", 1.0, 10.0, 1.0, "cpu", "g"),
        ]
        flows = [TrafficFlow("a", "b", 10.0, 10.0)]
        s1 = build_spec("first", cores, flows, {"a": 0, "b": 0})
        s2 = build_spec("second", cores, flows, {"a": 0, "b": 0})
        assert s1.fingerprint() == s2.fingerprint()

    def test_core_order_matters(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0, "cpu", "g"),
            CoreSpec("b", 1.0, 10.0, 1.0, "cpu", "g"),
        ]
        flows = [TrafficFlow("a", "b", 10.0, 10.0)]
        s1 = build_spec("x", cores, flows, {"a": 0, "b": 0})
        s2 = build_spec("x", list(reversed(cores)), flows, {"a": 0, "b": 0})
        assert s1.fingerprint() != s2.fingerprint()

    def test_float_exactness(self):
        assert canonical(0.1 + 0.2) != canonical(0.3)
        assert canonical(0.5) == canonical(0.5)
        assert canonical(2.0) != canonical(2)

    def test_composite_type_tags_never_collide(self):
        assert canonical([1, 2]) == canonical((1, 2))  # both sequences
        assert canonical([1, 2]) != canonical({1: 2})
        assert canonical({1, 2}) != canonical([1, 2])

    def test_mapping_order_insensitive(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_unrepresentable_value_raises(self):
        with pytest.raises(CacheKeyError):
            canonical(object())

    def test_fingerprint_sensitive_to_kind(self):
        assert fingerprint("a", 1) != fingerprint("b", 1)


class TestConfigKeys:
    def test_enable_caches_excluded(self):
        spec = make_tiny_spec()
        base = SynthesisConfig()
        variant = dataclasses.replace(base, enable_caches=False)
        assert design_space_key(spec, DEFAULT_LIBRARY, variant) == design_space_key(
            spec, DEFAULT_LIBRARY, base
        )

    def test_scoring_options_excluded(self):
        """The record is objective-free: what only scoring reads is keyless."""
        spec = make_tiny_spec()
        base = SynthesisConfig()
        key = design_space_key(spec, DEFAULT_LIBRARY, base)
        for variant in (
            dataclasses.replace(base, objective=StaticLatencyObjective()),
            dataclasses.replace(base, prune_sweep=True),
        ):
            assert design_space_key(spec, DEFAULT_LIBRARY, variant) == key

    def test_alpha_included(self):
        spec = make_tiny_spec()
        base = SynthesisConfig()
        variant = dataclasses.replace(base, alpha=0.4)
        assert design_space_key(spec, DEFAULT_LIBRARY, variant) != design_space_key(
            spec, DEFAULT_LIBRARY, base
        )


class TestMemoryTier:
    def test_lru_evicts_oldest(self):
        tier = MemoryTier(max_bytes=1 << 20, max_entries=2)
        tier.put("k1", b"1", {})
        tier.put("k2", b"2", {})
        tier.get("k1")  # refresh k1 so k2 is the LRU victim
        assert tier.put("k3", b"3", {}) == 1
        assert tier.get("k2") is None
        assert tier.get("k1") is not None and tier.get("k3") is not None

    def test_byte_budget(self):
        tier = MemoryTier(max_bytes=10, max_entries=100)
        tier.put("k1", b"xxxxxx", {})
        tier.put("k2", b"yyyyyy", {})
        assert tier.get("k1") is None
        assert tier.total_bytes == 6

    def test_oversized_payload_not_admitted(self):
        tier = MemoryTier(max_bytes=4, max_entries=100)
        tier.put("k1", b"morethanfour", {})
        assert len(tier) == 0


class TestDiskTier:
    def test_round_trip(self, tmp_path):
        store = CacheStore.open(tmp_path)
        store.put_object("a" * 64, {"x": [1, 2]}, kind="space")
        fresh = CacheStore.open(tmp_path)
        assert fresh.get_object("a" * 64, kind="space") == {"x": [1, 2]}
        assert fresh.stats.counters["hits.disk.space"] == 1
        [(key, header)] = list(fresh.disk.scan_headers())
        assert key == "a" * 64
        assert (header["kind"], header["codec"]) == ("space", "pickle")
        # Verification recomputes from the decoded hit: no stored signature.
        assert "sig" not in header

    def test_legacy_sig_field_ignored(self, tmp_path):
        """Blobs whose header still carries a ``sig`` read as before."""
        store = CacheStore.open(tmp_path)
        key = "a" * 64
        store.put_object(key, [1, 2], kind="space")
        _rewrite_header(store.disk.path_for(key), sig="stale-signature")
        assert CacheStore.open(tmp_path).get_object(key, kind="space") == [1, 2]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw[: len(raw) // 2],  # truncated payload
            lambda raw: b"garbage, no header newline",
            lambda raw: raw.replace(b'"magic"', b'"tragic"', 1),
            lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]),  # bit flip
        ],
    )
    def test_corruption_is_a_miss_and_removed(self, tmp_path, mutate):
        store = CacheStore.open(tmp_path)
        key = "b" * 64
        store.put_object(key, [1, 2, 3], kind="space")
        path = store.disk.path_for(key)
        path.write_bytes(mutate(path.read_bytes()))
        fresh = CacheStore.open(tmp_path)
        assert fresh.get_object(key, kind="space") is None
        assert fresh.stats.counters["corrupt.disk"] == 1
        assert fresh.stats.counters["misses.space"] == 1
        assert not path.exists()

    def test_undecodable_payload_dropped(self, tmp_path):
        """A payload that fails to decode is one miss, never also a hit."""
        store = CacheStore.open(tmp_path)
        key = "c" * 64
        store.put_entry(key, b"\x80not-a-pickle", kind="space", codec="pickle")
        fresh = CacheStore.open(tmp_path)
        # ``fresh`` reads the blob from disk, ``store`` from its memory tier.
        for reader in (fresh, store):
            with recording() as rec:
                assert reader.get_object(key, kind="space") is None
            assert (reader.stats.hits, reader.stats.misses) == (0, 1)
            assert reader.stats.counters["corrupt.decode"] == 1
            assert rec.counters == {"cache_misses": 1}
            assert reader._hit_seq == 0  # the sequence verify_every samples
        assert not store.disk.path_for(key).exists()

    def test_verify_classifies_corrupt_and_stale(self, tmp_path):
        store = CacheStore.open(tmp_path)
        store.put_object("d" * 64, 1, kind="space")
        store.put_object("e" * 64, 2, kind="partition")
        store.put_object("f" * 64, 3, kind="allocation")
        # Corrupt one blob's payload, make another stale (wrong schema
        # in a well-formed header, checksum still valid).
        corrupt_path = store.disk.path_for("e" * 64)
        corrupt_path.write_bytes(corrupt_path.read_bytes()[:-1])
        _rewrite_header(store.disk.path_for("f" * 64), schema=-1)

        report = store.disk.verify(remove=False)
        assert report["checked"] == 3
        assert report["corrupt"] == ["e" * 64]
        assert report["stale"] == ["f" * 64]
        assert report["kinds"] == {"space": 1}
        assert report["removed"] == 0

        report = store.disk.verify(remove=True)
        assert report["removed"] == 2
        assert store.disk.entry_count() == 1

    def test_schema_5_blob_is_stale(self, tmp_path):
        """Schema 6 writes each topology as a packed shell: a schema-5
        record's eager topologies are another layout, so its blob must
        read as stale."""
        store = CacheStore.open(tmp_path)
        store.put_object("a" * 64, 1, kind="space")
        store.put_object("b" * 64, 2, kind="space")
        _rewrite_header(store.disk.path_for("b" * 64), schema=5)
        assert SCHEMA_VERSION == 6
        assert store.disk.verify()["stale"] == ["b" * 64]
        assert CacheStore.open(tmp_path).get_object("b" * 64, kind="space") is None

    def test_put_under_a_file_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        store = CacheStore.open(blocker)
        with pytest.raises(CacheError):
            store.put_object("a" * 64, 1, kind="space")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["not-a-dir"]
        assert blocker.read_text() == ""

    def test_two_processes_writing_one_key(self, tmp_path):
        """Writers of different-sized payloads under one key, racing a
        reader: every read is a miss or one whole payload, never a torn
        or corrupt blob, and no temporary file survives.

        Each writer puts 15 times: replacing an existing blob costs tens
        of milliseconds on some file systems, and the reader decoding
        both payloads shows the writes interleaved with its reads."""
        import multiprocessing
        import time

        key = "d" * 64
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(target=_put_repeatedly, args=(str(tmp_path), key, name, 15))
            for name in _RACE_PAYLOADS
        ]
        for proc in writers:
            proc.start()
        reader = CacheStore(tmp_path, max_memory_bytes=0)
        reads = []
        deadline = time.monotonic() + 60
        try:
            while any(proc.is_alive() for proc in writers) and time.monotonic() < deadline:
                reads.append(reader.get_object(key, kind="space"))
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert [proc.exitcode for proc in writers] == [0, 0]
        reads.append(reader.get_object(key, kind="space"))
        assert reads[-1] is not None
        for value in reads:
            assert value is None or _RACE_PAYLOADS[value[0]] == value[1]
        assert {value[0] for value in reads if value is not None} == set(_RACE_PAYLOADS)
        assert reader.stats.counters.get("corrupt.disk", 0) == 0
        assert reader.stats.counters.get("corrupt.decode", 0) == 0
        report = reader.disk.verify()
        assert (report["checked"], report["corrupt"], report["stale"]) == (1, [], [])
        assert not list(tmp_path.rglob("*.tmp*"))

    def test_clear(self, tmp_path):
        store = CacheStore.open(tmp_path)
        store.put_object("a" * 64, 1, kind="space")
        store.put_object("b" * 64, 2, kind="space")
        assert store.disk.clear() == 2
        assert store.disk.entry_count() == 0


def _noting_gc_state(seen, fn):
    """``fn``, noting in ``seen`` whether the cyclic GC is on at each call."""

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return fn(*args, **kwargs)

    return probe


class _GcStateSelector:
    """Best-power selection with one column: the GC state at selection."""

    def __call__(self, space):
        return space.best_by_power()

    def columns(self, point):
        return {"gc_enabled": gc.isenabled()}

    def column_names(self):
        return ("gc_enabled",)


@dataclasses.dataclass(frozen=True)
class _ConverterCount(Objective):
    """Scores each point by its topology's converters: an objective
    that reads every point's topology."""

    name = "converter_count"

    def evaluate(self, point):
        return ObjectiveResult(cost=(point.topology.num_converters(),))


class TestGcPause:
    """``synthesize`` and each sweep task run with the cyclic GC off, and
    leave it as the caller had it."""

    @pytest.fixture(autouse=True)
    def collector(self):
        """Each test starts with the collector on and may switch it; the
        state it had before the test comes back."""
        was_enabled = gc.isenabled()

        def switch(enabled):
            (gc.enable if enabled else gc.disable)()

        switch(True)
        yield switch
        switch(was_enabled)

    def test_cold_synthesize_runs_paused(self):
        """The record's encode and every nested blob: each point's
        topology and switch positions, and each distinct floorplan
        skeleton."""
        evaluated, encoded, blobs = [], [], []
        real_power = synthesis.compute_noc_power
        pickler = store_module._RecordPickler
        with caching(CacheStore.in_memory()), mock.patch.object(
            synthesis, "compute_noc_power", _noting_gc_state(evaluated, real_power)
        ), mock.patch.object(
            pickler, "dump", _noting_gc_state(encoded, pickler.dump)
        ), mock.patch.object(pickle, "dumps", _noting_gc_state(blobs, pickle.dumps)):
            space = synthesize(make_tiny_spec(), config=SynthesisConfig(max_intermediate=1))
        assert evaluated and not any(evaluated)
        assert encoded == [False]
        skeletons = len({id(p.floorplan.chip) for p in space.points})
        assert len(space) > 1 and blobs == [False] * (2 * len(space) + skeletons)
        assert gc.isenabled()

    def test_warm_hit_decodes_paused(self):
        """The record's decode, and each nested topology blob's when an
        objective reads every point's topology."""
        spec, cfg = make_tiny_spec(), SynthesisConfig(max_intermediate=1)
        store = CacheStore.in_memory()
        decoded = []
        with caching(store):
            synthesize(spec, config=cfg)
            with mock.patch.object(pickle, "loads", _noting_gc_state(decoded, pickle.loads)):
                default = synthesize(spec, config=cfg)
                assert decoded == [False]
                reading = synthesize(
                    spec, config=dataclasses.replace(cfg, objective=_ConverterCount())
                )
        assert store.stats.counters["hits.memory.space"] == 2
        assert len(reading) == len(default) > 1
        assert decoded == [False] * (2 + len(reading))
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_hit_miss_and_decode_failure(self, collector, enabled):
        """A collector the caller had switched off stays off."""
        spec, cfg = make_tiny_spec(), SynthesisConfig(max_intermediate=1)
        store = CacheStore.in_memory()
        collector(enabled)
        with caching(store):
            synthesize(spec, config=cfg)
            assert gc.isenabled() is enabled
            synthesize(spec, config=cfg)
            assert gc.isenabled() is enabled
            key = design_space_key(spec, DEFAULT_LIBRARY, cfg)
            store.put_entry(key, b"\x80not-a-pickle", kind="space", codec="pickle")
            synthesize(spec, config=cfg)
            assert gc.isenabled() is enabled
        counters = store.stats.counters
        assert (counters["misses.space"], counters["hits.memory.space"]) == (2, 1)
        assert counters["corrupt.decode"] == 1

    def test_back_on_after_infeasible_error(self):
        cores = [CoreSpec("a", 1.0, 10.0, 1.0), CoreSpec("b", 1.0, 10.0, 1.0)]
        flows = [TrafficFlow("a", "b", 100.0, latency_cycles=2.0)]
        spec = build_spec("impossible", cores, flows, {"a": 0, "b": 1})
        with caching(CacheStore.in_memory()), pytest.raises(InfeasibleError):
            synthesize(spec)
        assert gc.isenabled()

    def test_back_on_after_corruption_error(self):
        spec, other = make_tiny_spec(), make_tiny_spec(3)
        cfg = SynthesisConfig(max_intermediate=1)
        store = CacheStore.in_memory(verify_every=1)
        with caching(store):
            synthesize(other, config=cfg)
        poison = store.get_object(design_space_key(other, DEFAULT_LIBRARY, cfg), "space")
        store.put_object(design_space_key(spec, DEFAULT_LIBRARY, cfg), poison, "space")
        with caching(store), pytest.raises(CacheCorruptionError):
            synthesize(spec, config=cfg)
        assert gc.isenabled()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_task_runs_paused(self, workers):
        """Selection, outside ``synthesize``, is inside the task's pause."""
        engine = ExplorationEngine(
            workers, config=SynthesisConfig(max_intermediate=1), select=_GcStateSelector()
        )
        with engine:
            records = engine.grid_exploration(make_tiny_spec(), islands=[1, 2]).records
        assert [r.extras["gc_enabled"] for r in records] == [False, False]
        assert gc.isenabled()


class TestVerifyOnHit:
    def test_sampling_is_deterministic(self):
        store = CacheStore.in_memory(verify_every=3)
        seen = []
        store.put_object("a" * 64, 1, kind="space")
        for _ in range(6):
            store.get_object("a" * 64, kind="space")
            seen.append(store.should_verify())
        assert seen == [False, False, True, False, False, True]

    def test_signature_mismatch_raises(self):
        store = CacheStore.in_memory()
        with pytest.raises(CacheCorruptionError, match="space x"):
            store.check_signature("cached", "recomputed", "space x")
        assert store.stats.counters["verify_mismatches"] == 1

    def test_signature_match_passes(self):
        store = CacheStore.in_memory()
        store.check_signature("same", "same", "space x")
        assert store.stats.counters["verify_runs"] == 1
        assert "verify_mismatches" not in store.stats.counters

    def test_negative_sampling_rejected(self):
        with pytest.raises(CacheError, match="verify_every"):
            CacheStore.in_memory(verify_every=-1)

    def test_poisoned_payload_raises(self, tmp_path):
        """A wrong value re-put under a valid key passes the checksum;
        sampled verification must still catch it."""
        spec = make_tiny_spec()
        other = make_tiny_spec(3)
        cfg = SynthesisConfig(max_intermediate=1)
        with caching(CacheStore.open(tmp_path)):
            cold = synthesize(spec, config=cfg)
            poisoned = synthesize(other, config=cfg)
        assert design_space_signature(poisoned) != design_space_signature(cold)
        # Poison the key with the other spec's candidate record.
        store = CacheStore.open(tmp_path)
        poison = store.get_object(design_space_key(other, DEFAULT_LIBRARY, cfg), "space")
        key = design_space_key(spec, DEFAULT_LIBRARY, cfg)
        store.put_object(key, poison, "space")

        warm_store = CacheStore.open(tmp_path, verify_every=1)
        with caching(warm_store), pytest.raises(CacheCorruptionError):
            synthesize(spec, config=cfg)
        assert warm_store.stats.counters["hits.disk.space"] == 1
        assert warm_store.stats.counters["verify_mismatches"] == 1

    def test_swapped_topology_raises(self, tmp_path):
        """A record whose metrics are right but whose first point hands
        on the last point's topology and floorplan."""
        spec = logical_partitioning(load_benchmark("d26_media"), 4)
        cfg = SynthesisConfig()
        with caching(CacheStore.open(tmp_path)):
            synthesize(spec, config=cfg)
        store = CacheStore.open(tmp_path)
        key = design_space_key(spec, DEFAULT_LIBRARY, cfg)
        record = store.get_object(key, "space")
        at = [i for i, o in enumerate(record) if not isinstance(o, tuple)]
        first, last = record[at[0]], record[at[-1]]
        assert len(first.topology.switches) < len(last.topology.switches)
        record[at[0]] = dataclasses.replace(
            first, topology=last.topology, floorplan=last.floorplan
        )
        store.put_object(key, record, "space")

        warm_store = CacheStore.open(tmp_path, verify_every=1)
        with caching(warm_store), pytest.raises(CacheCorruptionError):
            synthesize(spec, config=cfg)
        assert warm_store.stats.counters["verify_mismatches"] == 1

    def test_sampled_verification_is_a_clean_recompute(self, tmp_path):
        """The recompute behind a sampled hit makes no store call."""
        spec = make_tiny_spec()
        cfg = SynthesisConfig(max_intermediate=1)
        with caching(CacheStore.open(tmp_path)):
            synthesize(spec, config=cfg)
        warm_store = CacheStore.open(tmp_path, verify_every=1)
        with caching(warm_store):
            synthesize(spec, config=cfg)
        assert warm_store.stats.counters == {
            "bytes_read.disk": warm_store.stats.counters["bytes_read.disk"],
            "hits.disk.space": 1,
            "verify_runs": 1,
        }


class TestStatsMerge:
    def test_diff_and_merge(self):
        stats = CacheStats()
        stats.incr("hits.memory.space")
        before = stats.snapshot()
        stats.incr("hits.memory.space")
        stats.incr("misses.partition", 3)
        delta = stats.diff(before)
        assert delta == {"hits.memory.space": 1, "misses.partition": 3}
        parent = CacheStats()
        parent.incr("misses.partition")
        parent.merge(delta)
        assert parent.counters["misses.partition"] == 4
        assert parent.hits == 1 and parent.misses == 4


class TestWarmSynthesis:
    CFG = SynthesisConfig(max_intermediate=1)

    def test_cold_warm_identical(self, tmp_path):
        spec = make_tiny_spec()
        plain = synthesize(spec, config=self.CFG)

        cold_store = CacheStore.open(tmp_path)
        with caching(cold_store):
            cold = synthesize(spec, config=self.CFG)
        assert cold_store.stats.counters["misses.space"] == 1
        assert cold_store.stats.counters["puts.space"] == 1

        # Fresh store over the same directory: memory tier is cold, the
        # hit must come off disk, and every hit is cross-checked against
        # a full recompute (verify_every=1).
        warm_store = CacheStore.open(tmp_path, verify_every=1)
        with caching(warm_store):
            warm = synthesize(spec, config=self.CFG)
        assert warm_store.stats.counters["hits.disk.space"] == 1
        assert warm_store.stats.counters["verify_runs"] >= 1
        assert "verify_mismatches" not in warm_store.stats.counters

        assert _space_summaries(plain) == _space_summaries(cold)
        assert _space_summaries(plain) == _space_summaries(warm)
        assert plain.failures == warm.failures

    def test_objective_rerun_is_one_record_hit(self, tmp_path):
        spec = make_tiny_spec()
        rerun_cfg = dataclasses.replace(self.CFG, objective=StaticLatencyObjective())
        store = CacheStore.open(tmp_path, verify_every=1)
        with caching(store):
            synthesize(spec, config=self.CFG)
            before = store.stats.snapshot()
            rerun = synthesize(spec, config=rerun_cfg)
        delta = store.stats.diff(before)
        # The record is objective-free: the re-run is one hit plus
        # scoring, with no miss and no put.
        assert {k: v for k, v in delta.items() if k.startswith(("hits.", "misses.", "puts."))} == {
            "hits.memory.space": 1
        }
        assert delta["verify_runs"] == 1
        assert "verify_mismatches" not in delta
        plain = synthesize(spec, config=rerun_cfg)
        assert _space_summaries(plain) == _space_summaries(rerun)
        assert plain.failures == rerun.failures

    def test_disabled_caches_bypass_store(self, tmp_path):
        spec = make_tiny_spec()
        store = CacheStore.open(tmp_path)
        cfg = dataclasses.replace(self.CFG, enable_caches=False)
        with caching(store):
            synthesize(spec, config=cfg)
        assert store.stats.counters == {}

    def test_repeat_run_hits_memory_tier(self, tmp_path):
        spec = make_tiny_spec(1)
        cfg = self.CFG
        store = CacheStore.open(tmp_path)
        with caching(store):
            first = synthesize(spec, config=cfg)
            again = synthesize(spec, config=cfg)
        assert store.stats.counters["hits.memory.space"] == 1
        assert _space_summaries(first) == _space_summaries(again)

    def test_renamed_spec_hit_is_the_callers(self, tmp_path):
        """Keys leave the spec name out: content stored as ``alpha`` serves
        ``beta``, and every hit must come back as ``beta``'s."""
        base = logical_partitioning(load_benchmark("d12_auto"), 2)
        alpha = base.with_vi_assignment(base.vi_assignment, name="alpha")
        beta = base.with_vi_assignment(base.vi_assignment, name="beta")
        rerun = dataclasses.replace(self.CFG, objective=StaticLatencyObjective())
        with caching(CacheStore.open(tmp_path)):
            synthesize(alpha, config=self.CFG)

        store = CacheStore.open(tmp_path, verify_every=1)
        with caching(store):
            space_hit = synthesize(beta, config=self.CFG)
            # A new objective is served by the same record.
            rerun_hit = synthesize(beta, config=rerun)
        counters = store.stats.counters
        assert counters["hits.disk.space"] == 1
        assert counters["hits.memory.space"] == 1
        assert counters["verify_runs"] > 0
        assert "verify_mismatches" not in counters
        for space in (space_hit, rerun_hit):
            assert space.spec_name == "beta"
            for point in space.points:
                assert point.topology.spec is beta
                assert point.topology.library is DEFAULT_LIBRARY
                assert topology_to_dict(point.topology)["spec"]["name"] == "beta"
        assert _space_summaries(space_hit) == _space_summaries(
            synthesize(beta, config=self.CFG)
        )
        assert _space_summaries(rerun_hit) == _space_summaries(
            synthesize(beta, config=rerun)
        )


@dataclasses.dataclass(frozen=True)
class _EvenCountVeto(Objective):
    """Rejects every point whose lowest island has an even switch count:
    vetoes that alternate with accepted points along the sweep."""

    name = "even_count_veto"

    def evaluate(self, point):
        if point.switch_counts[min(point.switch_counts)] % 2 == 0:
            return ObjectiveResult(cost=(math.inf,), feasible=False, reason="even count")
        return ObjectiveResult(cost=(point.power_mw,))


class TestAnyObjectiveOneRecord:
    """The record is objective-free: whichever objective populated it,
    it serves every objective, cap and prune setting exactly."""

    STATIC = ("static_power", "static_latency", "static_area", "wire_length")
    CFG = SynthesisConfig(max_intermediate=1)

    @pytest.mark.parametrize(
        "make_spec",
        [
            pytest.param(make_tiny_spec, id="tiny"),
            pytest.param(
                lambda: logical_partitioning(load_benchmark("d26_media"), 4), id="d26-4"
            ),
            pytest.param(
                lambda: communication_partitioning(
                    generate_soc(GeneratorConfig("gen24", num_cores=24, num_groups=4, seed=3)), 3
                ),
                id="gen24-3",
            ),
        ],
    )
    def test_every_objective_both_ways(self, tmp_path, make_spec):
        spec = make_spec()
        static = dataclasses.replace(self.CFG, objective=make_objective("static_power"))
        with caching(CacheStore.open(tmp_path / "static_power")):
            static_answer = _answer(spec, static)
        for name in OBJECTIVE_NAMES:
            cfg = dataclasses.replace(self.CFG, objective=_named_objective(name, spec))
            with caching(CacheStore.open(tmp_path / name)):
                cold = _answer(spec, cfg)
            assert _answer(spec, dataclasses.replace(cfg, enable_caches=False)) == cold, name
            one_hit = {"hits.disk.space": 1}
            # Populated under static_power, served to ``name`` ...
            assert _served(tmp_path / "static_power", spec, cfg) == (cold, one_hit, 0), name
            # ... and populated under ``name``, served to static_power.
            assert _served(tmp_path / name, spec, static) == (static_answer, one_hit, 0), name

    def test_built_in_objectives_leave_points_unchanged(self):
        """Scored points share the record's topology, floorplan and
        wires, so no built-in objective may change them."""
        spec = logical_partitioning(load_benchmark("d26_media"), 4)
        points = synthesize(spec, config=self.CFG).points
        before = [pickle.dumps(p) for p in points]
        for name in OBJECTIVE_NAMES:
            objective = _named_objective(name, spec)
            for point in points:
                objective.evaluate(point)
            assert [pickle.dumps(p) for p in points] == before, name

    def test_veto_and_prune_served_from_one_record(self, tmp_path):
        """Scoring renumbers what a veto or a prune drops, identically on
        a hit and a cold run."""
        spec = logical_partitioning(load_benchmark("d26_media"), 4)
        with caching(CacheStore.open(tmp_path)):
            _answer(spec, self.CFG)
        for cfg, dropped in (
            (dataclasses.replace(self.CFG, objective=_EvenCountVeto()), "objective: "),
            (
                dataclasses.replace(self.CFG, objective=StaticLatencyObjective(), prune_sweep=True),
                "pruned: ",
            ),
        ):
            cold = _answer(spec, cfg)
            assert cold[1] and any(reason.startswith(dropped) for _, _, reason in cold[2])
            # Indices number the accepted points, in acceptance order.
            indices = [p.index for p in synthesize(spec, config=cfg).points]
            assert indices == list(range(len(cold[1])))
            assert _answer(spec, dataclasses.replace(cfg, enable_caches=False)) == cold
            assert _served(tmp_path, spec, cfg) == (cold, {"hits.disk.space": 1}, 0)

    @given(
        n_cores=st.integers(min_value=8, max_value=40),
        gen_seed=st.integers(min_value=0, max_value=999),
        n_islands=st.integers(min_value=1, max_value=4),
        strategy=st.sampled_from([logical_partitioning, communication_partitioning]),
        first=st.sampled_from(STATIC),
        second=st.sampled_from(STATIC),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_record_serves_any_objective(
        self, n_cores, gen_seed, n_islands, strategy, first, second
    ):
        soc = generate_soc(
            GeneratorConfig("prop%d" % n_cores, num_cores=n_cores, num_groups=min(4, n_cores // 3), seed=gen_seed)
        )
        spec = strategy(soc, n_islands)
        populate = dataclasses.replace(self.CFG, objective=make_objective(first))
        run = dataclasses.replace(self.CFG, objective=make_objective(second))
        expected = _answer(spec, run)
        assert _answer(spec, dataclasses.replace(run, enable_caches=False)) == expected
        with tempfile.TemporaryDirectory() as directory:
            with caching(CacheStore.open(directory)):
                _answer(spec, populate)
            assert _served(directory, spec, run) == (expected, {"hits.disk.space": 1}, 0)


class TestWarmPool:
    def test_worker_hits_merge_into_parent(self, tmp_path):
        spec = make_tiny_spec()
        cfg = SynthesisConfig(max_intermediate=1)
        engine = ExplorationEngine(workers=2, config=cfg)
        cold_store = CacheStore.open(tmp_path)
        with caching(cold_store):
            cold = engine.alpha_exploration(spec, [0.4, 0.6])
        assert cold_store.stats.counters.get("misses.space") == 2

        warm_store = CacheStore.open(tmp_path)
        with caching(warm_store):
            warm = engine.alpha_exploration(spec, [0.4, 0.6])
        assert warm_store.stats.counters.get("hits.disk.space") == 2
        cold_rows = [r.row() for r in cold]
        warm_rows = [r.row() for r in warm]
        for row in cold_rows + warm_rows:
            row.pop("seconds")
        assert cold_rows == warm_rows


class TestObsIntegration:
    def test_record_cache_metrics_and_dashboard(self):
        store = CacheStore.in_memory()
        store.put_object("a" * 64, 1, kind="space")
        store.get_object("a" * 64, kind="space")
        store.get_object("0" * 64, kind="partition")
        registry = MetricsRegistry()
        record_cache_metrics(registry, store)
        text = "\n".join(counter_lines(registry))
        assert "cache.hits" in text
        assert "cache.misses" in text

    def test_accepts_raw_counter_dict(self):
        registry = MetricsRegistry()
        record_cache_metrics(registry, {"hits.disk.space": 2, "misses.space": 1})
        text = "\n".join(counter_lines(registry))
        assert "cache.hits" in text


class TestCacheCli:
    def test_synth_warm_run_and_stats(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["synth", "d12_auto", "--islands", "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "cache:" in cold_out and "misses" in cold_out

        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses" in warm_out

        # Sampled verification recomputes the candidate pass on hit
        # (without touching the store) and must succeed and write nothing.
        assert main(argv + ["--verify-on-hit", "1"]) == 0
        verify_warm_out = capsys.readouterr().out
        assert "0 bytes written" in verify_warm_out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "space" in stats_out and "entries" in stats_out

        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        verify_out = capsys.readouterr().out
        assert "0 corrupt" in verify_out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        clear_out = capsys.readouterr().out
        assert "removed" in clear_out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_seed_rerun_hits_the_same_record(self, capsys, tmp_path):
        """``--seed`` seeds only the objective's traces: not part of the key."""
        argv = ["synth", "d12_auto", "--islands", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out.splitlines()
        assert main(argv + ["--seed", "1"]) == 0
        seeded = capsys.readouterr().out.splitlines()
        assert seeded[0].startswith("cache: 1 hits, 0 misses")
        assert seeded[1:] == cold[1:]

    def test_stats_lists_stale_entries_apart(self, capsys, tmp_path):
        """Blobs of another schema are counted as stale, not under their kind."""
        cache_dir = tmp_path / "cache"
        store = CacheStore.open(cache_dir)
        payload = store.put_object("a" * 64, 1, kind="space")
        store.put_object("b" * 64, list(range(100)), kind="allocation")
        _rewrite_header(store.disk.path_for("b" * 64), schema=SCHEMA_VERSION - 1)
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "  entries: 2  payload bytes: %d" % len(payload),
            "  space             1 entries  %10d bytes" % len(payload),
            "  stale: 1 (run `cache verify --remove`)",
        ]

    def test_verify_reports_corrupt_entry(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        store = CacheStore.open(cache_dir)
        store.put_object("a" * 64, 1, kind="space")
        path = store.disk.path_for("a" * 64)
        path.write_bytes(path.read_bytes()[:-2])
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert main(
            ["cache", "verify", "--cache-dir", str(cache_dir), "--remove"]
        ) == 1
        assert store.disk.entry_count() == 0
