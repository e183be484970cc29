"""Content-addressed synthesis cache: keys, tiers, warm-run parity."""

from __future__ import annotations

import dataclasses
import json

import pytest

from _helpers import make_tiny_spec
from repro import DEFAULT_LIBRARY, CoreSpec, TrafficFlow, build_spec
from repro.cache import (
    CacheStats,
    CacheStore,
    MemoryTier,
    caching,
    canonical,
    design_space_key,
    design_space_signature,
    fingerprint,
)
from repro.cli import main
from repro.core.explore import alpha_exploration
from repro.core.objective import StaticLatencyObjective
from repro.core.synthesis import SynthesisConfig, synthesize
from repro.exceptions import CacheCorruptionError, CacheError, CacheKeyError
from repro.io.json_io import design_point_summary, topology_to_dict
from repro.soc.benchmarks import load_benchmark
from repro.soc.partitioning import logical_partitioning
from repro.obs import MetricsRegistry, counter_lines, record_cache_metrics


def _space_summaries(space):
    return [design_point_summary(p) for p in space.points]


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

    def test_seed_alpha_objective_included(self):
        spec = make_tiny_spec()
        base = SynthesisConfig()
        key = design_space_key(spec, DEFAULT_LIBRARY, base)
        for variant in (
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, alpha=0.4),
            dataclasses.replace(base, objective=StaticLatencyObjective()),
        ):
            assert design_space_key(spec, DEFAULT_LIBRARY, variant) != key


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
        path = store.disk.path_for(key)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["sig"] = "stale-signature"
        path.write_bytes(json.dumps(header).encode() + raw[newline:])
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
        store = CacheStore.open(tmp_path)
        key = "c" * 64
        store.put_entry(key, b"\x80not-a-pickle", kind="space", codec="pickle")
        fresh = CacheStore.open(tmp_path)
        assert fresh.get_object(key, kind="space") is None
        assert fresh.stats.counters["corrupt.decode"] == 1
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
        stale_path = store.disk.path_for("f" * 64)
        raw = stale_path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["schema"] = -1
        stale_path.write_bytes(json.dumps(header).encode() + raw[newline:])

        report = store.disk.verify(remove=False)
        assert report["checked"] == 3
        assert report["corrupt"] == ["e" * 64]
        assert report["stale"] == ["f" * 64]
        assert report["kinds"] == {"space": 1}
        assert report["removed"] == 0

        report = store.disk.verify(remove=True)
        assert report["removed"] == 2
        assert store.disk.entry_count() == 1

    def test_put_under_a_file_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        store = CacheStore.open(blocker)
        with pytest.raises(CacheError):
            store.put_object("a" * 64, 1, kind="space")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["not-a-dir"]
        assert blocker.read_text() == ""

    def test_clear(self, tmp_path):
        store = CacheStore.open(tmp_path)
        store.put_object("a" * 64, 1, kind="space")
        store.put_object("b" * 64, 2, kind="space")
        assert store.disk.clear() == 2
        assert store.disk.entry_count() == 0


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
        cfg = SynthesisConfig(max_intermediate=1)
        with caching(CacheStore.open(tmp_path)):
            cold = synthesize(spec, config=cfg)
        poison = synthesize(make_tiny_spec(3), config=cfg)
        assert design_space_signature(poison) != design_space_signature(cold)
        key = design_space_key(spec, DEFAULT_LIBRARY, cfg)
        CacheStore.open(tmp_path).put_object(key, poison, "space")

        warm_store = CacheStore.open(tmp_path, verify_every=1)
        with caching(warm_store), pytest.raises(CacheCorruptionError):
            synthesize(spec, config=cfg)
        assert warm_store.stats.counters["hits.disk.space"] == 1
        assert warm_store.stats.counters["verify_mismatches"] == 1


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

    def test_objective_rerun_hits_subtiers(self, tmp_path):
        spec = make_tiny_spec()
        store = CacheStore.open(tmp_path, verify_every=1)
        with caching(store):
            synthesize(spec, config=self.CFG)
            before = store.stats.snapshot()
            rerun_cfg = dataclasses.replace(self.CFG, objective=StaticLatencyObjective())
            rerun = synthesize(spec, config=rerun_cfg)
        delta = store.stats.diff(before)
        # The objective changes the space key but not path allocation:
        # that tier serves the re-run.
        assert delta.get("misses.space") == 1
        assert sum(v for k, v in delta.items() if k.startswith("hits.") and k.endswith(".allocation")) > 0
        assert not any(k.startswith("verify_mismatches") for k in delta)
        plain = synthesize(spec, config=dataclasses.replace(self.CFG, objective=StaticLatencyObjective()))
        assert _space_summaries(plain) == _space_summaries(rerun)

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
            # A new objective misses the space tier; allocations still hit.
            alloc_hits = synthesize(beta, config=rerun)
        counters = store.stats.counters
        assert counters["hits.disk.space"] == 1
        assert counters["hits.disk.allocation"] > 0
        assert counters["verify_runs"] > 0
        assert "verify_mismatches" not in counters
        for space in (space_hit, alloc_hits):
            assert space.spec_name == "beta"
            for point in space.points:
                assert point.topology.spec is beta
                assert point.topology.library is DEFAULT_LIBRARY
                assert topology_to_dict(point.topology)["spec"]["name"] == "beta"
        assert _space_summaries(space_hit) == _space_summaries(
            synthesize(beta, config=self.CFG)
        )
        assert _space_summaries(alloc_hits) == _space_summaries(
            synthesize(beta, config=rerun)
        )


class TestWarmPool:
    def test_worker_hits_merge_into_parent(self, tmp_path):
        spec = make_tiny_spec()
        cfg = SynthesisConfig(max_intermediate=1)
        cold_store = CacheStore.open(tmp_path)
        with caching(cold_store):
            cold = alpha_exploration(spec, [0.4, 0.6], config=cfg, workers=2)
        assert cold_store.stats.counters.get("misses.space") == 2

        warm_store = CacheStore.open(tmp_path)
        with caching(warm_store):
            warm = alpha_exploration(spec, [0.4, 0.6], config=cfg, workers=2)
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

        # Sampled verification recomputes the sweep on hit (adding
        # sub-tier traffic) but must succeed and change no output.
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
