"""Content-addressed synthesis cache: keys, tiers, warm-run parity."""

from __future__ import annotations

import collections
import copy
import dataclasses
import gc
import hashlib
import json
import math
import pickle
import sys
import tempfile
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _helpers import make_tiny_spec
from repro import DEFAULT_LIBRARY, OBJECTIVE_NAMES, CoreSpec, TrafficFlow, build_spec, mobile_soc_26
from repro.cache import (
    SCHEMA_VERSION,
    CacheStats,
    CacheStore,
    MemoryTier,
    caching,
    canonical,
    design_space_key,
    design_space_signature,
)
from repro.cache import keys as keys_module
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
from repro.core.spec import SoCSpec
from repro.core.synthesis import SynthesisConfig, synthesize
from repro.exceptions import (
    CacheCorruptionError,
    CacheError,
    CacheKeyError,
    InfeasibleError,
)
from repro.io.json_io import design_point_summary, topology_to_dict
from repro.power.library import NocLibrary
from repro.runtime import markov_trace
from repro.soc.benchmarks import load_benchmark
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import (
    communication_partitioning,
    island_count_sweep,
    logical_partitioning,
)
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


def _spec_key(spec):
    """The key of ``spec``'s candidate record under the default library
    and config."""
    return design_space_key(spec, DEFAULT_LIBRARY, SynthesisConfig())


class TestCanonicalization:
    def test_vi_assignment_order_insensitive(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0, "cpu", "g"),
            CoreSpec("b", 1.0, 10.0, 1.0, "cpu", "g"),
        ]
        flows = [TrafficFlow("a", "b", 10.0, 10.0)]
        s1 = build_spec("x", cores, flows, {"a": 0, "b": 1})
        s2 = build_spec("x", cores, flows, {"b": 1, "a": 0})
        assert _spec_key(s1) == _spec_key(s2)

    def test_spec_name_excluded(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0, "cpu", "g"),
            CoreSpec("b", 1.0, 10.0, 1.0, "cpu", "g"),
        ]
        flows = [TrafficFlow("a", "b", 10.0, 10.0)]
        s1 = build_spec("first", cores, flows, {"a": 0, "b": 0})
        s2 = build_spec("second", cores, flows, {"a": 0, "b": 0})
        assert _spec_key(s1) == _spec_key(s2)

    def test_core_order_matters(self):
        cores = [
            CoreSpec("a", 1.0, 10.0, 1.0, "cpu", "g"),
            CoreSpec("b", 1.0, 10.0, 1.0, "cpu", "g"),
        ]
        flows = [TrafficFlow("a", "b", 10.0, 10.0)]
        s1 = build_spec("x", cores, flows, {"a": 0, "b": 0})
        s2 = build_spec("x", list(reversed(cores)), flows, {"a": 0, "b": 0})
        assert _spec_key(s1) != _spec_key(s2)

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

    def test_canonical_forms_are_pinned(self):
        """The exact-type fast paths keep every canonical form's bytes.

        Digests of ``json.dumps`` of the canonical form (a key's part,
        without the key's schema and Python-version tags), as the
        generic walk alone produced them.  Subclasses of the fast-path
        types (``Label``, ``OrderedDict``, the named tuple) still take
        the generic walk.
        """

        class Label(str):
            pass

        Pair = collections.namedtuple("Pair", "a b")
        mixed = {
            "leaves": [1, -2.5, True, None, "s", b"\x00\xff", 0.1 + 0.2],
            "nested": (1, (2.0, [3, {"k": 4.0}])),
            "ordered": collections.OrderedDict([("b", 1), ("a", 2.0)]),
            "pair": Pair(1.0, [2]),
            "sets": [frozenset({3, 1}), {2.0, 1.0}],
            "label": Label("x"),
            "fn": math.floor,
        }
        pinned = [
            (mobile_soc_26(), "d9364996fe142c8b1c0e39044743473bae996c4141c607183d44f2cc4683217d"),
            (
                generate_soc(GeneratorConfig(name="g", num_cores=40, num_groups=2, seed=3)),
                "c4b8c047f7526d884a30911a25fc2166ed9ee9eba51006a7c712640e92082ee3",
            ),
            (DEFAULT_LIBRARY, "80ae458c4f295376a45099ec34df8daa8f5446a4bac3be82ce2d4d71961a27ab"),
            (
                keys_module._config_canonical(SynthesisConfig()),
                "6d7349568872457385331a0190902224d668e979f95e06b6586a0395763ad541",
            ),
            (mixed, "48fcb3690167f845c97c84b255c600eaf70c2efc09edc1de6bddc961c1eea499"),
        ]
        for obj, digest in pinned:
            text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, type(obj)


def _reference_payload(kind, *parts):
    """What a key of ``kind`` over ``parts`` hashes, as one ``json.dumps``
    of the whole structure: the form before each part's text was
    spliced in."""
    return json.dumps(
        [
            "repro-noc-cache",
            SCHEMA_VERSION,
            "py%d.%d" % sys.version_info[:2],
            kind,
            [canonical(p) for p in parts],
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


@st.composite
def key_inputs(draw):
    """A generated, partitioned spec with a library of some data width
    and a config, as a key names them."""
    n_cores = draw(st.integers(min_value=8, max_value=40))
    soc = generate_soc(
        GeneratorConfig(
            name="keyed%d" % n_cores,
            num_cores=n_cores,
            num_groups=draw(st.integers(min_value=1, max_value=4)),
            seed=draw(st.integers(min_value=0, max_value=999)),
        )
    )
    islands = draw(st.integers(min_value=1, max_value=4))
    spec = draw(st.sampled_from((logical_partitioning, communication_partitioning)))(
        soc, islands
    )
    library = dataclasses.replace(
        DEFAULT_LIBRARY, data_width_bits=draw(st.sampled_from((16, 32, 64, 128, 256)))
    )
    config = SynthesisConfig(
        alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
        allow_intermediate=draw(st.booleans()),
        max_intermediate=draw(st.none() | st.integers(min_value=0, max_value=4)),
        partition_method=draw(st.sampled_from(("fm", "greedy"))),
    )
    return spec, library, config


_plain_data = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


@st.composite
def spec_chains(draw):
    """A generated spec, specs derived from it and from one another by
    ``with_vi_assignment`` (re-islanded, renamed, partitioned) and
    ``single_island``, and an order to key them in."""
    n_cores = draw(st.integers(min_value=8, max_value=30))
    root = generate_soc(
        GeneratorConfig(
            name="chain",
            num_cores=n_cores,
            num_groups=draw(st.integers(min_value=1, max_value=3)),
            seed=draw(st.integers(min_value=0, max_value=999)),
        )
    )
    specs = [root]
    for step in range(draw(st.integers(min_value=1, max_value=5))):
        parent = specs[draw(st.integers(min_value=0, max_value=len(specs) - 1))]
        how = draw(st.sampled_from(("islands", "rename", "partition", "single")))
        if how == "islands":
            labels = draw(
                st.lists(st.integers(0, 3), min_size=n_cores, max_size=n_cores)
            )
            dense = {label: i for i, label in enumerate(dict.fromkeys(labels))}
            child = parent.with_vi_assignment(
                {c.name: dense[label] for c, label in zip(parent.cores, labels)}
            )
        elif how == "rename":
            child = parent.with_vi_assignment(parent.vi_assignment, name="r%d" % step)
        elif how == "partition":
            strategy = draw(st.sampled_from((logical_partitioning, communication_partitioning)))
            child = strategy(parent, draw(st.integers(min_value=1, max_value=4)))
        else:
            child = parent.single_island()
        specs.append(child)
    order = draw(st.permutations(range(len(specs))))
    return specs, order


#: ``design_space_key`` of ``d26_media`` re-islanded by each strategy,
#: under Python 3.11's tag, as keys were before specs, libraries and
#: configs kept their part texts: (islands, ``max_intermediate``) ->
#: digest.  One island is one assignment under either strategy.
_PINNED_D26_KEYS = {
    "logical": {
        (1, 3): "2634c71b46ea291099b954642932d7dcec0f6c220fe570e3b5e45d5ffbf8f7d0",
        (1, 1): "b951bab73c2048d8383adf6f1468ed847621578b0d4f26329421ec60419574e2",
        (4, 3): "c34e62528d4d3d5a745f8b62b574fe3e93f33428cd8cce29583f88dfe905055f",
        (4, 1): "4d41cf802d39c0c5ca3a791b95eeedbb83127382159a703d04140153f63ebbaf",
    },
    "communication": {
        (1, 3): "2634c71b46ea291099b954642932d7dcec0f6c220fe570e3b5e45d5ffbf8f7d0",
        (1, 1): "b951bab73c2048d8383adf6f1468ed847621578b0d4f26329421ec60419574e2",
        (4, 3): "39c9b5c686859793448135f9a2f52ce416c03f8abf1b4fafcf6b046eeb8534cd",
        (4, 1): "a04d55e3834b35e972cce19146b37cab036d1fcee5cdcb0fb363c043a0f18f25",
    },
}


class TestKeyText:
    """Keys splice each part's canonical text into the payload, and a
    spec keeps its own text, with every key byte-identical to the one
    ``json.dumps`` of the whole structure gave."""

    @given(chain=spec_chains())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_derived_specs_splice_their_parents_texts(self, chain):
        """Derived specs share their root's cores and flows texts, which
        the first of them to be keyed builds, in any keying order."""
        specs, order = chain
        config = SynthesisConfig()

        def payload(spec):
            return keys_module._space_payload(spec, DEFAULT_LIBRARY, config)

        with mock.patch.object(
            SoCSpec, "_core_rows", autospec=True, side_effect=SoCSpec._core_rows
        ) as core_rows:
            payloads = [(i, payload(specs[i])) for i in order]
            again = [payload(specs[i]) for i in order]
        assert core_rows.call_count == 1
        assert again == [text for _, text in payloads]
        for i, text in payloads:
            expected = _reference_payload(
                "space", specs[i], DEFAULT_LIBRARY, keys_module._config_canonical(config)
            )
            assert text == expected
            assert design_space_key(specs[i], DEFAULT_LIBRARY, config) == hashlib.sha256(
                expected.encode("utf-8")
            ).hexdigest()

    def test_d26_keys_are_pinned(self):
        """A key that moves without a ``SCHEMA_VERSION`` bump fails here."""
        d26 = mobile_soc_26()
        py311 = SimpleNamespace(version_info=(3, 11, 7))
        with mock.patch.object(keys_module, "sys", py311):
            for strategy, pinned in _PINNED_D26_KEYS.items():
                for n, spec in zip((1, 4), island_count_sweep(d26, [1, 4], strategy)):
                    for cap in (3, 1):
                        config = SynthesisConfig(max_intermediate=cap)
                        key = design_space_key(spec, DEFAULT_LIBRARY, config)
                        assert key == pinned[n, cap], (strategy, n, cap)

    @given(inputs=key_inputs())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_space_payload_is_the_single_dumps_form(self, inputs):
        spec, library, config = inputs
        expected = _reference_payload(
            "space", spec, library, keys_module._config_canonical(config)
        )
        assert "_key_text" not in vars(spec)
        assert keys_module._space_payload(spec, library, config) == expected
        # Again from the texts the first call left on the parts.
        assert all("_key_text" in vars(part) for part in inputs)
        assert keys_module._space_payload(spec, library, config) == expected
        digest = hashlib.sha256(expected.encode("utf-8")).hexdigest()
        assert design_space_key(spec, library, config) == digest
        renamed = spec.with_vi_assignment(spec.vi_assignment, name="renamed")
        assert design_space_key(renamed, library, config) == digest

    @given(kind=st.text(max_size=8), parts=st.lists(_plain_data, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_any_payload_is_the_single_dumps_form(self, kind, parts):
        texts = [keys_module._part_text(part) for part in parts]
        assert keys_module._payload(kind, texts) == _reference_payload(kind, *parts)

    @given(
        entries=st.dictionaries(st.text(max_size=4), _plain_data, min_size=1, max_size=5)
    )
    @settings(max_examples=60, deadline=None)
    def test_object_text_is_the_canonical_text(self, entries):
        """Spliced part texts give what ``canonical()`` of the object
        writes, whatever the mapping's keys and their order."""

        class Holder:
            def canonical(self):
                return entries

        holder = Holder()
        texts = {name: keys_module.canonical_text(value) for name, value in entries.items()}
        expected = keys_module.form_text(canonical(holder))
        assert keys_module.object_text(holder, texts) == expected
        backwards = dict(reversed(list(texts.items())))
        assert keys_module.object_text(holder, backwards) == expected

    def test_keyed_spec_is_an_unkeyed_one_to_every_reader(self):
        """The text stays off pickles, copies, equality and printing."""
        keyed, plain = mobile_soc_26(), mobile_soc_26()
        key = design_space_key(keyed, DEFAULT_LIBRARY, SynthesisConfig())
        assert "_key_text" in vars(keyed) and "_key_text" not in vars(plain)
        assert pickle.dumps(keyed, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            plain, pickle.HIGHEST_PROTOCOL
        )
        for clone in (copy.deepcopy(keyed), copy.copy(keyed), pickle.loads(pickle.dumps(keyed))):
            assert "_key_text" not in vars(clone)
            assert clone == plain
            assert design_space_key(clone, DEFAULT_LIBRARY, SynthesisConfig()) == key
        assert keyed == plain
        assert repr(keyed) == repr(plain) and str(keyed) == str(plain)


def _key_library(library):
    return design_space_key(make_tiny_spec(), library, SynthesisConfig())


def _key_config(config):
    return design_space_key(make_tiny_spec(), DEFAULT_LIBRARY, config)


class TestKeptTexts:
    """Libraries and configs keep their key texts, and derived specs
    share theirs, only where the key builder reads them: pickles,
    copies, ``dataclasses.replace``, equality, hashing and printing
    never see them."""

    @pytest.mark.parametrize(
        "make, key",
        [
            (NocLibrary, _key_library),
            (lambda: dataclasses.replace(DEFAULT_LIBRARY, data_width_bits=64), _key_library),
            (SynthesisConfig, _key_config),
            (lambda: SynthesisConfig(alpha=0.4, max_intermediate=1), _key_config),
        ],
        ids=["library", "wide-library", "config", "config-variant"],
    )
    def test_keyed_part_is_an_unkeyed_one_to_every_reader(self, make, key):
        keyed, plain = make(), make()
        digest = key(keyed)
        text = vars(keyed)["_key_text"]
        assert "_key_text" not in vars(plain)
        assert pickle.dumps(keyed, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            plain, pickle.HIGHEST_PROTOCOL
        )
        clones = (
            copy.copy(keyed),
            copy.deepcopy(keyed),
            pickle.loads(pickle.dumps(keyed)),
            dataclasses.replace(keyed),
        )
        for clone in clones:
            assert "_key_text" not in vars(clone)
            assert clone == plain and hash(clone) == hash(plain)
            assert key(clone) == digest and vars(clone)["_key_text"] == text
        assert keyed == plain and hash(keyed) == hash(plain)
        assert repr(keyed) == repr(plain)

    def test_config_text_is_the_one_the_key_hashed(self):
        config = SynthesisConfig(max_intermediate=None, objective=StaticLatencyObjective())
        plain = SynthesisConfig(max_intermediate=None)
        for each in (config, plain):
            _key_config(each)
        assert vars(config)["_key_text"] == keys_module.form_text(
            canonical(keys_module._config_canonical(config))
        )
        assert vars(config)["_key_text"] == vars(plain)["_key_text"]

    def test_keyed_derived_spec_is_an_unkeyed_one_to_every_reader(self):
        base = mobile_soc_26()
        keyed = communication_partitioning(base, 4)
        plain = communication_partitioning(mobile_soc_26(), 4)
        key = design_space_key(keyed, DEFAULT_LIBRARY, SynthesisConfig())
        shared = vars(keyed)["_texts"]
        assert shared is vars(base)["_texts"] and shared.flows is not None
        assert vars(plain)["_texts"].flows is None
        assert pickle.dumps(keyed, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            plain, pickle.HIGHEST_PROTOCOL
        )
        clones = (
            copy.copy(keyed),
            copy.deepcopy(keyed),
            pickle.loads(pickle.dumps(keyed)),
            dataclasses.replace(keyed),
        )
        for clone in clones:
            assert "_texts" not in vars(clone) and "_key_text" not in vars(clone)
            assert clone == plain
            assert design_space_key(clone, DEFAULT_LIBRARY, SynthesisConfig()) == key
        assert keyed == plain and repr(keyed) == repr(plain)

    def test_record_payload_ignores_whether_the_library_was_keyed(self):
        """Records pickle every topology's spec and library."""
        spec = logical_partitioning(mobile_soc_26(), 4)
        config = SynthesisConfig()
        record = list(synthesis._cold_pass(spec, DEFAULT_LIBRARY, config))
        vars(DEFAULT_LIBRARY).pop("_key_text", None)
        unkeyed = CacheStore.in_memory().put_object("k", record, "space")
        design_space_key(spec, DEFAULT_LIBRARY, config)
        assert "_key_text" in vars(DEFAULT_LIBRARY) and "_key_text" in vars(spec)
        assert CacheStore.in_memory().put_object("k", record, "space") == unkeyed


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
        variant = dataclasses.replace(base, objective=StaticLatencyObjective())
        assert design_space_key(spec, DEFAULT_LIBRARY, variant) == design_space_key(
            spec, DEFAULT_LIBRARY, base
        )

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

    def test_schema_6_blob_is_stale(self, tmp_path):
        """Schema 7 writes topologies in the lean row layout: a schema-6
        record's packed shells hold full rows, another layout, so its
        blob must read as stale, not corrupt."""
        store = CacheStore.open(tmp_path)
        store.put_object("a" * 64, 1, kind="space")
        store.put_object("b" * 64, 2, kind="space")
        _rewrite_header(store.disk.path_for("b" * 64), schema=6)
        assert SCHEMA_VERSION == 7
        report = store.disk.verify()
        assert report["stale"] == ["b" * 64] and report["corrupt"] == []
        reader = CacheStore.open(tmp_path)
        assert reader.get_object("b" * 64, kind="space") is None
        # Counted as the verifier classifies it: stale, not corrupt.
        assert reader.stats.counters == {"stale.disk": 1, "misses.space": 1}
        assert not reader.disk.path_for("b" * 64).exists()

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
        # A disk hit stays out of the memory tier, so both runs read disk.
        assert counters["hits.disk.space"] == 2
        assert "hits.memory.space" not in counters
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
    it serves every objective exactly."""

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

    def test_veto_served_from_one_record(self, tmp_path):
        """Scoring renumbers what a veto drops, identically on a hit and a
        cold run."""
        spec = logical_partitioning(load_benchmark("d26_media"), 4)
        with caching(CacheStore.open(tmp_path)):
            _answer(spec, self.CFG)
        cfg = dataclasses.replace(self.CFG, objective=_EvenCountVeto())
        cold = _answer(spec, cfg)
        assert cold[1] and any(reason.startswith("objective: ") for _, _, reason in cold[2])
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

    def test_stale_and_corrupt_blobs_count_apart(self):
        registry = MetricsRegistry()
        record_cache_metrics(registry, {"stale.disk": 2, "corrupt.disk": 1})
        assert registry.get("cache.stale_entries").value() == 2
        assert registry.get("cache.corrupt_entries").value(where="disk") == 1


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

    def test_sweep_canonicalizes_the_benchmark_once(self, capsys, tmp_path):
        """Every task spec of a sweep derives from one loaded benchmark,
        so its keys share one text of the cores and the flows."""
        argv = ["sweep", "d12_auto", "--counts", "1,2", "--cache-dir", str(tmp_path)]
        for run in ("cold", "warm"):
            with mock.patch.object(
                SoCSpec, "_core_rows", autospec=True, side_effect=SoCSpec._core_rows
            ) as core_rows:
                assert main(argv) == 0
            assert core_rows.call_count == 1, run
        assert capsys.readouterr().out.count("cache: 4 hits, 0 misses") == 1

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
