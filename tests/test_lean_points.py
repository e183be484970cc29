"""Lean design points: write-once objects exist once, not once per point.

Every scaffold of one candidate pass attaches the same frozen NI per
core; each flow has one key tuple and one ``(key, bandwidth)`` charge
tuple, which its route, its link charges and its latency entry share;
a topology builds its link pair index only when a query needs it; and
the topology codec keeps the sharing, so a cached record or a fan-out
chunk decodes into shared objects.  Sharing is checked by object
identity: object counts differ between Python versions.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro import DEFAULT_LIBRARY, SynthesisConfig, TrafficFlow, synthesize
from repro.arch.topology import NetworkInterface
from repro.cache import CacheStore, caching, canonical
from repro.core import synthesis
from repro.core.frequency import plan_all_islands

from _helpers import pin_fanout_width


def ni_objects(points):
    """Core name -> ids of the NI objects the points attach it through."""
    seen = {}
    for point in points:
        for ni in point.topology.nis.values():
            seen.setdefault(ni.core, set()).add(id(ni))
    return seen


def assert_one_ni_per_core(points, spec):
    seen = ni_objects(points)
    assert set(seen) == set(spec.core_names)
    assert all(len(ids) == 1 for ids in seen.values())


def assert_one_tuple_per_flow(points, charges):
    """Every link charge, route key and latency key of each flow is the
    flow's one tuple in ``charges`` (flow key -> charge)."""
    for point in points:
        topo = point.topology
        for link in topo.links.values():
            for charge in link.flows:
                assert charge is charges[charge[0]]
        for key, route in topo.routes.items():
            assert key is charges[key][0]
            assert route.flow is key
        assert len(topo.routes) == len(charges)
        for key in point.latency.per_flow:
            assert key is charges[key][0]


def decoded_charges(point):
    """The flow charges one decoded point's links hold, by flow key."""
    return {c[0]: c for link in point.topology.links.values() for c in link.flows}


def fanned_out_chunks(spec, width, monkeypatch):
    """A cold call dealt over ``width`` processes: its points by chunk."""
    pin_fanout_width(monkeypatch, width)
    space = synthesize(spec)
    cfg = SynthesisConfig()
    steps = synthesis._sweep_steps(
        plan_all_islands(spec, DEFAULT_LIBRARY, cfg.freq_step_mhz, cfg.min_freq_mhz)
    )
    chunks = [[] for _ in range(width)]
    for point in space.points:
        chunks[steps.index(point.switch_counts) % width].append(point)
    assert all(chunks)
    return chunks


def shared_ids(a, b):
    """NI objects that two point lists have in common."""
    return set.union(*ni_objects(a).values()) & set.union(*ni_objects(b).values())


class TestSharedNIs:
    def test_cold_space(self, d26_space, d26_log6):
        assert len(d26_space) > 1
        assert_one_ni_per_core(d26_space.points, d26_log6)

    def test_warm_hit(self, d26_com4):
        store = CacheStore.in_memory()
        with caching(store):
            cold = synthesize(d26_com4)
            warm = synthesize(d26_com4)
        assert store.stats.counters["hits.memory.space"] == 1
        assert_one_ni_per_core(warm.points, d26_com4)
        assert not shared_ids(cold.points, warm.points)  # the hit decoded its own

    def test_each_fanned_out_chunk(self, d26_com4, monkeypatch):
        chunks = fanned_out_chunks(d26_com4, 2, monkeypatch)
        for points in chunks:
            assert_one_ni_per_core(points, d26_com4)
        assert not shared_ids(*chunks)  # chunk 1 was decoded from a worker

    def test_ni_is_frozen(self, tiny_best):
        ni = next(iter(tiny_best.topology.nis.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ni.freq_mhz = 1.0

    def test_attach_core_replaces_an_entry_that_does_not_match(self, tiny_spec):
        from repro import Topology

        nis = {}
        first = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        first.attach_core("cpu", first.add_switch(0, 0), nis)
        again = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 200.0, 1: 100.0})
        again.attach_core("cpu", again.add_switch(0, 0), nis)
        assert again.nis["ni.cpu"] is first.nis["ni.cpu"] is nis["cpu"]
        slower = Topology(tiny_spec, DEFAULT_LIBRARY, {0: 150.0, 1: 100.0})
        ni = slower.attach_core("cpu", slower.add_switch(0, 0), nis)
        assert ni.freq_mhz == 150.0 and ni is not first.nis["ni.cpu"]
        assert first.nis["ni.cpu"].freq_mhz == 200.0


class TestSharedFlowTuples:
    def test_cold_space(self, d26_space, d26_log6):
        charges = {f.key: f.charge for f in d26_log6.flows}
        assert all(f.charge[0] is f.key for f in d26_log6.flows)
        assert_one_tuple_per_flow(d26_space.points, charges)

    def test_warm_hit(self, d26_com4):
        store = CacheStore.in_memory()
        with caching(store):
            synthesize(d26_com4)
            warm = synthesize(d26_com4)
        assert store.stats.counters["hits.memory.space"] == 1
        assert_one_tuple_per_flow(warm.points, decoded_charges(warm.points[0]))

    def test_each_fanned_out_chunk(self, d26_com4, monkeypatch):
        here, worker = fanned_out_chunks(d26_com4, 2, monkeypatch)
        assert_one_tuple_per_flow(here, {f.key: f.charge for f in d26_com4.flows})
        assert_one_tuple_per_flow(worker, decoded_charges(worker[0]))

    def test_kept_out_of_equality_repr_pickles_and_keys(self):
        fresh = TrafficFlow("a", "b", 100.0, 8.0)
        used = TrafficFlow("a", "b", 100.0, 8.0)
        assert used.charge == (("a", "b"), 100.0)
        assert used.key is used.charge[0] is used.key
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert canonical(used) == canonical(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        decoded = pickle.loads(pickle.dumps(used))
        assert decoded == used and decoded.charge == used.charge


def _pairs(topo):
    pairs = dict.fromkeys((l.src, l.dst) for l in topo.links.values())
    pairs.update(dict.fromkeys((dst, src) for src, dst in list(pairs)))
    pairs[("ni.nowhere", next(iter(topo.switches)))] = None
    return list(pairs)


def answers(topo, pairs):
    return [
        (getattr(topo.link_between(*pair), "id", None),
         [l.id for l in topo.links_between(*pair)])
        for pair in pairs
    ]


def scanned(topo, pairs):
    """The answers of a scan over ``links``."""
    out = []
    for pair in pairs:
        hits = [l for l in topo.links.values() if (l.src, l.dst) == pair]
        out.append((hits[0].id if hits else None, [l.id for l in hits if l.kind == "sw2sw"]))
    return out


class TestPairIndexOnDemand:
    def test_answers_equal_a_scan(self, d26_best):
        built = d26_best.topology
        pairs = _pairs(built)
        assert answers(built, pairs) == scanned(built, pairs)

        clone = built.clone_scaffold()
        assert clone._links_by_pair is None
        assert answers(clone, pairs) == scanned(clone, pairs)
        first = next(l for l in clone.links.values() if l.kind == "sw2sw")
        parallel = clone.open_link(first.src, first.dst)
        assert clone.links_between(first.src, first.dst)[-1] is parallel
        assert answers(clone, pairs) == scanned(clone, pairs)
        for other in (pickle.loads(pickle.dumps(clone, 4)), copy.deepcopy(clone)):
            assert other._links_by_pair is None
            assert answers(other, pairs) == scanned(other, pairs)
        assert parallel.id not in built.links
        assert answers(built, pairs) == scanned(built, pairs)

    def test_ni_shape_is_compact_in_pickles(self, tiny_best):
        ni = next(iter(tiny_best.topology.nis.values()))
        assert ni.__reduce__() == (NetworkInterface, (ni.id, ni.core, ni.island, ni.freq_mhz))
        decoded = pickle.loads(pickle.dumps([ni, ni], 4))
        assert decoded[0] is decoded[1] and decoded[0] == ni
