"""Packed shells: a store hit's topologies and floorplans decode when read.

The store writes each design point's topology and floorplan as packed
shells (``TopologyPacker`` in ``arch/topology.py``, ``FloorplanPacker``
in ``floorplan/placer.py``).  A hit decodes the shells only; the first
read of any attribute a shell lacks unpacks it into a plain
:class:`Topology` or :class:`Floorplan`.  Pickled or copied before
that, a shell passes its packed form through.  Cold runs, the fan-out
pipe and plain pickle stay eager.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Floorplan, SynthesisConfig, Topology, synthesize
from repro.cache import CacheStore, caching
from repro.core.explore import ExplorationEngine
from repro.exceptions import CacheCorruptionError
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning

from _helpers import pin_fanout_width

CFG = SynthesisConfig(max_intermediate=1)


def packed(value):
    """A shell nothing has read yet is of a subclass until then."""
    return isinstance(value, (Topology, Floorplan)) and type(value) not in (Topology, Floorplan)


def fields(topology):
    """Everything a topology holds, in its insertion orders."""
    return (
        list(topology.island_freqs.items()),
        [vars(s) for s in topology.switches.values()],
        list(topology.nis.items()),
        [vars(l) for l in topology.links.values()],
        list(topology.routes.items()),
        list(topology.core_switch.items()),
        topology._next_link_id,
    )


def cold_and_warm(spec):
    """A cold call's space and the same call's warm hit."""
    store = CacheStore.in_memory()
    with caching(store):
        cold = synthesize(spec, config=CFG)
        warm = synthesize(spec, config=CFG)
    assert store.stats.counters["hits.memory.space"] == 1
    return cold, warm


@st.composite
def generated_specs(draw):
    n_cores = draw(st.integers(min_value=20, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=999))
    soc = generate_soc(
        GeneratorConfig(
            name="lazy%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=draw(st.integers(min_value=2, max_value=4)),
            seed=seed,
        )
    )
    return communication_partitioning(soc, draw(st.integers(min_value=1, max_value=4)))


@given(generated_specs(), st.integers(min_value=1, max_value=2))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_unpacked_points_equal_the_cold_points(monkeypatch, spec, width):
    """Every warm point, unpacked, equals the cold one field for field,
    and so does a shell that was pickled, deep-copied or cloned first.
    A width-2 cold pass stores two chunks' NIs and charges."""
    pin_fanout_width(monkeypatch, width)
    cold, warm = cold_and_warm(spec)
    assert len(warm) == len(cold)
    for cold_point, point in zip(cold.points, warm.points):
        shell = point.topology
        assert packed(shell)
        pickled = pickle.loads(pickle.dumps(shell, 4))
        deep = copy.deepcopy(shell)
        assert packed(pickled) and packed(deep) and packed(shell)
        clone = shell.clone_scaffold()  # reads the shell: unpacks it
        assert type(shell) is Topology and type(clone) is Topology
        expected = fields(cold_point.topology)
        for other in (shell, pickled, deep, clone):
            assert fields(other) == expected
            assert type(other) is Topology

        floorplan = point.floorplan
        copies = [pickle.loads(pickle.dumps(floorplan, 4)), copy.deepcopy(floorplan)]
        assert all(map(packed, copies + [floorplan]))
        for other in copies + [floorplan]:
            assert other == cold_point.floorplan  # a read: unpacks it
            assert type(other) is Floorplan


class TestShell:
    def test_spec_and_library_do_not_unpack(self, d26_com4):
        other = d26_com4.with_vi_assignment(d26_com4.vi_assignment, name="other")
        _, warm = cold_and_warm(d26_com4)
        shell = warm.points[0].topology
        assert shell.spec is d26_com4 and shell.library is not None
        shell.spec = other
        assert packed(shell)
        assert shell.num_converters() >= 0
        assert not packed(shell) and shell.spec is other

    def test_undecodable_blob_raises_and_stays_packed(self, d26_com4):
        _, warm = cold_and_warm(d26_com4)
        shell = warm.points[0].topology
        nis, charges, blob = shell._packed
        shell._packed = (nis, charges, blob[: len(blob) // 2])
        floorplan = warm.points[0].floorplan
        skeleton, switches = floorplan._packed
        floorplan._packed = (skeleton, switches[:-1])
        for _ in range(2):
            with pytest.raises(CacheCorruptionError, match="undecodable Topology"):
                shell.links
            assert packed(shell)
            assert sorted(vars(shell)) == ["_packed", "library", "spec"]
            with pytest.raises(CacheCorruptionError, match="undecodable Floorplan"):
                floorplan.chip
            assert packed(floorplan) and sorted(vars(floorplan)) == ["_packed"]

    def test_floorplans_of_one_skeleton_share_its_bytes(self, d26_com4):
        cold, warm = cold_and_warm(d26_com4)
        skeletons = {id(p.floorplan.chip) for p in cold.points}
        assert len({id(p.floorplan._packed[0]) for p in warm.points}) == len(skeletons)

    def test_damaged_disk_entry_is_a_miss(self, d26_com4, tmp_path):
        with caching(CacheStore.open(tmp_path)):
            synthesize(d26_com4, config=CFG)
        (path,) = tmp_path.rglob("*.blob")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # well inside the topologies' blobs
        path.write_bytes(bytes(raw))
        store = CacheStore.open(tmp_path)
        with caching(store):
            synthesize(d26_com4, config=CFG)
        counters = store.stats.counters
        assert counters["corrupt.disk"] == 1 and counters["misses.space"] == 1

    def test_records_that_do_not_share_charges_stay_eager(self, tiny_best):
        """A topology whose routes are not keyed by its charges' keys is
        written as plain pickle writes it."""
        topo = tiny_best.topology.clone_scaffold()
        key, route = next(iter(topo.routes.items()))
        del topo.routes[key]
        topo.routes[(key[0], key[1])] = route  # an equal key, another tuple
        store = CacheStore.in_memory()
        store.put_object("k" * 64, [topo], "space")
        (back,) = store.get_object("k" * 64, "space")
        assert type(back) is Topology and fields(back) == fields(topo)


class TestWhereLazinessStops:
    def test_fanned_out_call_returns_unpacked_topologies(self, monkeypatch):
        spec = communication_partitioning(
            generate_soc(GeneratorConfig(name="gen40", num_cores=40, num_groups=2, seed=0)), 2
        )
        pin_fanout_width(monkeypatch, 2)
        space = synthesize(spec)
        assert len(space) > 1
        assert all(type(p.topology) is Topology for p in space.points)
        assert all(type(p.floorplan) is Floorplan for p in space.points)
        with caching(CacheStore.in_memory()):
            cold = synthesize(spec)  # a miss returns the computed points
        assert all(type(p.topology) is Topology for p in cold.points)
        assert all(type(p.floorplan) is Floorplan for p in cold.points)

    def test_pickle_and_copies_of_an_unpacked_point_are_eager(self, tiny_best):
        topo, floorplan = tiny_best.topology, tiny_best.floorplan
        for other in (pickle.loads(pickle.dumps(topo, 4)), copy.deepcopy(topo)):
            assert type(other) is Topology and fields(other) == fields(topo)
        for other in (pickle.loads(pickle.dumps(floorplan, 4)), copy.deepcopy(floorplan)):
            assert type(other) is Floorplan and other == floorplan

    def test_warm_sweep_record_crosses_the_pool_packed(self, tmp_path):
        spec = communication_partitioning(
            generate_soc(GeneratorConfig(name="gen24", num_cores=24, num_groups=2, seed=3)), 2
        )
        grid = {"islands": [2, 3], "strategies": ("communication",)}
        with caching(CacheStore.open(tmp_path)), ExplorationEngine(workers=2) as engine:
            cold = engine.grid_exploration(spec, **grid).records
        with caching(CacheStore.open(tmp_path)) as store, ExplorationEngine(workers=2) as engine:
            warm = engine.grid_exploration(spec, **grid).records
        assert store.stats.hits == 2
        for cold_record, record in zip(cold, warm):
            assert packed(record.point.topology) and packed(record.point.floorplan)
            assert record.row()["converters"] == cold_record.row()["converters"]
            assert not packed(record.point.topology)
            assert fields(record.point.topology) == fields(cold_record.point.topology)
            assert record.point.floorplan == cold_record.point.floorplan
