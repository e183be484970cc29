"""The row layout topologies travel in, and the used-bandwidth rule.

``Topology.__getstate__`` (the fan-out pipe, ``copy.deepcopy``) and
``TopologyPacker`` (the cache store's packed shells) write one layout:
NI links keep only their lengths, link charges and used bandwidths are
replayed from the routes in route order, and route components come
from the links.  A topology the lean rows would not give back exactly
(charges out of route order, an explicit converter flag) keeps full
rows.  Every path must give the topology back field for
field, with each link's used bandwidth its charges added left to right
from int 0, as routing added them.
"""

from __future__ import annotations

import copy
import itertools
import pickle

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro import SynthesisConfig, Topology, mobile_soc_26, synthesize
from repro.arch.topology import _lean_rows
from repro.baseline.flat import synthesize_vi_oblivious
from repro.cache import CacheStore
from repro.core import synthesis as synthesis_module
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning

from _helpers import neumaier_sum, python312_sum


def exact(value):
    """``value`` with every float as its hex form and its type kept."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(v) for v in value])
    return (type(value).__name__, value)


def fields(topology):
    """Everything a topology holds, in insertion order, floats exact."""
    return (
        exact(list(topology.island_freqs.items())),
        {
            name: [
                (key, type(obj), [(k, exact(v)) for k, v in vars(obj).items()])
                for key, obj in getattr(topology, name).items()
            ]
            for name in ("switches", "nis", "links", "routes")
        },
        list(topology.core_switch.items()),
        topology._next_link_id,
    )


def added(charges):
    """The used bandwidth routing gives a link: ``+=`` from int 0."""
    used = 0
    for _, bw in charges:
        used += bw
    return used


def shared_objects(topologies):
    """Per flow key and per NI id, how many distinct objects ``topologies``
    hold: 1 everywhere when they share one charge and one NI."""
    charges, nis = {}, {}
    for topology in topologies:
        for link in topology.links.values():
            for charge in link.flows:
                charges.setdefault(charge[0], set()).add(id(charge))
        for ni in topology.nis.values():
            nis.setdefault(ni.id, set()).add(id(ni))
    return {len(ids) for ids in itertools.chain(charges.values(), nis.values())}


def through_the_pipe(points):
    """``points`` as a fan-out worker sends them and the caller rebinds them."""
    spec, library = points[0].topology.spec, points[0].topology.library
    synthesis_module._rebind(points, None, None)
    try:
        back = pickle.loads(pickle.dumps(points, pickle.HIGHEST_PROTOCOL))
    finally:
        synthesis_module._rebind(points, spec, library)
    synthesis_module._rebind(back, spec, library)
    return back


def through_the_store(points):
    """``points`` through a store record, every shell unpacked."""
    store = CacheStore.in_memory()
    store.put_object("r" * 64, points, "space")
    back = store.get_object("r" * 64, "space")
    for point in back:
        assert type(point.topology) is not Topology  # a packed shell
        point.topology.links  # unpacks it
    return back


def assert_round_trips(points):
    """Every codec path gives each point's topology back exactly, and the
    decoded points of one payload share charges and NIs as the points
    did (a fanned-out pass holds one set per chunk)."""
    expected = [fields(p.topology) for p in points]
    sharing = shared_objects([p.topology for p in points])
    copies = {
        "deepcopy": [copy.deepcopy(p.topology) for p in points],
        "pipe": [p.topology for p in through_the_pipe(points)],
        "store": [p.topology for p in through_the_store(points)],
        "clone": [p.topology.clone_scaffold() for p in points],
    }
    for path, topologies in copies.items():
        assert [fields(t) for t in topologies] == expected, path
        assert all(type(t) is Topology for t in topologies), path
    for path in ("pipe", "store", "clone"):
        assert shared_objects(copies[path]) == sharing, path
    for topology in copies["pipe"]:
        for link in topology.links.values():
            assert exact(link._used_mbps) == exact(added(link.flows))


@st.composite
def generated_specs(draw):
    n_cores = draw(st.integers(min_value=8, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=999))
    soc = generate_soc(
        GeneratorConfig(
            name="rows%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=max(1, min(4, n_cores // 8)),
            seed=seed,
        )
    )
    partition = draw(st.sampled_from([logical_partitioning, communication_partitioning]))
    return (
        partition(soc, draw(st.integers(min_value=1, max_value=4))),
        draw(st.integers(min_value=0, max_value=2)),
    )


class TestRoundTrips:
    @given(generated_specs())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_generated_specs(self, case):
        spec, max_intermediate = case
        space = synthesize(spec, config=SynthesisConfig(max_intermediate=max_intermediate))
        # The lean layout is what these points travel in.
        assert all(_lean_rows(p.topology) is not None for p in space.points)
        assert_round_trips(space.points)

    def test_d26_space(self, d26_space):
        assert shared_objects([p.topology for p in d26_space.points]) == {1}
        assert_round_trips(d26_space.points)

    def test_remapped_topology_keeps_full_rows(self):
        """The VI-oblivious remap marks every link converter-free
        (``has_converter=False``), which the lean rows do not carry."""
        for islands in (2, 4, 6):
            topology = synthesize_vi_oblivious(
                logical_partitioning(mobile_soc_26(), islands)
            ).topology
            assert _lean_rows(topology) is None
            expected = fields(topology)
            assert fields(copy.deepcopy(topology)) == expected
            assert fields(topology.clone_scaffold()) == expected
            assert fields(pickle.loads(pickle.dumps(topology, pickle.HIGHEST_PROTOCOL))) == expected
            store = CacheStore.in_memory()
            store.put_object("f" * 64, [topology], "space")
            (back,) = store.get_object("f" * 64, "space")
            assert type(back) is Topology  # a topology without lean rows stays eager
            assert fields(back) == expected


@pytest.fixture(scope="module")
def gen40_space():
    """A space where a compensated ``sum`` of a link's charges differs
    from routing's left-to-right additions on a third of the links
    with three or more charges."""
    soc = generate_soc(GeneratorConfig(name="gen40", num_cores=40, num_groups=2, seed=7))
    return synthesize(communication_partitioning(soc, 2))


def rounding_links(space):
    """Links of ``space`` whose charges a compensated ``sum`` adds up to
    another float than ``+=`` does."""
    return [
        (point, link)
        for point in space.points
        for link in point.topology.links.values()
        if neumaier_sum(bw for _, bw in link.flows) != added(link.flows)
    ]


@pytest.mark.usefixtures(python312_sum.__name__)
class TestUsedBandwidthUnderPython312Sum:
    """Used bandwidths keep routing's left-to-right ``+=`` through every
    path that recomputes them, also where ``sum`` compensates."""

    def test_codec_paths(self, gen40_space):
        assert rounding_links(gen40_space)
        assert_round_trips(gen40_space.points)
