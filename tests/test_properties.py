"""Cross-cutting property-based tests: random SoCs through the pipeline.

Hypothesis generates random-but-valid SoC specs (via the generator
substrate with drawn parameters and island assignments); every
synthesized result must satisfy the full invariant set — routes
complete, capacities respected, shutdown safety, floorplan containment,
power positivity.  This is the strongest single check in the suite: it
exercises the exact code path a user hits with their own spec.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SynthesisConfig, synthesize, validate_topology
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning, logical_partitioning


@st.composite
def random_partitioned_socs(draw):
    n_cores = draw(st.integers(min_value=8, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=999))
    spec = generate_soc(
        GeneratorConfig(
            name="prop%d_%d" % (n_cores, seed),
            num_cores=n_cores,
            num_groups=min(4, n_cores // 3),
            seed=seed,
        )
    )
    n_islands = draw(st.integers(min_value=1, max_value=min(5, n_cores)))
    strategy = draw(st.sampled_from(["logical", "communication"]))
    if strategy == "logical":
        return logical_partitioning(spec, n_islands)
    return communication_partitioning(spec, n_islands)


PROP_CONFIG = SynthesisConfig(max_intermediate=1)


@given(random_partitioned_socs())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_synthesis_invariants_on_random_socs(spec):
    space = synthesize(spec, config=PROP_CONFIG)
    for point in space:
        topo = point.topology

        # 1. Every flow routed NI-to-NI.
        assert set(topo.routes) == {f.key for f in spec.flows}

        # 2. Full structural validation incl. shutdown safety.
        validate_topology(topo)

        # 3. Latency budgets honoured (synthesis rejects violators).
        assert not point.latency.violations

        # 4. Floorplan containment: cores inside their islands.
        for core in spec.core_names:
            isl = spec.island_of(core)
            rect = point.floorplan.core_rects[core]
            assert point.floorplan.island_rects[isl].contains_rect(rect, tol=1e-6)

        # 5. Power is positive and islands account for all of it.
        p = point.noc_power
        assert p.dynamic_mw > 0
        assert sum(p.dynamic_by_island.values()) == pytest.approx(p.dynamic_mw)

        # 6. Switch sizes never exceed what their clock permits.
        lib = topo.library
        for sw in topo.switches.values():
            assert lib.switch_fmax_mhz(max(sw.size, 2)) >= sw.freq_mhz - 1e-9


@given(random_partitioned_socs())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_synthesis_deterministic_on_random_socs(spec):
    a = synthesize(spec, config=PROP_CONFIG)
    b = synthesize(spec, config=PROP_CONFIG)
    assert [p.label() for p in a] == [p.label() for p in b]
    assert [p.power_mw for p in a] == pytest.approx([p.power_mw for p in b])


@given(
    st.integers(min_value=8, max_value=16),
    st.integers(min_value=0, max_value=99),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_more_islands_never_reduces_converter_count(n_cores, seed):
    spec = generate_soc(
        GeneratorConfig(name="conv", num_cores=n_cores, num_groups=3, seed=seed)
    )
    counts = []
    for n in (1, min(3, n_cores), min(5, n_cores)):
        part = communication_partitioning(spec, n)
        best = synthesize(part, config=PROP_CONFIG).best_by_power()
        counts.append(best.topology.num_converters())
    assert counts[0] == 0
    assert counts == sorted(counts)
