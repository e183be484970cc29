"""SoC specification model: validation, accessors, derivation."""

import copy
import dataclasses
import math
import pickle

import pytest

from repro import (
    DEFAULT_LIBRARY,
    CoreSpec,
    SoCSpec,
    SpecError,
    TrafficFlow,
    build_spec,
    plan_all_islands,
    synthesize,
)
from repro.soc.benchmarks import load_benchmark
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import logical_partitioning

from _helpers import make_tiny_spec, python312_sum


def core(name, **kw):
    defaults = dict(area_mm2=1.0, dynamic_power_mw=10.0, leakage_power_mw=2.0)
    defaults.update(kw)
    return CoreSpec(name, **defaults)


class TestCoreSpec:
    def test_valid_core(self):
        c = core("a", kind="cpu", group="compute")
        assert c.name == "a"
        assert c.kind == "cpu"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("area_mm2", 0.0),
            ("area_mm2", -1.0),
            ("dynamic_power_mw", -0.1),
            ("leakage_power_mw", -0.1),
            ("freq_mhz", 0.0),
            ("area_mm2", math.nan),
            ("dynamic_power_mw", math.nan),
            ("leakage_power_mw", math.nan),
            ("freq_mhz", math.nan),
        ],
    )
    def test_rejects_bad_numbers(self, field, value):
        with pytest.raises(SpecError):
            core("a", **{field: value})

    def test_rejects_empty_name(self):
        with pytest.raises(SpecError):
            core("")


class TestTrafficFlow:
    def test_key(self):
        f = TrafficFlow("a", "b", 10.0)
        assert f.key == ("a", "b")

    def test_rejects_self_loop(self):
        with pytest.raises(SpecError):
            TrafficFlow("a", "a", 10.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(SpecError):
            TrafficFlow("a", "b", 0.0)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(SpecError):
            TrafficFlow("a", "b", 1.0, latency_cycles=0.0)

    @pytest.mark.parametrize("field", ["bandwidth_mbps", "latency_cycles"])
    def test_rejects_nan(self, field):
        values = {"bandwidth_mbps": 1.0, "latency_cycles": 20.0, field: math.nan}
        with pytest.raises(SpecError):
            TrafficFlow("a", "b", **values)

    def test_rejects_infinite_bandwidth(self):
        """An inf flow made VCG weights inf/inf (NaN): a silent partition, then a crash."""
        flow = load_benchmark("d12_auto").flows[0]
        with pytest.raises(
            SpecError, match=r"^flow %s->%s: bandwidth must be positive and finite$" % flow.key
        ):
            dataclasses.replace(flow, bandwidth_mbps=math.inf)

    def test_infinite_latency_means_unconstrained(self):
        spec = load_benchmark("d12_auto")
        flows = (dataclasses.replace(spec.flows[0], latency_cycles=math.inf),) + spec.flows[1:]
        space = synthesize(logical_partitioning(dataclasses.replace(spec, flows=flows), 2))
        assert len(space.points) == 6


class TestSoCSpecValidation:
    def test_duplicate_core_names_rejected(self):
        with pytest.raises(SpecError, match="duplicate core"):
            build_spec("x", [core("a"), core("a")], [])

    def test_one_duplicate_among_480_generated_cores(self):
        spec = generate_soc(GeneratorConfig(name="g480", num_cores=480, num_groups=24, seed=5))
        cores = list(spec.cores)
        twin = cores[17].name
        cores[400] = dataclasses.replace(cores[400], name=twin)
        with pytest.raises(SpecError) as info:
            SoCSpec(name="g480", cores=tuple(cores), flows=spec.flows)
        assert str(info.value) == "spec 'g480': duplicate core names [%r]" % twin

    def test_duplicates_are_named_once_and_sorted(self):
        with pytest.raises(SpecError) as info:
            build_spec("x", [core(n) for n in "cbacbb"], [])
        assert str(info.value) == "spec 'x': duplicate core names ['b', 'c']"

    def test_flow_to_unknown_core_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            build_spec("x", [core("a")], [TrafficFlow("a", "ghost", 1.0)])

    def test_duplicate_flow_rejected(self):
        with pytest.raises(SpecError, match="duplicate flow"):
            build_spec(
                "x",
                [core("a"), core("b")],
                [TrafficFlow("a", "b", 1.0), TrafficFlow("a", "b", 2.0)],
            )

    def test_default_assignment_is_single_island(self):
        s = build_spec("x", [core("a"), core("b")], [])
        assert s.num_islands == 1
        assert s.island_of("a") == 0

    def test_partial_assignment_rejected(self):
        with pytest.raises(SpecError, match="misses"):
            build_spec("x", [core("a"), core("b")], [], {"a": 0})

    def test_sparse_island_ids_rejected(self):
        with pytest.raises(SpecError, match="dense"):
            build_spec("x", [core("a"), core("b")], [], {"a": 0, "b": 2})

    def test_negative_island_id_rejected(self):
        with pytest.raises(SpecError, match="non-negative"):
            build_spec("x", [core("a"), core("b")], [], {"a": 0, "b": -1})

    def test_bool_island_id_rejected(self):
        """``True == 1``, but a bool island id would give an equal spec
        another cache key."""
        spec = logical_partitioning(load_benchmark("d26_media"), 2)
        as_bools = {c: bool(i) for c, i in spec.vi_assignment.items()}
        with pytest.raises(SpecError, match="non-negative int, got (True|False)"):
            spec.with_vi_assignment(as_bools)
        with pytest.raises(SpecError, match="non-negative int, got True"):
            build_spec("x", [core("a"), core("b")], [], {"a": 0, "b": True})

    def test_assignment_of_unknown_core_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            build_spec("x", [core("a")], [], {"a": 0, "ghost": 0})

    def test_needs_at_least_one_core(self):
        with pytest.raises(SpecError):
            SoCSpec(name="x", cores=(), flows=())


class TestAccessors:
    def test_islands_sorted_dense(self, tiny_spec):
        assert tiny_spec.islands == [0, 1]

    def test_cores_in_island(self, tiny_spec):
        assert tiny_spec.cores_in_island(0) == ["cpu", "mem", "acc"]
        assert tiny_spec.cores_in_island(1) == ["io0", "io1", "per"]

    def test_core_lookup(self, tiny_spec):
        assert tiny_spec.core("cpu").kind == "cpu"
        with pytest.raises(SpecError):
            tiny_spec.core("ghost")

    def test_flow_lookup(self, tiny_spec):
        assert tiny_spec.flow("cpu", "mem").bandwidth_mbps == 400.0
        with pytest.raises(SpecError):
            tiny_spec.flow("mem", "acc")

    def test_lookup_errors_name_the_spec(self, tiny_spec):
        with pytest.raises(SpecError, match=r"^spec 'tiny2': no core named 'ghost'$"):
            tiny_spec.core("ghost")
        with pytest.raises(SpecError, match=r"^spec 'tiny2': no flow mem->acc$"):
            tiny_spec.flow("mem", "acc")

    def test_lookup_index_is_not_state(self):
        """The lookup index changes no pickle, copy, equality or repr."""
        spec = make_tiny_spec(2)
        blob = pickle.dumps(spec)
        text = repr(spec)
        assert spec.core("acc").kind == "accelerator"
        assert spec.flow("io0", "io1").bandwidth_mbps == 40.0
        assert pickle.dumps(spec) == blob
        assert repr(spec) == text
        for other in (pickle.loads(blob), copy.deepcopy(spec)):
            assert other == spec
            assert other.flow("cpu", "mem") == spec.flow("cpu", "mem")

    def test_flows_within_and_across(self, tiny_spec):
        within0 = {f.key for f in tiny_spec.flows_within_island(0)}
        assert within0 == {("cpu", "mem"), ("mem", "cpu"), ("acc", "mem")}
        across = {f.key for f in tiny_spec.flows_across_islands()}
        assert ("cpu", "io0") in across
        assert ("cpu", "mem") not in across

    def test_extremes(self, tiny_spec):
        assert tiny_spec.max_bandwidth_mbps == 480.0
        assert tiny_spec.min_latency_cycles == 8.0

    def test_core_peak_bandwidth_uses_max_direction(self, tiny_spec):
        # mem receives 400 + 200 = 600, sends 480 -> peak is 600.
        assert tiny_spec.core_peak_bandwidth_mbps("mem") == 600.0

    def test_island_peak_bandwidth(self, tiny_spec):
        assert plan_all_islands(tiny_spec, DEFAULT_LIBRARY)[0].peak_ni_bandwidth_mbps == 600.0
        # io island: io1 receives 40 + 2 = 42.
        assert plan_all_islands(tiny_spec, DEFAULT_LIBRARY)[1].peak_ni_bandwidth_mbps == 42.0

    @pytest.mark.parametrize("cores", [80, 160, 240])
    @pytest.mark.parametrize("seed", [0, 3, 6, 7, 11])
    def test_peak_table_matches_per_core_scans(self, cores, seed):
        """Same values and types as one flow scan per core: int 0 without flows."""
        assert_peak_table_matches_scans(cores, seed)

    def test_peak_table_of_a_core_without_flows(self):
        spec = build_spec("x", [core("a"), core("b"), core("c")], [TrafficFlow("a", "b", 5.0)])
        assert spec.core_peak_bandwidths() == {"a": 5.0, "b": 5.0, "c": 0}
        assert type(spec.core_peak_bandwidths()["c"]) is int

    def test_aggregates(self, tiny_spec):
        assert tiny_spec.total_core_area_mm2 == pytest.approx(6.9)
        assert tiny_spec.total_core_dynamic_power_mw == pytest.approx(255.0)
        assert tiny_spec.total_core_leakage_power_mw == pytest.approx(98.0)
        assert tiny_spec.total_flow_bandwidth_mbps == pytest.approx(1134.0)


def assert_peak_table_matches_scans(cores, seed):
    spec = generate_soc(
        GeneratorConfig(name="g%d" % cores, num_cores=cores, num_groups=cores // 20, seed=seed)
    )
    peaks = spec.core_peak_bandwidths()
    assert list(peaks) == spec.core_names
    for name, peak in peaks.items():
        scanned = spec.core_peak_bandwidth_mbps(name)
        assert (type(peak), peak) == (type(scanned), scanned), name


@pytest.mark.usefixtures(python312_sum.__name__)
class TestAccessorsUnderPython312Sum:
    """The peak table matches the scans also where ``sum`` compensates."""

    @pytest.mark.parametrize("cores", [80, 160, 240])
    @pytest.mark.parametrize("seed", [0, 3, 6, 7, 11])
    def test_peak_table_matches_per_core_scans(self, cores, seed):
        assert_peak_table_matches_scans(cores, seed)


class TestDerivation:
    def test_single_island(self, tiny_spec):
        flat = tiny_spec.single_island()
        assert flat.num_islands == 1
        assert set(flat.core_names) == set(tiny_spec.core_names)

    def test_with_vi_assignment_returns_new_spec(self, tiny_spec):
        new = tiny_spec.with_vi_assignment(
            {c: 0 for c in tiny_spec.core_names}, name="renamed"
        )
        assert new.name == "renamed"
        assert tiny_spec.num_islands == 2  # original untouched

    def test_three_island_variant(self):
        s = make_tiny_spec(3)
        assert s.num_islands == 3
        assert s.cores_in_island(1) == ["acc"]

    def test_communication_matrix(self, tiny_spec):
        m = tiny_spec.communication_matrix()
        assert m[("cpu", "mem")] == 400.0
        assert len(m) == len(tiny_spec.flows)
