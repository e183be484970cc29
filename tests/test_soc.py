"""SoC substrate: benchmarks, generator, partitioning strategies, use cases."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import DEFAULT_LIBRARY, SpecError
from repro.soc.benchmarks import BENCHMARKS, benchmark_suite, load_benchmark
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import (
    communication_partitioning,
    island_count_sweep,
    logical_partitioning,
)
from repro.soc.usecases import generic_use_cases, mobile_use_cases, use_cases_for


class TestMobileSoc26:
    def test_paper_core_count(self, d26):
        assert len(d26.cores) == 26

    def test_core_mix_matches_paper_description(self, d26):
        # "several processors, DSPs, caches, DMA controller, integrated
        # memory, video decoder engines and a multitude of peripherals"
        kinds = {c.kind for c in d26.cores}
        for expected in ("cpu", "dsp", "cache", "dma", "memory", "video", "peripheral"):
            assert expected in kinds, expected

    def test_traffic_statistics(self, d26):
        bws = sorted(f.bandwidth_mbps for f in d26.flows)
        # heavy head and long tail
        assert bws[-1] >= 300.0
        assert bws[0] <= 2.0
        assert len(d26.flows) >= 40

    def test_realistic_system_denominators(self, d26):
        # The 3% / 0.5% overhead claims need a W-class, tens-of-mm^2 SoC.
        assert 1000.0 < d26.total_core_dynamic_power_mw < 4000.0
        assert 25.0 < d26.total_core_area_mm2 < 100.0
        # 65 nm leakage: a large fraction of total (motivates shutdown)
        leak_frac = d26.total_core_leakage_power_mw / (
            d26.total_core_dynamic_power_mw + d26.total_core_leakage_power_mw
        )
        assert 0.15 < leak_frac < 0.45

    def test_feasible_at_library_defaults(self, d26):
        from repro import plan_all_islands

        plans = plan_all_islands(d26.single_island(), DEFAULT_LIBRARY)
        assert plans[0].max_switch_size >= 2


class TestSuite:
    def test_all_benchmarks_construct_and_validate(self):
        for spec in benchmark_suite():
            assert spec.cores and spec.flows

    def test_registry_names_match(self):
        for name in BENCHMARKS:
            assert load_benchmark(name).name == name

    def test_unknown_benchmark_raises(self):
        with pytest.raises(SpecError, match="unknown benchmark 'd999_ghost'"):
            load_benchmark("d999_ghost")

    def test_deterministic_construction(self):
        a = load_benchmark("d38_media")
        b = load_benchmark("d38_media")
        assert [c.name for c in a.cores] == [c.name for c in b.cores]
        assert [f.key for f in a.flows] == [f.key for f in b.flows]


class TestGenerator:
    def test_exact_core_count(self):
        for n in (8, 16, 23, 38):
            spec = generate_soc(GeneratorConfig(name="g", num_cores=n, num_groups=3, seed=1))
            assert len(spec.cores) == n

    def test_deterministic_in_seed(self):
        cfg = GeneratorConfig(name="g", num_cores=20, num_groups=4, seed=42)
        a, b = generate_soc(cfg), generate_soc(cfg)
        assert [f.key for f in a.flows] == [f.key for f in b.flows]
        assert [f.bandwidth_mbps for f in a.flows] == [
            f.bandwidth_mbps for f in b.flows
        ]

    def test_different_seeds_differ(self):
        a = generate_soc(GeneratorConfig(name="g", num_cores=20, seed=1))
        b = generate_soc(GeneratorConfig(name="g", num_cores=20, seed=2))
        assert [f.bandwidth_mbps for f in a.flows] != [
            f.bandwidth_mbps for f in b.flows
        ]

    def test_bad_configs_rejected(self):
        with pytest.raises(SpecError):
            GeneratorConfig(name="g", num_cores=3)
        with pytest.raises(SpecError):
            GeneratorConfig(name="g", num_cores=10, num_groups=9)

    @given(st.integers(min_value=8, max_value=40), st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_generated_specs_always_synthesizable_inputs(self, n, seed):
        spec = generate_soc(
            GeneratorConfig(name="g%d" % n, num_cores=n, num_groups=min(4, n // 2), seed=seed)
        )
        # spec validation happened in the constructor; check NI
        # bandwidths stay within a 2-port switch at top frequency.
        top_capacity = DEFAULT_LIBRARY.link_capacity_mbps(
            DEFAULT_LIBRARY.switch_fmax_mhz(2)
        )
        for core in spec.core_names:
            assert spec.core_peak_bandwidth_mbps(core) <= top_capacity


class TestLogicalPartitioning:
    def test_groups_preserved_at_group_count(self, d26):
        s = logical_partitioning(d26, 7)
        assert s.num_islands == 7
        groups = {}
        for c in d26.cores:
            groups.setdefault(c.group, set()).add(c.name)
        island_sets = [set(s.cores_in_island(i)) for i in s.islands]
        for members in groups.values():
            assert members in island_sets

    def test_shared_memories_stay_together(self, d26):
        # Paper: "shared memories are placed in the same VI".
        for n in (2, 3, 4, 5, 6, 7):
            s = logical_partitioning(d26, n)
            islands = {s.island_of(c) for c in ("sdram0", "sdram1", "sram0", "sram1")}
            assert len(islands) == 1, "memories split at n=%d" % n

    def test_every_count_from_1_to_cores(self, d26):
        for n in (1, 2, 5, 7, 12, 26):
            s = logical_partitioning(d26, n)
            assert s.num_islands == n

    def test_26_islands_is_singletons(self, d26):
        s = logical_partitioning(d26, 26)
        assert all(len(s.cores_in_island(i)) == 1 for i in s.islands)

    def test_count_bounds(self, d26):
        with pytest.raises(SpecError):
            logical_partitioning(d26, 0)
        with pytest.raises(SpecError):
            logical_partitioning(d26, 27)

    def test_deterministic(self, d26):
        a = logical_partitioning(d26, 5).vi_assignment
        b = logical_partitioning(d26, 5).vi_assignment
        assert a == b


class TestCommunicationPartitioning:
    def test_high_bandwidth_pairs_share_island(self, d26):
        s = communication_partitioning(d26, 4)
        # The heaviest flows should end up intra-island.
        top = sorted(d26.flows, key=lambda f: -f.bandwidth_mbps)[:5]
        same = sum(1 for f in top if s.island_of(f.src) == s.island_of(f.dst))
        assert same >= 4

    def test_cut_bandwidth_below_logical(self, d26):
        for n in (3, 4, 6):
            com = communication_partitioning(d26, n)
            log = logical_partitioning(d26, n)
            cut_com = sum(f.bandwidth_mbps for f in com.flows_across_islands())
            cut_log = sum(f.bandwidth_mbps for f in log.flows_across_islands())
            assert cut_com <= cut_log

    def test_island_count_respected(self, d26):
        for n in (1, 2, 7, 26):
            assert communication_partitioning(d26, n).num_islands == n

    def test_sweep_helper(self, d26):
        specs = island_count_sweep(d26, [1, 2, 3], strategy="communication")
        assert [s.num_islands for s in specs] == [1, 2, 3]
        with pytest.raises(SpecError):
            island_count_sweep(d26, [1], strategy="astrology")


class TestUseCases:
    def test_mobile_set_validates(self, d26):
        for case in mobile_use_cases():
            case.validate_against(d26)

    def test_time_fractions_sum_to_one(self):
        assert sum(c.time_fraction for c in mobile_use_cases()) == pytest.approx(1.0)

    def test_standby_is_small(self, d26):
        standby = [c for c in mobile_use_cases() if c.name == "standby"][0]
        assert len(standby.active_cores) <= 6

    def test_registry_prefers_curated(self, d26):
        cases = use_cases_for(d26)
        assert {c.name for c in cases} == {c.name for c in mobile_use_cases()}

    def test_generic_fallback(self):
        spec = load_benchmark("d20_tele")
        cases = use_cases_for(spec)
        assert {c.name for c in cases} == {"full_load", "light_compute", "standby"}
        for c in cases:
            c.validate_against(spec)

    def test_generic_needs_cpu_and_memory(self, tiny_spec):
        # tiny spec has cpu+memory: works
        cases = generic_use_cases(tiny_spec)
        assert cases


class TestHubSoc:
    def test_structure(self):
        from repro.soc.generator import hub_soc

        spec = hub_soc(num_satellites=10)
        assert len(spec.cores) == 11
        assert spec.num_islands == 11
        assert len(spec.flows) == 20

    def test_default_forces_intermediate_island(self):
        from repro import InfeasibleError, SynthesisConfig, synthesize
        from repro.soc.generator import hub_soc

        spec = hub_soc()
        with pytest.raises(InfeasibleError):
            synthesize(spec, config=SynthesisConfig(allow_intermediate=False))
        space = synthesize(
            spec, config=SynthesisConfig(allow_intermediate=True, max_intermediate=3)
        )
        best = space.best_by_power()
        assert best.num_intermediate_used > 0
        from repro import validate_topology

        validate_topology(best.topology)

    def test_small_hub_feasible_direct(self):
        from repro import SynthesisConfig, synthesize
        from repro.soc.generator import hub_soc

        # Few satellites: the hub switch has enough ports for direct links.
        spec = hub_soc(num_satellites=4)
        space = synthesize(spec, config=SynthesisConfig(allow_intermediate=False))
        assert space.feasible

    def test_rejects_zero_satellites(self):
        from repro.soc.generator import hub_soc

        with pytest.raises(SpecError):
            hub_soc(num_satellites=0)
