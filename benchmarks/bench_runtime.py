"""Synthesis runtime scaling.

Section 5: "The exploration of the design points for all the benchmark
took only a few hours on a 2 GHz Linux machine.  To be noted that the
synthesis process is only run once at design time and therefore the
computational time required by the algorithm is negligible."

Absolute runtimes obviously differ (their C++ on 2009 hardware vs our
Python); what this bench establishes is (a) the asymptotic behaviour —
the quoted O(V^2 E^2 ln V) worst case is nowhere near reached on
realistic sparse graphs — and (b) micro-costs of the two hot kernels
(min-cut partitioning, path allocation).
"""

from __future__ import annotations

import time

from _bench_utils import write_result
from repro import SynthesisConfig, synthesize
from repro.core.partition import partition_graph
from repro.core.vcg import build_global_vcg
from repro.io.report import format_table
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.partitioning import communication_partitioning

FAST = SynthesisConfig(max_intermediate=1)


def test_runtime_scaling_with_core_count(benchmark):
    def sweep():
        rows = []
        for n_cores in (10, 20, 30, 40):
            spec = generate_soc(
                GeneratorConfig(
                    name="scale%d" % n_cores,
                    num_cores=n_cores,
                    num_groups=4,
                    seed=7,
                )
            )
            part = communication_partitioning(spec, 4)
            t0 = time.perf_counter()
            space = synthesize(part, config=FAST)
            dt = time.perf_counter() - t0
            rows.append(
                {
                    "cores": n_cores,
                    "flows": len(spec.flows),
                    "design_points": len(space),
                    "seconds": dt,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        rows, title="Synthesis wall-clock vs core count (4 islands, full sweep)"
    )
    print("\n" + table)
    write_result("runtime_scaling", table, rows)

    assert all(r["design_points"] >= 1 for r in rows)
    # Laptop-scale: the whole sweep stays in seconds, not hours.
    assert sum(r["seconds"] for r in rows) < 120.0


def test_partitioner_microbench(benchmark):
    spec = generate_soc(GeneratorConfig(name="micro", num_cores=32, num_groups=4, seed=3))
    vcg = build_global_vcg(spec)
    nodes = list(vcg.nodes)
    weights = vcg.symmetric_weights()

    result = benchmark(lambda: partition_graph(nodes, weights, 6))
    assert len(result) == 6
