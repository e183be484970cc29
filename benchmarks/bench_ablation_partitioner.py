"""Ablation — FM min-cut partitioner vs greedy agglomeration.

DESIGN.md decision 6.1: core-to-switch clustering uses recursive
bisection with Fiduccia–Mattheyses refinement (the 2009-era standard);
a greedy agglomerative variant ships as the comparison point.  This
bench quantifies the choice twice: on raw cut weight over random
graphs, and end-to-end on synthesized NoC power.
"""

from __future__ import annotations

import random

from _bench_utils import write_result
from repro import SynthesisConfig, synthesize
from repro.core.partition import build_adjacency, cut_weight, partition_graph
from repro.io.report import format_table
from repro.soc.benchmarks import mobile_soc_26
from repro.soc.partitioning import logical_partitioning


def _random_clustered_graph(n, clusters, seed):
    rng = random.Random(seed)
    nodes = ["n%d" % i for i in range(n)]
    weights = {}
    for i, u in enumerate(nodes):
        for j in range(i + 1, n):
            v = nodes[j]
            same = (i % clusters) == (j % clusters)
            w = rng.uniform(5.0, 10.0) if same else rng.uniform(0.0, 0.5)
            weights[(u, v)] = w
    return nodes, weights


def test_partitioner_cut_quality(benchmark):
    def sweep():
        rows = []
        for n, k in ((16, 4), (24, 4), (32, 8)):
            fm_cuts, greedy_cuts = [], []
            for seed in range(5):
                nodes, weights = _random_clustered_graph(n, k, seed)
                adj = build_adjacency(nodes, weights)
                fm = partition_graph(nodes, weights, k, method="fm")
                gr = partition_graph(nodes, weights, k, method="greedy")
                fm_cuts.append(cut_weight(adj, fm))
                greedy_cuts.append(cut_weight(adj, gr))
            rows.append(
                {
                    "nodes": n,
                    "parts": k,
                    "fm_cut": sum(fm_cuts) / len(fm_cuts),
                    "greedy_cut": sum(greedy_cuts) / len(greedy_cuts),
                    "fm_wins_ratio": sum(greedy_cuts) / max(sum(fm_cuts), 1e-9),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(rows, title="Ablation: FM vs greedy partitioner, cut weight")
    print("\n" + table)
    write_result("ablation_partitioner_cut", table, rows)
    # FM should match or beat greedy on average for every size.
    for r in rows:
        assert r["fm_cut"] <= r["greedy_cut"] * 1.05


def test_partitioner_end_to_end_power(benchmark):
    spec = logical_partitioning(mobile_soc_26(), 6)

    def run():
        rows = []
        for method in ("fm", "greedy"):
            cfg = SynthesisConfig(partition_method=method, max_intermediate=1)
            best = synthesize(spec, config=cfg).best_by_power()
            rows.append(
                {
                    "method": method,
                    "noc_power_mw": best.power_mw,
                    "avg_latency_cycles": best.avg_latency_cycles,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(rows, title="Ablation: partitioner choice, end-to-end (d26)")
    print("\n" + table)
    write_result("ablation_partitioner_e2e", table, rows)
    fm = next(r for r in rows if r["method"] == "fm")
    greedy = next(r for r in rows if r["method"] == "greedy")
    assert fm["noc_power_mw"] <= greedy["noc_power_mw"] * 1.10
