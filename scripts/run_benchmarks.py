#!/usr/bin/env python
"""Synthesis perf harness — emits the machine-readable BENCH_synthesis.json.

Runs the same scaling sweep as
``benchmarks/bench_runtime.py::test_runtime_scaling_with_core_count``
under a :class:`repro.perf.Recorder`, plus three ablations:

* **cache ablation** — one representative size synthesized with
  ``enable_caches`` on and off, asserting the chosen design points are
  identical (the fast path must not change results) and recording the
  speedup;
* **warm cache** — the scaling sweep run cold and warm against a
  throwaway content-addressed store (``repro.cache``): the warm pass
  must reproduce byte-identical design points (exit code) and its
  speedup over the cold pass is recorded per size;
* **worker scaling** — the same exploration sweep per worker count on
  a persistent :class:`repro.core.explore.ExplorationEngine` pool
  (cold and warm passes); parallel rows are explicitly skipped on
  single-CPU hosts, where they would only measure fork overhead.

The JSON is append-friendly for trend tracking: re-runs overwrite the
file, so commit it (or archive it) per milestone.  See
``docs/performance.md`` for the field-by-field reading guide.

Each run is also archived under ``benchmarks/history/`` (one JSON per
run, named by timestamp) and, once at least one earlier snapshot
exists, a regression gate compares the scaling-sweep total against the
most recent archived run: the harness exits nonzero when the current
run is slower by more than ``--gate-tolerance`` (wall-clock noise on
shared machines is real, so the default tolerance is generous).
``--no-archive`` / ``--no-gate`` opt out.

The runtime-shutdown section also records the causal EWMA policy's gap
to the break-even oracle and the trace-driven co-synthesis comparison
(static-power vs ``TraceEnergyObjective`` selection on d26 @ 4
islands, where the two are known to diverge — see docs/objectives.md).
The resilience section records the coverage-vs-overhead point of
k-spare protection on d26 under single-link faults (100% coverage at
the measured power overhead — see docs/resilience.md), with a
byte-identical-reruns determinism check folded into the exit code.
The control-plane section replays every live single-link scenario on
d26 through the closed-loop reconfiguration controller and records
recovery-time percentiles, the degraded-window energy delta, and the
deadlock-audit verdicts (see docs/control_plane.md); its determinism
and deadlock-freedom flags also participate in the exit code.

Usage::

    python scripts/run_benchmarks.py                      # full run
    python scripts/run_benchmarks.py --quick              # small sizes
    python scripts/run_benchmarks.py --keep 20            # bound history/
    python scripts/run_benchmarks.py --workers 4 \
        --baseline-seconds 42.0 --baseline-label "pre-PR2 @daed751"
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import dataclasses  # noqa: E402

from repro import SynthesisConfig, mobile_soc_26, synthesize  # noqa: E402
from repro.core.explore import ExplorationEngine  # noqa: E402
from repro.core.objective import TraceEnergyObjective  # noqa: E402
from repro.io.json_io import spare_plan_summary  # noqa: E402
from repro.resilience import analyze_model, protect_design_point  # noqa: E402
from repro.perf import Recorder, recording  # noqa: E402
from repro.runtime import compare_policies, make_policy, markov_trace, simulate_trace  # noqa: E402
from repro.soc.generator import GeneratorConfig, generate_soc  # noqa: E402
from repro.soc.partitioning import (  # noqa: E402
    communication_partitioning,
    logical_partitioning,
)
from repro.soc.usecases import use_cases_for  # noqa: E402

#: Where per-run snapshots accumulate for cross-PR trend tracking.
HISTORY_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks", "history"
)

#: Config mirroring benchmarks/bench_runtime.py's FAST sweep.
FAST = SynthesisConfig(max_intermediate=1)
#: Same knobs with every fast-path optimization disabled.
FAST_UNCACHED = SynthesisConfig(max_intermediate=1, enable_caches=False)


def _scaling_spec(n_cores: int):
    spec = generate_soc(
        GeneratorConfig(name="scale%d" % n_cores, num_cores=n_cores, num_groups=4, seed=7)
    )
    return communication_partitioning(spec, 4)


def point_signature(space) -> List[Dict[str, object]]:
    """Order-sensitive identity of every design point in a space."""
    return [
        {
            "label": p.label(),
            "noc_power_mw": round(p.power_mw, 9),
            "avg_latency_cycles": round(p.avg_latency_cycles, 9),
        }
        for p in space.points
    ]


def run_scaling(sizes: List[int], recorder: Recorder) -> Dict[str, object]:
    """The cores-vs-seconds sweep, instrumented."""
    rows = []
    with recording(recorder):
        for n_cores in sizes:
            part = _scaling_spec(n_cores)
            t0 = time.perf_counter()
            space = synthesize(part, config=FAST)
            dt = time.perf_counter() - t0
            rows.append(
                {
                    "cores": n_cores,
                    "flows": len(part.flows),
                    "design_points": len(space),
                    "seconds": round(dt, 4),
                }
            )
            print("  %3d cores: %d design points in %.2fs" % (n_cores, len(space), dt))
    return {
        "rows": rows,
        "total_seconds": round(sum(r["seconds"] for r in rows), 4),
    }


def run_cache_ablation(n_cores: int) -> Dict[str, object]:
    """Cached vs uncached synthesis of one size; results must match."""
    part = _scaling_spec(n_cores)
    t0 = time.perf_counter()
    cached = synthesize(part, config=FAST)
    cached_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    uncached = synthesize(part, config=FAST_UNCACHED)
    uncached_s = time.perf_counter() - t0
    identical = point_signature(cached) == point_signature(uncached)
    if not identical:
        print("  WARNING: cached and uncached design points differ!", file=sys.stderr)
    print(
        "  %d cores: cached %.2fs, uncached %.2fs (%.2fx), identical=%s"
        % (n_cores, cached_s, uncached_s, uncached_s / max(cached_s, 1e-9), identical)
    )
    return {
        "cores": n_cores,
        "cached_seconds": round(cached_s, 4),
        "uncached_seconds": round(uncached_s, 4),
        "speedup": round(uncached_s / max(cached_s, 1e-9), 3),
        "identical_points": identical,
    }


def run_warm_cache(sizes: List[int]) -> Dict[str, object]:
    """Cold vs warm sweep against the content-addressed store.

    Runs the scaling sweep twice over one throwaway ``--cache-dir``:
    a cold pass that populates the store and a warm pass through a
    *fresh* :class:`CacheStore` (memory tier empty, every hit comes
    off disk).  The warm pass must reproduce byte-identical design
    points — ``identical_points`` participates in the harness exit
    code — and its speedup over the cold pass is the headline number
    of docs/caching.md.
    """
    import shutil
    import tempfile

    from repro.cache import CacheStore, caching  # noqa: E402

    tmpdir = tempfile.mkdtemp(prefix="repro-noc-bench-cache-")
    try:
        rows = []
        identical = True
        for n_cores in sizes:
            part = _scaling_spec(n_cores)
            cold_store = CacheStore.open(tmpdir)
            t0 = time.perf_counter()
            with caching(cold_store):
                cold_space = synthesize(part, config=FAST)
            cold_s = time.perf_counter() - t0
            warm_store = CacheStore.open(tmpdir)
            t0 = time.perf_counter()
            with caching(warm_store):
                warm_space = synthesize(part, config=FAST)
            warm_s = time.perf_counter() - t0
            same = point_signature(cold_space) == point_signature(warm_space)
            identical = identical and same
            if not same:
                print(
                    "  WARNING: warm rerun of %d cores differs from cold!" % n_cores,
                    file=sys.stderr,
                )
            rows.append(
                {
                    "cores": n_cores,
                    "cold_seconds": round(cold_s, 4),
                    "warm_seconds": round(warm_s, 4),
                    "speedup": round(cold_s / max(warm_s, 1e-9), 3),
                    "hits": warm_store.stats.hits,
                    "misses": warm_store.stats.misses,
                    "bytes_written": cold_store.stats.bytes_written,
                    "identical_points": same,
                }
            )
            print(
                "  %3d cores: cold %.2fs, warm %.2fs (%.2fx, %d hits), identical=%s"
                % (
                    n_cores,
                    cold_s,
                    warm_s,
                    cold_s / max(warm_s, 1e-9),
                    warm_store.stats.hits,
                    same,
                )
            )
        cold_total = sum(r["cold_seconds"] for r in rows)
        warm_total = sum(r["warm_seconds"] for r in rows)
        return {
            "rows": rows,
            "cold_total_seconds": round(cold_total, 4),
            "warm_total_seconds": round(warm_total, 4),
            "warm_speedup": round(cold_total / max(warm_total, 1e-9), 3),
            "identical_points": identical,
        }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_worker_scaling(n_cores: int, workers: int) -> List[Dict[str, object]]:
    """The alpha sweep per worker count, on the persistent pool.

    Every row is measured twice on one engine: a cold pass that builds
    the worker pool (and warms the in-process caches for ``workers=1``)
    and a warm pass that reuses it — the warm figure is the one
    parallel speedups are judged by, since a long-lived engine pays the
    pool start-up once.  On single-CPU hosts the parallel rows are
    *skipped* and say so explicitly: timing process fan-out on one core
    only measures fork overhead, not the pool.
    """
    part = _scaling_spec(n_cores)
    alphas = [0.2, 0.4, 0.6, 0.8]
    cpus = os.cpu_count() or 1
    counts = {1, workers}
    if cpus >= 4:
        counts.add(4)
    out = []
    for w in sorted(counts):
        if w > 1 and cpus <= 1:
            reason = (
                "skipped: single-CPU host (os.cpu_count()=%d), parallel "
                "timing would only measure fork overhead" % cpus
            )
            print("  workers=%d: %s" % (w, reason))
            out.append(
                {
                    "workers": w,
                    "tasks": len(alphas),
                    "feasible": None,
                    "cold_seconds": None,
                    "seconds": None,
                    "skipped": reason,
                }
            )
            continue
        with ExplorationEngine(workers=w, config=FAST) as engine:
            t0 = time.perf_counter()
            records = engine.alpha_exploration(part, alphas)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            records = engine.alpha_exploration(part, alphas)
            warm = time.perf_counter() - t0
        feasible = sum(1 for r in records if r.feasible)
        print(
            "  workers=%d: %d/%d feasible, cold %.2fs, warm %.2fs"
            % (w, feasible, len(records), cold, warm)
        )
        out.append(
            {
                "workers": w,
                "tasks": len(records),
                "feasible": feasible,
                "cold_seconds": round(cold, 4),
                "seconds": round(warm, 4),
            }
        )
    return out


def run_runtime_shutdown(
    n_segments: int = 96, seed: int = 11, mean_dwell_ms: float = 40.0
) -> Dict[str, object]:
    """Trace-driven policy comparison on d26 (bench_runtime_shutdown.py).

    Records per-policy trace energy and the break-even savings so the
    history snapshots track the runtime-shutdown number across PRs,
    next to the synthesis wall-clock.
    """
    spec = logical_partitioning(mobile_soc_26(), 6)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    trace = markov_trace(
        use_cases_for(spec),
        n_segments=n_segments,
        seed=seed,
        mean_dwell_ms=mean_dwell_ms,
    )
    t0 = time.perf_counter()
    best = synthesize(spec, config=FAST).best_by_power()
    reports = compare_policies(best.topology, trace)
    dt = time.perf_counter() - t0
    never = reports["never"]
    rows = [
        {
            "policy": name,
            "energy_mj": round(r.total_mj, 4),
            "gate_events": r.gate_events,
            "violations": len(r.violations),
            "savings_vs_never": round(r.savings_vs(never), 4),
        }
        for name, r in reports.items()
    ]
    for row in rows:
        print(
            "  %-22s %10.1f mJ  savings %5.1f%%  violations %d"
            % (
                row["policy"],
                row["energy_mj"],
                100.0 * row["savings_vs_never"],
                row["violations"],
            )
        )
    # Oracle gap of the causal EWMA predictor (ROADMAP follow-up).
    oracle_mj = reports["break_even"].total_mj
    ewma_mj = reports["ewma_predictor"].total_mj
    ewma_gap = {
        "ewma_mj": round(ewma_mj, 4),
        "oracle_mj": round(oracle_mj, 4),
        "gap_mj": round(ewma_mj - oracle_mj, 4),
        "gap_fraction": round((ewma_mj - oracle_mj) / oracle_mj, 6)
        if oracle_mj > 0
        else None,
    }
    print(
        "  ewma gap vs oracle: %.2f mJ (%.3f%%)"
        % (ewma_gap["gap_mj"], 100.0 * (ewma_gap["gap_fraction"] or 0.0))
    )
    return {
        "trace": {
            "name": trace.name,
            "segments": len(trace.segments),
            "total_ms": round(trace.total_ms, 1),
        },
        "policies": rows,
        "break_even_savings": next(
            (r["savings_vs_never"] for r in rows if r["policy"] == "break_even"),
            None,
        ),
        "ewma_gap": ewma_gap,
        "co_synthesis": run_cosynthesis(
            n_segments=n_segments, seed=seed, mean_dwell_ms=mean_dwell_ms
        ),
        "seconds": round(dt, 4),
    }


def run_cosynthesis(
    n_segments: int = 96, seed: int = 11, mean_dwell_ms: float = 40.0
) -> Dict[str, object]:
    """Trace-driven co-synthesis vs static selection on d26 @ 4 islands.

    Runs Algorithm 1 twice on the spec where the two objectives are
    known to diverge: once selecting by the static Figure-2 snapshot,
    once with :class:`TraceEnergyObjective` in the synthesis loop.  The
    co-synthesized point trades static mW for gating opportunity and
    must come out at or below the static choice in trace energy.
    """
    spec = logical_partitioning(mobile_soc_26(), 4)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    trace = markov_trace(
        use_cases_for(spec),
        n_segments=n_segments,
        seed=seed,
        mean_dwell_ms=mean_dwell_ms,
    )
    objective = TraceEnergyObjective(trace=trace)
    static_best = synthesize(spec, config=FAST).best_by_power()
    co_best = synthesize(
        spec, config=dataclasses.replace(FAST, objective=objective)
    ).best()
    policy = make_policy("break_even")

    def trace_mj(point) -> float:
        return simulate_trace(
            point.topology, trace, policy, check_routability=False
        ).total_mj

    static_mj, co_mj = trace_mj(static_best), trace_mj(co_best)
    out = {
        "islands": 4,
        "static_point": static_best.label(),
        "static_power_mw": round(static_best.power_mw, 4),
        "static_trace_mj": round(static_mj, 4),
        "cosynthesis_point": co_best.label(),
        "cosynthesis_power_mw": round(co_best.power_mw, 4),
        "cosynthesis_trace_mj": round(co_mj, 4),
        "trace_mj_saved": round(static_mj - co_mj, 4),
        "differs": static_best.label() != co_best.label(),
    }
    print(
        "  co-synthesis: static %s (%.1f mJ) vs trace-objective %s (%.1f mJ)"
        " differs=%s"
        % (
            out["static_point"],
            static_mj,
            out["cosynthesis_point"],
            co_mj,
            out["differs"],
        )
    )
    return out


def run_resilience(islands: int = 6, k: int = 1) -> Dict[str, object]:
    """Coverage-vs-overhead of k-spare protection on d26 (bench_resilience.py).

    Protects the best-power d26 point with k disjoint backup routes
    per flow and records single-link-failure coverage against the
    unprotected baseline, plus the measured power/wire/link overhead.
    The protection is run twice and compared byte-for-byte — the
    ``deterministic`` flag participates in the harness exit code.
    """
    from repro.soc.partitioning import logical_partitioning

    spec = logical_partitioning(mobile_soc_26(), islands)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    t0 = time.perf_counter()
    best = synthesize(spec, config=FAST).best_by_power()
    base_report = analyze_model(best.topology, "single_link")
    prot = protect_design_point(best, k=k)
    prot_report = analyze_model(prot.topology, "single_link", plan=prot.plan)
    again = protect_design_point(best, k=k)
    deterministic = json.dumps(
        spare_plan_summary(prot.plan), sort_keys=True
    ) == json.dumps(spare_plan_summary(again.plan), sort_keys=True)
    dt = time.perf_counter() - t0
    overhead_mw = prot.power_overhead_mw
    out = {
        "islands": islands,
        "fault_model": "single_link",
        "k": k,
        # The two analyses enumerate their own topology's links, so
        # the coverage denominators differ: spare links add scenarios.
        "unprotected_scenarios": base_report.num_scenarios,
        "protected_scenarios": prot_report.num_scenarios,
        "unprotected_coverage": round(base_report.coverage, 6),
        "unprotected_uncovered_flows": len(base_report.uncovered_flows),
        "protected_coverage": round(prot_report.coverage, 6),
        "protected_uncovered_flows": len(prot_report.uncovered_flows),
        "spare_links": prot.plan.links_opened,
        "reserved_mbps": round(prot.plan.total_reserved_mbps, 1),
        "base_power_mw": round(best.power_mw, 4),
        "protected_power_mw": round(prot.noc_power.fig2_dynamic_mw, 4),
        "power_overhead_mw": round(overhead_mw, 4),
        "power_overhead_fraction": round(overhead_mw / best.power_mw, 6)
        if best.power_mw > 0
        else None,
        "wire_overhead_mm": round(prot.wire_overhead_mm, 2),
        "deterministic": deterministic,
        "seconds": round(dt, 4),
    }
    print(
        "  unprotected %.1f%% -> k=%d protected %.1f%% coverage "
        "(%d spare links, +%.2f mW = %.1f%%, deterministic=%s)"
        % (
            100.0 * out["unprotected_coverage"],
            k,
            100.0 * out["protected_coverage"],
            out["spare_links"],
            out["power_overhead_mw"],
            100.0 * (out["power_overhead_fraction"] or 0.0),
            deterministic,
        )
    )
    return out


def _pct(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def run_control_plane(
    islands: int = 6, k: int = 1, max_scenarios: Optional[int] = None
) -> Dict[str, object]:
    """Closed-loop recovery timings on d26 (bench_control.py).

    Replays a Markov trace once per live single-link scenario with the
    reconfiguration controller driving detection, failover install and
    restore-to-primary, and records the recovery-time percentiles, the
    degraded-window energy delta, and the deadlock-audit verdicts.  One
    scenario is replayed twice and its full recovery timeline +
    telemetry stream compared byte-for-byte; the ``deterministic`` flag
    participates in the harness exit code.
    """
    from repro.control import ReconfigurationController  # noqa: E402
    from repro.io.json_io import control_summary  # noqa: E402
    from repro.resilience import (  # noqa: E402
        FaultEvent,
        enumerate_scenarios,
        route_affected,
    )
    from repro.soc.partitioning import logical_partitioning  # noqa: E402
    from repro.soc.usecases import use_cases_for  # noqa: E402

    spec = logical_partitioning(mobile_soc_26(), islands)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
    t0 = time.perf_counter()
    best = synthesize(spec, config=FAST).best_by_power()
    prot = protect_design_point(best, k=k)
    topology = prot.topology
    trace = markov_trace(use_cases_for(spec), n_segments=48, seed=11)
    all_scenarios = enumerate_scenarios(topology, "single_link")
    live = [
        sc
        for sc in all_scenarios
        if any(route_affected(sc, topology, r) for r in topology.routes.values())
    ]
    measured = live[:max_scenarios] if max_scenarios else live
    if len(measured) < len(live):
        print(
            "  (quick mode: measuring %d of %d live scenarios)"
            % (len(measured), len(live))
        )
    controller = ReconfigurationController(topology, spare_plan=prot.plan)

    def replay(scenario):
        event = FaultEvent(
            scenario=scenario,
            start_ms=0.25 * trace.total_ms,
            end_ms=0.6 * trace.total_ms,
        )
        return simulate_trace(
            topology,
            trace,
            make_policy("break_even"),
            fault_events=[event],
            spare_plan=prot.plan,
            controller=controller,
        )

    recoveries_ms: List[float] = []
    delta_mj = 0.0
    lost_mbits = 0.0
    all_routable = True
    all_deadlock_free = True
    for sc in measured:
        report = replay(sc)
        all_routable = all_routable and report.routable
        all_deadlock_free = (
            all_deadlock_free and report.recoveries_deadlock_free
        )
        recoveries_ms.append(report.worst_recovery_ms)
        delta_mj += report.fault_delta_mj
        lost_mbits += report.lost_traffic_mbits
    deterministic = True
    if measured:
        fresh = ReconfigurationController(topology, spare_plan=prot.plan)
        a = json.dumps(control_summary(replay(measured[0])), sort_keys=True)
        controller = fresh
        b = json.dumps(control_summary(replay(measured[0])), sort_keys=True)
        deterministic = a == b
    dt = time.perf_counter() - t0
    ordered = sorted(recoveries_ms)
    out = {
        "islands": islands,
        "k": k,
        "fault_model": "single_link",
        "scenarios_total": len(all_scenarios),
        "scenarios_live": len(live),
        "scenarios_measured": len(measured),
        "recovery_ms_p50": round(_pct(ordered, 0.5), 6),
        "recovery_ms_p95": round(_pct(ordered, 0.95), 6),
        "recovery_ms_max": round(max(recoveries_ms, default=0.0), 6),
        "degraded_delta_mj": round(delta_mj, 6),
        "lost_traffic_mbits": round(lost_mbits, 6),
        "all_routable": all_routable,
        "all_deadlock_free": all_deadlock_free,
        "deterministic": deterministic,
        "seconds": round(dt, 4),
    }
    print(
        "  %d/%d live scenarios: recovery p50 %.4f / p95 %.4f / max %.4f ms, "
        "degraded delta %+.4f mJ (deadlock-free=%s, deterministic=%s)"
        % (
            len(measured),
            len(live),
            out["recovery_ms_p50"],
            out["recovery_ms_p95"],
            out["recovery_ms_max"],
            out["degraded_delta_mj"],
            all_deadlock_free,
            deterministic,
        )
    )
    return out


def previous_comparable_total(history_dir: str, sizes: List[int]) -> Optional[Dict[str, object]]:
    """Scaling total of the newest archived snapshot with these sizes.

    Feeds the ``speedup_vs_previous`` field: the improvement of this
    run over the last committed milestone, measured by the same harness
    on the same sweep shape.  Returns ``None`` when no comparable
    snapshot exists (fresh checkout, or a different ``--sizes``).
    """
    for path in reversed(history_snapshots(history_dir)):
        try:
            with open(path) as f:
                ref = json.load(f)
            ref_sizes = [r["cores"] for r in ref["runtime_scaling"]["rows"]]
            total = float(ref["runtime_scaling"]["total_seconds"])
        except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError):
            continue
        if ref_sizes == sizes:
            return {"path": os.path.basename(path), "total_seconds": total}
    return None


def archive_snapshot(result: Dict[str, object], history_dir: str) -> str:
    """Append this run to the history directory (one JSON per run)."""
    os.makedirs(history_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    path = os.path.join(history_dir, "BENCH_synthesis_%s.json" % stamp)
    # A same-second rerun must not overwrite the earlier snapshot.
    n = 1
    while os.path.exists(path):
        path = os.path.join(history_dir, "BENCH_synthesis_%s_%d.json" % (stamp, n))
        n += 1
    with open(path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print("archived %s" % path)
    return path


def history_snapshots(history_dir: str) -> List[str]:
    """Archived snapshot paths, oldest first (timestamped names sort)."""
    return sorted(glob.glob(os.path.join(history_dir, "BENCH_synthesis_*.json")))


def _snapshot_sizes(path: str) -> Optional[tuple]:
    """The scaling-sweep core counts a snapshot recorded, or None."""
    try:
        with open(path) as f:
            data = json.load(f)
        return tuple(r["cores"] for r in data["runtime_scaling"]["rows"])
    except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError):
        return None


def prune_history(history_dir: str, keep: int) -> List[str]:
    """Delete old snapshots, retaining the newest ``keep``; returns removals.

    Runs after archiving, so the run just written is always retained
    and the history directory stops growing without bound on
    long-lived checkouts and CI runners.  The newest snapshot of each
    *sweep-size set* is additionally protected: it is the regression
    gate's only comparable baseline for that sweep shape, and a
    ``--quick`` run with a small ``--keep`` must not evict the
    full-size baseline the next full run gates against.
    """
    if keep < 1:
        raise ValueError("--keep must be >= 1, got %r" % keep)
    snapshots = history_snapshots(history_dir)
    retained = set(snapshots[-keep:])
    newest_by_sizes: Dict[tuple, str] = {}
    for path in snapshots:  # oldest first: later entries win
        sizes = _snapshot_sizes(path)
        if sizes is not None:
            newest_by_sizes[sizes] = path
    retained.update(newest_by_sizes.values())
    doomed = [p for p in snapshots if p not in retained]
    for path in doomed:
        os.remove(path)
        print("pruned %s" % path)
    return doomed


def check_regression(
    result: Dict[str, object], history_dir: str, tolerance: float
) -> bool:
    """Gate the scaling-sweep total against the previous snapshot.

    Returns True (pass) when no comparable earlier data point exists,
    or when ``current <= previous * tolerance``.  Machine noise makes
    tight timing gates flaky, so ``tolerance`` should stay generous;
    the point is catching order-of-magnitude slips, not 5% drifts.
    Runs *before* the current result is archived — a failing run must
    not become the next run's baseline.
    """
    previous = history_snapshots(history_dir)
    if not previous:
        print("regression gate: no earlier snapshot, nothing to compare")
        return True
    cur_total = float(result["runtime_scaling"]["total_seconds"])
    cur_sizes = [r["cores"] for r in result["runtime_scaling"]["rows"]]
    # Walk back to the newest *comparable* snapshot: a --quick run in
    # between (different sweep sizes) must not blind the gate.
    ref_total = None
    ref_path = ""
    for path in reversed(previous):
        try:
            with open(path) as f:
                ref = json.load(f)
            total = float(ref["runtime_scaling"]["total_seconds"])
            sizes = [r["cores"] for r in ref["runtime_scaling"]["rows"]]
        except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError):
            print("regression gate: %s is unreadable, skipping it" % path)
            continue
        if sizes != cur_sizes:
            print(
                "regression gate: %s used sizes %s (current %s), skipping it"
                % (os.path.basename(path), sizes, cur_sizes)
            )
            continue
        ref_total, ref_path = total, path
        break
    if ref_total is None:
        print("regression gate: no comparable earlier snapshot, nothing to compare")
        return True
    limit = ref_total * tolerance
    verdict = "PASS" if cur_total <= limit else "FAIL"
    print(
        "regression gate: %s — scaling total %.2fs vs %.2fs in %s (limit %.2fs)"
        % (verdict, cur_total, ref_total, os.path.basename(ref_path), limit)
    )
    return verdict == "PASS"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_synthesis.json"
        ),
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument(
        "--sizes",
        default="10,20,30,40",
        help="comma-separated core counts for the scaling sweep",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, (os.cpu_count() or 2) // 2),
        help="pool size for the worker-scaling measurement",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small sizes only (CI smoke mode)"
    )
    parser.add_argument(
        "--baseline-seconds",
        type=float,
        default=None,
        help="scaling-sweep total of a reference build, for the speedup field",
    )
    parser.add_argument(
        "--baseline-label",
        default="baseline",
        help="where --baseline-seconds came from (commit, date, machine)",
    )
    parser.add_argument(
        "--history-dir",
        default=HISTORY_DIR,
        help="where per-run snapshots accumulate (default: benchmarks/history)",
    )
    parser.add_argument(
        "--no-archive",
        action="store_true",
        help="do not append this run to the history directory",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="skip the regression gate against the previous snapshot",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=1.5,
        help="gate fails when scaling total exceeds previous * tolerance",
    )
    parser.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="after archiving, retain only the newest N history snapshots",
    )
    args = parser.parse_args(argv)
    if args.keep is not None and args.keep < 1:
        parser.error("--keep must be >= 1")

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if args.quick:
        sizes = [s for s in sizes if s <= 20] or sizes[:1]

    print("scaling sweep (cores=%s):" % sizes)
    recorder = Recorder()
    scaling = run_scaling(sizes, recorder)
    previous = previous_comparable_total(args.history_dir, sizes)
    if previous is not None:
        scaling["previous_total_seconds"] = previous["total_seconds"]
        scaling["previous_snapshot"] = previous["path"]
        scaling["speedup_vs_previous"] = round(
            previous["total_seconds"] / max(scaling["total_seconds"], 1e-9), 3
        )
        print(
            "  vs previous snapshot %s: %.2fx"
            % (previous["path"], scaling["speedup_vs_previous"])
        )
    print("cache ablation:")
    ablation = run_cache_ablation(max(sizes))
    print("warm cache (content-addressed store, cold vs warm sweep):")
    warm_cache = run_warm_cache(sizes)
    print("worker scaling:")
    worker_rows = run_worker_scaling(min(sizes), args.workers)
    print("runtime shutdown (d26, markov trace):")
    runtime_shutdown = run_runtime_shutdown(
        n_segments=32 if args.quick else 96
    )
    print("resilience (d26, single-link faults, k=1 spares):")
    resilience = run_resilience()
    print("control plane (d26, closed-loop recovery, k=1 spares):")
    control_plane = run_control_plane(
        max_scenarios=4 if args.quick else None
    )

    result: Dict[str, object] = {
        "meta": {
            "generated_unix": round(time.time(), 1),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "runtime_scaling": scaling,
        "counters": recorder.counters,
        "phase_seconds": {
            k: round(v, 4) for k, v in recorder.seconds_by_name().items()
        },
        "cache_ablation": ablation,
        "cache": warm_cache,
        "worker_scaling": worker_rows,
        "runtime_shutdown": runtime_shutdown,
        "resilience": resilience,
        "control_plane": control_plane,
    }
    if args.baseline_seconds is not None:
        result["baseline"] = {
            "label": args.baseline_label,
            "total_seconds": args.baseline_seconds,
            "speedup": round(
                args.baseline_seconds / max(scaling["total_seconds"], 1e-9), 3
            ),
        }

    out_path = os.path.abspath(args.output)
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=False)
        f.write("\n")
    print("wrote %s" % out_path)

    # Gate against the existing history first; only a passing run is
    # archived, so a regressed run can never ratchet the baseline up.
    gate_ok = True
    if not args.no_gate:
        gate_ok = check_regression(result, args.history_dir, args.gate_tolerance)
    if not args.no_archive:
        if gate_ok:
            archive_snapshot(result, args.history_dir)
            if args.keep is not None:
                prune_history(args.history_dir, args.keep)
        else:
            print("not archiving: regression gate failed")
    return 0 if (
        ablation["identical_points"]
        and warm_cache["identical_points"]
        and gate_ok
        and resilience["deterministic"]
        and control_plane["deterministic"]
        and control_plane["all_deadlock_free"]
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
