"""Command-line interface: ``repro-noc``.

Subcommands
-----------

``list``
    Show the built-in SoC benchmarks.
``synth``
    Synthesize one benchmark at a given island count and partitioning
    strategy; print the design space and optionally export the best
    design point (DOT topology, SVG floorplan, JSON).
``sweep``
    Island-count sweep over both partitioning strategies (the data
    behind Figures 2 and 3), as a table or CSV.  Both ``synth`` and
    ``sweep`` take ``--objective`` to select/synthesize under a
    pluggable cost model (static power/latency, trace energy,
    wake-latency QoS — see docs/objectives.md).
``shutdown``
    Shutdown-capability comparison: VI-aware vs VI-oblivious baseline
    across the benchmark's use cases (the leakage-savings story).
``runtime``
    Trace-driven runtime shutdown simulation: replay a seeded-Markov
    (or day-in-the-life) use-case trace through per-island power-state
    machines under all standard gating policies and report energy over
    time, wake events, stalls and routability violations (see
    docs/runtime.md).
``resilience``
    Fault coverage of the k-spare-protected design vs the unprotected
    baseline under a chosen fault model (single/double link, switch,
    island), with the measured power overhead of protection (see
    docs/resilience.md).  ``--availability`` adds the FIT-rate-weighted
    expected-availability analysis.
``control``
    Closed-loop fault recovery: inject one fault scenario into a
    runtime trace and let the reconfiguration controller detect it,
    fail affected flows over, and restore primaries on repair — with
    the staged recovery timeline and telemetry stream printed (see
    docs/control_plane.md).
``obs``
    Observability dashboard over a traced, controlled replay: span
    phase breakdown, controller recovery timeline, island-state Gantt
    rows and top-N counters, with Chrome-trace / JSON-lines /
    Prometheus exports (see docs/observability.md).
``cache``
    Inspect the content-addressed synthesis cache: ``stats`` (entry
    counts and bytes by kind), ``clear``, ``verify`` (re-hash every
    blob, report corrupt/stale entries; ``--remove`` deletes them).
    ``synth``, ``sweep`` and ``obs`` take ``--cache-dir`` to run
    against a store (see docs/caching.md).

Examples::

    repro-noc list
    repro-noc synth d26_media --islands 6 --strategy logical --dot topo.dot
    repro-noc sweep d26_media --counts 1,2,3,4,5,6,7,26 --csv fig2.csv
    repro-noc shutdown d26_media --islands 6
    repro-noc runtime --benchmark d26_media --policy break_even
    repro-noc resilience d26_media --islands 6 --spare-k 1 --per-scenario
    repro-noc control d26_media --islands 6 --spare-k 1 --telemetry
    repro-noc obs d26_media --islands 6 --chrome-trace trace.json
    repro-noc synth d26_media --cache-dir .noc-cache   # warm re-runs are instant
    repro-noc cache stats --cache-dir .noc-cache
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import TYPE_CHECKING, List, Optional

# Building the parser needs only these; every subcommand imports what
# it runs inside its handler, so a command loads no other subsystem.
from .exceptions import CacheError, ReproError
from .names import (
    DEFAULT_WAKE_BUDGET_MS,
    FAULT_MODEL_NAMES,
    OBJECTIVE_NAMES,
    POLICY_NAMES,
)

if TYPE_CHECKING:  # pragma: no cover
    from .cache import CacheStore


def _int_list(text: str, flag: str) -> List[int]:
    """Parse a comma-separated integer flag, skipping blank items."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ReproError("%s: expected a comma-separated list of integers" % flag)
    values = []
    for item in items:
        try:
            values.append(int(item))
        except ValueError:
            raise ReproError("%s: %r is not an integer" % (flag, item)) from None
    return values


def _non_negative(value: int, flag: str) -> int:
    """Reject a negative count flag with a one-line error."""
    if value < 0:
        raise ReproError("%s: must be >= 0, got %d" % (flag, value))
    return value


#: Namespace attributes of the flags naming a file to write.
_OUTPUT_ARGS = (
    "json", "dot", "svg", "csv", "events", "telemetry_out", "html", "chrome_trace", "prom"
)


def _check_args(args: argparse.Namespace) -> None:
    """Reject unwritable output paths, a directory to follow, a NaN in
    any float flag, negative counts and timeouts and coverage targets
    outside [0, 1] up front, rather than with a traceback, garbage
    output or an idle wait after the run."""
    for name, value in sorted(vars(args).items()):
        # NaN passes every ``x < 0`` range check downstream.
        if isinstance(value, float) and math.isnan(value):
            raise ReproError("--%s: must be a number, got nan" % name.replace("_", "-"))
    if getattr(args, "follow_timeout", 0.0) < 0:
        raise ReproError("--follow-timeout: must be >= 0, got %r" % args.follow_timeout)
    _non_negative(getattr(args, "spare_k", 0), "--spare-k")
    for attr in _OUTPUT_ARGS:
        path = getattr(args, attr, None)
        flag = "--" + attr.replace("_", "-")
        if path and os.path.isdir(path):
            raise ReproError("%s: %s is a directory" % (flag, path))
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ReproError("%s: the directory of %s does not exist" % (flag, path))
    follow = getattr(args, "follow", None)
    if follow and os.path.isdir(follow):
        raise ReproError("--follow: %s is a directory" % follow)
    coverage = getattr(args, "min_coverage", 0.0)
    if not 0.0 <= coverage <= 1.0:
        raise ReproError("--min-coverage: must be in [0, 1], got %r" % coverage)


@contextlib.contextmanager
def _feed(sinks: list):
    """Hand the active recorder's events to ``sinks`` for a ``with`` block.

    Attaches to an enclosing recorder, so it keeps every counter and
    span it would see anyway, or installs one when none is active.
    The sinks are detached and closed on exit.
    """
    from .perf import active_recorder, recording

    rec = active_recorder()
    with contextlib.nullcontext(rec) if rec is not None else recording() as rec:
        rec.sinks.extend(sinks)
        try:
            yield rec
        finally:
            for sink in sinks:
                rec.sinks.remove(sink)
                sink.close()


def _partitioned(name: str, islands: int, strategy: str):
    from .soc.benchmarks import load_benchmark

    return _island_specs(load_benchmark(name), [islands], strategy)[0]


def _island_specs(base, counts: List[int], strategy: str) -> list:
    """``base`` re-islanded for every count, each strategy's from one
    partitioner (:func:`~repro.soc.partitioning.island_count_sweep`).

    Each keeps the benchmark's name, so curated use cases still apply,
    and ``base``'s cores and flows, so keys share their texts.
    """
    from .soc.partitioning import island_count_sweep

    return [
        out.with_vi_assignment(out.vi_assignment, name=base.name)
        for out in island_count_sweep(base, counts, strategy)
    ]


def _objective_trace(args: argparse.Namespace, spec, seed: int):
    """A seeded Markov trace over the benchmark's curated use-case set."""
    from .runtime import markov_trace
    from .soc.usecases import use_cases_for

    return markov_trace(
        use_cases_for(spec),
        n_segments=args.trace_segments,
        seed=seed,
        mean_dwell_ms=args.trace_dwell_ms,
    )


def _objective_for(args: argparse.Namespace, spec):
    """Build the requested objective; trace-driven ones get seeded
    Markov traces over the benchmark's curated use-case set."""
    from .core.objective import make_objective

    name = getattr(args, "objective", "static_power")
    trace = None
    traces = None
    if name in ("trace_energy", "wake_qos"):
        trace = _objective_trace(args, spec, args.seed)
    elif name == "multi_trace":
        seeds_arg = getattr(args, "trace_seeds", None)
        if seeds_arg is not None:
            seeds = _int_list(seeds_arg, "--trace-seeds")
        else:
            seeds = [args.seed, args.seed + 1, args.seed + 2]
        traces = [_objective_trace(args, spec, s) for s in seeds]
    return make_objective(
        name,
        trace=trace,
        traces=traces,
        policy=getattr(args, "objective_policy", "break_even"),
        budget_ms=getattr(args, "qos_budget_ms", DEFAULT_WAKE_BUDGET_MS),
        fault_model=getattr(args, "fault_model", "single_link"),
        spare_k=getattr(args, "spare_k", 1),
        min_coverage=getattr(args, "min_coverage", 1.0),
    )


def _add_objective_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--objective",
        choices=OBJECTIVE_NAMES,
        default="static_power",
        help="cost model for design-point selection (trace-driven "
        "objectives replay a seeded Markov trace over the benchmark's "
        "use cases; see docs/objectives.md)",
    )
    p.add_argument(
        "--objective-policy",
        choices=POLICY_NAMES,
        default="break_even",
        help="gating policy the trace-driven objectives simulate under",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed of the objective's Markov trace"
    )
    p.add_argument(
        "--trace-segments",
        type=int,
        default=96,
        help="segments of the objective's Markov trace",
    )
    p.add_argument(
        "--trace-dwell-ms",
        type=float,
        default=40.0,
        help="mean mode dwell time of the objective's Markov trace",
    )
    p.add_argument(
        "--qos-budget-ms",
        type=float,
        default=DEFAULT_WAKE_BUDGET_MS,
        help="per-flow wake-latency budget for the wake_qos objective",
    )
    p.add_argument(
        "--trace-seeds",
        help="comma-separated Markov seeds for the multi_trace objective "
        "(default: seed, seed+1, seed+2)",
    )
    _add_fault_args(p)
    _add_min_coverage_arg(p)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-model",
        choices=FAULT_MODEL_NAMES,
        default="single_link",
        help="failure scenarios to protect against / analyze",
    )
    p.add_argument(
        "--spare-k",
        type=int,
        default=1,
        help="disjoint backup routes per flow",
    )


def _add_min_coverage_arg(p: argparse.ArgumentParser) -> None:
    """``--min-coverage``, for the commands that read it."""
    p.add_argument(
        "--min-coverage",
        type=float,
        default=1.0,
        help="coverage target (resilience objective veto / exit code)",
    )


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        help="content-addressed result store directory; enables warm-run "
        "memoization (see docs/caching.md)",
    )
    p.add_argument(
        "--verify-on-hit",
        type=int,
        default=0,
        metavar="N",
        help="recompute and cross-check every Nth cache hit (0 = never)",
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from .io.report import format_table
    from .soc.benchmarks import BENCHMARKS, load_benchmark

    rows = []
    for name in sorted(BENCHMARKS):
        spec = load_benchmark(name)
        rows.append(
            {
                "benchmark": name,
                "cores": len(spec.cores),
                "flows": len(spec.flows),
                "total_bw_mbps": spec.total_flow_bandwidth_mbps,
                "core_power_mw": spec.total_core_dynamic_power_mw,
                "area_mm2": spec.total_core_area_mm2,
            }
        )
    print(format_table(rows, title="built-in benchmarks"), end="")
    return 0


def _cache_scope(args: argparse.Namespace):
    """``caching(...)`` context for ``--cache-dir`` (no-op without it).

    Returns ``(context_manager, store_or_None)``; commands print a
    one-line hit/miss summary from the store after their run.
    """
    verify_every = _non_negative(getattr(args, "verify_on_hit", 0), "--verify-on-hit")
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return contextlib.nullcontext(), None
    if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise CacheError("--cache-dir: %s is not a directory" % cache_dir)
    from .cache import CacheStore, caching

    store = CacheStore.open(cache_dir, verify_every=verify_every)
    return caching(store), store


def _print_cache_stats(store: Optional[CacheStore]) -> None:
    if store is None:
        return
    s = store.stats
    print(
        "cache: %d hits, %d misses, %d bytes written (%s)"
        % (s.hits, s.misses, s.bytes_written, store.directory)
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    from .core.synthesis import SynthesisConfig, synthesize
    from .io.json_io import design_point_summary
    from .io.report import format_table

    spec = _partitioned(args.benchmark, args.islands, args.strategy)
    objective = _objective_for(args, spec)
    config = SynthesisConfig(
        alpha=args.alpha,
        allow_intermediate=not args.no_intermediate,
        objective=objective,
    )
    scope, store = _cache_scope(args)
    with scope:
        space = synthesize(spec, config=config)
    _print_cache_stats(store)
    print(
        format_table(
            space.summary_rows(),
            title="%s, %d islands (%s partitioning): %d design points"
            % (args.benchmark, args.islands, args.strategy, len(space)),
        ),
        end="",
    )
    best = space.best()
    print("\nbest by %s: %s" % (objective.describe(), best.label()))
    for key, val in sorted(design_point_summary(best).items()):
        print("  %-24s %s" % (key, val))
    if args.dot:
        from .io.dot import save_dot

        save_dot(best.topology, args.dot)
        print("wrote %s" % args.dot)
    if args.svg:
        from .io.floorplan_art import save_floorplan_svg

        save_floorplan_svg(best.floorplan, args.svg, best.topology)
        print("wrote %s" % args.svg)
    if args.json:
        from .io.json_io import save_topology

        save_topology(best.topology, args.json)
        print("wrote %s" % args.json)
    if args.ascii_floorplan:
        from .io.floorplan_art import floorplan_to_ascii

        print(floorplan_to_ascii(best.floorplan, best.topology))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.explore import ExplorationEngine
    from .core.synthesis import SynthesisConfig
    from .io.report import format_table, save_csv
    from .soc.benchmarks import load_benchmark

    counts = _int_list(args.counts, "--counts")
    base = load_benchmark(args.benchmark)
    objective = _objective_for(args, base)
    engine = ExplorationEngine(
        workers=args.workers,
        config=SynthesisConfig(),
        objective=objective,
    )
    scope, store = _cache_scope(args)
    # --live / --events hand the recorder's event feed to sinks: the
    # engine emits progress, spans and merged worker batches, rendered
    # in place and/or written to a tail-able JSONL feed another
    # `repro-noc obs --follow` can watch.
    sinks: list = []
    events_sink = None
    if args.live:
        from .obs import LiveRenderer

        sinks.append(LiveRenderer(stream=sys.stderr))
    if args.events:
        from .obs import JsonlSink

        events_sink = JsonlSink(args.events, timing=not args.no_timing)
        sinks.append(events_sink)
    feed = _feed(sinks) if sinks else contextlib.nullcontext()
    with scope, feed, engine:
        tasks = [
            engine.task(spec, {"islands": n, "strategy": strategy})
            for strategy in ("logical", "communication")
            for n, spec in zip(counts, _island_specs(base, counts, strategy))
        ]
        rows = [r.row() for r in engine.run(tasks)]
    if events_sink is not None:
        print("wrote %s (%d events)" % (args.events, events_sink.lines_written))
    _print_cache_stats(store)
    print(
        format_table(
            rows,
            title="island-count sweep: %s (objective %s)"
            % (args.benchmark, objective.describe()),
        ),
        end="",
    )
    if args.csv:
        save_csv(rows, args.csv)
        print("wrote %s" % args.csv)
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from .baseline.checker import compare_shutdown_capability
    from .baseline.flat import synthesize_vi_oblivious
    from .core.synthesis import synthesize
    from .io.report import format_table, percent
    from .power.leakage import weighted_savings_fraction
    from .soc.usecases import use_cases_for

    spec = _partitioned(args.benchmark, args.islands, args.strategy)
    cases = use_cases_for(spec)
    aware = synthesize(spec).best_by_power()
    oblivious = synthesize_vi_oblivious(spec)
    reports = compare_shutdown_capability(aware.topology, oblivious.topology, cases)
    for label in ("vi_aware", "vi_oblivious"):
        rep = reports[label]
        rows = []
        for case in cases:
            gated, blocked = rep.per_use_case[case.name]
            sr = rep.shutdown_reports[case.name]
            rows.append(
                {
                    "use_case": case.name,
                    "gated": ",".join(map(str, gated)) or "-",
                    "blocked": ",".join(map(str, blocked)) or "-",
                    "power_mw": sr.power_gated_mw,
                    "savings": percent(sr.savings_fraction),
                }
            )
        w = weighted_savings_fraction(list(rep.shutdown_reports.values()), cases)
        print(
            format_table(
                rows,
                title="%s (%d audit violations, weighted savings %s)"
                % (label, len(rep.violations), percent(w)),
            )
        )
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    from .core.synthesis import synthesize
    from .io.report import format_table, percent, save_csv
    from .runtime import (
        certified_policy_comparison,
        compare_policies,
        day_in_the_life_trace,
        markov_trace,
        policy_comparison_rows,
    )
    from .soc.usecases import use_cases_for

    spec = _partitioned(args.benchmark, args.islands, args.strategy)
    cases = use_cases_for(spec)
    if args.trace == "markov":
        trace = markov_trace(
            cases,
            n_segments=args.segments,
            seed=args.seed,
            mean_dwell_ms=args.dwell_ms,
        )
    else:
        # One round emits one segment per use case; pick the round
        # count whose segment total comes closest to --segments.
        trace = day_in_the_life_trace(
            cases,
            total_ms=args.segments * args.dwell_ms,
            rounds=max(1, round(args.segments / len(cases))),
        )
    best = synthesize(spec).best_by_power()
    reports = compare_policies(best.topology, trace)
    rows = policy_comparison_rows(list(reports.values()))
    print(
        format_table(
            rows,
            title="%s, %d islands: trace %s (%d segments, %.0f ms, %d transitions)"
            % (
                args.benchmark,
                args.islands,
                trace.name,
                len(trace.segments),
                trace.total_ms,
                trace.num_transitions,
            ),
        )
    )
    focus = reports[args.policy]
    print(
        format_table(
            focus.island_rows(),
            title="per-island runtime under %s" % focus.policy,
        )
    )
    for v in focus.violations[:10]:
        print("VIOLATION: %s" % v.describe())
    if args.csv:
        save_csv(rows, args.csv)
        print("wrote %s" % args.csv)
    if args.baseline:
        from .baseline.flat import synthesize_vi_oblivious
        from .power.leakage import statically_pinned_islands

        oblivious = synthesize_vi_oblivious(spec)
        pinned = sorted(statically_pinned_islands(oblivious.topology))
        orep = certified_policy_comparison(oblivious.topology, trace)
        orows = policy_comparison_rows(list(orep.values()))
        print(
            format_table(
                orows,
                title="VI-oblivious baseline, certified controller "
                "(islands %s pinned awake by third-party routes)"
                % (",".join(map(str, pinned)) or "none"),
            )
        )
        aware_sav = focus.savings_vs(reports["never"])
        obl_sav = orep[args.policy].savings_vs(orep["never"])
        print(
            "runtime savings under %s: VI-aware %s vs certified VI-oblivious %s"
            % (args.policy, percent(aware_sav), percent(obl_sav))
        )
    return 0 if focus.routable else 1


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .core.synthesis import synthesize
    from .io.report import format_table, percent, save_csv
    from .resilience import FitRates, SparePathConfig, analyze_model, protect_design_point

    spec = _partitioned(args.benchmark, args.islands, args.strategy)
    best = synthesize(spec).best_by_power()
    scenarios_kind = args.fault_model
    rates = None
    if args.availability:
        rates = FitRates(
            link_fit=args.link_fit,
            switch_fit=args.switch_fit,
            island_fit=args.island_fit,
            repair_hours=args.repair_hours,
        )
    base_report = analyze_model(best.topology, scenarios_kind, rates=rates)
    prot = protect_design_point(
        best,
        k=args.spare_k,
        config=SparePathConfig(node_disjoint=args.node_disjoint),
    )
    prot_report = analyze_model(
        prot.topology, scenarios_kind, plan=prot.plan, rates=rates
    )
    overhead_mw = prot.power_overhead_mw
    rows = [
        {
            "design": "unprotected",
            "scenarios": base_report.num_scenarios,
            "coverage": percent(base_report.coverage),
            "worst_scenario": percent(base_report.worst_scenario_coverage),
            "uncovered_flows": len(base_report.uncovered_flows),
            "spare_links": 0,
            "power_mw": round(best.power_mw, 2),
            "overhead": "-",
        },
        {
            "design": "k=%d protected" % args.spare_k,
            "scenarios": prot_report.num_scenarios,
            "coverage": percent(prot_report.coverage),
            "worst_scenario": percent(prot_report.worst_scenario_coverage),
            "uncovered_flows": len(prot_report.uncovered_flows),
            "spare_links": prot.plan.links_opened,
            "power_mw": round(prot.noc_power.fig2_dynamic_mw, 2),
            "overhead": percent(overhead_mw / best.power_mw)
            if best.power_mw > 0
            else "-",
        },
    ]
    print(
        format_table(
            rows,
            title="%s, %d islands: %s fault coverage (point %s)"
            % (args.benchmark, args.islands, args.fault_model, best.label()),
        )
    )
    if args.per_scenario:
        print(
            format_table(
                prot_report.rows(), title="protected per-scenario coverage"
            )
        )
    if prot.plan.unprotected:
        for key in prot.plan.unprotected:
            print("UNPROTECTED: flow %s->%s" % key)
    if rates is not None:
        for label, rep in (
            ("unprotected", base_report),
            ("k=%d protected" % args.spare_k, prot_report),
        ):
            print(
                "expected availability (%s): %.9f "
                "(%.4f min/year flow downtime)"
                % (
                    label,
                    rep.expected_availability(args.repair_hours),
                    rep.downtime_minutes_per_year(args.repair_hours),
                )
            )
    if args.csv:
        save_csv(prot_report.rows(), args.csv)
        print("wrote %s" % args.csv)
    return 0 if prot_report.coverage >= args.min_coverage - 1e-12 else 1


def _pick_scenario(scenarios, requested, topology):
    """Resolve a fault scenario by name, index, or the live default."""
    from .resilience import route_affected

    if requested is not None:
        by_name = {sc.name: sc for sc in scenarios}
        if requested in by_name:
            return by_name[requested]
        if requested.isdecimal() and int(requested) < len(scenarios):
            return scenarios[int(requested)]
        raise ReproError(
            "unknown scenario %r (%d scenarios: %s ...)"
            % (requested, len(scenarios), scenarios[0].name)
        )
    # Default to the first scenario that actually hits a primary
    # route — a fault nothing uses makes a boring demo.
    return next(
        (
            sc
            for sc in scenarios
            if any(
                route_affected(sc, topology, r)
                for r in topology.routes.values()
            )
        ),
        scenarios[0],
    )


def _controlled_replay(args: argparse.Namespace):
    """Synthesize, protect, and replay under the controller.

    The shared setup of ``control`` and ``obs``: returns
    ``(trace, scenario, event, report)`` for the benchmark's best
    design point with a single injected fault scenario.
    """
    from .control import ControlLatencyModel, ReconfigurationController
    from .core.synthesis import synthesize
    from .resilience import FaultEvent, enumerate_scenarios, protect_design_point
    from .runtime import make_policy, markov_trace, simulate_trace
    from .soc.usecases import use_cases_for

    spec = _partitioned(args.benchmark, args.islands, args.strategy)
    best = synthesize(spec).best_by_power()
    prot = protect_design_point(best, k=args.spare_k)
    topology = prot.topology
    trace = markov_trace(
        use_cases_for(spec),
        n_segments=args.segments,
        seed=args.seed,
        mean_dwell_ms=args.dwell_ms,
    )
    scenarios = enumerate_scenarios(topology, args.fault_model)
    if not scenarios:
        raise ReproError(
            "no %s scenarios on this topology" % args.fault_model
        )
    scenario = _pick_scenario(scenarios, args.scenario, topology)
    event = FaultEvent(
        scenario=scenario,
        start_ms=args.fault_start * trace.total_ms,
        end_ms=args.fault_end * trace.total_ms,
    )
    latency = ControlLatencyModel(
        detection_base_ms=args.detection_ms,
        install_base_ms=args.install_ms,
    )
    controller = ReconfigurationController(
        topology, spare_plan=prot.plan, latency=latency
    )
    report = simulate_trace(
        topology,
        trace,
        make_policy(args.policy),
        fault_events=[event],
        spare_plan=prot.plan,
        controller=controller,
    )
    return trace, scenario, event, report


def _cmd_control(args: argparse.Namespace) -> int:
    from .control import recovery_rows
    from .io.report import format_table

    if args.stream:
        # Live mode: every controller observation prints the moment it
        # is emitted (per-fault emission order), before the post-hoc
        # tables below — the CLI face of the event feed.
        from .obs import CallbackSink

        def _print_live(ev) -> None:
            if ev.kind != "telemetry":
                return
            a = ev.attrs
            t_ms = a.get("t_ms")
            flow = " %s" % a["flow"] if a.get("flow") else ""
            detail = " (%s)" % a["detail"] if a.get("detail") else ""
            print(
                "[%10.4f ms] %-17s %s%s%s"
                % (
                    t_ms if isinstance(t_ms, (int, float)) else float("nan"),
                    ev.name,
                    a.get("scenario", ""),
                    flow,
                    detail,
                )
            )

        with _feed([CallbackSink(_print_live)]):
            trace, scenario, event, report = _controlled_replay(args)
    else:
        trace, scenario, event, report = _controlled_replay(args)
    print(
        format_table(
            recovery_rows(report.recoveries),
            title="%s, %d islands: controller recovery of %s "
            "(fault window %.1f-%.1f ms of %.0f ms trace)"
            % (
                args.benchmark,
                args.islands,
                scenario.name,
                event.start_ms,
                event.end_ms,
                trace.total_ms,
            ),
        )
    )
    if args.telemetry:
        for ev in report.telemetry:
            print(ev.describe())
    if args.telemetry_out:
        from .obs import telemetry_log_lines, write_lines

        n = write_lines(args.telemetry_out, telemetry_log_lines(report.telemetry))
        print("wrote %s (%d events)" % (args.telemetry_out, n))
    print(
        "worst recovery %.4f ms | lost traffic %.3f Mbit | "
        "degraded-mode energy %+.6f mJ | routable %s | deadlock-free %s"
        % (
            report.worst_recovery_ms,
            report.lost_traffic_mbits,
            report.fault_delta_mj,
            report.routable,
            report.recoveries_deadlock_free,
        )
    )
    return 0 if report.routable and report.recoveries_deadlock_free else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    _non_negative(args.top, "--top")
    if args.follow:
        # Follow mode tails a JSONL event feed another process writes
        # (e.g. `repro-noc sweep --events F --live` elsewhere); no
        # replay happens here, so the benchmark argument is unused.
        from .obs import follow_render, status_lines

        status = follow_render(
            args.follow,
            stream=sys.stderr,
            idle_timeout_s=args.follow_timeout,
        )
        print("followed %s: %d events" % (args.follow, status.events))
        for line in status_lines(status):
            print(line)
        return 0
    if args.benchmark is None:
        raise ReproError("benchmark is required unless --follow is given")
    from .obs import (
        JsonlSink,
        MetricsRegistry,
        chrome_trace_json,
        prometheus_text,
        record_cache_metrics,
        record_control_metrics,
        record_perf_metrics,
        record_runtime_metrics,
        render_dashboard,
        render_html,
    )
    from .perf import Recorder, recording

    # --events writes the same feed `sweep --events` does: span closes
    # and controller telemetry, as they happen.
    sinks = [JsonlSink(args.events)] if args.events else []
    scope, store = _cache_scope(args)
    with scope, recording(Recorder(sinks=sinks)) as rec:
        trace, scenario, event, report = _controlled_replay(args)
    registry = MetricsRegistry()
    record_perf_metrics(registry, rec)
    record_runtime_metrics(registry, report)
    record_control_metrics(registry, report)
    if store is not None:
        record_cache_metrics(registry, store)
    title = "%s, %d islands: %s under fault %s (%.1f-%.1f ms of %.0f ms)" % (
        args.benchmark,
        args.islands,
        trace.name,
        scenario.name,
        event.start_ms,
        event.end_ms,
        trace.total_ms,
    )
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(
                render_html(
                    recorder=rec, registry=registry, report=report,
                    title=title, top=args.top,
                )
            )
        print("wrote %s" % args.html)
    else:
        print(
            render_dashboard(
                recorder=rec, registry=registry, report=report,
                title=title, top=args.top,
            )
        )
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            fh.write(chrome_trace_json(rec))
        print("wrote %s (load in ui.perfetto.dev)" % args.chrome_trace)
    if sinks:
        print("wrote %s (%d events)" % (args.events, sinks[0].lines_written))
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(registry))
        print("wrote %s" % args.prom)
    return 0 if report.routable and report.recoveries_deadlock_free else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import CacheStore, default_cache_dir

    directory = args.cache_dir or str(default_cache_dir())
    if not os.path.isdir(directory):
        raise CacheError("no cache directory at %s" % directory)
    store = CacheStore.open(directory)
    disk = store.disk
    assert disk is not None
    if args.action == "stats":
        kinds: dict = {}
        total_bytes = 0
        entries = 0
        unreadable = 0
        stale = 0
        for key, header in disk.scan_headers():
            entries += 1
            if header is None:
                unreadable += 1
                continue
            if not disk.is_current(key, header):
                stale += 1
                continue
            kind = str(header.get("kind", "?"))
            size = int(header.get("size", 0))
            count, nbytes = kinds.get(kind, (0, 0))
            kinds[kind] = (count + 1, nbytes + size)
            total_bytes += size
        print("cache %s" % directory)
        print("  entries: %d  payload bytes: %d" % (entries, total_bytes))
        for kind in sorted(kinds):
            count, nbytes = kinds[kind]
            print("  %-12s %6d entries  %10d bytes" % (kind, count, nbytes))
        if stale:
            print("  stale: %d (run `cache verify --remove`)" % stale)
        if unreadable:
            print("  unreadable headers: %d (run `cache verify`)" % unreadable)
        return 0
    if args.action == "clear":
        removed = disk.clear()
        print("cleared %s: removed %d entries" % (directory, removed))
        return 0
    if args.action == "verify":
        report = disk.verify(remove=args.remove)
        print(
            "verified %s: %d checked, %d ok, %d corrupt, %d stale, %d removed"
            % (
                directory,
                report["checked"],
                report["ok"],
                len(report["corrupt"]),
                len(report["stale"]),
                report["removed"],
            )
        )
        for key in report["corrupt"]:
            print("  corrupt: %s" % key)
        for key in report["stale"]:
            print("  stale:   %s" % key)
        return 0 if not report["corrupt"] else 1
    raise AssertionError("unreachable action %r" % args.action)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-noc`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-noc",
        description="Voltage-island-aware NoC topology synthesis (DAC'09 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in benchmarks")
    p_list.set_defaults(func=_cmd_list)

    def common(
        p: argparse.ArgumentParser, optional_benchmark: bool = False
    ) -> None:
        if optional_benchmark:
            p.add_argument(
                "benchmark",
                nargs="?",
                default=None,
                help="benchmark name (see `list`; optional with --follow)",
            )
        else:
            p.add_argument("benchmark", help="benchmark name (see `list`)")
        p.add_argument("--islands", type=int, default=4, help="voltage island count")
        p.add_argument(
            "--strategy",
            choices=("logical", "communication"),
            default="logical",
            help="island assignment strategy",
        )

    p_synth = sub.add_parser("synth", help="synthesize one design")
    common(p_synth)
    p_synth.add_argument("--alpha", type=float, default=0.6, help="VCG weight alpha")
    p_synth.add_argument(
        "--no-intermediate", action="store_true", help="forbid the intermediate NoC island"
    )
    p_synth.add_argument("--dot", help="write best topology as Graphviz DOT")
    p_synth.add_argument("--svg", help="write best floorplan as SVG")
    p_synth.add_argument("--json", help="write best topology as JSON")
    p_synth.add_argument(
        "--ascii-floorplan", action="store_true", help="print ASCII floorplan"
    )
    _add_objective_args(p_synth)
    _add_cache_args(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_sweep = sub.add_parser("sweep", help="island-count sweep (Fig. 2/3 data)")
    p_sweep.add_argument("benchmark")
    p_sweep.add_argument("--counts", default="1,2,3,4,5,6,7", help="comma-separated island counts")
    p_sweep.add_argument("--csv", help="also write rows as CSV")
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="parallel synthesis workers"
    )
    p_sweep.add_argument(
        "--live",
        action="store_true",
        help="render live sweep progress (stderr) from the event stream",
    )
    p_sweep.add_argument(
        "--events",
        help="write the event feed as tail-able JSON lines, truncating "
        "PATH (follow with `repro-noc obs --follow PATH`)",
    )
    p_sweep.add_argument(
        "--no-timing",
        action="store_true",
        help="strip wall-clock fields from --events (byte-deterministic)",
    )
    _add_objective_args(p_sweep)
    _add_cache_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_shut = sub.add_parser("shutdown", help="shutdown capability vs baseline")
    common(p_shut)
    p_shut.set_defaults(func=_cmd_shutdown)

    p_rt = sub.add_parser(
        "runtime", help="trace-driven runtime shutdown simulation"
    )
    p_rt.add_argument(
        "--benchmark", required=True, help="benchmark name (see `list`)"
    )
    p_rt.add_argument("--islands", type=int, default=4, help="voltage island count")
    p_rt.add_argument(
        "--strategy",
        choices=("logical", "communication"),
        default="logical",
        help="island assignment strategy",
    )
    p_rt.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p_rt.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        default="break_even",
        help="policy for the per-island detail (all four are compared)",
    )
    p_rt.add_argument(
        "--trace",
        choices=("markov", "day"),
        default="markov",
        help="trace generator: seeded Markov chain or deterministic day-in-the-life",
    )
    p_rt.add_argument(
        "--segments",
        type=int,
        default=96,
        help="trace length in segments (day traces round to whole passes "
        "over the use-case set)",
    )
    p_rt.add_argument(
        "--dwell-ms", type=float, default=40.0, help="mean mode dwell time"
    )
    p_rt.add_argument(
        "--baseline",
        action="store_true",
        help="also replay the trace on the VI-oblivious baseline",
    )
    p_rt.add_argument("--csv", help="also write the policy table as CSV")
    p_rt.set_defaults(func=_cmd_runtime)

    p_res = sub.add_parser(
        "resilience",
        help="fault coverage of the protected vs unprotected design",
    )
    common(p_res)
    _add_fault_args(p_res)
    _add_min_coverage_arg(p_res)
    p_res.add_argument(
        "--node-disjoint",
        action="store_true",
        help="backups avoid the primary's transit switches too",
    )
    p_res.add_argument(
        "--per-scenario",
        action="store_true",
        help="print the per-scenario coverage table",
    )
    p_res.add_argument("--csv", help="write per-scenario coverage rows as CSV")
    p_res.add_argument(
        "--availability",
        action="store_true",
        help="annotate scenarios with FIT rates and report the "
        "expected flow availability (see docs/resilience.md)",
    )
    p_res.add_argument(
        "--link-fit",
        type=float,
        default=10.0,
        help="per-link failure rate in FIT (failures per 1e9 hours)",
    )
    p_res.add_argument(
        "--switch-fit", type=float, default=25.0, help="per-switch FIT rate"
    )
    p_res.add_argument(
        "--island-fit",
        type=float,
        default=5.0,
        help="whole-island hard-failure FIT rate",
    )
    p_res.add_argument(
        "--repair-hours",
        type=float,
        default=8.0,
        help="mean time to repair a failed component",
    )
    p_res.set_defaults(func=_cmd_resilience)

    def control_knobs(
        p: argparse.ArgumentParser, optional_benchmark: bool = False
    ) -> None:
        """Controlled-replay knobs shared by ``control`` and ``obs``."""
        common(p, optional_benchmark=optional_benchmark)
        _add_fault_args(p)
        p.add_argument(
            "--seed", type=int, default=0, help="seed of the replayed Markov trace"
        )
        p.add_argument(
            "--scenario",
            help="fault scenario to inject, by name or index "
            "(default: first scenario hitting a primary route)",
        )
        p.add_argument(
            "--policy",
            choices=POLICY_NAMES,
            default="break_even",
            help="gating policy the trace replays under",
        )
        p.add_argument(
            "--segments", type=int, default=96, help="trace length in segments"
        )
        p.add_argument(
            "--dwell-ms", type=float, default=40.0, help="mean mode dwell time"
        )
        p.add_argument(
            "--fault-start",
            type=float,
            default=0.25,
            help="fault onset as a fraction of the trace length",
        )
        p.add_argument(
            "--fault-end",
            type=float,
            default=0.6,
            help="component repair time as a fraction of the trace length",
        )
        p.add_argument(
            "--detection-ms",
            type=float,
            default=0.02,
            help="base telemetry detection latency",
        )
        p.add_argument(
            "--install-ms",
            type=float,
            default=0.01,
            help="base routing-table install latency",
        )

    p_ctl = sub.add_parser(
        "control",
        help="closed-loop fault recovery on a runtime trace",
    )
    control_knobs(p_ctl)
    p_ctl.add_argument(
        "--telemetry",
        action="store_true",
        help="print the controller's full telemetry stream",
    )
    p_ctl.add_argument(
        "--telemetry-out",
        help="write the telemetry stream as a JSON-lines event log",
    )
    p_ctl.add_argument(
        "--stream",
        action="store_true",
        help="print controller observations live as they are emitted",
    )
    p_ctl.set_defaults(func=_cmd_control)

    p_obs = sub.add_parser(
        "obs",
        help="observability dashboard over a traced, controlled replay",
    )
    control_knobs(p_obs, optional_benchmark=True)
    p_obs.add_argument(
        "--follow",
        metavar="EVENTS_JSONL",
        help="tail a live JSONL event feed from another process "
        "instead of running a replay",
    )
    p_obs.add_argument(
        "--follow-timeout",
        type=float,
        default=5.0,
        help="stop following after this many idle seconds",
    )
    p_obs.add_argument(
        "--html", help="write the dashboard as a static HTML page instead"
    )
    p_obs.add_argument(
        "--chrome-trace",
        help="write the span trace as Chrome/Perfetto trace_event JSON",
    )
    p_obs.add_argument(
        "--events",
        help="write the span and telemetry event feed as JSON lines "
        "(the `sweep --events` format; follow with `obs --follow`)",
    )
    p_obs.add_argument(
        "--prom", help="write the metrics registry in Prometheus text format"
    )
    p_obs.add_argument(
        "--top", type=int, default=10, help="counters shown in the top-N panel"
    )
    _add_cache_args(p_obs)
    p_obs.set_defaults(func=_cmd_obs)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the content-addressed result store"
    )
    p_cache.add_argument(
        "action",
        choices=("stats", "clear", "verify"),
        help="stats: entry/byte counts per kind; clear: delete all entries; "
        "verify: re-hash stored blobs and report corrupt/stale ones",
    )
    p_cache.add_argument(
        "--cache-dir",
        help="store directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-noc)",
    )
    p_cache.add_argument(
        "--remove",
        action="store_true",
        help="with verify: delete corrupt and stale entries",
    )
    p_cache.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-noc`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        code = args.func(args)
        # Flush here, so a reader that closed stdout (`| head`) is
        # caught below and not at interpreter exit.
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: stop quietly.  Point stdout at devnull so
        # the flush at exit cannot raise again (the recipe of the
        # `signal` module's documentation), and exit 1 as on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
