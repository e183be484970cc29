"""Workload process of the benchmark: ``synth_large``, ``sweep_cold``, ``sweep_warm``.

``run.py`` starts this file as a fresh interpreter with ``src`` on
``PYTHONPATH``::

    python perfbench/workload.py WORKLOAD --seed N --mode setup|prime|run|trace \\
        --seconds S --tmp DIR [--warm-dir DIR]

Every mode first imports the program and builds its first inputs, then
prints the :func:`hostspeed.ready` line so the harness can time process
start to inputs ready.  ``setup`` stops there.  ``prime`` (``sweep_warm``
only) runs one cold sweep into ``--warm-dir``; ``run.py`` starts it as a
process of its own, so the warm process's peak RSS never includes the
cold sweep.  ``run`` measures passes with tracing off; ``trace``
measures per-layer attribution with the wrappers of :mod:`tracer`.
``prime``, ``run`` and ``trace`` print one JSON object as the last line
of stdout, with this process's peak RSS (its own or its pool workers').
Every timed operation is sampled by :mod:`hostspeed`, and reported both
as wall seconds and as reference-host (normalized) seconds.  Output
checks run outside the timed regions.

Inputs come from generator seeds whose reference digests
``golden.json`` holds (``record_golden.py`` writes it), so every input
has a known answer.  Each workload draws from a pool of those seeds
(:data:`POOLS`); the benchmark seed picks where a run starts in it.
``synth_large`` and ``sweep_cold`` move to the next generator seed on
every pass and cover the whole pool, and ``run.py`` averages the
per-seed medians, so a pass over a costlier input weighs the same in
every run (generated SoCs of one size differ by up to 20% in cost).
``sweep_warm`` and traced runs stay on the first seed: a warm store
holds one seed's results, and the exact-repeat counts compare identical
passes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import Sampling, peak_rss_mb, ready, sample_children

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

#: synth_large spec sizes: n cores in n // 20 groups, split into n // 20
#: islands by communication partitioning (4 / 8 / 12 islands).
SIZES = (80, 160, 240)
#: The sweep grid over an 80-core SoC: 8 tasks, every one feasible.
SWEEP_CORES = 80
GRID = {"islands": [2, 4, 6, 8], "strategies": ("communication",), "alphas": [0.4, 0.8]}
SWEEP_WORKERS = 2
#: Generator seeds each workload draws from, out of those in golden.json.
#: A ``synth_large`` or ``sweep_cold`` run passes over every seed of its
#: pool at least once; ``sweep_warm`` warms one, and warm sweeps of these
#: seeds cost the same to within the run-to-run noise.
POOLS = {"synth_large": (0, 3, 6), "sweep_cold": (2, 4, 7), "sweep_warm": (2, 4, 7)}
#: Traced passes per trace run: two, so the exact-repeat counts can be compared.
MIN_TRACED = 2
ROUTING_COUNTERS = (
    "dijkstra_pops",
    "edge_evals",
    "direct_open_shortcuts",
    "vector_pops",
    "links_opened",
    "intermediate_attempts_skipped",
)


def generator_seeds(seed: int, pool) -> list:
    """Generator seeds of successive passes: ``pool`` rotated to start at ``seed``."""
    start = seed % len(pool)
    return list(pool[start:] + pool[:start])


def median_index(values) -> int:
    """Index of the (lower) median of ``values``."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def space_digest(space) -> str:
    """Exact identity of a design space: every point's label, power and latency."""
    return digest(
        [(p.label(), p.power_mw.hex(), p.avg_latency_cycles.hex()) for p in space.points]
    )


def row_digest(record) -> str:
    """A sweep record's table row without its wall-clock column."""
    row = record.row()
    row.pop("seconds", None)
    return digest(row)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def synth_specs(gen_seed: int):
    from repro.soc.generator import GeneratorConfig, generate_soc
    from repro.soc.partitioning import communication_partitioning

    specs = []
    for n in SIZES:
        soc = generate_soc(
            GeneratorConfig(name="gen%d" % n, num_cores=n, num_groups=n // 20, seed=gen_seed)
        )
        specs.append((n, communication_partitioning(soc, n // 20)))
    return specs


def sweep_base(gen_seed: int):
    from repro.soc.generator import GeneratorConfig, generate_soc

    return generate_soc(
        GeneratorConfig(
            name="gen%d" % SWEEP_CORES,
            num_cores=SWEEP_CORES,
            num_groups=SWEEP_CORES // 20,
            seed=gen_seed,
        )
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def synth_pass(specs, on_probe=None):
    """One cold pass of ``synthesize`` over the spec set.

    Returns ``(timing, per_spec, spaces)``: the pass's ``wall_s`` and
    ``normalized_s``, the same per spec, and the design spaces (an
    exception stands in for the space of a call that raised).
    ``on_probe`` is the :class:`hostspeed.Sampling` probe callback.
    """
    from repro.core.synthesis import synthesize

    spaces, per_spec = [], []
    for _, spec in specs:
        with Sampling(on_probe=on_probe) as sampled:
            try:
                space = synthesize(spec)
            except Exception as exc:  # a failed op, counted by the checks
                space = exc
        per_spec.append({"wall_s": sampled.wall_s, "normalized_s": sampled.normalized_s})
        spaces.append(space)
    timing = {key: sum(s[key] for s in per_spec) for key in ("wall_s", "normalized_s")}
    return timing, per_spec, spaces


def sweep_pass(base, directory: str, workers: int, children=None, on_probe=None):
    """The grid sweep from a fresh engine and a fresh store on ``directory``.

    Returns ``(timing, records, store)``; ``records`` is an exception
    when the sweep raised.  ``children`` is the :func:`sample_children`
    directory the pool workers' host-speed samples go to; ``on_probe``
    is the :class:`hostspeed.Sampling` probe callback.
    """
    from repro.cache import CacheStore, caching
    from repro.core.explore import ExplorationEngine

    with Sampling(children, on_probe) as sampled:
        try:
            with caching(CacheStore.open(directory)) as store:
                with ExplorationEngine(workers=workers) as engine:
                    records = engine.grid_exploration(base, **GRID).records
        except Exception as exc:  # a failed op, counted by the checks
            records, store = exc, None
    return {"wall_s": sampled.wall_s, "normalized_s": sampled.normalized_s}, records, store


def busy_s(records) -> float:
    """Summed task time of a sweep (``SweepRecord.elapsed_s``)."""
    return sum(r.elapsed_s for r in records) if isinstance(records, list) else 0.0


# ----------------------------------------------------------------------
# Output checks (outside the timed regions)
# ----------------------------------------------------------------------


class Checks:
    """Attempted / failed op counts plus the first few failure reasons.

    ``references`` are the ``golden.json`` digests the output checks
    compare against; ``run.py`` keeps its CLI checks without them.
    """

    def __init__(self, references=None) -> None:
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def note(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.note(what)

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}

    def absorb(self, result) -> None:
        """Add the counts of another process's :meth:`result`."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for what in result["problems"]:
            self.note(what)

    def spaces(self, gen_seed, specs, spaces) -> int:
        """Check one synth pass; returns its design-point count."""
        from repro.arch.validate import audit_shutdown_safety

        golden = self.references[str(gen_seed)]
        points = 0
        for (n, _), space in zip(specs, spaces):
            self.attempted += 1
            what = "seed %d n%d" % (gen_seed, n)
            if isinstance(space, Exception):
                self.fail("%s: %s: %s" % (what, type(space).__name__, space))
                continue
            points += len(space.points)
            if space_digest(space) != golden[str(n)]:
                self.fail("%s: design points differ from the reference" % what)
                continue
            unsafe = sum(len(audit_shutdown_safety(p.topology)) for p in space.points)
            if unsafe:
                self.fail("%s: %d shutdown-safety violations" % (what, unsafe))
        return points

    def records(self, gen_seed, records) -> int:
        """Check one sweep pass; returns its design-point count."""
        golden = self.references[str(gen_seed)]
        if isinstance(records, Exception) or len(records) != len(golden):
            reason = (
                "%s: %s" % (type(records).__name__, records)
                if isinstance(records, Exception)
                else "%d records, expected %d" % (len(records), len(golden))
            )
            self.attempted += len(golden)
            for _ in golden:
                self.fail("seed %d sweep: %s" % (gen_seed, reason))
            return 0
        points = 0
        for i, (record, expected) in enumerate(zip(records, golden)):
            self.attempted += 1
            points += record.design_points
            if not record.feasible:
                self.fail("seed %d task %d infeasible: %s" % (gen_seed, i, record.failure))
            elif row_digest(record) != expected:
                self.fail("seed %d task %d: row differs from the reference" % (gen_seed, i))
        return points


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def cache_counts(store) -> dict:
    if store is None:
        return {"hits": 0, "misses": 0, "puts": 0, "bytes_written": 0, "bytes_read": 0}
    stats = store.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "puts": sum(v for k, v in stats.counters.items() if k.startswith("puts")),
        "bytes_written": stats.bytes_written,
        "bytes_read": sum(v for k, v in stats.counters.items() if k.startswith("bytes_read")),
    }


class TracedPasses:
    """Runs passes with spans (and program counters, if present) on.

    The passes sample host speed as the untraced ones do; each probe is
    a span of its own, so no layer's self time includes it.
    """

    def __init__(self) -> None:
        from tracer import LayerTracer, program_recorder

        self.tracer = LayerTracer().install()
        self.recording = program_recorder()
        self.passes = []

    def run(self, body, points_of, store_of=lambda result: None):
        """Trace ``body(on_probe)``, a pass returning ``(timing, ...)``.

        ``points_of`` checks its result and counts design points.  Span
        times less the probes are scaled by the pass's mean host speed,
        so the layer self times and the traced pass's ``normalized_s``
        are reference-host seconds like every other timing; the raw
        ``wall_s`` is kept beside them.
        """
        from tracer import layer_stats, probe_s, scale_stats

        tracer = self.tracer
        tracer.drain()
        rec = None
        start = time.perf_counter()
        tracer.enabled = True
        try:
            if self.recording is None:
                result = body(tracer.add_probe)
            else:
                with self.recording() as rec:
                    result = body(tracer.add_probe)
        finally:
            tracer.enabled = False
        wall = time.perf_counter() - start
        counters = None
        if rec is not None:
            counters = {name: int(rec.counters.get(name, 0)) for name in ROUTING_COUNTERS}
        spans = tracer.drain()
        probes = probe_s(spans)
        timing = result[0]
        scale = timing["normalized_s"] / (timing["wall_s"] - probes)
        stats = scale_stats(layer_stats(spans), scale)
        cache = cache_counts(store_of(result))
        counts = {"design_points": points_of(result)}
        counts.update({"calls." + layer: int(e["calls"]) for layer, e in stats.items()})
        counts.update({"cache." + k: v for k, v in cache.items() if k != "bytes_read"})
        counts.update({"counter." + k: v for k, v in (counters or {}).items()})
        self.passes.append({
            "wall_s": wall, "normalized_s": (wall - probes) * scale, "layers": stats,
            "counts": counts, "counters": counters, "cache": cache,
        })

    def report(self, untraced, checks, explore=None) -> dict:
        """Report the median traced pass (its layers sum to its ``normalized_s``).

        The deterministic counts of every traced pass must be identical.
        """
        first = self.passes[0]["counts"]
        repeat_ok = all(p["counts"] == first for p in self.passes[1:])
        if not repeat_ok:
            checks.note("exact-repeat counts differ between traced passes")
        chosen = median_index([p["normalized_s"] for p in self.passes])
        return {
            "untraced": untraced,
            "traced_passes": [
                {k: p[k] for k in ("wall_s", "normalized_s")} for p in self.passes
            ],
            "traced": self.passes[chosen],
            "repeat_ok": repeat_ok,
            "missing_targets": self.tracer.missing,
            "explore": explore or {},
        }


def keep_tracing(untraced, traced: TracedPasses, deadline: float) -> bool:
    return not (untraced and len(traced.passes) >= MIN_TRACED and time.perf_counter() >= deadline)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def run_synth(args, seeds, inputs, checks):
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < len(seeds) or time.perf_counter() < deadline:
        gen_seed = seeds[len(passes) % len(seeds)]
        specs = inputs(gen_seed)
        timing, per_spec, spaces = synth_pass(specs)
        passes.append(dict(timing, generator_seed=gen_seed, per_spec=per_spec))
        checks.spaces(gen_seed, specs, spaces)
        del spaces
    return {"passes": passes}


def trace_synth(args, seeds, inputs, checks):
    gen_seed = seeds[0]
    specs = inputs(gen_seed)
    traced = TracedPasses()
    untraced = []
    deadline = time.perf_counter() + args.seconds
    while keep_tracing(untraced, traced, deadline):
        timing, per_spec, spaces = synth_pass(specs)
        untraced.append(dict(timing, per_spec=per_spec))
        checks.spaces(gen_seed, specs, spaces)
        del spaces
        traced.run(
            lambda on_probe: synth_pass(specs, on_probe),
            lambda result: checks.spaces(gen_seed, specs, result[2]),
        )
    return traced.report(untraced, checks)


def sweep_directory(args) -> str:
    """The store of the next sweep: ``--warm-dir``, or a fresh empty one."""
    return args.warm_dir or tempfile.mkdtemp(dir=args.tmp)


def done_with(args, directory: str) -> None:
    if not args.warm_dir:
        shutil.rmtree(directory, ignore_errors=True)


def prime_sweep(args, seeds, inputs, checks):
    """The cold sweep that populates ``--warm-dir`` for ``sweep_warm``."""
    checks.records(seeds[0], sweep_pass(inputs(seeds[0]), args.warm_dir, SWEEP_WORKERS)[1])
    return {}


def run_sweep(args, seeds, inputs, checks):
    """Cold sweeps into fresh stores, or warm sweeps on ``--warm-dir``."""
    if args.warm_dir:
        seeds = seeds[:1]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < len(seeds) or time.perf_counter() < deadline:
        gen_seed = seeds[len(passes) % len(seeds)]
        directory = sweep_directory(args)
        timing, records, _ = sweep_pass(
            inputs(gen_seed), directory, SWEEP_WORKERS, children=args.children)
        done_with(args, directory)
        passes.append(dict(timing, generator_seed=gen_seed, busy_s=busy_s(records)))
        checks.records(gen_seed, records)
    return {"passes": passes}


def trace_sweep(args, seeds, inputs, checks):
    """Per-layer attribution of the sweep from serial passes over the same tasks.

    Wrappers in this process cannot see calls made in forked pool
    workers, so the layers are attributed from ``workers=1`` passes
    (traced and untraced, for the overhead), and the pool's own cost
    from untraced ``workers=2`` passes: run time against the summed
    task time (``busy_s``).  Every loop runs one pass of each kind.
    """
    gen_seed = seeds[0]
    base = inputs(gen_seed)
    traced = TracedPasses()

    def sweep(workers, on_probe=None):
        directory = sweep_directory(args)
        try:
            return sweep_pass(base, directory, workers, args.children, on_probe)
        finally:
            done_with(args, directory)

    parallel, untraced = [], []
    deadline = time.perf_counter() + args.seconds
    while keep_tracing(untraced, traced, deadline):
        timing, records, _ = sweep(SWEEP_WORKERS)
        checks.records(gen_seed, records)
        # Task times are scaled like the pass they ran in.
        scale = timing["normalized_s"] / timing["wall_s"]
        parallel.append(dict(timing, busy_s=busy_s(records) * scale))
        timing, records, _ = sweep(1)
        checks.records(gen_seed, records)
        untraced.append(timing)
        traced.run(
            lambda on_probe: sweep(1, on_probe),
            lambda result: checks.records(gen_seed, result[1]),
            lambda result: result[2],
        )
    run_s = statistics.median(p["normalized_s"] for p in parallel)
    busy = statistics.median(p["busy_s"] for p in parallel)
    explore = {
        "run_s": run_s,
        "busy_s": busy,
        "parallel_eff": busy / (SWEEP_WORKERS * run_s) if run_s > 0 else 0.0,
        "parallel_passes": parallel,
    }
    return traced.report(untraced, checks, explore)


def main() -> int:
    sampling = Sampling().start()  # set-up is sampled from here to READY
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("synth_large", "sweep_cold", "sweep_warm"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mode", choices=("setup", "prime", "run", "trace"), default="run")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--tmp", default=None, help="scratch directory for cache stores")
    parser.add_argument("--warm-dir", default=None,
                        help="sweep_warm: the store a prime process populates")
    args = parser.parse_args()
    if (args.workload == "sweep_warm") != bool(args.warm_dir) and args.mode != "setup":
        parser.error("--warm-dir goes with sweep_warm, and only with it")
    kind = "synth_large" if args.workload == "synth_large" else "sweep"
    references = json.loads(GOLDEN.read_text())[kind]
    seeds = generator_seeds(args.seed, POOLS[args.workload])
    # Each generator seed's inputs are built once, outside the timed passes.
    inputs = functools.lru_cache(maxsize=None)(synth_specs if kind == "synth_large" else sweep_base)
    inputs(seeds[0])
    ready(sampling)
    if args.mode == "setup":
        return 0
    if args.mode == "prime":
        body = prime_sweep
    else:
        args.children = tempfile.mkdtemp(prefix="speeds-", dir=args.tmp)
        sample_children(args.children)
        if kind == "synth_large":
            body = run_synth if args.mode == "run" else trace_synth
        else:
            body = run_sweep if args.mode == "run" else trace_sweep
    checks = Checks(references)
    result = body(args, seeds, inputs, checks)
    result.update(checks.result(), generator_seed=seeds[0], peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
