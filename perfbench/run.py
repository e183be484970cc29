"""Repo benchmark: CLI session, 80-240-core synthesis, cached parallel sweep.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Defaults: every workload, seed 7, 20 seconds, tracing off.  Run from
anywhere; the program is taken from ``src/`` next to this directory and
driven only through its public entry points (``python -m repro.cli``,
``synthesize``, ``ExplorationEngine``, ``CacheStore``).  This harness
imports neither the program nor numpy.  Each workload runs in fresh
processes as a closed loop with one client: the next operation starts
when the previous one returns, and at most two processes are busy at
once.

Workloads and why they were chosen:

``cli``
    Fresh ``repro.cli`` processes, the same session on every pass and
    every seed: ``list``; ``synth d26_media --islands 6``; ``sweep
    d26_media --counts 1,2,4,6 --workers 2 --events F``; ``control
    d26_media --islands 6 --spare-k 1``; ``obs d26_media --islands 6
    --chrome-trace F``.  What an interactive user waits for: import is
    about half the session and synthesis is tiny, so lazy imports and
    the event/span exporters show here and nowhere else.
``synth_large``
    ``synthesize(spec)`` with the default config over generated 80, 160
    and 240-core SoCs (4 / 8 / 12 islands, 20 design points each); no
    cache store.  Tests the paper's design-time-cost claim at sizes big
    enough to time; path allocation is most of the pass.
``sweep_cold``
    ``ExplorationEngine(workers=2).grid_exploration`` over an 80-core SoC
    (islands 2/4/6/8 x alpha 0.4/0.8: 8 tasks) under
    ``caching(CacheStore.open(<empty dir>))``: the pool and every cache
    write are on the path.
``sweep_warm``
    The same sweep from a fresh engine and a fresh ``CacheStore.open`` on
    the directory a cold sweep populated: 8 space-tier hits from disk,
    what a user's second ``--cache-dir`` run sees.  The populating cold
    sweep runs first, in a process of its own.

The two sweep workloads are one user story (cold run, then warm re-run)
measured separately, so every end-to-end metric below is defined on
every workload.  Generated inputs come from pools of generator seeds
listed in ``workload.py``.

End-to-end metrics (``--trace 0``, tracing off, lower is better), all
in reference-host seconds (see ``hostspeed.py``: each timing is scaled
by the host's speed, sampled inside the timed process while it runs, so
a shared host's drifting speed does not read as a change):

``setup_s``      fresh process start to inputs ready, import included
                 (``cli``: ``import repro.cli``); median over five
                 fresh processes (for the other workloads the fifth is
                 the process that then runs the passes).
``pass_s``       median of one pass: the scripted CLI session
                 (``session_s``), one cold ``synthesize`` pass over the
                 spec set (``synth_s``), the cold sweep (``sweep_cold_s``)
                 or the warm sweep (``sweep_warm_s``).  Where passes
                 rotate over generator seeds, the mean of the per-seed
                 medians.
``peak_rss_mb``  largest peak RSS among the processes that run the
                 passes and their children (the pool workers), as each
                 reports it.  Set-up-only processes and ``sweep_warm``'s
                 populating cold sweep run in processes of their own and
                 do not count.

The wall-clock samples behind each median are printed and recorded too.
Failures (exceptions, nonzero exits, outputs that differ from the
digests in ``golden.json``, shutdown-safety violations, unparsable
``--events`` / ``--chrome-trace`` files) are counted in ``failed`` out of
``attempted`` ops (a CLI command, a ``synthesize`` call or a sweep
task); ``fail_frac`` is their ratio.  Checks run outside timed regions.

``--trace 1`` reports per-layer metrics instead, from a separate run:
for every layer, ``<layer>.calls``, ``<layer>.self_s`` and
``<layer>.share`` of the traced wall, plus ``unattributed_s`` (the
layers and it sum to ``trace.wall_s``), ``trace.overhead_s`` and
``trace.overhead_share`` (traced minus untraced pass), import self time
by subpackage, per-command and per-spec times, cache and pool figures
and the program's routing counters.  Layers a workload never reaches
report zero.  Times are reference-host seconds like the end-to-end
ones: traced passes sample host speed as untraced ones do, each probe
is a span of its own that no layer's self time includes, and the
layer times are scaled by the pass's mean speed (per command in
``cli``).  The exception is
``import.<group>_ms``, the interpreter's own ``-X importtime`` wall
milliseconds, a breakdown of the import cost that ``import.self_s`` and
``setup_s`` carry normalized.  Sweep layers come from serial passes,
and every loop of a sweep trace also runs one untraced serial pass (for
the overhead) and one untraced parallel pass (for the pool figures).
At least two traced passes run, and their deterministic counts (design
points, calls per layer, cache hits / misses / puts / bytes written,
routing counters) must be identical, or the run is not ``correct``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, the raw samples behind each median and
the host record.  Everything also goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import normalized
from tracer import LAYERS, layer_stats, merge_stats, scale_stats
from workload import MIN_TRACED, ROUTING_COUNTERS, SIZES, Checks, median_index

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli", "synth_large", "sweep_cold", "sweep_warm")
#: What each workload's pass is called in the report.
PASS_NAMES = {
    "cli": "session_s",
    "synth_large": "synth_s",
    "sweep_cold": "sweep_cold_s",
    "sweep_warm": "sweep_warm_s",
}
#: Fresh processes whose set-up times ``setup_s`` is the median of.
SETUP_SAMPLES = 5
#: ``python -X importtime`` runs per traced run.
IMPORTTIME_REPEATS = 3
#: Every run must end well inside three minutes.
RUN_BUDGET_S = 170.0
CLI_COMMANDS = ("list", "synth", "sweep", "control", "obs")
IMPORT_GROUPS = (
    "repro",
    "repro.arch",
    "repro.baseline",
    "repro.cache",
    "repro.control",
    "repro.core",
    "repro.floorplan",
    "repro.io",
    "repro.obs",
    "repro.perf",
    "repro.power",
    "repro.resilience",
    "repro.runtime",
    "repro.sim",
    "repro.soc",
    "numpy",
    "other",
)
#: Per-layer metrics beyond each layer's calls / self_s / share, with
#: their units.  Whatever a workload does not measure reads zero.
EXTRAS = {
    "core.paths.success_ratio": "ratio",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    **{"import.%s_ms" % group: "ms" for group in IMPORT_GROUPS + ("total",)},
    **{"cli.%s_s" % name: "s" for name in CLI_COMMANDS},
    **{"core.synthesis.n%d_s" % n: "s" for n in SIZES},
    "core.explore.run_s": "s",
    "core.explore.busy_s": "s",
    "core.explore.parallel_eff": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.puts": "count",
    "cache.bytes_written": "bytes",
    "cache.bytes_read": "bytes",
    "design_points": "count",
    "core.paths.counters_present": "flag",
    **{"core.paths." + name: "count" for name in ROUTING_COUNTERS},
}


class BenchError(Exception):
    """The run cannot produce a result (a child crashed or timed out)."""


class Runner:
    """Child-process plumbing shared by the workloads."""

    def __init__(self, seconds: float, scratch: Path) -> None:
        self.seconds = seconds
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_BUDGET_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.numpy = "-"

    def run(self, argv, capture_stdout: bool = False):
        """Run a child to completion.

        Returns ``(wall_s, returncode, stdout, stderr, start)``, where
        ``start`` is the ``time.monotonic()`` just before the spawn.
        The child gets its own session, so a timeout kills its workers too.
        """
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise BenchError("run budget of %.0f s exhausted" % RUN_BUDGET_S)
        start = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=self.env,
            stdout=subprocess.PIPE if capture_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("child timed out: %s" % " ".join(map(str, argv)))
        wall = time.monotonic() - start
        return (
            wall,
            proc.returncode,
            out.decode("utf-8", "replace") if out else "",
            err.decode("utf-8", "replace"),
            start,
        )

    def ready_time(self, argv):
        """Run a child that prints ``READY``; returns ``(setup timing, stdout)``."""
        _, code, out, err, start = self.run(argv, capture_stdout=True)
        if code != 0:
            raise BenchError("%s exited %d: %s" % (argv[1], code, err.strip()[-400:]))
        for line in out.splitlines():
            if line.startswith("READY "):
                _, stamp, numpy, probe_wall, speed = line.split()
                self.numpy = numpy
                wall = float(stamp) - start
                timing = {
                    "wall_s": wall,
                    "normalized_s": normalized(wall, float(probe_wall), [float(speed)]),
                }
                return timing, out
        raise BenchError("child never reported READY: %s" % err.strip()[-400:])

    def workload_argv(self, workload, seed, mode):
        argv = [
            sys.executable, str(HERE / "workload.py"), workload,
            "--seed", str(seed), "--mode", mode,
            "--seconds", repr(self.seconds), "--tmp", str(self.scratch),
        ]
        if workload == "sweep_warm":
            argv += ["--warm-dir", str(self.scratch / "warm")]
        return argv

    def setup_samples(self, argv, count):
        """Set-up times of ``count`` fresh processes, after an untimed one that compiles bytecode."""
        self.ready_time(argv)
        return [self.ready_time(argv)[0] for _ in range(count)]


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------


def cli_session(scratch: Path):
    """``(name, argv, output file or None)`` of the scripted session."""
    events = scratch / "events.jsonl"
    chrome = scratch / "chrome-trace.json"
    return (
        ("list", ["list"], None),
        ("synth", ["synth", "d26_media", "--islands", "6"], None),
        (
            "sweep",
            ["sweep", "d26_media", "--counts", "1,2,4,6", "--workers", "2",
             "--events", str(events)],
            events,
        ),
        ("control", ["control", "d26_media", "--islands", "6", "--spare-k", "1"], None),
        ("obs", ["obs", "d26_media", "--islands", "6", "--chrome-trace", str(chrome)], chrome),
    )


def output_problem(path: Path):
    """Why an ``--events`` (JSON lines) or ``--chrome-trace`` file is bad, or ``None``."""
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl":
            if not [json.loads(line) for line in text.splitlines() if line.strip()]:
                return "%s is empty" % path.name
        else:
            json.loads(text)
    except (OSError, ValueError) as exc:
        return "%s: %s" % (path.name, exc)
    return None


def run_session(runner, session, checks, mode):
    """One pass through the CLI session, each command in a ``cli_child.py`` process.

    ``mode`` is ``speed`` (timed) or ``trace``.  Returns the pass
    ``{"wall_s", "normalized_s", "peak_rss_mb", "commands"}``; a traced
    pass also has the commands' summed ``layers`` stats (each command's
    scaled by its normalized / wall ratio), ``missing`` targets and
    routing ``counters``.
    """
    commands, children = {}, []
    child_out = runner.scratch / "child.json"
    for name, argv, output in session:
        for stale in (output, child_out):
            if stale is not None and stale.exists():
                stale.unlink()
        cmd = [sys.executable, str(HERE / "cli_child.py"), mode, str(child_out)] + argv
        wall, code, _, err, _ = runner.run(cmd)
        checks.attempted += 1
        problem = None
        try:
            child = json.loads(child_out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            child = {"speeds": [1.0], "probe_wall_s": 0.0, "peak_rss_mb": 0.0,
                     "spans": [], "missing": []}
            problem = "%s wrote no timing record" % name
        if code != 0:
            problem = "%s exited %d: %s" % (name, code, err.strip()[-300:])
        elif output is not None:
            problem = output_problem(output) or problem
        if problem:
            checks.fail(problem)
        commands[name] = {
            "wall_s": wall,
            "normalized_s": normalized(wall, child["probe_wall_s"], child["speeds"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        children.append(child)
    session_pass = {
        key: sum(c[key] for c in commands.values()) for key in ("wall_s", "normalized_s")
    }
    session_pass["peak_rss_mb"] = max(c["peak_rss_mb"] for c in commands.values())
    session_pass["commands"] = commands
    if mode == "trace":
        session_pass["layers"] = merge_stats([
            scale_stats(layer_stats(child["spans"]),
                        c["normalized_s"] / (c["wall_s"] - child["probe_wall_s"]))
            for child, c in zip(children, commands.values())
        ])
        session_pass["missing"] = sorted({m for child in children for m in child["missing"]})
        session_pass["counters"] = routing_counters([child.get("counters") for child in children])
    return session_pass


def cli_workload(runner, seed, trace, checks, record):
    """Returns ``(metrics, repeat_ok)``; the session does not depend on ``seed``."""
    setup = runner.setup_samples(
        [sys.executable, str(HERE / "cli_child.py"), "setup"], SETUP_SAMPLES)
    record["setup"] = setup
    session = cli_session(runner.scratch)
    untraced = []
    end = time.monotonic() + runner.seconds
    if not trace:
        while not untraced or time.monotonic() < end:
            untraced.append(run_session(runner, session, checks, "speed"))
        record["passes"] = untraced
        rss_mb = max(p["peak_rss_mb"] for p in untraced)
        return end_to_end(setup, untraced, rss_mb), True
    imports = importtime_groups(runner)
    traced = []
    while not (untraced and len(traced) >= MIN_TRACED and time.monotonic() >= end):
        untraced.append(run_session(runner, session, checks, "speed"))
        traced.append(run_session(runner, session, checks, "trace"))
    counts = [
        ({layer: e["calls"] for layer, e in p["layers"].items()}, p["counters"]) for p in traced
    ]
    repeat_ok = all(c == counts[0] for c in counts[1:])
    if not repeat_ok:
        checks.note("exact-repeat counts differ between traced sessions")
    chosen = traced[median_index([p["normalized_s"] for p in traced])]
    record.update(untraced=untraced, traced_passes=traced, traced=chosen,
                  repeat_ok=repeat_ok, imports_ms=imports)
    values = {
        "cli.%s_s" % name: statistics.median(
            p["commands"][name]["normalized_s"] for p in untraced)
        for name in CLI_COMMANDS
    }
    metrics = per_layer(chosen, traced, untraced, imports, values)
    return metrics, repeat_ok


# ----------------------------------------------------------------------
# synth_large, sweep_cold, sweep_warm
# ----------------------------------------------------------------------


def child_workload(runner, workload, seed, trace, checks, record):
    """Returns ``(metrics, repeat_ok)``."""
    setup = runner.setup_samples(runner.workload_argv(workload, seed, "setup"), SETUP_SAMPLES - 1)
    if workload == "sweep_warm":
        # A process of its own, so the cold sweep's memory is not the warm one's.
        prime = last_json(runner.ready_time(runner.workload_argv(workload, seed, "prime"))[1])
        checks.absorb(prime)
        record["prime"] = prime
    own_setup, out = runner.ready_time(
        runner.workload_argv(workload, seed, "trace" if trace else "run")
    )
    setup.append(own_setup)
    result = last_json(out)
    record.update(setup=setup, result=result, generator_seed=result["generator_seed"])
    checks.absorb(result)
    if not trace:
        return end_to_end(setup, result["passes"], result["peak_rss_mb"]), True
    imports = importtime_groups(runner)
    record["imports_ms"] = imports
    chosen = result["traced"]
    values = {}
    if workload == "synth_large":
        for i, n in enumerate(SIZES):
            values["core.synthesis.n%d_s" % n] = statistics.median(
                p["per_spec"][i]["normalized_s"] for p in result["untraced"])
    else:
        explore = result["explore"]
        for key in ("run_s", "busy_s", "parallel_eff"):
            values["core.explore." + key] = explore[key]
    cache = chosen["cache"]
    lookups = cache["hits"] + cache["misses"]
    values.update({"cache." + key: value for key, value in cache.items()})
    values["cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["design_points"] = chosen["counts"]["design_points"]
    metrics = per_layer(chosen, result["traced_passes"], result["untraced"], imports, values)
    return metrics, result["repeat_ok"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def median_of(samples):
    return statistics.median(s["normalized_s"] for s in samples)


def pass_median(passes):
    """Median pass, balanced over generator seeds: the mean of each seed's median."""
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p.get("generator_seed"), []).append(p["normalized_s"])
    return statistics.mean(statistics.median(times) for times in by_seed.values())


def routing_counters(per_process):
    """The program's routing counters summed over processes, or ``None`` if it has none."""
    present = [c for c in per_process if c is not None]
    if not present:
        return None
    return {name: sum(int(c.get(name, 0)) for c in present) for name in ROUTING_COUNTERS}


def end_to_end(setup, passes, rss_mb):
    return {
        "setup_s": (median_of(setup), "s"),
        "pass_s": (pass_median(passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def importtime_groups(runner):
    """Median self time (ms) of ``import repro.cli`` per subpackage group."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err, _ = runner.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"]
        )
        if code != 0:
            raise BenchError("import repro.cli failed: %s" % err.strip()[-400:])
        groups = dict.fromkeys(IMPORT_GROUPS, 0.0)
        for line in err.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if match:
                groups[import_group(match.group(2))] += int(match.group(1)) / 1000.0
        runs.append(groups)
    out = {g: statistics.median(r[g] for r in runs) for g in IMPORT_GROUPS}
    out["total"] = statistics.median(sum(r.values()) for r in runs)
    return out


def import_group(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "numpy":
        return "numpy"
    if parts[0] != "repro":
        return "other"
    sub = ".".join(parts[:2])
    return sub if sub in IMPORT_GROUPS else "repro"


def per_layer(chosen, traced, untraced, imports, values):
    """Every per-layer metric.

    ``chosen`` is the reported traced pass (its ``layers`` stats and its
    ``normalized_s``, which they sum to); ``traced`` and ``untraced`` are
    all passes of each kind, whose medians give the overhead.
    """
    layers, wall = chosen["layers"], chosen["normalized_s"]
    metrics = {}
    attributed = 0.0
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0, "ok": 0})
        attributed += entry["self_s"]
        metrics[layer + ".calls"] = (int(entry["calls"]), "count")
        metrics[layer + ".self_s"] = (entry["self_s"], "s")
        metrics[layer + ".share"] = (entry["self_s"] / wall if wall else 0.0, "ratio")
    overhead = median_of(traced) - median_of(untraced)
    counters = chosen.get("counters")
    if counters is not None:
        values = dict(values, **{"core.paths." + name: n for name, n in counters.items()})
        values["core.paths.counters_present"] = 1
    paths = layers.get("core.paths", {"calls": 0, "ok": 0})
    values = dict(
        values,
        **{
            "core.paths.success_ratio": paths["ok"] / paths["calls"] if paths["calls"] else 0.0,
            "unattributed_s": wall - attributed,
            "trace.wall_s": wall,
            "trace.untraced_wall_s": median_of(untraced),
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / median_of(untraced),
        },
        **{"import.%s_ms" % group: ms for group, ms in imports.items()},
    )
    for name, unit in EXTRAS.items():
        metrics[name] = (values.get(name, 0), unit)
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def host_record(runner):
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": runner.numpy,
        "PYTHONHASHSEED": runner.env["PYTHONHASHSEED"],
        "platform": platform.platform(),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns ``(summary, record)``."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=str(OUT)))
    checks = Checks()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        runner = Runner(seconds, scratch)
        if workload == "cli":
            metrics, repeat_ok = cli_workload(runner, seed, trace, checks, record)
        else:
            metrics, repeat_ok = child_workload(runner, workload, seed, trace, checks, record)
        record["host"] = host_record(runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = max(1, checks.attempted)
    summary = {
        "correct": checks.failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(problems=checks.problems, fail_frac=checks.failed / attempted,
                  summary=summary)
    name = "%s-seed%d-trace%d.json" % (workload, seed, int(trace))
    (OUT / name).write_text(json.dumps(record, indent=1))
    return summary, record


def samples_line(label, samples):
    """``label``: normalized samples, then the wall-clock ones."""
    return "   %s (%d): %s  | wall: %s" % (
        label, len(samples),
        " ".join("%.4f" % s["normalized_s"] for s in samples),
        " ".join("%.4f" % s["wall_s"] for s in samples),
    )


def report(workload, summary, record):
    """Human-readable lines: every metric by name and unit, plus the context."""
    host = record["host"]
    print("== %s  seed %d%s  %g s  trace %d" % (
        workload, record["seed"],
        " (generator seed %d)" % record["generator_seed"] if "generator_seed" in record else "",
        record["seconds"], record["trace"]))
    print("   host: nproc %s, python %s, numpy %s, PYTHONHASHSEED %s" % (
        host["nproc"], host["python"], host["numpy"], host["PYTHONHASHSEED"]))
    print(samples_line("setup_s samples", record["setup"]))
    result = record.get("result", record)
    for label, samples in (
        ("%s = pass_s samples" % PASS_NAMES[workload], result.get("passes")),
        ("untraced pass samples", result.get("untraced")),
        ("traced pass samples", result.get("traced_passes")),
    ):
        if samples:
            print(samples_line(label, samples))
    missing = result.get("missing_targets") or result.get("traced", {}).get("missing")
    if missing:
        print("   layer targets not found: %s" % ", ".join(missing))
    for name, metric in summary["metrics"].items():
        print("   %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if "pass_s" in summary["metrics"]:
        print("   %-40s %14.6g s" % (PASS_NAMES[workload], summary["metrics"]["pass_s"]["value"]))
    print("   %-40s %14.6g ratio  (%d failed of %d attempted)" % (
        "fail_frac", record["fail_frac"], summary["failed"], summary["attempted"]))
    for problem in record["problems"]:
        print("   FAILED: %s" % problem)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program at %s" % (SRC / "repro"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        summary, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    report(args.workload, summary, record)
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh harness process (peak RSS stays per workload).

    The last line combines them, with metric names prefixed
    ``<workload>/``.
    """
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: workload %s failed (exit %d)" % (workload, proc.returncode),
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        summary = json.loads(lines[-1])
        final["correct"] = final["correct"] and summary["correct"]
        final["attempted"] += summary["attempted"]
        final["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            final["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
