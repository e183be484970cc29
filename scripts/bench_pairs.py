"""Paired base/change runs of the repo benchmark, recorded in BENCH_synthesis.json.

    python scripts/bench_pairs.py BASE [--workload W ...] [--seed N]

Checks BASE out in a temporary git worktree and runs the unchanged
``perfbench/run.py`` there and in this tree, ``PAIRS`` times per
workload on each side.  Pair *i* runs the base first when *i* is even
and this tree first when it is odd, so drift on a shared host falls on
both sides alike.  Workloads default to every one ``BENCHMARK.json``
lists, and each run lasts its ``run_seconds``.  Both sides must run
identical benchmark code, so a BASE whose ``perfbench/`` or
``BENCHMARK.json`` differs from this tree's is refused (exit 2).

``BENCH_synthesis.json`` gets one row per ``<workload>/<metric>`` of
``BENCHMARK.json``'s ``end_to_end`` list: each side's samples, median
and quartiles, the pairs this tree won, lost and tied, and a verdict
(see :func:`compare`).  perfbench reports times normalized to a
reference host; the ``setup_s`` and ``pass_s`` rows also carry the same
statistics of the raw wall-clock figures (``wall``), read from the
record each run leaves in ``perfbench/out/``.  The script exits 1 when
any run reports ``correct: false``; the record is written either way.
Standard library only: it imports nothing from the program it
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_synthesis.json"
PAIRS = 10
#: Share of the pairs the change must win to claim a gain.
GAIN_SHARE = 0.9


def git(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)


def stats(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def compare(base: list, change: list, better: str, bound: float) -> dict:
    """Both sides' statistics, pair counts and the verdict for one metric.

    Pair *i* is ``(base[i], change[i])``; ``better`` is ``"lower"`` or
    ``"higher"``.  The verdict is

    - ``gain``: the change wins at least nine tenths of the pairs (ties
      count for neither side) and its median beats the base median by
      more than the base IQR;
    - ``regression``: the change median is worse than the base median
      by more than ``bound`` times the base median;
    - ``unresolved``: not a regression, but the base IQR exceeds
      ``bound`` times the base median and not every change run beats
      every base run;
    - ``no regression``: otherwise.
    """
    sign = 1 if better == "lower" else -1
    row = {"base": stats(base), "change": stats(change)}
    gains = [sign * (b - c) for b, c in zip(base, change)]
    row["won"] = sum(g > 0 for g in gains)
    row["lost"] = sum(g < 0 for g in gains)
    row["tied"] = len(gains) - row["won"] - row["lost"]
    base_median, change_median = row["base"]["median"], row["change"]["median"]
    base_iqr = row["base"]["q3"] - row["base"]["q1"]
    if row["won"] >= GAIN_SHARE * len(gains) and sign * (base_median - change_median) > base_iqr:
        row["verdict"] = "gain"
    elif sign * (change_median - base_median) > bound * abs(base_median):
        row["verdict"] = "regression"
    elif base_iqr > bound * abs(base_median) and not all(
        sign * (b - c) > 0 for b in base for c in change
    ):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "no regression"
    return row


def raw_walls(record: dict) -> dict:
    """``setup_s`` and ``pass_s`` of one perfbench record, in wall seconds.

    Aggregated as perfbench aggregates the normalized samples: the
    median set-up, and the mean of each generator seed's median pass.
    """
    walls = {}
    if record.get("setup"):
        walls["setup_s"] = statistics.median(s["wall_s"] for s in record["setup"])
    by_seed: dict = {}
    for p in record.get("result", record).get("passes") or []:
        by_seed.setdefault(p.get("generator_seed"), []).append(p["wall_s"])
    if by_seed:
        walls["pass_s"] = statistics.mean(statistics.median(t) for t in by_seed.values())
    return walls


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its last stdout line, or a failed run.

    ``wall`` holds :func:`raw_walls` of the record the run wrote, when
    it wrote one.
    """
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    record = tree / "perfbench" / "out" / ("%s-seed%d-trace0.json" % (workload, seed))
    record.unlink(missing_ok=True)  # a record left by an earlier run is not this one's
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("run failed (exit %d): %s" % (proc.returncode, " ".join(argv)), file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        out["wall"] = raw_walls(json.loads(record.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError):
        out["wall"] = {}
    return out


def src_lines(tree: Path) -> int:
    """Lines of the tracked files under ``src/``, counted as ``wc -l`` does."""
    files = git("ls-files", "src", cwd=tree).stdout.split()
    return sum((tree / f).read_bytes().count(b"\n") for f in files if (tree / f).is_file())


def refusal(base: str):
    """Why BASE cannot be measured against this tree, or ``None``."""
    if git("rev-parse", "--verify", "--quiet", base + "^{commit}").returncode:
        return "%s does not name a commit" % base
    bench = ("perfbench", "BENCHMARK.json")
    changed = git("diff", "--quiet", base, "--", *bench).returncode
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *bench).stdout
    if changed or untracked:
        return ("perfbench/ or BENCHMARK.json differs from %s; both sides must run "
                "the same benchmark" % base)


def measure(trees: dict, bench: dict, workloads: list, seed: int, record: dict) -> None:
    """Run the pairs; fill ``record``'s per-side totals and its rows."""
    record["attempted"] = dict.fromkeys(trees, 0)
    record["failed"] = dict.fromkeys(trees, 0)
    for workload in workloads:
        pairs = []
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {side: run_once(trees[side], workload, seed, bench["run_seconds"])
                    for side in order}
            for side, out in pair.items():
                record["attempted"][side] += out["attempted"]
                record["failed"][side] += out["failed"]
                record["correct"] = record["correct"] and out["correct"] is True
                pass_s = out["metrics"].get("pass_s", {}).get("value")
                print("%s pair %d/%d %s: pass_s %s" % (workload, i + 1, PAIRS, side, pass_s),
                      file=sys.stderr)
            pairs.append(pair)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            both = [p for p in pairs if all(name in out["metrics"] for out in p.values())]
            if not both:
                continue
            base, change = ([p[side]["metrics"][name]["value"] for p in both]
                            for side in ("base", "change"))
            row = {key: metric[key] for key in ("unit", "better", "bound")}
            row.update(compare(base, change, metric["better"], metric["bound"]))
            if all(name in out["wall"] for p in both for out in p.values()):
                row["wall"] = {side: stats([p[side]["wall"][name] for p in both])
                               for side in ("base", "change")}
            record["rows"]["%s/%s" % (workload, name)] = row


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision to measure this tree against")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7, help="perfbench's workload seed")
    args = parser.parse_args()
    problem = refusal(args.base)
    if problem:
        print("error: %s" % problem, file=sys.stderr)
        return 2
    record = {
        "base": git("rev-parse", args.base + "^{commit}").stdout.strip(),
        "head": git("rev-parse", "HEAD").stdout.strip(),
        "src_dirty": bool(git("status", "--porcelain", "--", "src").stdout.strip()),
        "seed": args.seed,
        "pairs": PAIRS,
        "run_seconds": bench["run_seconds"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workloads": args.workload or [w["name"] for w in bench["workloads"]],
        "correct": True,
        "rows": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    worktree = scratch / "base"
    # Ctrl-C raises KeyboardInterrupt; a plain kill unwinds the same way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if git("worktree", "add", "--detach", str(worktree), record["base"]).returncode:
            print("error: cannot check %s out in a worktree" % args.base, file=sys.stderr)
            return 2
        trees = {"base": worktree, "change": ROOT}
        record["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        measure(trees, bench, record["workloads"], args.seed, record)
    finally:
        git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(scratch, ignore_errors=True)
        git("worktree", "prune")
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, row in record["rows"].items():
        base, change = row["base"]["median"], row["change"]["median"]
        wall = ""
        if "wall" in row:
            wall = "  wall %.4g -> %.4g" % (row["wall"]["base"]["median"],
                                            row["wall"]["change"]["median"])
        print("%-26s %10.4g -> %-10.4g %+6.1f%%  won/lost/tied %d/%d/%d  %s%s" % (
            name, base, change, 100.0 * (change - base) / base if base else 0.0,
            row["won"], row["lost"], row["tied"], row["verdict"], wall))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
