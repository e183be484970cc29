"""``scripts/bench_pairs.py``: the verdict rules and the paired run.

The verdict rules are pinned on synthetic samples.  The end-to-end
cases run the script, copied into a throwaway git repository, against
a stand-in ``perfbench/run.py`` that reports a value read from
``src/``, so a pair of runs takes milliseconds.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def scaled(samples, factor):
    return [s * factor for s in samples]


class TestVerdict:
    def test_nine_of_ten_wins_beyond_the_iqr_is_gain(self):
        change = scaled(BASE, 0.9)
        change[0] = 1.5  # one lost pair still leaves 9/10
        row = compare(BASE, change, "lower", 0.24)
        assert (row["won"], row["lost"], row["tied"]) == (9, 1, 0)
        assert row["verdict"] == "gain"

    def test_eight_of_ten_wins_is_not_gain(self):
        change = scaled(BASE, 0.9)
        change[0] = change[1] = 1.5
        row = compare(BASE, change, "lower", 0.24)
        assert (row["won"], row["lost"]) == (8, 2)
        assert row["verdict"] == "no regression"

    def test_ties_count_for_neither_side(self):
        change = scaled(BASE, 0.9)
        change[0], change[1] = BASE[0], BASE[1]
        row = compare(BASE, change, "lower", 0.24)
        assert (row["won"], row["lost"], row["tied"]) == (8, 0, 2)
        assert row["verdict"] == "no regression"
        change[1] = 0.5
        assert compare(BASE, change, "lower", 0.24)["verdict"] == "gain"

    def test_a_win_inside_the_base_iqr_is_not_gain(self):
        row = compare(BASE, scaled(BASE, 0.995), "lower", 0.24)
        assert row["won"] == 10
        assert row["verdict"] == "no regression"

    def test_pass_s_30_percent_worse_is_regression(self):
        row = compare(BASE, scaled(BASE, 1.3), "lower", 0.24)
        assert row["lost"] == 10 and row["verdict"] == "regression"
        assert compare(BASE, scaled(BASE, 1.2), "lower", 0.24)["verdict"] == "no regression"

    def test_base_iqr_above_the_bound_is_unresolved(self):
        wide = [1.0, 1.5] * 5  # IQR 0.5 > 0.24 x median 1.25
        row = compare(wide, list(reversed(wide)), "lower", 0.24)
        assert row["base"]["q3"] - row["base"]["q1"] == pytest.approx(0.5)
        assert row["verdict"] == "unresolved"

    def test_every_change_run_beating_every_base_run_resolves(self):
        wide = [1.0, 1.5] * 5
        row = compare(wide, [0.99] * 10, "lower", 0.24)
        # 10/10 wins, but the 0.26 median gap is inside the 0.5 IQR.
        assert row["won"] == 10
        assert row["verdict"] == "no regression"

    def test_better_higher_flips_the_direction(self):
        row = compare(BASE, scaled(BASE, 1.3), "higher", 0.24)
        assert row["won"] == 10 and row["verdict"] == "gain"
        row = compare(BASE, scaled(BASE, 0.7), "higher", 0.24)
        assert row["lost"] == 10 and row["verdict"] == "regression"

    def test_row_statistics(self):
        row = compare(BASE, BASE, "lower", 0.24)
        assert row["base"]["samples"] == BASE
        assert row["base"]["median"] == pytest.approx(1.0)
        assert row["base"]["q1"] < row["base"]["median"] < row["base"]["q3"]
        assert row["tied"] == 10 and row["verdict"] == "no regression"


class TestRawWalls:
    def test_aggregated_like_the_normalized_figures(self):
        record = {
            "setup": [{"wall_s": w, "normalized_s": 9.0} for w in (0.3, 0.1, 0.2)],
            "result": {"passes": [
                {"wall_s": 1.0, "normalized_s": 9.0, "generator_seed": 0},
                {"wall_s": 3.0, "normalized_s": 9.0, "generator_seed": 0},
                {"wall_s": 4.0, "normalized_s": 9.0, "generator_seed": 1},
            ]},
        }
        # The mean of each generator seed's median pass: (2.0 + 4.0) / 2.
        assert bench_pairs.raw_walls(record) == {"setup_s": 0.2, "pass_s": 3.0}

    def test_records_without_seeds_or_samples(self):
        record = {"setup": [], "passes": [{"wall_s": 0.5}, {"wall_s": 0.7}]}
        assert bench_pairs.raw_walls(record) == {"pass_s": pytest.approx(0.6)}
        assert bench_pairs.raw_walls({"setup": [], "result": {}}) == {}


# A stand-in for perfbench/run.py: reports src/value as pass_s, logs
# which tree ran, and reports correct: false when src/incorrect exists.
# Its record in perfbench/out/ gives half the value as the raw wall time.
FAKE_RUN = '''\
import json, os, sys
from pathlib import Path
tree = Path(__file__).resolve().parents[1]
with open(os.environ["PAIRS_LOG"], "a") as log:
    log.write("%s %s\\n" % (tree, " ".join(sys.argv[1:])))
value = float((tree / "src" / "value").read_text())
print("pass_s %s" % value)
out = tree / "perfbench" / "out"
out.mkdir(exist_ok=True)
name = "%s-seed%s-trace0.json" % (sys.argv[2], sys.argv[4])
(out / name).write_text(json.dumps({"setup": [], "passes": [{"wall_s": value / 2}]}))
print(json.dumps({"correct": not (tree / "src" / "incorrect").exists(),
                  "attempted": 3, "failed": 0,
                  "metrics": {"pass_s": {"value": value, "unit": "s"}}}))
'''

FAKE_BENCH = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 7,
    "workloads": [{"name": "one"}, {"name": "two"}],
    "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.24}],
}


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    if shutil.which("git") is None:
        pytest.skip("needs git")
    root = tmp_path / "repo"
    for rel, text in {
        "scripts/bench_pairs.py": SCRIPT.read_text(),
        "perfbench/run.py": FAKE_RUN,
        "BENCHMARK.json": json.dumps(FAKE_BENCH),
        "src/value": "1.0\n",
    }.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "base")
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "runs.log"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    return root


def _run(repo, *args):
    return subprocess.run(
        [sys.executable, str(repo / "scripts" / "bench_pairs.py"), *args],
        cwd=repo, capture_output=True, text=True, timeout=120,
    )


class TestPairedRun:
    def test_unknown_base_is_refused(self, repo):
        proc = _run(repo, "no-such-revision")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: no-such-revision does not name a commit"]

    @pytest.mark.parametrize("rel", ["perfbench/run.py", "BENCHMARK.json", "perfbench/extra.py"])
    def test_different_benchmark_code_is_refused(self, repo, tmp_path, rel):
        with open(repo / rel, "a") as fh:
            fh.write("\n")
        proc = _run(repo, "HEAD")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: perfbench/ or BENCHMARK.json")
        assert not (tmp_path / "runs.log").exists()

    def test_stray_bytecode_without_bytecode_writes_is_refused(self, repo, tmp_path, monkeypatch):
        """Bytecode this tree holds would load on this side only, while the
        fresh base worktree, which writes none, compiles on every start."""
        (repo / ".gitignore").write_text("__pycache__/\n")
        for rel in ("src/__pycache__/a.cpython-311.pyc", "perfbench/__pycache__/b.cpython-311.pyc"):
            (repo / rel).parent.mkdir(parents=True, exist_ok=True)
            (repo / rel).write_bytes(b"")
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        proc = _run(repo, "HEAD")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: 2 .pyc files under src/")
        assert not (tmp_path / "runs.log").exists()

    def test_pairs_alternate_and_the_record_holds_every_row(self, repo, tmp_path):
        base = _git(repo, "rev-parse", "HEAD")
        (repo / "src" / "value").write_text("1.5\n\n")  # 50% worse, one line more
        proc = _run(repo, base, "--workload", "two", "--seed", "11")
        assert proc.returncode == 0, proc.stderr
        runs = (tmp_path / "runs.log").read_text().splitlines()
        assert len(runs) == 2 * bench_pairs.PAIRS
        assert all(r.endswith("--workload two --seed 11 --seconds 7") for r in runs)
        change_first = [r.startswith("%s " % repo.resolve()) for r in runs[::2]]
        assert change_first == [i % 2 == 1 for i in range(bench_pairs.PAIRS)]
        record = json.loads((repo / "BENCH_synthesis.json").read_text())
        assert (record["base"], record["head"], record["src_dirty"]) == (base, base, True)
        assert (record["seed"], record["pairs"], record["run_seconds"]) == (11, 10, 7)
        assert record["attempted"] == {"base": 30, "change": 30}
        assert record["failed"] == {"base": 0, "change": 0}
        assert record["src_lines"] == {"base": 1, "change": 2}
        assert record["correct"] is True
        row = record["rows"]["two/pass_s"]
        assert list(record["rows"]) == ["two/pass_s"]
        assert (row["unit"], row["better"], row["bound"]) == ("s", "lower", 0.24)
        assert row["base"]["samples"] == [1.0] * 10 and row["change"]["median"] == 1.5
        assert (row["lost"], row["verdict"]) == (10, "regression")
        assert row["wall"]["base"]["samples"] == [0.5] * 10
        assert row["wall"]["change"]["median"] == 0.75
        # The worktree is gone, and git no longer lists it.
        assert not list(tmp_path.glob("bench-pairs-*"))
        assert _git(repo, "worktree", "list").count("\n") == 0

    def test_an_incorrect_run_exits_1_and_still_writes_the_record(self, repo, tmp_path):
        (repo / "src" / "incorrect").write_text("")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "change")
        proc = _run(repo, "HEAD~1", "--workload", "one")
        assert proc.returncode == 1
        record = json.loads((repo / "BENCH_synthesis.json").read_text())
        assert record["correct"] is False and record["src_dirty"] is False
        assert record["rows"]["one/pass_s"]["verdict"] == "no regression"
        assert not list(tmp_path.glob("bench-pairs-*"))
