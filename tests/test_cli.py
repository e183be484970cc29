"""Command-line interface."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _int_list, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth", "d26_media"])
        assert args.islands == 4
        assert args.strategy == "logical"
        assert args.objective == "static_power"

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "d26_media", "--strategy", "vibes"])

    def test_bad_objective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synth", "d26_media", "--objective", "vibes"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "d26_media", "--objective", "vibes"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "d26_media" in out
        assert "d12_auto" in out

    def test_synth_small_benchmark(self, capsys, tmp_path):
        dot = str(tmp_path / "t.dot")
        svg = str(tmp_path / "f.svg")
        js = str(tmp_path / "t.json")
        code = main(
            [
                "synth",
                "d12_auto",
                "--islands",
                "3",
                "--dot",
                dot,
                "--svg",
                svg,
                "--json",
                js,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best by static_power" in out
        for path in (dot, svg, js):
            with open(path) as f:
                assert f.read()

    def test_synth_unknown_benchmark_fails_cleanly(self, capsys):
        assert main(["synth", "d999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown benchmark 'd999'")

    def test_sweep(self, capsys, tmp_path):
        csv = str(tmp_path / "sweep.csv")
        code = main(["sweep", "d12_auto", "--counts", "1,2", "--csv", csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "logical" in out and "communication" in out
        with open(csv) as f:
            header = f.readline()
        assert "noc_power_mw" in header

    def test_synth_objective_latency(self, capsys):
        code = main(
            [
                "synth",
                "d12_auto",
                "--islands",
                "3",
                "--objective",
                "static_latency",
            ]
        )
        assert code == 0
        assert "best by static_latency" in capsys.readouterr().out

    @pytest.mark.runtime
    def test_synth_objective_trace_energy(self, capsys):
        code = main(
            [
                "synth",
                "d12_auto",
                "--islands",
                "3",
                "--objective",
                "trace_energy",
                "--trace-segments",
                "12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best by trace_energy" in out

    @pytest.mark.runtime
    def test_sweep_objective_trace_energy(self, capsys, tmp_path):
        csv = str(tmp_path / "sweep.csv")
        code = main(
            [
                "sweep",
                "d12_auto",
                "--counts",
                "2,3",
                "--objective",
                "trace_energy",
                "--trace-segments",
                "12",
                "--csv",
                csv,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective trace_energy" in out
        with open(csv) as f:
            header = f.readline()
        # The objective contributes its sweep column.
        assert "trace_mj" in header

    def test_shutdown(self, capsys):
        code = main(["shutdown", "d12_auto", "--islands", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vi_aware" in out and "vi_oblivious" in out
        assert "weighted savings" in out

    @pytest.mark.runtime
    def test_runtime(self, capsys, tmp_path):
        csv = str(tmp_path / "runtime.csv")
        code = main(
            [
                "runtime",
                "--benchmark",
                "d12_auto",
                "--islands",
                "3",
                "--policy",
                "break_even",
                "--segments",
                "24",
                "--csv",
                csv,
            ]
        )
        assert code == 0  # nonzero would mean routability violations
        out = capsys.readouterr().out
        for policy in ("never", "always_off", "idle_timeout", "break_even"):
            assert policy in out
        assert "per-island runtime" in out
        with open(csv) as f:
            header = f.readline()
        assert "energy_mj" in header and "violations" in header

    @pytest.mark.runtime
    def test_runtime_baseline_comparison(self, capsys):
        code = main(
            [
                "runtime",
                "--benchmark",
                "d12_auto",
                "--islands",
                "3",
                "--trace",
                "day",
                "--segments",
                "12",
                "--baseline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "VI-oblivious baseline" in out
        assert "runtime savings under break_even" in out

    def test_runtime_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["runtime", "--benchmark", "d12_auto", "--policy", "vibes"]
            )


class TestErrorPaths:
    """Bad input: one ``error:`` line on stderr and exit 2, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "nope"],
            ["sweep", "nope"],
            ["shutdown", "nope"],
            ["resilience", "nope"],
            ["control", "nope"],
            ["obs", "nope"],
            ["runtime", "--benchmark", "nope"],
            ["cache", "stats", "--cache-dir", "/nonexistent/x"],
            ["cache", "verify", "--cache-dir", "/nonexistent/x"],
            ["cache", "clear", "--cache-dir", "/nonexistent/x"],
            pytest.param(
                ["sweep", "d26_media", "--counts", "1,x"], id="sweep-counts-not-int"
            ),
            pytest.param(["sweep", "d26_media", "--counts", ""], id="sweep-counts-empty"),
            pytest.param(["sweep", "d26_media", "--counts", " , "], id="sweep-counts-blank"),
            pytest.param(
                ["synth", "d26_media", "--objective", "multi_trace", "--trace-seeds", "1,x"],
                id="synth-trace-seeds-not-int",
            ),
            pytest.param(
                ["sweep", "d26_media", "--objective", "multi_trace", "--trace-seeds", ","],
                id="sweep-trace-seeds-blank",
            ),
            pytest.param(
                ["obs", "d26_media", "--islands", "6", "--top", "-1"],
                id="obs-top-negative",
            ),
            pytest.param(
                ["synth", "d26_media", "--verify-on-hit", "-1", "--cache-dir", "{tmp}"],
                id="synth-verify-on-hit-negative",
            ),
            pytest.param(
                ["synth", "d12_auto", "--islands", "2", "--cache-dir", "{file}"],
                id="synth-cache-dir-is-file",
            ),
            pytest.param(
                ["sweep", "d12_auto", "--counts", "1,2", "--workers", "2", "--cache-dir", "{file}"],
                id="sweep-cache-dir-is-file",
            ),
            pytest.param(
                ["synth", "d12_auto", "--islands", "2", "--json", "{dir}"],
                id="synth-json-is-dir",
            ),
            pytest.param(
                ["synth", "d12_auto", "--islands", "2", "--dot", "{dir}/missing/topo.dot"],
                id="synth-dot-parent-missing",
            ),
            pytest.param(
                ["sweep", "d12_auto", "--counts", "1,2", "--events", "{dir}"],
                id="sweep-events-is-dir",
            ),
            pytest.param(
                ["obs", "d12_auto", "--islands", "2", "--chrome-trace", "{dir}/missing/trace.json"],
                id="obs-chrome-trace-parent-missing",
            ),
            pytest.param(["obs", "--follow", "{dir}"], id="obs-follow-is-dir"),
            pytest.param(
                ["resilience", "d12_auto", "--islands", "2", "--min-coverage", "5"],
                id="resilience-min-coverage-above-1",
            ),
            pytest.param(
                ["sweep", "d12_auto", "--counts", "1,2", "--min-coverage", "-5"],
                id="sweep-min-coverage-negative",
            ),
            pytest.param(
                ["control", "d26_media", "--detection-ms", "nan"], id="control-detection-ms-nan"
            ),
            pytest.param(
                ["control", "d26_media", "--fault-start", "nan"], id="control-fault-start-nan"
            ),
            pytest.param(
                ["resilience", "d26_media", "--availability", "--switch-fit", "nan"],
                id="resilience-switch-fit-nan",
            ),
            pytest.param(
                ["runtime", "--benchmark", "d26_media", "--dwell-ms", "nan"],
                id="runtime-dwell-ms-nan",
            ),
            pytest.param(["control", "d26_media", "--dwell-ms", "nan"], id="control-dwell-ms-nan"),
            pytest.param(
                ["synth", "d26_media", "--objective", "wake_qos", "--qos-budget-ms", "nan"],
                id="synth-qos-budget-ms-nan",
            ),
            pytest.param(
                ["synth", "d26_media", "--objective", "trace_energy", "--trace-dwell-ms", "nan"],
                id="synth-trace-dwell-ms-nan",
            ),
            pytest.param(
                ["synth", "d26_media", "--objective", "trace_energy", "--trace-dwell-ms", "inf"],
                id="synth-trace-dwell-ms-inf",
            ),
            pytest.param(
                ["runtime", "--benchmark", "d26_media", "--dwell-ms", "inf"],
                id="runtime-dwell-ms-inf",
            ),
            pytest.param(["control", "d26_media", "--dwell-ms", "inf"], id="control-dwell-ms-inf"),
            pytest.param(
                ["obs", "--follow", "{file}", "--follow-timeout", "nan"],
                id="obs-follow-timeout-nan",
            ),
            pytest.param(
                ["obs", "--follow", "{file}", "--follow-timeout", "-1"],
                id="obs-follow-timeout-negative",
            ),
            pytest.param(["synth", "d26_media", "--spare-k", "-1"], id="synth-spare-k-negative"),
            pytest.param(
                ["sweep", "d26_media", "--counts", "1,2", "--spare-k", "-1"],
                id="sweep-spare-k-negative",
            ),
            pytest.param(
                ["control", "d12_auto", "--islands", "2", "--scenario", "-1"],
                id="control-scenario-negative",
            ),
            pytest.param(
                ["obs", "d12_auto", "--islands", "2", "--scenario", "-1"],
                id="obs-scenario-negative",
            ),
        ],
        ids=lambda argv: "-".join(a for a in argv if a.isalpha()),
    )
    def test_one_line_and_exit_2(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        argv = [
            a.replace("{tmp}", str(tmp_path / "cache"))
            .replace("{file}", str(tmp_path / "file"))
            .replace("{dir}", str(tmp_path / "dir"))
            for a in argv
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, value",
        [
            pytest.param(
                ["resilience", "d12_auto", "--islands", "2", "--min-coverage", "5"],
                "5.0",
                id="resilience-min-coverage-above-1",
            ),
            pytest.param(
                ["sweep", "d12_auto", "--counts", "1,2", "--min-coverage", "-5"],
                "-5.0",
                id="sweep-min-coverage-negative",
            ),
        ],
    )
    def test_min_coverage_error_names_its_flag(self, capsys, argv, value):
        """The range error reads ``--flag: ...`` like every other flag error."""
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --min-coverage: must be in [0, 1], got %s\n" % value
        )

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("control", "--min-coverage", id="control"),
            pytest.param("obs", "--min-coverage", id="obs"),
            pytest.param("shutdown", "--seed", id="shutdown-seed"),
            pytest.param("resilience", "--seed", id="resilience-seed"),
        ],
    )
    def test_min_coverage_not_accepted_where_unread(self, capsys, command, flag):
        """A command rejects a flag it would not read, ``--min-coverage``
        or ``--seed`` alike."""
        with pytest.raises(SystemExit) as exc:
            main([command, "d12_auto", "--islands", "2", flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_int_list_skips_blank_items(self):
        assert _int_list("2,,4", "--counts") == [2, 4]
        assert _int_list(" 1, 3 ,", "--trace-seeds") == [1, 3]


class TestClosedStdout:
    def test_reader_gone_exits_nonzero_without_traceback(self):
        """`synth ... | head -1`: the reader closes the pipe before the
        output ends.  Here the read end is closed before the child
        starts, so every write fails."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "synth", "d12_auto",
                 "--islands", "2", "--ascii-floorplan"],
                stdout=write_fd,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_fd)
        assert proc.returncode == 1
        assert proc.stderr == b""


def _loaded_modules(code):
    """Modules a fresh interpreter loads while it runs ``code``.

    Modules already loaded at interpreter start-up (site ``.pth`` hooks)
    don't count.
    """
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "%s\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n" % code
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _cli_modules(argv):
    return _loaded_modules("import repro.cli\nrepro.cli.main(%r)" % (argv,))


def _under(modules, packages):
    """The members of ``modules`` that are ``packages`` or inside them."""
    return sorted(
        m for m in modules for p in packages if m == p or m.startswith(p + ".")
    )


#: Packages whose public names load on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.cache",
    "repro.control",
    "repro.obs",
    "repro.resilience",
    "repro.runtime",
)


class TestImportFootprint:
    """Each subcommand loads only what it runs (module sets, no timing)."""

    def test_synth_loads_only_stdlib_and_repro(self):
        """A fresh CLI process imports nothing outside the standard library.

        Multiprocessing's ``__mp_main__`` alias doesn't count.
        """
        loaded = {
            m.split(".")[0]
            for m in _cli_modules(["synth", "d12_auto", "--islands", "2"])
            if not m.startswith("__")
        }
        assert sorted(loaded - set(sys.stdlib_module_names) - {"repro"}) == []

    def test_import_repro_loads_no_subpackage(self):
        assert _under(_loaded_modules("import repro"), ["repro"]) == ["repro"]

    def test_import_cli_loads_only_the_parser(self):
        assert _under(_loaded_modules("import repro.cli"), ["repro"]) == [
            "repro",
            "repro.cli",
            "repro.exceptions",
            "repro.names",
        ]

    def test_list_loads_no_synthesis(self):
        loaded = _cli_modules(["list"])
        assert "repro.soc.benchmarks" in loaded
        assert _under(
            loaded,
            [
                "repro.core.synthesis",
                "repro.runtime",
                "repro.control",
                "repro.resilience",
                "repro.obs",
                "concurrent.futures",
            ],
        ) == []

    def test_synth_d26_loads_no_process_machinery(self):
        """Its 26 cores are below the fan-out size: one process, and
        neither ``multiprocessing`` nor ``concurrent`` is imported."""
        loaded = _cli_modules(["synth", "d26_media", "--islands", "4"])
        assert "repro.core.synthesis" in loaded
        assert _under(loaded, ["multiprocessing", "concurrent"]) == []

    def test_serial_sweep_loads_no_process_machinery(self):
        """``--workers 1`` never forks: neither ``multiprocessing`` nor
        ``concurrent`` is imported."""
        loaded = _cli_modules(["sweep", "d26_media", "--counts", "1,2", "--workers", "1"])
        assert "repro.core.explore" in loaded
        assert _under(loaded, ["multiprocessing", "concurrent"]) == []

    def test_synth_loads_no_other_subsystem(self):
        loaded = _cli_modules(["synth", "d12_auto", "--islands", "2"])
        assert "repro.core.synthesis" in loaded
        assert _under(
            loaded,
            [
                "repro.control",
                "repro.resilience",
                "repro.baseline",
                "repro.obs",
                "repro.runtime.simulate",
                "multiprocessing",
            ],
        ) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["control", "d26_media", "--islands", "6", "--spare-k", "1"],
            ["obs", "d26_media", "--islands", "6"],
        ],
        ids=["control", "obs"],
    )
    def test_fault_replays_load_no_coverage_analysis(self, argv):
        """The controller and the replay read each flow's fate from
        ``resilience.faults``, which the coverage analysis shares."""
        loaded = _cli_modules(argv)
        assert "repro.resilience.faults" in loaded
        assert "repro.resilience.coverage" not in loaded

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        for name in module.__all__:
            assert name in listing
            value = getattr(module, name)
            assert not isinstance(value, type(module)), name
        assert len(set(module.__all__)) == len(module.__all__)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_export")

    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
