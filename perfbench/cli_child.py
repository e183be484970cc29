"""Run one ``repro.cli`` command in a fresh process, timed or traced.

    python perfbench/cli_child.py setup
    python perfbench/cli_child.py speed OUT_JSON ARGV...
    python perfbench/cli_child.py trace OUT_JSON ARGV...

``setup`` is the CLI's set-up: ``import repro.cli``, then the
:func:`hostspeed.ready` line.  ``speed`` runs the command exactly as
``python -m repro.cli ARGV`` does (``runpy``), with :mod:`hostspeed`
probes sampling this process's CPU speed; ``OUT_JSON`` gets the probe
speeds and the wall time the probes took, which ``run.py`` combines
with the wall time it measured from outside, and the process's peak
RSS (its own or its pool workers').  ``trace`` times ``import
repro.cli`` as the ``import`` layer, installs the :mod:`tracer`
wrappers, calls ``repro.cli.main(ARGV)`` (under ``repro.perf.recording``
when the program has it) and writes the spans, routing counters and
probe speeds to ``OUT_JSON``; each probe is a span of its own, so no
layer's self time includes it.  Exits with the command's exit code.
"""

import importlib
import json
import os
import runpy
import sys

from hostspeed import Sampling, peak_rss_mb, ready, sample_children


def setup() -> int:
    sampling = Sampling().start()
    import repro.cli  # noqa: F401

    ready(sampling)
    return 0


def speed(out_path, argv) -> int:
    sys.argv = ["repro.cli"] + argv
    children = out_path + ".children"
    os.makedirs(children, exist_ok=True)
    sample_children(children)  # ``sweep --workers 2`` forks its pool
    code = 0
    sampling = Sampling(children=children).start()
    try:
        runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sampling.stop()
        for name in os.listdir(children):
            os.remove(os.path.join(children, name))
        write(out_path, sampling)
    return code


def trace(out_path, argv) -> int:
    from tracer import LayerTracer, program_recorder

    tracer = LayerTracer()
    sampling = Sampling(on_probe=tracer.add_probe).start()
    tracer.enabled = True
    cli = tracer.call("import", importlib.import_module, "repro.cli")
    tracer.install()
    recording = program_recorder()
    rec = None
    try:
        if recording is None:
            code = cli.main(argv)
        else:
            with recording() as rec:
                code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.enabled = False
        sampling.stop()
        write(out_path, sampling, spans=tracer.drain(), missing=tracer.missing,
              counters=None if rec is None else rec.counters)
    return code


def write(out_path, sampling, **extra) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dict(extra, speeds=sampling.speeds, probe_wall_s=sampling.probe_wall_s,
                       peak_rss_mb=peak_rss_mb()), fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup())
    sys.exit({"speed": speed, "trace": trace}[mode](sys.argv[2], sys.argv[3:]))
