"""Write ``golden.json``: reference digests of the benchmark's outputs.

    PYTHONPATH=src python3 perfbench/record_golden.py

For every generator seed of the workload pools (``workload.POOLS``) it
records, from the unmemoized reference path
(``SynthesisConfig(enable_caches=False)``, no cache store, serial):

* ``synth_large``: per spec size, the digest of every design point's
  ``(label, power_mw.hex(), avg_latency_cycles.hex())``;
* ``sweep``: per grid task, the digest of its ``SweepRecord.row()``
  without the ``seconds`` column.

The workloads must have no failing operation, so it stops with an error
if a spec does not synthesize, a point fails ``audit_shutdown_safety``
or a sweep task is infeasible.  Recording takes about 70 s on a 2-CPU
host.
"""

import json
import sys

from repro.arch.validate import audit_shutdown_safety
from repro.core.explore import ExplorationEngine
from repro.core.synthesis import SynthesisConfig, synthesize

from workload import GOLDEN, GRID, POOLS, row_digest, space_digest, sweep_base, synth_specs


def synth_reference(seed: int):
    out = {}
    for n, spec in synth_specs(seed):
        space = synthesize(spec, config=SynthesisConfig(enable_caches=False))
        if any(audit_shutdown_safety(p.topology) for p in space.points):
            raise ValueError("seed %d n%d has shutdown-safety violations" % (seed, n))
        out[str(n)] = space_digest(space)
    return out


def sweep_reference(seed: int):
    config = SynthesisConfig(max_intermediate=1, enable_caches=False)
    with ExplorationEngine(workers=1, config=config) as engine:
        records = engine.grid_exploration(sweep_base(seed), **GRID).records
    if not all(r.feasible for r in records):
        raise ValueError("seed %d has an infeasible sweep task" % seed)
    return [row_digest(r) for r in records]


def main() -> int:
    sweep_seeds = sorted(set(POOLS["sweep_cold"] + POOLS["sweep_warm"]))
    golden = {
        "synth_large": {str(s): synth_reference(s) for s in POOLS["synth_large"]},
        "sweep": {str(s): sweep_reference(s) for s in sweep_seeds},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
