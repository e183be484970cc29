"""Print the candidate-record keys of perfbench's sweep grid and of d26_media.

    PYTHONPATH=src python scripts/key_digests.py > change.txt
    PYTHONPATH=<other tree>/src python scripts/key_digests.py > base.txt
    diff base.txt change.txt

A key must not move without a ``SCHEMA_VERSION`` bump: a moved key
turns every existing store cold.  One line per key: the grid's 8 tasks
for each generator seed of perfbench's ``sweep_warm`` pool, as
``ExplorationEngine.grid_exploration`` builds them (the grid and the
base specs come from ``perfbench/workload.py``), then ``d26_media`` at
1 and 4 islands under both strategies and two configs.  It uses only
names the program has had since schema 7, so it runs against older
trees too.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workload import GRID, POOLS, sweep_base  # noqa: E402

from repro import DEFAULT_LIBRARY, mobile_soc_26  # noqa: E402
from repro.cache import design_space_key  # noqa: E402
from repro.core.explore import ExplorationEngine  # noqa: E402
from repro.core.synthesis import SynthesisConfig  # noqa: E402
from repro.soc.partitioning import island_count_sweep  # noqa: E402


def main() -> int:
    engine_config = ExplorationEngine().config
    for gen_seed in POOLS["sweep_warm"]:
        base = sweep_base(gen_seed)
        for strategy in GRID["strategies"]:
            specs = island_count_sweep(base, GRID["islands"], strategy)
            for n, spec in zip(GRID["islands"], specs):
                for alpha in GRID["alphas"]:
                    config = dataclasses.replace(engine_config, alpha=alpha)
                    key = design_space_key(spec, DEFAULT_LIBRARY, config)
                    print("grid seed=%d %s n=%d alpha=%r %s" % (gen_seed, strategy, n, alpha, key))
    d26 = mobile_soc_26()
    for strategy in ("logical", "communication"):
        for n, spec in zip((1, 4), island_count_sweep(d26, [1, 4], strategy)):
            for config in (SynthesisConfig(), SynthesisConfig(max_intermediate=1)):
                key = design_space_key(spec, DEFAULT_LIBRARY, config)
                print("d26 %s n=%d max_intermediate=%d %s"
                      % (strategy, n, config.max_intermediate, key))
    return 0


if __name__ == "__main__":
    sys.exit(main())
