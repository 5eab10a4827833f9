"""The benchmark's workloads.

Each workload is an experiment config under ``configs/`` (the problem, its
training plan and its tolerance grid) plus the sizes of the benchmark's own
phases.  The configs are copies frozen into the benchmark, so a change to the
repository's ``configs/`` does not change what the benchmark measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: build_fom repetitions; setup_s is their median
    setup_reps: int
    #: run_offline repetitions; offline_s is their median
    offline_reps: int
    #: certified queries per pass, at points from a stream fixed across runs
    certify_queries: int
    #: certify passes, each over new points
    certify_reps: int
    #: online blocks of the traced run (the untraced run is time-bounded)
    traced_online_blocks: int
    #: time run_sweep over the config's grid and test set
    sweep: bool = False

    def config_dict(self) -> dict:
        return json.loads((CONFIG_DIR / f"{self.name}.json").read_text())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady-build",
            why="16^3/8^3 steady pair, 24 solves and 64 bundles: SPD sparse LU "
            "dominates; online and estimator layers nearly idle",
            setup_reps=9,
            offline_reps=3,
            certify_queries=4,
            certify_reps=3,
            traced_online_blocks=20,
        ),
        Workload(
            name="steady-sweep",
            why="configs/steady_pair_grid.json as is: Python overhead on the online "
            "path and the 64x re-solve of one test set in run_sweep",
            setup_reps=40,
            offline_reps=14,
            certify_queries=8,
            certify_reps=20,
            traced_online_blocks=20,
            sweep=True,
        ),
        Workload(
            name="heat-unsteady",
            why="configs/heat_laplace.json as is: factorize once, solve many; POD "
            "on 1000 columns; per-step online loop; semigroup cache misses",
            setup_reps=40,
            offline_reps=14,
            certify_queries=2,
            certify_reps=20,
            traced_online_blocks=20,
        ),
        Workload(
            name="heat-fine",
            why="heat_laplace at 10^3 -> 5^3: full-order solves, POD and semigroup "
            "power iterations grow with N while the online query stays flat",
            setup_reps=40,
            offline_reps=8,
            certify_queries=1,
            certify_reps=8,
            traced_online_blocks=20,
        ),
        Workload(
            name="transport-unsteady",
            why="advection channel (20,12,12) to unsteady wall: non-symmetric "
            "operator, lift mass products; certification fails today",
            setup_reps=15,
            offline_reps=3,
            certify_queries=1,
            certify_reps=1,
            traced_online_blocks=10,
        ),
    )
}
