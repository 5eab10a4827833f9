#!/usr/bin/env python3
"""Steady experiment: reaction-diffusion master feeding a Laplace slave.

Trains once, sweeps the three reduction tolerances over a grid, and writes
the mean-error/bound table as CSV.  Mirrors the error-vs-tolerance figures
of the tolerance study at desk scale.
"""

import argparse
import time
from pathlib import Path

from coupledrom.experiments import ExperimentConfig, run_sweep
from coupledrom.library import steady_reaction_diffusion_pair
from coupledrom.storage import write_csv

COLUMNS = ["eps_master", "eps_interface", "eps_slave", "mean_error", "mean_bound", "online_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--master-subdiv", type=int, default=8)
    parser.add_argument("--slave-subdiv", type=int, default=4)
    parser.add_argument("--n-train", type=int, default=40)
    parser.add_argument("--n-test", type=int, default=20)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--out", default="steady_sweep.csv")
    parser.add_argument(
        "--tolerances", default="1e-2,1e-3,1e-4,1e-5",
        help="comma list swept independently for all three reductions",
    )
    args = parser.parse_args()

    grid = tuple(float(v) for v in args.tolerances.split(","))
    config = ExperimentConfig(
        problem=steady_reaction_diffusion_pair(
            (args.master_subdiv,) * 3, (args.slave_subdiv,) * 3
        ),
        n_train=args.n_train,
        train_seed=args.seed,
        tolerances_master=grid,
        tolerances_slave=grid,
        tolerances_interface=grid,
        n_test=args.n_test,
        test_seed=args.seed + 1,
        output_dir=str(Path(args.out).parent),
    )
    t0 = time.perf_counter()
    rows = run_sweep(config)
    for r in rows:
        print(
            f"eps=({r['eps_master']:.0e},{r['eps_interface']:.0e},{r['eps_slave']:.0e}) "
            f"sizes={r['basis_sizes']} mean_err={r['mean_error']:.3e} "
            f"mean_bound={r['mean_bound']:.3e} valid={r['bound_valid_fraction']:.0%}"
        )
    write_csv(args.out, COLUMNS, [[r[key] for key in COLUMNS] for r in rows])
    print(f"wrote {args.out} ({len(rows)} rows) in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
