#!/usr/bin/env python3
"""Unsteady experiment: parametrized heat master feeding a Laplace slave.

Reports the singular-value decays, the error/bound behavior when one
tolerance is held fixed, and a timing table comparing the reference and
reduced paths.
"""

import argparse
import time

import coupledrom as cr
from coupledrom.library import heat_laplace_pair


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--master-subdiv", type=int, default=8)
    parser.add_argument("--slave-subdiv", type=int, default=4)
    parser.add_argument("--n-train", type=int, default=20)
    parser.add_argument("--n-test", type=int, default=5)
    parser.add_argument("--n-steps", type=int, default=50)
    parser.add_argument("--dt", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    spec = heat_laplace_pair(
        (args.master_subdiv,) * 3,
        (args.slave_subdiv,) * 3,
        dt=args.dt,
        n_steps=args.n_steps,
    )
    t0 = time.perf_counter()
    training = cr.run_training(spec, args.n_train, args.seed)
    offline_s = time.perf_counter() - t0
    for name, fact in (
        ("master", training.pod_master),
        ("interface", training.pod_dirichlet),
        ("slave", training.pod_slave),
    ):
        s = fact.singular_values
        print(f"{name:9s} singular values: s1={s[0]:.3e}  s5/s1={s[4] / s[0]:.1e}  "
              f"s10/s1={s[9] / s[0]:.1e}" if len(s) >= 10 else f"{name}: {s}")

    print("\nerror vs tolerance (master fixed loose, then all tight):")
    for tols in ((1e-2, 1e-2, 1e-2), (1e-2, 1e-5, 1e-5), (1e-5, 1e-5, 1e-5)):
        art = cr.build_artifacts(training, tols)
        rows = cr.evaluate_test_set(art, training.fom, args.n_test, seed=99)
        summary = cr.summarize(rows)
        print(
            f"  eps={tols}  sizes={art.basis_sizes}  "
            f"mean_err={summary['mean_rel_error']:.3e}  "
            f"bound_valid={summary['bound_valid_fraction']:.0%}  "
            f"effectivity~{summary['median_effectivity']:.0f}"
        )

    art = cr.build_artifacts(training, (1e-5, 1e-5, 1e-5))
    mu_star = training.master_samples[0]
    timing = cr.measure_speedup(art, training.fom, mu_star, [], repeats=3)
    print("\ntiming (one trajectory query):")
    print(f"  reference path  {timing['fom_s'] * 1e3:9.1f} ms")
    print(f"  reduced query   {timing['online_s'] * 1e3:9.2f} ms  "
          f"(+{timing['expand_s'] * 1e3:.2f} ms expansion)")
    print(f"  offline stage   {offline_s:9.1f} s")
    print(f"  speedup         {timing['speedup']:9.1f}x")


if __name__ == "__main__":
    main()
