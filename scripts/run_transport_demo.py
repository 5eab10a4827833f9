#!/usr/bin/env python3
"""Unsteady-unsteady demo: advected scalar in a channel feeding a diffusive
wall layer.  Exercises the mass-carrying lifting products of the reduced
slave marching."""

import argparse
import time

import coupledrom as cr
from coupledrom.library import transport_wall_pair


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-train", type=int, default=12)
    parser.add_argument("--n-test", type=int, default=4)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()

    spec = transport_wall_pair()
    t0 = time.perf_counter()
    training = cr.run_training(spec, args.n_train, args.seed)
    art = cr.build_artifacts(training, (1e-5, 1e-5, 1e-5))
    print(f"offline {time.perf_counter() - t0:.1f}s, sizes {art.basis_sizes}")
    rows = cr.evaluate_test_set(art, training.fom, args.n_test, seed=args.seed + 1)
    for r in rows:
        print(
            f"zeta={r.mu1[0]:.3f}  rel_err={r.rel_error:.3e}  "
            f"rel_bound={r.rel_bound:.3e}  valid={r.bound_valid}"
        )
    print(cr.summarize(rows))


if __name__ == "__main__":
    main()
