#!/usr/bin/env python3
"""Regenerate the example CLI configs in configs/ from the problem library.

Usage: ``python scripts/make_configs.py [OUT_DIR]`` (default: configs/).
"""

import json
import sys
from pathlib import Path

from coupledrom.library import heat_laplace_pair, steady_reaction_diffusion_pair
from coupledrom.problems import problem_to_dict

ROOT = Path(__file__).resolve().parent.parent / "configs"


def write(root, name, problem, training, testing, out_dir):
    config = {
        "problem": problem_to_dict(problem),
        "training": training,
        "testing": testing,
        "outputs": {"directory": out_dir},
    }
    path = root / name
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(root=ROOT):
    root = Path(root)
    root.mkdir(exist_ok=True)
    write(
        root,
        "steady_pair.json",
        steady_reaction_diffusion_pair((8, 8, 8), (4, 4, 4)),
        {
            "n_train": 30,
            "seed": 17,
            "tolerances": {"master": 1e-4, "slave": 1e-4, "interface": 1e-4},
        },
        {"n_test": 20, "seed": 2024},
        "out/steady_pair",
    )
    write(
        root,
        "steady_pair_grid.json",
        steady_reaction_diffusion_pair((8, 8, 8), (4, 4, 4)),
        {
            "n_train": 30,
            "seed": 17,
            "tolerances": {
                "master": [1e-2, 1e-3, 1e-4, 1e-5],
                "slave": [1e-2, 1e-3, 1e-4, 1e-5],
                "interface": [1e-2, 1e-3, 1e-4, 1e-5],
            },
        },
        {"n_test": 10, "seed": 2024},
        "out/steady_pair_grid",
    )
    write(
        root,
        "heat_laplace.json",
        heat_laplace_pair((8, 8, 8), (4, 4, 4), dt=0.01, n_steps=50),
        {
            "n_train": 20,
            "seed": 11,
            "tolerances": {"master": 1e-5, "slave": 1e-5, "interface": 1e-5},
        },
        {"n_test": 5, "seed": 99},
        "out/heat_laplace",
    )
    # the non-conforming interface: slave trace points between master ones
    write(
        root,
        "heat_laplace_nonnested.json",
        heat_laplace_pair((8, 8, 8), (5, 5, 5), dt=0.01, n_steps=50),
        {
            "n_train": 20,
            "seed": 11,
            "tolerances": {"master": 1e-5, "slave": 1e-5, "interface": 1e-5},
        },
        {"n_test": 5, "seed": 99},
        "out/heat_laplace_nonnested",
    )


if __name__ == "__main__":
    main(*sys.argv[1:])
