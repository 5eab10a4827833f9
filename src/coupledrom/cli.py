"""Command-line driver.

Verbs: ``offline`` (train and persist bundles), ``online`` (query a bundle),
``sweep`` (tolerance-grid error tables), ``fom`` (reference solve).  Exit
codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, RomError
from .experiments import (
    config_from_dict,
    ensure_directory,
    query_bounds,
    run_offline,
    run_sweep,
)
from .pipeline import build_fom, fom_coupled_solve, online_solve
from .storage import dump_json, load_json, write_csv, write_matrix

log = logging.getLogger("coupledrom")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parse_mu(text: str | None) -> np.ndarray:
    if not text:
        return np.zeros(0)
    try:
        mu = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"cannot parse parameter list {text!r}")
    if not np.all(np.isfinite(mu)):
        raise ConfigError(f"parameter list {text!r} is not finite")
    return mu


def _load_config(path: str):
    data = load_json(path)
    try:
        return config_from_dict(data)
    except (TypeError, ValueError) as exc:  # a value of the wrong type or shape
        raise ConfigError(f"invalid config value: {exc}")


def _states_as_columns(solution: np.ndarray) -> np.ndarray:
    """One column per state: a steady field is the one-state case."""
    return solution[:, None] if solution.ndim == 1 else solution.T


def cmd_offline(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, train_seed=args.seed)
    _, results = run_offline(config)
    for triple, bundle_dir, digest, artifacts in results:
        print(
            f"bundle {bundle_dir}  tolerances master={triple[0]:g} "
            f"slave={triple[1]:g} interface={triple[2]:g}  "
            f"sizes {artifacts.basis_sizes}  sha256 {digest}"
        )
    return EXIT_OK


def cmd_online(args) -> int:
    from .storage import load_bundle

    artifacts = load_bundle(args.bundle)
    mu1 = _parse_mu(args.mu1)
    mu2 = _parse_mu(args.mu2)
    result = online_solve(artifacts, mu1, mu2)
    out_dir = ensure_directory(args.out if args.out else Path(args.bundle) / "online")
    tag = hashlib.sha256(
        (np.array2string(mu1, precision=17) + np.array2string(mu2, precision=17)).encode()
    ).hexdigest()[:12]

    write_matrix(out_dir / f"slave_{tag}.rombin", _states_as_columns(result.slave_solution))

    diagnostics = {
        "mu1": mu1.tolist(),
        "mu2": mu2.tolist(),
        "basis_sizes": result.diagnostics["basis_sizes"],
        "online_s": result.diagnostics["online_s"],
        "expand_s": result.diagnostics["expand_s"],
        "warnings": result.diagnostics["warnings"],
        "solution_file": f"slave_{tag}.rombin",
    }
    if args.compare_fom:
        fom = build_fom(artifacts.spec)
        fres = fom_coupled_solve(fom, mu1, mu2)
        err = float(np.linalg.norm(fres.slave - result.slave_solution))
        rel = err / float(np.linalg.norm(fres.slave))
        fom_s = fres.timings["total_s"]
        diagnostics.update(
            {
                "abs_error": err,
                "rel_error": rel,
                "fom_s": fom_s,
                "speedup": fom_s / result.diagnostics["online_s"],
            }
        )
        reports = query_bounds(fom, artifacts, mu1, mu2, result, fres)
        worst = max(reports, key=lambda r: r.total)
        diagnostics["bound"] = worst.total
        diagnostics["bound_terms"] = {
            "master": worst.master_term,
            "interface": worst.deim_term,
            "slave": worst.slave_term,
        }
        diagnostics["bound_valid"] = all(r.valid for r in reports)
    dump_json(out_dir / f"diagnostics_{tag}.json", diagnostics)
    print(json.dumps(diagnostics, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    rows = run_sweep(config)
    out_dir = ensure_directory(config.output_dir)
    header = [
        "eps_master", "eps_interface", "eps_slave", "mean_error", "mean_bound", "online_s",
        "bound_valid_fraction", "median_effectivity", "n1", "n2", "m",
    ]
    sizes = {"n1": "master", "n2": "slave", "m": "interface"}
    csv_rows = []
    for r in rows:
        r = {**r, **{key: r["basis_sizes"][side] for key, side in sizes.items()}}
        csv_rows.append([float("nan") if r[key] is None else r[key] for key in header])
    path = out_dir / "sweep.csv"
    write_csv(path, header, csv_rows)
    print(f"wrote {path} ({len(rows)} grid points)")
    return EXIT_OK


def cmd_fom(args) -> int:
    config = _load_config(args.config)
    fom = build_fom(config.problem)
    mu1 = _parse_mu(args.mu1)
    mu2 = _parse_mu(args.mu2)
    result = fom_coupled_solve(fom, mu1, mu2)
    out_dir = ensure_directory(config.output_dir)
    write_matrix(out_dir / "fom_slave.rombin", _states_as_columns(result.slave))
    dump_json(out_dir / "fom_timings.json", result.timings)
    print(json.dumps(result.timings, indent=1, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledrom",
        description="Certified reduced-order models for one-way coupled PDE systems",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_off = sub.add_parser("offline", help="train and persist reduced bundles")
    p_off.add_argument("--config", required=True)
    p_off.add_argument("--seed", type=int, default=None)
    p_off.set_defaults(func=cmd_offline)

    p_on = sub.add_parser("online", help="query a trained bundle")
    p_on.add_argument("--bundle", required=True)
    p_on.add_argument("--mu1", default="")
    p_on.add_argument("--mu2", default="")
    p_on.add_argument("--compare-fom", action="store_true")
    p_on.add_argument("--out", default=None)
    p_on.set_defaults(func=cmd_online)

    p_sw = sub.add_parser("sweep", help="tolerance-grid error tables")
    p_sw.add_argument("--config", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    p_f = sub.add_parser("fom", help="full-order baseline solve")
    p_f.add_argument("--config", required=True)
    p_f.add_argument("--mu1", default="")
    p_f.add_argument("--mu2", default="")
    p_f.set_defaults(func=cmd_fom)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RomError as exc:
        print(f"numeric failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
