"""Experiment drivers: test-set evaluation, certified bounds for coupled
queries, tolerance sweeps, and the experiment configuration schema."""

from __future__ import annotations

import itertools
import logging
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import estimator as est
from .errors import ConfigError
# no call here: the benchmark's self-test checks that its tracer rebinds this name
from .fem import apply_dirichlet_lifting  # noqa: F401
from .pipeline import (
    FomProblem,
    FomSubmodel,
    OnlineResult,
    RomArtifacts,
    build_artifacts,
    fom_coupled_solve,
    online_solve,
    run_training,
)
from .problems import CoupledProblemSpec, config_mapping, config_value, problem_from_dict
from .sampling import lhs_sample
from .storage import write_bundle

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# certified bounds for coupled queries


@dataclass
class SigmaCache:
    """Unused: each full-order submodel keeps its proved constants
    (``FomSubmodel.constants``).  ``perfbench/run.py`` still passes one to
    ``steady_query_bound`` and ``unsteady_query_bounds``, and
    ``perfbench/tracing.py`` wraps ``get``."""

    values: dict = field(default_factory=dict)

    def get(self, key, factory) -> float:
        if key not in self.values:
            self.values[key] = factory()
        return self.values[key]


def _submodel_bound(
    role: str, sub: FomSubmodel, V, reduced, exact, mu, trace, time
) -> tuple[np.ndarray, dict]:
    """One submodel's error bound at each state, by the rule of its kind,
    and the constants the rule used, which the submodel proves once per
    operator weights (the marching constants once per weights and ``dt``).

    Both rules read the submodel's free system under its exact constrained
    values (on the slave, with the exact interface ``trace``).  A steady or
    instantaneous submodel takes the steady rule; a marching one takes the
    marching rule, with the initial error ``e_0`` taken on the free DoFs.
    """
    weights = tuple(sub.theta_weights(mu))
    A_ff, F = sub.free_system(mu, trace, time, weights)
    free = sub.free_dofs
    if not sub.spec.unsteady:
        sigma = sub.constants.sigma_min(weights, A_ff)
        return est.error_bound_steady(A_ff, F, V[free], reduced.T, sigma), {
            f"sigma_min_{role}": sigma
        }
    A_ff = A_ff.tocsc()
    constant, growth = sub.constants.marching(weights, A_ff, time.dt)
    e0 = float(np.linalg.norm(exact[0, free] - V[free] @ reduced[0]))
    bounds = est.error_bound_unsteady(
        sub.constants.mass, A_ff, F, V[free], reduced, time.dt, e0, constant, growth
    )
    index = 1 if role == "master" else 2
    return bounds, {f"{role}_semigroup_C{index}": constant, f"{role}_growth": growth}


def query_bounds(
    fom: FomProblem,
    artifacts: RomArtifacts,
    mu1,
    mu2,
    online: OnlineResult,
    fom_result,
) -> list[est.ErrorBoundReport]:
    """Three-term bound of one coupled query at each of its states (the one
    state of a steady query), evaluated with the exact interface data from
    the reference solve.  Each submodel bounds its own error by the rule of
    its kind; the master's bound reaches the slave through the transfer
    norm.  The online result must be expanded: the bound is checked
    against its slave field."""
    if online.slave_solution is None:
        raise ConfigError("the bound needs an expanded online query (expand=True)")
    time = artifacts.spec.time
    master, slave = fom.master, fom.slave
    g_exact = fom_result.dirichlet
    master_bounds, constants = _submodel_bound(
        "master", master, artifacts.master.basis, online.master_reduced,
        fom_result.master, master.mu_mapping(mu1), None, time,
    )
    slave_bounds, slave_constants = _submodel_bound(
        "slave", slave, artifacts.slave.basis, online.slave_reduced,
        fom_result.slave, slave.mu_mapping(mu2), g_exact, time,
    )
    transfer_norm = artifacts.reducer.transfer_norm
    deim = artifacts.reducer.deim
    constants.update(slave_constants)
    constants.update({"transfer_norm_C": transfer_norm, "deim_inverse_norm": deim.inverse_norm})
    actual = np.linalg.norm(np.atleast_2d(fom_result.slave - online.slave_solution), axis=1)
    return [
        est.ErrorBoundReport(
            master_term=float(transfer_norm * m),
            deim_term=est.deim_projection_term(deim.Phi, deim.inverse_norm, g),
            slave_term=float(s),
            constants=dict(constants),
            actual_error=float(a),
        )
        for m, g, s, a in zip(master_bounds, np.atleast_2d(g_exact), slave_bounds, actual)
    ]


def steady_query_bound(fom, artifacts, mu1, mu2, online, fom_result, sigma_cache=None):
    """The one report of ``query_bounds`` for a steady query (``sigma_cache`` is unused)."""
    return query_bounds(fom, artifacts, mu1, mu2, online, fom_result)[0]


def unsteady_query_bounds(fom, artifacts, mu1, mu2, online, fom_result, sigma_cache=None):
    """The reports of ``query_bounds`` for an unsteady query (``sigma_cache`` is unused)."""
    return query_bounds(fom, artifacts, mu1, mu2, online, fom_result)


# ---------------------------------------------------------------------------
# test-set evaluation


def relative_error(fom_slave: np.ndarray, rom_slave: np.ndarray) -> float:
    """Steady: plain relative two-norm; unsteady: time-aggregated ratio."""
    diff = np.linalg.norm(fom_slave - rom_slave)
    return float(diff / np.linalg.norm(fom_slave))


@dataclass
class QueryResult:
    mu1: list
    mu2: list
    abs_error: float
    rel_error: float
    online_s: float
    fom_s: float
    bound: float | None = None
    rel_bound: float | None = None
    bound_valid: bool | None = None
    effectivity: float | None = None
    warnings: list = field(default_factory=list)


def _references(fom: FomProblem, n_test: int, seed: int) -> list[tuple]:
    """``(mu1, mu2, fom_result)`` at each LHS test point, the master's drawn
    from ``seed`` and the slave's from ``seed + 1``."""
    mu1s = lhs_sample(fom.master.spec.parameters, n_test, seed, "test")
    mu2s = lhs_sample(fom.slave.spec.parameters, n_test, seed + 1, "test")
    return [(a, b, fom_coupled_solve(fom, a, b)) for a, b in zip(mu1s.points, mu2s.points)]


def _score(
    artifacts: RomArtifacts, fom: FomProblem, references, with_bounds: bool
) -> list[QueryResult]:
    """Online queries of ``artifacts`` against the ``_references`` results."""
    rows = []
    for mu1, mu2, fres in references:
        online = online_solve(artifacts, mu1, mu2)
        row = QueryResult(
            mu1=np.atleast_1d(mu1).tolist(),
            mu2=np.atleast_1d(mu2).tolist(),
            abs_error=float(np.linalg.norm(fres.slave - online.slave_solution)),
            rel_error=relative_error(fres.slave, online.slave_solution),
            online_s=online.diagnostics["online_s"],
            fom_s=fres.timings["total_s"],
            warnings=online.diagnostics["warnings"],
        )
        if with_bounds:
            reports = query_bounds(fom, artifacts, mu1, mu2, online, fres)
            per_step_bounds = np.array([r.total for r in reports])
            per_step_errors = np.array([r.actual_error for r in reports])
            row.bound = float(np.linalg.norm(per_step_bounds))
            row.rel_bound = row.bound / np.linalg.norm(fres.slave)
            row.bound_valid = all(r.valid for r in reports)
            nonzero = per_step_errors > 0
            row.effectivity = float(
                np.median(per_step_bounds[nonzero] / per_step_errors[nonzero])
            ) if np.any(nonzero) else None
        rows.append(row)
    return rows


def evaluate_test_set(
    artifacts: RomArtifacts, fom: FomProblem, n_test: int, seed: int, with_bounds: bool = False
) -> list[QueryResult]:
    """Online queries against the reference path over an LHS test sample."""
    return _score(artifacts, fom, _references(fom, n_test, seed), with_bounds)


def summarize(rows: Sequence[QueryResult]) -> dict:
    out = {
        "n_queries": len(rows),
        "mean_rel_error": float(np.mean([r.rel_error for r in rows])),
        "max_rel_error": float(np.max([r.rel_error for r in rows])),
        "mean_online_s": float(np.mean([r.online_s for r in rows])),
        "mean_fom_s": float(np.mean([r.fom_s for r in rows])),
    }
    bounds = [r.rel_bound for r in rows if r.rel_bound is not None]
    if bounds:
        out["mean_rel_bound"] = float(np.mean(bounds))
        out["bound_valid_fraction"] = float(
            np.mean([1.0 if r.bound_valid else 0.0 for r in rows])
        )
        effs = [r.effectivity for r in rows if r.effectivity is not None]
        out["median_effectivity"] = float(np.median(effs)) if effs else None
    return out


def measure_speedup(
    artifacts: RomArtifacts, fom: FomProblem, mu1, mu2, repeats: int = 3
) -> dict:
    """Median wall-clock of the reference path vs the reduced query
    (expansion excluded from the reduced timing)."""
    fom_times, online_times, expand_times = [], [], []
    for _ in range(repeats):
        fom_times.append(fom_coupled_solve(fom, mu1, mu2).timings["total_s"])
        res = online_solve(artifacts, mu1, mu2)
        online_times.append(res.diagnostics["online_s"])
        expand_times.append(res.diagnostics["expand_s"])
    fom_s = float(np.median(fom_times))
    online_s = float(np.median(online_times))
    return {
        "fom_s": fom_s,
        "online_s": online_s,
        "expand_s": float(np.median(expand_times)),
        "speedup": fom_s / online_s,
    }


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    problem: CoupledProblemSpec
    n_train: int
    train_seed: int
    tolerances_master: tuple[float, ...]
    tolerances_slave: tuple[float, ...]
    tolerances_interface: tuple[float, ...]
    n_test: int
    test_seed: int
    output_dir: str

    def grid(self) -> list[tuple[float, float, float]]:
        """All (master, slave, interface) tolerance triples."""
        return [
            (m, s, d)
            for m, d, s in itertools.product(
                self.tolerances_master,
                self.tolerances_interface,
                self.tolerances_slave,
            )
        ]


def _tolerance_tuple(raw, where: str) -> tuple[float, ...]:
    values = raw if isinstance(raw, (list, tuple)) else [raw]
    out = []
    for v in values:
        v = config_value(float, v, where)
        if not 0.0 < v < 1.0:
            raise ConfigError(f"tolerance {v} outside (0, 1)", field=where)
        out.append(v)
    return tuple(out)


def config_from_dict(data: Mapping) -> ExperimentConfig:
    if "problem" not in data:
        raise ConfigError("missing required key 'problem'", field="config")
    problem = problem_from_dict(data["problem"])
    training = config_mapping(data.get("training", {}), "training")
    testing = config_mapping(data.get("testing", {}), "testing")
    tols = config_mapping(training.get("tolerances", {}), "training.tolerances")
    for key in ("master", "slave", "interface"):
        if key not in tols:
            raise ConfigError(f"missing tolerance {key!r}", field="training.tolerances")
    n_train = config_value(int, training.get("n_train", 0), "training.n_train")
    if n_train < 2:
        raise ConfigError("n_train must be >= 2", field="training.n_train")
    n_test = config_value(int, testing.get("n_test", 5), "testing.n_test")
    if n_test < 1:
        raise ConfigError("n_test must be >= 1", field="testing.n_test")
    if training.get("pairing", "paired") != "paired":  # the one training plan
        raise ConfigError("pairing must be 'paired'", field="training.pairing")
    outputs = config_mapping(data.get("outputs", {}), "outputs")
    if "directory" not in outputs:
        raise ConfigError("missing output directory", field="outputs.directory")
    return ExperimentConfig(
        problem=problem,
        n_train=n_train,
        train_seed=config_value(int, training.get("seed", 0), "training.seed"),
        tolerances_master=_tolerance_tuple(tols["master"], "training.tolerances.master"),
        tolerances_slave=_tolerance_tuple(tols["slave"], "training.tolerances.slave"),
        tolerances_interface=_tolerance_tuple(
            tols["interface"], "training.tolerances.interface"
        ),
        n_test=n_test,
        test_seed=config_value(int, testing.get("seed", 10_000), "testing.seed"),
        output_dir=str(outputs["directory"]),
    )


def bundle_dirname(tolerances: tuple[float, float, float]) -> str:
    m, s, d = tolerances
    return f"bundle_m{m:.0e}_s{s:.0e}_d{d:.0e}"


def ensure_directory(path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}", field="outputs.directory")
    return path


def run_offline(config: ExperimentConfig):
    """Train once, build one bundle per tolerance triple."""
    t0 = _time.perf_counter()
    training = run_training(config.problem, config.n_train, config.train_seed)
    out_root = ensure_directory(config.output_dir)
    results = []
    for triple in config.grid():
        artifacts = build_artifacts(training, triple)
        bundle_dir = out_root / bundle_dirname(triple)
        artifacts.timings["offline_s"] = _time.perf_counter() - t0
        digest = write_bundle(bundle_dir, artifacts)
        results.append((triple, bundle_dir, digest, artifacts))
    return training, results


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Evaluate the test set for every tolerance triple; returns CSV rows.
    The test set is solved once, and every triple is scored against it."""
    t0 = _time.perf_counter()
    training = run_training(config.problem, config.n_train, config.train_seed)
    fom = training.fom
    references = _references(fom, config.n_test, config.test_seed)
    rows = []
    for triple in config.grid():
        artifacts = build_artifacts(training, triple)
        summary = summarize(_score(artifacts, fom, references, True))
        rows.append({
            "eps_master": triple[0],
            "eps_interface": triple[2],
            "eps_slave": triple[1],
            "mean_error": summary["mean_rel_error"],
            "mean_bound": summary.get("mean_rel_bound"),
            "online_s": summary["mean_online_s"],
            "bound_valid_fraction": summary.get("bound_valid_fraction"),
            "median_effectivity": summary.get("median_effectivity"),
            "basis_sizes": artifacts.basis_sizes,
        })
    log.info("sweep: %d training and %d reference solves, %d tolerance triples in %.2fs",
             config.n_train, len(references), len(rows), _time.perf_counter() - t0)
    return rows
