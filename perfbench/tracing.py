"""Spans and counters recorded around the library's public functions.

``install(tracer)`` replaces every binding of each wrapped function in every
loaded ``coupledrom`` module (names brought in with ``from .x import y``
included) and patches the wrapped methods on their classes; ``undo()`` on
the handle it returns puts the originals back.  Nothing inside the library changes: spans start and
end at layer boundaries, which is where the benchmark can see them.

A span is ``(name, start, end, parent, op)``; the op id ties every span to the
benchmark operation (one online query, one certified query, ...) that caused
it.  Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from types import ModuleType

import numpy as np

_clock = time.perf_counter

#: spans kept for the span file; later spans are only counted
MAX_SPANS = 100_000


class Tracer:
    """In-memory span recorder with per-name totals and named counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.expand_s = 0.0
        self.sweep_fom_calls = 0
        self.sweep_fom_points: set = set()
        self.op_id = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 1

    def begin(self, name: str) -> list:
        frame = [self._next_id, name, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = _clock()
        popped = self._stack.pop()
        assert popped is frame, "spans must nest"
        span_id, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else 0, self.op_id))
        else:
            self.dropped += 1

    def failed(self, name: str, exc: BaseException) -> None:
        """Count an exception once, against the innermost layer it left."""
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.counts[name.split(".", 1)[0] + ".failures"] += 1

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` inside a span.  ``after(result, args, kwargs)``, if
        given, runs in a ``trace.bookkeeping`` child span, so its cost stays
        out of the span's self time; its return value is returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    inner = tracer.begin("trace.bookkeeping")
                    try:
                        result = after(result, args, kwargs)
                    finally:
                        tracer.end(inner)
                return result
            except Exception as exc:
                tracer.failed(name, exc)
                raise
            finally:
                tracer.end(frame)

        return wrapper

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent id, op id."""
        import json

        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped

FUNCTIONS = {
    "mesh": ["build_box_mesh", "extract_interface"],
    "fem": [
        "cell_quadrature", "assemble_mass", "assemble_stiffness", "assemble_advection",
        "assemble_load", "_normalize_dirichlet", "eliminate_rows_cols",
        "apply_dirichlet_lifting", "solve_steady", "solve_unsteady_bdf1",
    ],
    "interface": [
        "build_transfer_matrix", "nearest_dof_map", "deim_indices", "make_deim_basis",
        "assemble_reducer",
    ],
    "problems": ["eval_theta", "compile_expression"],
    "pipeline": [
        "build_fom", "build_submodel", "run_training", "build_artifacts",
        "_project_submodel", "online_steady", "online_unsteady",
    ],
    "estimator": [
        "residual_steady", "residual_unsteady", "sigma_min", "semigroup_constant",
        "_is_dissipative", "error_bound_steady", "error_bound_unsteady",
        "deim_projection_term",
    ],
    "experiments": [
        "steady_query_bound", "unsteady_query_bounds", "evaluate_test_set",
        "run_offline", "run_sweep",
    ],
    "storage": ["load_bundle"],
}

#: per-layer metrics that are sums of self times over span names
SELF_TIME = {
    "fem.assemble_s": [
        "fem.cell_quadrature", "fem.assemble_mass", "fem.assemble_stiffness",
        "fem.assemble_advection", "fem.assemble_load",
    ],
    "fem.factorize_s": ["fem.factorized_solver"],
    "fem.eliminate_s": [
        "fem._normalize_dirichlet", "fem.eliminate_rows_cols", "fem.apply_dirichlet_lifting",
    ],
    "fem.solve_s": ["fem.solve", "fem.solve_steady", "fem.solve_unsteady_bdf1"],
    "pod.factorize_s": ["pod.PodFactorization"],
    "interface.reduce_s": ["interface." + n for n in FUNCTIONS["interface"]],
}

#: per-layer metrics that are sums of inclusive times over span names
INCLUSIVE_TIME = {
    "problems.eval_theta_s": ["problems.eval_theta"],
    "pipeline.fom_solve_s": ["pipeline.fom_coupled_solve"],
    "pipeline.project_s": ["pipeline._project_submodel"],
    "pipeline.online_s": ["pipeline.online_solve"],
    "estimator.sigma_min_s": ["estimator.sigma_min"],
    "estimator.semigroup_s": ["estimator.semigroup_constant"],
    "estimator.residual_s": ["estimator.residual_steady", "estimator.residual_unsteady"],
    "experiments.bound_s": ["experiments.steady_query_bound", "experiments.unsteady_query_bounds"],
    "experiments.sweep_s": ["experiments.run_sweep"],
    "storage.write_s": ["storage.write_bundle"],
    "storage.load_s": ["storage.load_bundle"],
}

#: per-layer counts taken from span call counts
CALL_COUNTS = {
    "fem.factorizations": "fem.factorized_solver",
    "fem.solves": "fem.solve",
    "interface.lifting_calls": "interface.InterfaceReducer.reduced_lifting",
    "problems.eval_theta_calls": "problems.eval_theta",
    "problems.compile_calls": "problems.compile_expression",
    "pipeline.fom_solves": "pipeline.fom_coupled_solve",
    "estimator.sigma_min_calls": "estimator.sigma_min",
    "estimator.semigroup_calls": "estimator.semigroup_constant",
}

#: per-layer counts kept by the wrappers themselves
COUNTERS = [
    "fem.lu_fill_nnz", "fem.failures", "pod.snapshot_cols", "estimator.power_iterations",
    "estimator.failures", "storage.bytes_written",
]

#: counts that must repeat exactly across two runs with one seed
EXACT_REPEAT = [
    "fem.factorizations", "fem.solves", "fem.lu_fill_nnz", "pipeline.fom_solves",
    "problems.compile_calls", "estimator.power_iterations", "pod.snapshot_cols",
]


def _modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "coupledrom" or name.startswith("coupledrom.")) and m is not None]


class _Installation:
    """Bookkeeping of replaced bindings, so they can be put back."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def rebind(self, original, wrapper) -> None:
        """Point every module-level binding of ``original`` at ``wrapper``."""
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replaced.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def set(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self.replaced):
            setattr(owner, attr, value)
        self.replaced.clear()


class _CountingLU:
    """SuperLU stand-in that counts the transposed solves of the inverse
    power iteration in ``estimator.sigma_min`` (one per iteration)."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        if trans == "T":
            self._tracer.counts["estimator.power_iterations"] += 1
        return self._lu.solve(rhs, trans=trans)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _SplaProxy:
    """``scipy.sparse.linalg`` as seen by the estimator module, with a
    counting ``splu``."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        return _CountingLU(self._spla.splu(*args, **kwargs), self._tracer)

    def __getattr__(self, attr):
        return getattr(self._spla, attr)


def install(tracer: Tracer) -> _Installation:
    """Wrap the library's public functions; ``undo()`` on the returned handle
    puts the originals back."""
    import coupledrom  # noqa: F401  (loads every submodule)

    inst = _Installation()
    # by module object: the package re-exports a function named ``pod``
    mods = {m.__name__.split(".")[-1]: m for m in _modules()}
    estimator, experiments, fem = mods["estimator"], mods["experiments"], mods["fem"]
    interface, pipeline, pod, storage = (
        mods["interface"], mods["pipeline"], mods["pod"], mods["storage"]
    )
    for layer, names in FUNCTIONS.items():
        for name in names:
            original = getattr(mods[layer], name)
            inst.rebind(original, tracer.wrap(f"{layer}.{name}", original))

    def solver_after(solve, args, kwargs):
        lu = getattr(solve, "__self__", None)
        if lu is not None and hasattr(lu, "L"):
            tracer.counts["fem.lu_fill_nnz"] += int(lu.L.nnz + lu.U.nnz)
        return tracer.wrap("fem.solve", solve)

    inst.rebind(fem.factorized_solver,
                tracer.wrap("fem.factorized_solver", fem.factorized_solver, solver_after))

    def fom_after(result, args, kwargs):
        """Distinct (mu1, mu2) pairs among the full-order solves of run_sweep."""
        if not any(frame[1] == "experiments.run_sweep" for frame in tracer._stack):
            return result
        _, mu1, mu2 = args[:3]
        tracer.sweep_fom_calls += 1
        tracer.sweep_fom_points.add((tuple(np.atleast_1d(np.asarray(mu1, float)).tolist()),
                                     tuple(np.atleast_1d(np.asarray(mu2, float)).tolist())))
        return result

    inst.rebind(pipeline.fom_coupled_solve,
                tracer.wrap("pipeline.fom_coupled_solve", pipeline.fom_coupled_solve, fom_after))

    def online_after(result, args, kwargs):
        tracer.expand_s += float(result.diagnostics.get("expand_s", 0.0))
        return result

    inst.rebind(pipeline.online_solve,
                tracer.wrap("pipeline.online_solve", pipeline.online_solve, online_after))

    def bundle_after(digest, args, kwargs):
        from pathlib import Path

        tracer.counts["storage.bytes_written"] += sum(
            p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file()
        )
        return digest

    inst.rebind(storage.write_bundle,
                tracer.wrap("storage.write_bundle", storage.write_bundle, bundle_after))

    two_norm = estimator.operator_two_norm

    def counted_two_norm(matvec, *args, **kwargs):
        def counting(x):
            tracer.counts["estimator.power_iterations"] += 1
            return matvec(x)

        return two_norm(counting, *args, **kwargs)

    inst.rebind(two_norm, tracer.wrap("estimator.operator_two_norm", counted_two_norm))
    inst.set(estimator, "spla", _SplaProxy(estimator.spla, tracer))

    pod_init = pod.PodFactorization.__init__

    def counted_pod_init(self, snapshots):
        matrix = getattr(snapshots, "matrix", snapshots)
        tracer.counts["pod.snapshot_cols"] += int(np.shape(matrix)[1])
        return pod_init(self, snapshots)

    inst.set(pod.PodFactorization, "__init__", tracer.wrap("pod.PodFactorization", counted_pod_init))
    inst.set(interface.InterfaceReducer, "reduced_lifting",
             tracer.wrap("interface.InterfaceReducer.reduced_lifting",
                         interface.InterfaceReducer.reduced_lifting))

    cache_get = experiments.SigmaCache.get

    def counted_get(self, key, factory):
        tracer.counts["experiments.cache_calls"] += 1
        if key in self.values:
            tracer.counts["experiments.cache_hits"] += 1
        return cache_get(self, key, factory)

    inst.set(experiments.SigmaCache, "get", tracer.wrap("experiments.SigmaCache.get", counted_get))
    return inst


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    out: dict[str, float] = {}
    layer_self: Counter = Counter()
    for name, value in tracer.self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    out["mesh.busy_s"] = layer_self["mesh"]
    for metric, names in SELF_TIME.items():
        out[metric] = sum(tracer.self_s[n] for n in names)
    for metric, names in INCLUSIVE_TIME.items():
        out[metric] = sum(tracer.incl_s[n] for n in names)
    for metric, name in CALL_COUNTS.items():
        out[metric] = tracer.calls[name]
    for metric in COUNTERS:
        out[metric] = tracer.counts[metric]
    out["pipeline.online_expand_s"] = tracer.expand_s
    out["pipeline.fom_distinct_ratio"] = (
        len(tracer.sweep_fom_points) / tracer.sweep_fom_calls if tracer.sweep_fom_calls else 0.0
    )
    cache_calls = tracer.counts["experiments.cache_calls"]
    out["experiments.cache_hit_ratio"] = (
        tracer.counts["experiments.cache_hits"] / cache_calls if cache_calls else 0.0
    )
    out["trace.spans"] = len(tracer.spans) + tracer.dropped
    return out
