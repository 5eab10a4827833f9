"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
and methods by name, and its driver (``perfbench/run.py``) calls library
functions with fixed arguments.  Installing and removing the tracer, and
binding each driver call to its signature, make a rename, a deletion or a
signature change that would break the benchmark fail the test suite, not
only a benchmark run."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CONFIGS = sorted((TRACING.parent / "configs").glob("*.json"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings() -> dict:
    """Every attribute of every loaded library module and of its classes."""
    import coupledrom  # noqa: F401  (loads every submodule)

    out = {}
    for name, module in list(sys.modules.items()):
        if name != "coupledrom" and not name.startswith("coupledrom."):
            continue
        for attr, value in vars(module).items():
            out[(module, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("coupledrom"):
                out.update({(value, a): v for a, v in vars(value).items()})
    return out


def changed(before: dict) -> list:
    return [key for key, value in before.items() if vars(key[0]).get(key[1]) is not value]


def test_tracer_installs_on_every_wrapped_name_and_undoes():
    tracing = load_tracing()
    before = library_bindings()
    try:
        handle = tracing.install(tracing.Tracer())
        try:
            wrapped = {f"{owner.__name__}.{attr}" for owner, attr in changed(before)}
            assert "coupledrom.pipeline.online_steady" in wrapped
            assert "InterfaceReducer.reduced_lifting" in wrapped
        finally:
            handle.undo()
        assert changed(before) == []
    finally:
        for owner, attr in changed(before):  # a failed install leaves wrappers
            setattr(owner, attr, before[(owner, attr)])



#: each library call of ``perfbench/run.py`` and the positional arguments it passes
BENCHMARK_CALLS = [
    ("experiments.config_from_dict", 1),
    ("pipeline.build_fom", 1),
    ("experiments.run_offline", 1),
    ("storage.load_bundle", 1),
    ("experiments.SigmaCache", 0),
    ("pipeline.online_solve", 3),
    ("pipeline.fom_coupled_solve", 3),
    ("experiments.relative_error", 2),
    ("experiments.unsteady_query_bounds", 7),
    ("experiments.steady_query_bound", 7),
    ("experiments.run_sweep", 1),
]


@pytest.mark.parametrize("name, arity", BENCHMARK_CALLS, ids=[n for n, _ in BENCHMARK_CALLS])
def test_benchmark_call_binds_to_library_signature(name, arity):
    module, attr = name.split(".")
    function = getattr(importlib.import_module(f"coupledrom.{module}"), attr)
    inspect.signature(function).bind(*range(arity))


def test_certified_constants_unchanged_under_the_tracer():
    """The tracer replaces ``estimator.spla`` by a proxy whose ``splu``
    returns a counting stand-in; the certificates read the factors through
    it and must give the same bits."""
    import numpy as np
    import scipy.sparse as sp

    from coupledrom import estimator

    rng = np.random.default_rng(1)
    K = sp.random(60, 60, density=0.1, random_state=rng)
    A = (K @ K.T + sp.identity(60)).tocsc()
    plain = (estimator.MassBlock(A).condition_root, estimator.sigma_min(A))
    tracing = load_tracing()
    handle = tracing.install(tracing.Tracer())
    try:
        assert not isinstance(estimator.spla, type(sp))
        traced = (estimator.MassBlock(A).condition_root, estimator.sigma_min(A))
    finally:
        handle.undo()
    assert traced == plain


#: library bindings that ``perfbench/test_perfbench.py`` reads: each module
#: attribute must exist and be the original it re-exports
SELF_TEST_BINDINGS = [
    ("experiments", "apply_dirichlet_lifting", "fem"),
    ("experiments", "fom_coupled_solve", "pipeline"),
    ("pipeline", "eval_theta", "problems"),
]


@pytest.mark.parametrize(
    "module, attr, origin", SELF_TEST_BINDINGS, ids=[f"{m}.{a}" for m, a, _ in SELF_TEST_BINDINGS]
)
def test_benchmark_self_test_bindings_are_the_originals(module, attr, origin):
    binding = getattr(importlib.import_module(f"coupledrom.{module}"), attr)
    assert binding is getattr(importlib.import_module(f"coupledrom.{origin}"), attr)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_benchmark_config_loads(path):
    """Every workload config of the benchmark passes the library's schema."""
    from coupledrom.experiments import config_from_dict

    config_from_dict(json.loads(path.read_text()))
