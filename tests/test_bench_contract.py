"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
and methods by name.  Installing and removing it here makes a rename or a
deletion of any wrapped name fail the test suite, not only a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
