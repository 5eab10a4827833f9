"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run reduced versions of the workloads (fewer repetitions, short online
streams), about half a minute in total.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

ROOT = Path(run.ROOT)

run.import_library()


@pytest.fixture(autouse=True)
def short_blocks(monkeypatch):
    monkeypatch.setattr(run, "ONLINE_BLOCK", 20)


def _small(name: str, **overrides):
    sizes = dict(setup_reps=1, offline_reps=1, certify_reps=1, traced_online_blocks=1)
    sizes.update(overrides)
    return dataclasses.replace(WORKLOADS[name], **sizes)


def _traced(workload, seed: int, work_dir: Path):
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        result = run.run_workload(workload, seed, 0.0, work_dir, tracer)
    finally:
        inst.undo()
    return tracer, result


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))
    tracer = tracing.Tracer()
    outer = tracer.begin("pipeline.outer")  # t=0
    inner = tracer.begin("fem.inner")  # t=1
    tracer.end(inner)  # t=3
    tracer.end(outer)  # t=7
    assert tracer.incl_s["pipeline.outer"] == 7.0
    assert tracer.self_s["pipeline.outer"] == 5.0
    assert tracer.self_s["fem.inner"] == 2.0
    parent_ids = {name: parent for _, name, _, _, parent, _ in tracer.spans}
    assert parent_ids["fem.inner"] == outer[0]
    assert parent_ids["pipeline.outer"] == 0


def test_install_rebinds_from_imports_and_undo_restores():
    from coupledrom import experiments, fem, pipeline, problems

    originals = (experiments.fom_coupled_solve, experiments.apply_dirichlet_lifting,
                 pipeline.eval_theta)
    inst = tracing.install(tracing.Tracer())
    try:
        assert experiments.fom_coupled_solve is pipeline.fom_coupled_solve
        assert experiments.fom_coupled_solve is not originals[0]
        assert experiments.apply_dirichlet_lifting is fem.apply_dirichlet_lifting
        assert experiments.apply_dirichlet_lifting is not originals[1]
        assert pipeline.eval_theta is problems.eval_theta is not originals[2]
    finally:
        inst.undo()
    assert (experiments.fom_coupled_solve, experiments.apply_dirichlet_lifting,
            pipeline.eval_theta) == originals


def test_fom_distinct_ratio_counts_sweep_solves_only():
    from coupledrom import experiments, pipeline

    spec = experiments.config_from_dict(WORKLOADS["steady-sweep"].config_dict()).problem
    fom = pipeline.build_fom(spec)
    mu1 = [lo for lo, _ in spec.master.parameters.ranges]
    mu2 = [lo for lo, _ in spec.slave.parameters.ranges]
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        pipeline.fom_coupled_solve(fom, mu1, mu2)  # outside any sweep: not counted
        sweep = tracer.begin("experiments.run_sweep")
        pipeline.fom_coupled_solve(fom, mu1, mu2)
        pipeline.fom_coupled_solve(fom, mu1, mu2)
        tracer.end(sweep)
    finally:
        inst.undo()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["pipeline.fom_solves"] == 3
    assert metrics["pipeline.fom_distinct_ratio"] == 0.5


def test_exact_repeat_counts_and_metric_names(tmp_path):
    workload = _small("heat-unsteady", certify_queries=2)
    first, run1 = _traced(workload, 7, tmp_path / "a")
    second, run2 = _traced(workload, 7, tmp_path / "b")
    counts1 = tracing.layer_metrics(first)
    counts2 = tracing.layer_metrics(second)
    for name in tracing.EXACT_REPEAT:
        assert counts1[name] == counts2[name], name
        assert counts1[name] > 0, name
    assert run1["ledger"].failed == run2["ledger"].failed == 0

    # the traced and untraced runs report exactly the metrics BENCHMARK.json names
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = {k: {"value": v} for k, v in run1["metrics"].items()}
    layer = run.per_layer_metrics(first, run1, untraced)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: run._units(k) for k in layer
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert set(run1["metrics"]) == set(run.END_TO_END)


def test_transport_certification_failure_is_counted(tmp_path):
    workload = _small("transport-unsteady")
    tracer, result = _traced(workload, 3, tmp_path)
    ledger = result["ledger"]
    assert ledger.failed == 1
    assert ledger.incorrect == 0
    assert dict(ledger.errors) == {"certify:EstimatorConvergenceError": 1}
    assert result["outcomes"]["bound_valid_fraction"] == 0.0
    assert result["outcomes"]["fail_fraction"] == 1 / ledger.attempted
    assert tracing.layer_metrics(tracer)["estimator.failures"] == 1
    # every other phase finished
    assert result["outcomes"]["online_samples"] == run.ONLINE_BLOCK
    assert set(result["phases_s"]) == {"setup", "offline", "online", "certify"}
    assert result["metrics"]["max_rel_error"] > 0


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_load(name):
    from coupledrom import experiments

    config = experiments.config_from_dict(WORKLOADS[name].config_dict())
    assert len(config.grid()) >= 1
