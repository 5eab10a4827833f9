"""The example scripts run end to end at the smallest sizes their flags
allow, so that a library change that breaks them fails the test suite."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_steady_sweep_script(tmp_path):
    out = tmp_path / "sweep.csv"
    stdout = run_script(
        "run_steady_sweep.py", "--master-subdiv", "1", "--slave-subdiv", "1",
        "--n-train", "2", "--n-test", "1", "--tolerances", "1e-2", "--out", str(out),
        cwd=tmp_path,
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("eps_master,eps_interface,eps_slave") and len(lines) == 2
    assert "valid=100%" in stdout


def test_unsteady_experiment_script(tmp_path):
    stdout = run_script(
        "run_unsteady_experiment.py", "--master-subdiv", "1", "--slave-subdiv", "1",
        "--n-train", "2", "--n-test", "1", "--n-steps", "1",
        cwd=tmp_path,
    )
    assert stdout.count("bound_valid=100%") == 3
    assert "speedup" in stdout


def test_make_configs_regenerates_every_committed_config(tmp_path):
    out = tmp_path / "configs"
    run_script("make_configs.py", str(out), cwd=tmp_path)
    committed = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    assert sorted(p.name for p in out.glob("*.json")) == committed
    for name in committed:
        assert (out / name).read_bytes() == (ROOT / "configs" / name).read_bytes(), name


def test_transport_demo_script(tmp_path):
    stdout = run_script("run_transport_demo.py", "--n-train", "2", "--n-test", "1", cwd=tmp_path)
    assert "valid=True" in stdout
