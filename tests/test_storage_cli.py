import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom import pipeline
from coupledrom.cli import build_parser, main
from coupledrom.errors import ConfigError
from coupledrom.experiments import config_from_dict
from coupledrom.library import heat_laplace_pair, steady_pair_2d
from coupledrom.problems import problem_from_dict, problem_to_dict
from coupledrom.storage import (
    fmt_float,
    hash_bundle,
    load_bundle,
    read_matrix,
    write_bundle,
    write_matrix,
)


class TestMatrixFile:
    @given(
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_bit_identical(self, tmp_path_factory, rows, cols, seed):
        path = tmp_path_factory.mktemp("mat") / "m.rombin"
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-200, 200)
        write_matrix(path, X)
        Y = read_matrix(path)
        assert X.shape == Y.shape
        assert X.tobytes() == Y.tobytes()

    def test_special_values_survive(self, tmp_path):
        X = np.array([[0.0, -0.0], [np.inf, -np.inf], [np.nan, 1e-308]])
        write_matrix(tmp_path / "s.rombin", X)
        Y = read_matrix(tmp_path / "s.rombin")
        assert X.tobytes() == Y.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.rombin"
        write_matrix(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        assert raw[:4] == b"ROMB"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 3
        assert int.from_bytes(raw[16:24], "little") == 2
        assert len(raw) == 24 + 8 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rombin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ConfigError):
            read_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.rombin"
        write_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            read_matrix(path)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_fmt_float_round_trips(x):
    assert float(fmt_float(x)) == x


def test_problem_spec_json_round_trip():
    for spec in (steady_pair_2d(), heat_laplace_pair()):
        data = json.loads(json.dumps(problem_to_dict(spec)))
        again = problem_from_dict(data)
        assert problem_to_dict(again) == problem_to_dict(spec)


@pytest.fixture(scope="module")
def artifacts():
    spec = steady_pair_2d(master_subdivisions=(6, 6), slave_subdivisions=(3, 3))
    training = cr.run_training(spec, 8, seed=4)
    return cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))


class TestBundle:
    def test_write_load_round_trip(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", artifacts, timings={"offline_s": 1.0})
        loaded = load_bundle(tmp_path / "b")
        assert np.array_equal(loaded.master.basis, artifacts.master.basis)
        assert np.array_equal(loaded.slave.basis, artifacts.slave.basis)
        assert np.array_equal(loaded.reducer.full_transfer, artifacts.reducer.full_transfer)
        assert np.array_equal(loaded.reducer.deim.indices, artifacts.reducer.deim.indices)
        assert loaded.tolerances == artifacts.tolerances
        # loaded artifacts answer queries identically
        a = cr.online_steady(artifacts, [1.0, 1.0], [])
        b = cr.online_steady(loaded, [1.0, 1.0], [])
        assert np.allclose(a.slave_solution, b.slave_solution, atol=1e-14)

    def test_hash_ignores_timings(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b1", artifacts, timings={"offline_s": 1.0})
        write_bundle(tmp_path / "b2", artifacts, timings={"offline_s": 99.0})
        assert hash_bundle(tmp_path / "b1") == hash_bundle(tmp_path / "b2")

    def test_double_offline_bit_identical(self, tmp_path):
        spec = steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(2, 2))
        for name in ("r1", "r2"):
            art = cr.offline(spec, n_train=5, tolerances=(1e-3, 1e-3, 1e-3), seed=21)
            write_bundle(tmp_path / name, art)
        assert hash_bundle(tmp_path / "r1") == hash_bundle(tmp_path / "r2")

    def test_round_trip_answers_bit_identically(self, tmp_path):
        spec = heat_laplace_pair(
            master_subdivisions=(3, 3, 3), slave_subdivisions=(2, 2, 2), n_steps=4
        )
        art = cr.offline(spec, n_train=3, tolerances=(1e-4, 1e-4, 1e-4), seed=2)
        write_bundle(tmp_path / "b", art)
        loaded = load_bundle(tmp_path / "b")
        assert np.array_equal(loaded.reducer.full_transfer, art.reducer.full_transfer)
        assert loaded.reducer.transfer_norm == art.reducer.transfer_norm
        for key, product in art.reducer.lift_products.items():
            assert np.array_equal(loaded.reducer.lift_products[key], product)
        a = cr.online_unsteady(art, [0.8], [])
        b = cr.online_unsteady(loaded, [0.8], [])
        assert np.array_equal(a.slave_solution, b.slave_solution)

    def test_stores_no_point_transfer_or_master_positions(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", artifacts)
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["version"] == 4
        assert not {"master_positions", "master_indices", "max_magic_distance"} & set(
            manifest["reducer"]
        )
        assert not (tmp_path / "b" / "point_transfer.rombin").exists()

    def test_other_manifest_versions_rejected(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", artifacts)
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        for version in (1, 2, 3, None):
            manifest["version"] = version
            path.write_text(json.dumps(manifest))
            with pytest.raises(ConfigError, match="bundle version"):
                load_bundle(tmp_path / "b")

    def test_every_stored_matrix_is_loaded(self, tmp_path, artifacts, monkeypatch):
        import coupledrom.storage as storage

        unsteady = cr.offline(
            heat_laplace_pair(
                master_subdivisions=(3, 3, 3), slave_subdivisions=(2, 2, 2), n_steps=4
            ),
            n_train=3, tolerances=(1e-4, 1e-4, 1e-4), seed=2,
        )
        read = set()
        original = storage.read_matrix

        def recording(path):
            read.add(Path(path).name)
            return original(path)

        monkeypatch.setattr(storage, "read_matrix", recording)
        for name, art in (("steady", artifacts), ("unsteady", unsteady)):
            write_bundle(tmp_path / name, art)
            stored = {p.name for p in (tmp_path / name).glob("*.rombin")}
            assert not {f for f in stored if f.endswith("_sv.rombin")}
            read.clear()
            load_bundle(tmp_path / name)
            assert read == stored

    def test_rewrite_removes_matrix_files_the_manifest_does_not_list(self, tmp_path, artifacts):
        fresh = write_bundle(tmp_path / "fresh", artifacts)
        write_bundle(tmp_path / "b", artifacts)
        stale = tmp_path / "b" / "master_sv.rombin"  # as format 3 stored it
        write_matrix(stale, np.ones((3, 1)))
        assert write_bundle(tmp_path / "b", artifacts) == fresh
        assert not stale.exists()
        assert hash_bundle(tmp_path / "b") == fresh

    def test_changed_payload_byte_is_config_error(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", artifacts)
        target = tmp_path / "b" / "slave_basis.rombin"
        data = bytearray(target.read_bytes())
        data[-1] ^= 1
        target.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="slave_basis.rombin"):
            load_bundle(tmp_path / "b")

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigError):
            load_bundle(tmp_path / "empty")


def make_config(tmp_path, grid=False, unsteady=False, n_train=6, n_test=3):
    if unsteady:
        problem = heat_laplace_pair(
            master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=10
        )
    else:
        problem = steady_pair_2d(master_subdivisions=(6, 6), slave_subdivisions=(3, 3))
    tols = [1e-2, 1e-4] if grid else 1e-4
    config = {
        "problem": problem_to_dict(problem),
        "training": {
            "n_train": n_train,
            "seed": 7,
            "tolerances": {"master": tols, "slave": tols, "interface": tols},
        },
        "testing": {"n_test": n_test, "seed": 77},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


class TestCli:
    def test_offline_then_online(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert main(["offline", "--config", str(config)]) == 0
        bundles = sorted((tmp_path / "out").glob("bundle_*"))
        assert len(bundles) == 1
        capsys.readouterr()
        assert main(
            [
                "online",
                "--bundle",
                str(bundles[0]),
                "--mu1",
                "1.5,2.0",
                "--compare-fom",
            ]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        for key in ("online_s", "fom_s", "speedup", "rel_error", "bound", "bound_valid"):
            assert key in payload
        assert payload["bound_valid"] is True
        assert (bundles[0] / "online").exists()

    def test_online_solution_file_readable(self, tmp_path, capsys):
        config = make_config(tmp_path)
        main(["offline", "--config", str(config)])
        bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
        capsys.readouterr()
        main(["online", "--bundle", str(bundle), "--mu1", "1.0,1.0"])
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        solution = read_matrix(bundle / "online" / payload["solution_file"])
        assert solution.shape[0] > 0

    def test_online_outputs_leave_the_bundle_hash(self, tmp_path, capsys):
        config = make_config(tmp_path)
        main(["offline", "--config", str(config)])
        bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
        digest = hash_bundle(bundle)
        assert main(["online", "--bundle", str(bundle), "--mu1", "1.0,2.0"]) == 0
        assert list((bundle / "online").iterdir())
        assert hash_bundle(bundle) == digest

    def test_out_of_range_query_warns_but_succeeds(self, tmp_path, capsys):
        config = make_config(tmp_path)
        main(["offline", "--config", str(config)])
        bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
        capsys.readouterr()
        assert main(["online", "--bundle", str(bundle), "--mu1", "40.0,1.0"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["warnings"]

    def test_sweep_csv(self, tmp_path):
        config = make_config(tmp_path, grid=True)
        assert main(["sweep", "--config", str(config)]) == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "eps_master",
            "eps_interface",
            "eps_slave",
            "mean_error",
            "mean_bound",
            "online_s",
            "bound_valid_fraction",
            "median_effectivity",
            "n1",
            "n2",
            "m",
        ]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 8
        # every grid point is certified
        assert all(float(row["bound_valid_fraction"]) == 1.0 for row in rows)
        # floats round-trip through the 17-digit format
        for row in rows:
            for key in header:
                assert fmt_float(float(row[key])) == row[key]
        # componentwise-tighter tolerances never make the error much worse
        parsed = [
            (
                float(r["eps_master"]),
                float(r["eps_interface"]),
                float(r["eps_slave"]),
                float(r["mean_error"]),
            )
            for r in rows
        ]
        for a in parsed:
            for b in parsed:
                if a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]:
                    assert a[3] <= 2.0 * b[3]

    def test_sweep_single_point(self, tmp_path):
        config = make_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_fom_verb(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert main(["fom", "--config", str(config), "--mu1", "1.0,1.0"]) == 0
        assert (tmp_path / "out" / "fom_slave.rombin").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"problem\": {}}")
        assert main(["offline", "--config", str(bad)]) == 2
        assert main(["offline", "--config", str(tmp_path / "missing.json")]) == 2

    def test_invalid_tolerance_exit_code(self, tmp_path):
        config = json.loads(make_config(tmp_path).read_text())
        config["training"]["tolerances"]["master"] = 2.0
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps(config))
        assert main(["offline", "--config", str(path)]) == 2

    def test_numeric_error_exit_code(self, tmp_path):
        config = json.loads(make_config(tmp_path).read_text())
        config["problem"]["master"]["forcing"] = []
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        assert main(["offline", "--config", str(path)]) == 3

    def test_console_entry_point(self, tmp_path):
        config = make_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "coupledrom.cli", "offline", "--config", str(config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sha256" in proc.stdout

    def test_unsteady_roundtrip(self, tmp_path, capsys):
        config = make_config(tmp_path, unsteady=True)
        assert main(["offline", "--config", str(config)]) == 0
        bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
        capsys.readouterr()
        assert main(
            ["online", "--bundle", str(bundle), "--mu1", "2.0", "--compare-fom"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["bound_valid"] is True
        solution = read_matrix(bundle / "online" / payload["solution_file"])
        assert solution.shape[1] == 11  # states as columns, n_steps + 1


@pytest.mark.parametrize("mu1", ["0.7,1", ""], ids=["too-many", "too-few"])
def test_online_wrong_parameter_count_exit_code(tmp_path, capsys, mu1):
    config = make_config(tmp_path, unsteady=True, n_train=2)
    assert main(["offline", "--config", str(config)]) == 0
    bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
    assert main(["online", "--bundle", str(bundle), "--mu1", mu1]) == 2
    assert "parameter value(s)" in capsys.readouterr().err


@pytest.mark.parametrize("side, face", [("master", "x-"), ("slave", "x+")])
def test_offline_refuses_nonzero_dirichlet_data(tmp_path, capsys, side, face):
    config = json.loads(make_config(tmp_path).read_text())
    config["problem"][side]["dirichlet"] = {face: 1.0}
    path = tmp_path / "dirichlet.json"
    path.write_text(json.dumps(config))
    assert main(["offline", "--config", str(path)]) == 2
    assert f"{side}.dirichlet" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("bundle_*"))


@pytest.mark.parametrize("unsteady", [False, True], ids=["steady", "unsteady"])
def test_compare_fom_reports_the_largest_bound_and_its_terms(tmp_path, capsys, unsteady):
    config = make_config(tmp_path, unsteady=unsteady)
    assert main(["offline", "--config", str(config)]) == 0
    bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
    mu1 = "2.0" if unsteady else "1.5,2.0"
    capsys.readouterr()
    assert main(["online", "--bundle", str(bundle), "--mu1", mu1, "--compare-fom"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert "bound_max" not in payload
    terms = payload["bound_terms"]
    assert set(terms) == {"master", "interface", "slave"}
    assert payload["bound"] == terms["master"] + terms["interface"] + terms["slave"]
    assert payload["bound_valid"] is True


def test_compare_fom_makes_one_full_order_solve(tmp_path, capsys, monkeypatch):
    import coupledrom.cli as cli
    import coupledrom.experiments as experiments

    config = make_config(tmp_path)
    assert main(["offline", "--config", str(config)]) == 0
    bundle = sorted((tmp_path / "out").glob("bundle_*"))[0]
    calls = []
    original = pipeline.fom_coupled_solve

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    for module in (pipeline, experiments, cli):
        monkeypatch.setattr(module, "fom_coupled_solve", counting)
    capsys.readouterr()
    assert main(["online", "--bundle", str(bundle), "--mu1", "1.5,2.0", "--compare-fom"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["fom_s"] > 0.0
    assert payload["speedup"] == payload["fom_s"] / payload["online_s"]


def test_config_validation_field_paths():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"problem": {"master": {}, "slave": {}}})
    assert "master" in str(err.value)


def test_empty_test_sample_is_config_error_before_any_solve(tmp_path, monkeypatch):
    config = json.loads(make_config(tmp_path, n_test=0).read_text())
    with pytest.raises(ConfigError) as err:
        config_from_dict(config)
    assert err.value.field == "testing.n_test"

    def no_solve(*args, **kwargs):
        raise AssertionError("a full-order solve ran before validation")

    monkeypatch.setattr(pipeline.FomSubmodel, "solve", no_solve)
    assert main(["sweep", "--config", str(make_config(tmp_path, n_test=0))]) == 2


def _set(*path_and_value):
    """A config edit that sets the value at the key path."""
    *path, key, value = path_and_value

    def edit(config):
        for part in path:
            config = config[part]
        config[key] = value

    return edit


#: argv, config edit, environment, and the field path the message names
BAD_CLI_INPUTS = {
    "n_train-text": (["sweep"], _set("training", "n_train", "abc"), {}, "training.n_train"),
    "tolerance-text": (
        ["sweep"], _set("training", "tolerances", "master", "x"), {},
        "training.tolerances.master",
    ),
    "short-range": (
        ["sweep"], _set("problem", "master", "parameters", "ranges", 0, [1.0]), {},
        "master.parameters.ranges",
    ),
    "scalar-subdivisions": (
        ["sweep"], _set("problem", "master", "mesh", "subdivisions", 8), {},
        "master.mesh.subdivisions",
    ),
    "null-n_test": (["sweep"], _set("testing", "n_test", None), {}, "testing.n_test"),
    "list-training": (["sweep"], _set("training", [1]), {}, "training"),
    "rom-threads-text": (["sweep"], None, {"ROM_THREADS": "two"}, None),
    "nan-parameter": (["fom", "--mu1", "nan,1.0"], None, {}, None),
    "inf-parameter": (["fom", "--mu1", "inf,1.0"], None, {}, None),
}


@pytest.mark.parametrize(
    "argv, edit, env, field", BAD_CLI_INPUTS.values(), ids=list(BAD_CLI_INPUTS)
)
def test_bad_input_is_config_error_before_any_solve(
    tmp_path, monkeypatch, capsys, argv, edit, env, field
):
    config = json.loads(make_config(tmp_path).read_text())
    if edit is not None:
        edit(config)
    path = tmp_path / "bad_input.json"
    path.write_text(json.dumps(config))
    for name, value in env.items():
        monkeypatch.setenv(name, value)

    def no_solve(*args, **kwargs):
        raise AssertionError("a full-order solve ran before validation")

    monkeypatch.setattr(pipeline.FomSubmodel, "solve", no_solve)
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if field is not None:
        assert f"configuration error: {field}: " in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set("problem", "time", {"dt": "soon", "n_steps": 50}), "time.dt"),
        (_set("problem", "time", {"dt": 0.01, "n_steps": [50]}), "time.n_steps"),
        (_set("problem", "master", "parameters", "ranges", 0, [1.0, 2.0, 3.0]),
         "master.parameters.ranges"),
        (_set("training", "seed", "eleven"), "training.seed"),
    ],
    ids=["time-dt-text", "time-n_steps-list", "long-range", "seed-text"],
)
def test_wrongly_typed_value_is_config_error_with_its_field(tmp_path, edit, field):
    config = json.loads(make_config(tmp_path).read_text())
    edit(config)
    with pytest.raises(ConfigError) as err:
        config_from_dict(config)
    assert err.value.field == field


@pytest.mark.parametrize(
    "path, field",
    [
        (("training",), "training"),
        (("testing",), "testing"),
        (("outputs",), "outputs"),
        (("problem", "time"), "time"),
        (("problem", "master"), "master"),
        (("problem", "master", "parameters"), "master.parameters"),
        (("problem", "master", "mesh"), "master.mesh"),
        (("problem", "master", "dirichlet"), "master.dirichlet"),
        (("problem", "master", "operator", 0), "master.operator[0]"),
        (("problem", "master", "forcing", 0), "master.forcing[0]"),
        (("problem", "slave", "mesh"), "slave.mesh"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_section_that_is_not_a_mapping_is_config_error_with_its_field(tmp_path, path, field):
    config = json.loads(make_config(tmp_path, unsteady=True).read_text())
    _set(*path, [1])(config)
    with pytest.raises(ConfigError) as err:
        config_from_dict(config)
    assert err.value.field == field


def test_pairing_other_than_paired_is_config_error(tmp_path):
    config = json.loads(make_config(tmp_path).read_text())
    config["training"]["pairing"] = "paired"
    assert config_from_dict(config).n_train == 6
    config["training"]["pairing"] = "tensor"
    with pytest.raises(ConfigError) as err:
        config_from_dict(config)
    assert err.value.field == "training.pairing"


def test_unwritable_output_directory_is_config_error(tmp_path):
    config = json.loads(make_config(tmp_path).read_text())
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    config["outputs"]["directory"] = str(blocker / "nested")
    path = tmp_path / "bad_out.json"
    path.write_text(json.dumps(config))
    assert main(["offline", "--config", str(path)]) == 2


def test_offline_tolerance_grid_emits_bundle_per_triple(tmp_path, capsys):
    config = make_config(tmp_path, grid=True)
    assert main(["offline", "--config", str(config)]) == 0
    bundles = sorted((tmp_path / "out").glob("bundle_*"))
    assert len(bundles) == 8  # 2x2x2 grid
    for b in bundles:
        assert (b / "manifest.json").exists()


def test_rom_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ROM_THREADS", "2")
    config = make_config(tmp_path)
    assert main(["offline", "--config", str(config)]) == 0
    assert sorted((tmp_path / "out").glob("bundle_*"))


@pytest.mark.parametrize("verb, required", [("online", "--bundle"), ("fom", "--config")])
def test_threads_flag_rejected_where_unused(verb, required, capsys):
    with pytest.raises(SystemExit) as info:
        main([verb, required, "x", "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_threads_flag_kept_on_parallel_verbs():
    parser = build_parser()
    for verb in ("offline", "sweep"):
        assert parser.parse_args([verb, "--config", "x", "--threads", "2"]).threads == 2


def test_partial_write_cleanup_on_failure(tmp_path, artifacts, monkeypatch):
    import coupledrom.storage as storage

    calls = {"n": 0}
    original = storage.write_matrix

    def failing(path, array):
        calls["n"] += 1
        if calls["n"] > 3:
            raise OSError("disk full")
        return original(path, array)

    monkeypatch.setattr(storage, "write_matrix", failing)
    target = tmp_path / "bundle"
    with pytest.raises(OSError):
        write_bundle(target, artifacts)
    assert not target.exists()  # files written before the failure were removed
