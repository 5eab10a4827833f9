import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom import pipeline
from coupledrom.cli import main
from coupledrom.errors import ConfigError
from coupledrom.experiments import config_from_dict, run_offline
from coupledrom.library import heat_laplace_pair, steady_pair_2d, transport_wall_pair
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


@pytest.fixture(scope="module")
def transport_artifacts():
    """A pair whose slave marches, so its bundle holds the slave's mass lift."""
    spec = transport_wall_pair(
        channel_subdivisions=(6, 4, 4), wall_subdivisions=(3, 2, 2), n_steps=15
    )
    return cr.build_artifacts(cr.run_training(spec, 4, seed=3), (1e-4, 1e-4, 1e-4))


@pytest.fixture(scope="module")
def heat_artifacts():
    """A pair whose master marches and whose slave is steady."""
    spec = heat_laplace_pair(
        master_subdivisions=(3, 3, 3), slave_subdivisions=(2, 2, 2), n_steps=4
    )
    return cr.build_artifacts(cr.run_training(spec, 3, seed=2), (1e-4, 1e-4, 1e-4))


ONLINE_FIELDS = ("master_reduced", "slave_reduced", "trace", "slave_solution")


def assert_same_answers(a, b):
    for name in ONLINE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def edit_manifest(bundle, edit):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestBundle:
    def test_write_load_round_trip(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", dataclasses.replace(artifacts, timings={"offline_s": 1.0}))
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
        for name, seconds in (("b1", 1.0), ("b2", 99.0)):
            timed = dataclasses.replace(artifacts, timings={"offline_s": seconds})
            write_bundle(tmp_path / name, timed)
        assert json.loads((tmp_path / "b2" / "timings.json").read_text()) == {"offline_s": 99.0}
        assert hash_bundle(tmp_path / "b1") == hash_bundle(tmp_path / "b2")

    def test_double_offline_bit_identical(self, tmp_path):
        spec = steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(2, 2))
        for name in ("r1", "r2"):
            art = cr.build_artifacts(cr.run_training(spec, 5, seed=21), (1e-3, 1e-3, 1e-3))
            write_bundle(tmp_path / name, art)
        assert hash_bundle(tmp_path / "r1") == hash_bundle(tmp_path / "r2")

    def test_round_trip_answers_bit_identically(self, tmp_path, heat_artifacts):
        art = heat_artifacts
        write_bundle(tmp_path / "b", art)
        loaded = load_bundle(tmp_path / "b")
        assert np.array_equal(loaded.reducer.full_transfer, art.reducer.full_transfer)
        assert loaded.reducer.transfer_norm == art.reducer.transfer_norm
        assert len(loaded.reducer.lift_products) == len(art.reducer.lift_products)
        for again, product in zip(loaded.reducer.lift_products, art.reducer.lift_products):
            assert np.array_equal(again, product)
        a = cr.online_unsteady(art, [0.8], [])
        b = cr.online_unsteady(loaded, [0.8], [])
        assert np.array_equal(a.slave_solution, b.slave_solution)

    def test_transport_round_trip_answers_bit_identically(self, tmp_path, transport_artifacts):
        art = transport_artifacts
        write_bundle(tmp_path / "b", art)
        loaded = load_bundle(tmp_path / "b")
        assert len(loaded.reducer.lift_products) == len(art.spec.slave.operator)
        for again, product in zip(loaded.reducer.lift_products, art.reducer.lift_products):
            assert np.array_equal(again, product)
        assert np.array_equal(loaded.reducer.lift_mass, art.reducer.lift_mass)
        for zeta in (0.1, 0.55, 1.0):
            assert_same_answers(cr.online_unsteady(art, [zeta], []),
                                cr.online_unsteady(loaded, [zeta], []))

    def test_manifest_holds_only_what_loading_reads(self, tmp_path, transport_artifacts):
        # the spec in "problem" owns the term counts, weights and kinds
        write_bundle(tmp_path / "b", transport_artifacts)
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert set(manifest) == {
            "format", "version", "problem", "tolerances", "reducer", "provenance", "files",
        }
        assert set(manifest["reducer"]) == {"indices", "transfer_norm"}

    def test_stores_no_point_transfer_or_master_positions(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", artifacts)
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["version"] == 6
        assert not {"master_positions", "master_indices", "max_magic_distance"} & set(
            manifest["reducer"]
        )
        assert not (tmp_path / "b" / "point_transfer.rombin").exists()

    def test_other_manifest_versions_rejected(self, tmp_path, artifacts):
        write_bundle(tmp_path / "b", artifacts)
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        for version in (1, 2, 3, 4, 5, None):
            manifest["version"] = version
            path.write_text(json.dumps(manifest))
            with pytest.raises(ConfigError, match="bundle version.*rebuild it with offline"):
                load_bundle(tmp_path / "b")

    def test_every_stored_matrix_is_loaded(
        self, tmp_path, artifacts, heat_artifacts, monkeypatch
    ):
        import coupledrom.storage as storage

        unsteady = heat_artifacts
        read = []
        original = storage.read_matrix

        def recording(path, *args):
            read.append(Path(path).name)
            return original(path, *args)

        monkeypatch.setattr(storage, "read_matrix", recording)
        for name, art in (("steady", artifacts), ("unsteady", unsteady)):
            write_bundle(tmp_path / name, art)
            stored = {p.name for p in (tmp_path / name).glob("*.rombin")}
            assert not {f for f in stored if f.endswith("_sv.rombin")}
            read.clear()
            load_bundle(tmp_path / name)
            assert sorted(read) == sorted(stored)  # each file once

    def test_only_a_marching_side_stores_its_initial_state(self, tmp_path, heat_artifacts):
        # the heat pair's master marches and its slave is steady
        write_bundle(tmp_path / "b", heat_artifacts)
        listed = json.loads((tmp_path / "b" / "manifest.json").read_text())["files"]
        loaded = load_bundle(tmp_path / "b")
        assert "master_u0.rombin" in listed and "slave_u0.rombin" not in listed
        assert np.array_equal(loaded.master.u0_reduced, heat_artifacts.master.u0_reduced)
        assert heat_artifacts.slave.u0_reduced is None and loaded.slave.u0_reduced is None

    def test_rewrite_removes_matrix_files_the_manifest_does_not_list(self, tmp_path, artifacts):
        fresh = write_bundle(tmp_path / "fresh", artifacts)
        write_bundle(tmp_path / "b", artifacts)
        stale = tmp_path / "b" / "master_sv.rombin"  # as format 3 stored it
        write_matrix(stale, np.ones((3, 1)))
        assert write_bundle(tmp_path / "b", artifacts) == fresh
        assert not stale.exists()
        assert hash_bundle(tmp_path / "b") == fresh

    def test_write_hashes_the_bytes_it_wrote(self, tmp_path, artifacts, monkeypatch):
        # no matrix file is read back, for its sha256 or for the bundle hash
        real, read = Path.read_bytes, []

        def recording(path):
            read.append(path.name)
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", recording)
        digest = write_bundle(tmp_path / "b", artifacts)
        assert not [name for name in read if name.endswith(".rombin")]
        monkeypatch.undo()
        assert digest == hash_bundle(tmp_path / "b")

    @pytest.mark.parametrize("planted", ["junk", "valid-matrix"])
    def test_unlisted_mass_file_is_not_read(self, tmp_path, artifacts, planted):
        # a steady bundle lists no mass; a stray file in its place is neither
        # parsed nor trusted without a hash
        write_bundle(tmp_path / "b", artifacts)
        for side in ("master", "slave"):
            stray = tmp_path / "b" / f"{side}_mass.rombin"
            if planted == "junk":
                stray.write_bytes(b"junk")
            else:
                write_matrix(stray, np.eye(artifacts.master.n))
        loaded = load_bundle(tmp_path / "b")
        assert loaded.master.mass is None and loaded.slave.mass is None
        a = cr.online_steady(artifacts, [1.0, 1.0], [])
        b = cr.online_steady(loaded, [1.0, 1.0], [])
        assert np.array_equal(a.slave_solution, b.slave_solution)

    def test_rewrite_without_timings_removes_the_stale_timings(self, tmp_path, artifacts):
        spec = steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(2, 2))
        write_bundle(tmp_path / "b", dataclasses.replace(artifacts, timings={"offline_s": 1.0}))
        assert (tmp_path / "b" / "timings.json").exists()
        write_bundle(tmp_path / "b", cr.full_rank_artifacts(spec))
        assert not (tmp_path / "b" / "timings.json").exists()
        assert load_bundle(tmp_path / "b").provenance == {"full_rank": True}

    def test_matrix_missing_from_files_is_refused(self, tmp_path, artifacts):
        # a structural matrix the manifest does not list is not read unhashed
        write_bundle(tmp_path / "b", artifacts)
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        name = next(n for n in sorted(manifest["files"]) if n.startswith("lift_"))
        del manifest["files"][name]
        path.write_text(json.dumps(manifest))
        target = tmp_path / "b" / name
        write_matrix(target, 2 * read_matrix(target))
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize(
        "name", ["master_mass", "master_u0", "lift_mass", "slave_op_1", "lift_op_1"]
    )
    def test_listed_matrix_the_problem_does_not_need_is_refused(self, tmp_path, artifacts, name):
        # the steady pair marches on neither side and its slave has one
        # operator term
        write_bundle(tmp_path / "b", artifacts)
        target = tmp_path / "b" / f"{name}.rombin"
        data = write_matrix(target, np.eye(artifacts.slave.n))
        edit_manifest(
            tmp_path / "b",
            lambda m: m["files"].update({target.name: hashlib.sha256(data).hexdigest()}),
        )
        with pytest.raises(ConfigError, match=re.escape(target.name)):
            load_bundle(tmp_path / "b")

    def test_marching_slave_without_its_mass_lift_is_refused(self, tmp_path, transport_artifacts):
        write_bundle(tmp_path / "b", transport_artifacts)
        edit_manifest(tmp_path / "b", lambda m: m["files"].pop("lift_mass.rombin"))
        (tmp_path / "b" / "lift_mass.rombin").unlink()
        with pytest.raises(ConfigError, match=re.escape("lift_mass.rombin")):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("name", ["../outside.txt", "../outside.rombin", "timings.json"])
    def test_listed_name_outside_the_matrix_files_is_refused(self, tmp_path, artifacts, name):
        write_bundle(tmp_path / "b", dataclasses.replace(artifacts, timings={"offline_s": 1.0}))
        target = tmp_path / "b" / name
        if not target.exists():
            write_matrix(target, np.ones((2, 2)))
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["files"][name] = hashlib.sha256(target.read_bytes()).hexdigest()
        path.write_text(json.dumps(manifest))
        for call in (load_bundle, hash_bundle):
            with pytest.raises(ConfigError, match=re.escape(repr(name))):
                call(tmp_path / "b")

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


#: manifest edits, and the key that the error must name
MALFORMED_MANIFESTS = {
    "no-reducer": (lambda m: m.pop("reducer"), "'reducer'"),
    "no-files": (lambda m: m.pop("files"), "'files'"),
    "no-problem": (lambda m: m.pop("problem"), "'problem'"),
    "no-tolerances": (lambda m: m.pop("tolerances"), "'tolerances'"),
    "no-provenance": (lambda m: m.pop("provenance"), "'provenance'"),
    "files-list": (lambda m: m.update(files=sorted(m["files"])), "manifest.files"),
    "reducer-list": (lambda m: m.update(reducer=[1]), "manifest.reducer"),
    "no-transfer-norm": (lambda m: m["reducer"].pop("transfer_norm"), "'transfer_norm'"),
    "null-indices": (lambda m: m["reducer"].update(indices=None), "reducer.indices"),
    "text-tolerance": (lambda m: m["tolerances"].update(slave="tight"), "tolerances.slave"),
    # the reducer's indices: distinct integers in [0, rows of phi), one per
    # column; its transfer norm: finite and positive
    "index-past-phi": (lambda m: m["reducer"]["indices"].__setitem__(0, 10**6),
                       "reducer.indices"),
    "negative-index": (lambda m: m["reducer"]["indices"].__setitem__(0, -1), "reducer.indices"),
    "too-few-indices": (lambda m: m["reducer"]["indices"].pop(), "reducer.indices"),
    "repeated-index": (lambda m: m["reducer"].update(indices=[m["reducer"]["indices"][0]] * 2),
                       "reducer.indices"),
    "fractional-indices": (lambda m: m["reducer"].update(indices=[0.5, 0.5]), "reducer.indices"),
    "negative-transfer-norm": (lambda m: m["reducer"].update(transfer_norm=-1.0),
                               "reducer.transfer_norm"),
    "nan-transfer-norm": (lambda m: m["reducer"].update(transfer_norm=float("nan")),
                          "reducer.transfer_norm"),
}


@pytest.mark.parametrize(
    "edit, key", MALFORMED_MANIFESTS.values(), ids=list(MALFORMED_MANIFESTS)
)
def test_malformed_manifest_is_config_error_naming_the_key(
    tmp_path, artifacts, capsys, edit, key
):
    bundle = tmp_path / "b"
    write_bundle(bundle, artifacts)
    edit_manifest(bundle, edit)
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_bundle(bundle)
    assert main(["online", "--bundle", str(bundle), "--mu1", "1.0,1.0"]) == 2
    assert "configuration error" in capsys.readouterr().err


#: a matrix file rewritten with a row or a column too few or too many, its
#: sha256 updated; unchecked, the first two load and answer wrongly
#: (``affine_sum`` broadcasts them), the slave basis gives a slave field
#: short of its mesh and the transfer raises a raw ValueError
MISSHAPEN_MATRICES = {
    "master_op_0-column": ("master_op_0", lambda a: a[:, :-1]),
    "master_load_0-row": ("master_load_0", lambda a: a[:-1]),
    "slave_basis-row": ("slave_basis", lambda a: a[:-1]),
    "full_transfer-row": ("full_transfer", lambda a: a[:-1]),
    "master_u0-row": ("master_u0", lambda a: np.vstack([a, a[:1]])),
    "lift_op_0-column": ("lift_op_0", lambda a: a[:, :-1]),
    "phi-row": ("phi", lambda a: a[:-1]),
    "slave_op_0-row": ("slave_op_0", lambda a: a[:-1]),
}


@pytest.mark.parametrize(
    "name, cut", MISSHAPEN_MATRICES.values(), ids=list(MISSHAPEN_MATRICES)
)
def test_misshapen_matrix_is_config_error_naming_its_file(
    tmp_path, artifacts, transport_artifacts, capsys, name, cut
):
    # only a marching side stores an initial state
    bundle = tmp_path / "b"
    write_bundle(bundle, transport_artifacts if name == "master_u0" else artifacts)
    target = bundle / f"{name}.rombin"
    data = write_matrix(target, cut(read_matrix(target)))
    edit_manifest(
        bundle, lambda m: m["files"].update({target.name: hashlib.sha256(data).hexdigest()})
    )
    with pytest.raises(ConfigError, match=re.escape(target.name)):
        load_bundle(bundle)
    assert main(["online", "--bundle", str(bundle), "--mu1", "1.0,1.0"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_manifest_that_is_not_a_mapping_is_config_error(tmp_path, artifacts, capsys):
    # not a mapping, not JSON, not UTF-8, and not a file
    write_bundle(tmp_path / "b", artifacts)
    manifest = tmp_path / "b" / "manifest.json"
    for data in (b"[1, 2]", b"{not json", b'{"version": "\xff"}', None):
        manifest.unlink()
        if data is None:
            manifest.mkdir()
        else:
            manifest.write_bytes(data)
        for call in (load_bundle, hash_bundle):
            with pytest.raises(ConfigError, match="manifest.json"):
                call(tmp_path / "b")
        assert main(["online", "--bundle", str(tmp_path / "b"), "--mu1", "1.0,1.0"]) == 2
        assert str(manifest) in capsys.readouterr().err


def scipy_functions_entered(call) -> set[str]:
    """The functions under scipy's package directory whose Python frames
    ``call()`` enters."""
    import scipy

    root = str(Path(scipy.__file__).parent) + "/"
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.add(f"{frame.f_code.co_filename[len(root):]}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


@pytest.mark.parametrize("fixture", ["artifacts", "transport_artifacts"])
def test_loading_and_querying_a_bundle_run_no_scipy_code(tmp_path, request, fixture):
    """A bundle holds dense arrays only: loading it and an online query
    need numpy alone."""
    write_bundle(tmp_path / "b", request.getfixturevalue(fixture))

    def load_and_query():
        loaded = load_bundle(tmp_path / "b")
        mu1, mu2 = (
            [np.mean(r) for r in side.parameters.ranges]
            for side in (loaded.spec.master, loaded.spec.slave)
        )
        cr.online_solve(loaded, mu1, mu2)

    assert scipy_functions_entered(load_and_query) == set()


#: the benchmark's bundle round trip, on its heat configs and the non-nested one
ROOT = Path(__file__).resolve().parents[1]
ROUND_TRIP_CONFIGS = [
    ROOT / "perfbench" / "configs" / "heat-unsteady.json",
    ROOT / "perfbench" / "configs" / "heat-fine.json",
    ROOT / "configs" / "heat_laplace_nonnested.json",
]


@pytest.mark.parametrize("config_path", ROUND_TRIP_CONFIGS, ids=lambda p: p.stem)
def test_tightest_bundle_answers_like_the_artifacts_in_memory(tmp_path, config_path):
    config = config_from_dict(json.loads(config_path.read_text()))
    config = dataclasses.replace(config, output_dir=str(tmp_path))
    _, results = run_offline(config)
    tight = tuple(min(t[i] for t in config.grid()) for i in range(3))
    bundle_dir, art = next((d, a) for triple, d, _, a in results if triple == tight)
    loaded = load_bundle(bundle_dir)
    rng = np.random.default_rng(0)
    for _ in range(3):
        mu1, mu2 = (
            [rng.uniform(lo, hi) for lo, hi in sub.parameters.ranges]
            for sub in (config.problem.master, config.problem.slave)
        )
        assert_same_answers(
            pipeline.online_solve(art, mu1, mu2), pipeline.online_solve(loaded, mu1, mu2)
        )


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

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"problem\": {}}")
        assert main(["offline", "--config", str(bad)]) == 2
        # missing, a directory, not UTF-8: each names its path
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"problem": "\xe9"}')
        for path in (tmp_path / "missing.json", tmp_path, latin):
            assert main(["offline", "--config", str(path)]) == 2
            assert f"configuration error: {path}" in capsys.readouterr().err

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


def _set(path, value):
    """An edit of a config's problem section that sets ``path`` to ``value``."""
    def edit(problem):
        *keys, last = path
        node = problem
        for key in keys:
            node = node[key]
        node[last] = value
    return edit


#: config, edit, the field its configuration error names
MALFORMED_EXPRESSIONS = {
    "list-weight": ("steady_pair", _set(("master", "operator", 0, "theta"), [1.0]),
                    "master.operator[0].theta"),
    "list-coefficient": ("steady_pair",
                         _set(("master", "operator", 0, "coefficient"), [1.0, 2.0]),
                         "master.operator[0].coefficient"),
    "list-profile": ("steady_pair", _set(("master", "forcing", 0, "profile"), [1.0]),
                     "master.forcing[0].profile"),
    "velocity-components": (
        "heat_laplace",
        lambda problem: problem["master"]["operator"].append(
            {"kind": "advection", "theta": 1.0, "coefficient": ["1.0", "0.0"]}
        ),
        "master.operator[1].coefficient",
    ),
    "unknown-name-in-coefficient": (
        "steady_pair", _set(("slave", "operator", 0, "coefficient"), "1 + w"),
        "slave.operator[0].coefficient",
    ),
    "unknown-name-in-initial": ("heat_laplace", _set(("master", "initial"), "sin(w)"),
                                "master.initial"),
    "time-in-operator-weight": ("heat_laplace",
                                _set(("master", "operator", 0, "theta"), "alpha*(1+100*t)"),
                                "master.operator[0].theta"),
    "unknown-operator-kind": ("steady_pair", _set(("master", "operator", 0, "kind"), "banana"),
                              "master.operator[0].kind"),
}


@pytest.mark.parametrize("case", list(MALFORMED_EXPRESSIONS))
def test_malformed_expression_is_config_error_naming_its_field(tmp_path, capsys, case):
    name, edit, field = MALFORMED_EXPRESSIONS[case]
    config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    edit(config["problem"])
    config["outputs"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["offline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{field}:" in err
    assert not (tmp_path / "out").exists()


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


#: argv, config edit, and the field path the message names
BAD_CLI_INPUTS = {
    "n_train-text": (["sweep"], _set("training", "n_train", "abc"), "training.n_train"),
    "tolerance-text": (
        ["sweep"], _set("training", "tolerances", "master", "x"),
        "training.tolerances.master",
    ),
    "short-range": (
        ["sweep"], _set("problem", "master", "parameters", "ranges", 0, [1.0]),
        "master.parameters.ranges",
    ),
    "scalar-subdivisions": (
        ["sweep"], _set("problem", "master", "mesh", "subdivisions", 8),
        "master.mesh.subdivisions",
    ),
    "null-n_test": (["sweep"], _set("testing", "n_test", None), "testing.n_test"),
    "list-training": (["sweep"], _set("training", [1]), "training"),
    "nan-parameter": (["fom", "--mu1", "nan,1.0"], None, None),
    "inf-parameter": (["fom", "--mu1", "inf,1.0"], None, None),
    "nan-dt": (["sweep"], _set("problem", "time", {"dt": math.nan, "n_steps": 5}), "time.dt"),
    "inf-dt": (["sweep"], _set("problem", "time", {"dt": math.inf, "n_steps": 5}), "time.dt"),
    "inf-range": (
        ["sweep"], _set("problem", "master", "parameters", "ranges", 0, [0.5, math.inf]),
        "master.parameters.ranges",
    ),
    "reversed-range": (
        ["sweep"], _set("problem", "master", "parameters", "ranges", 0, [5.0, 0.5]),
        "master.parameters.ranges",
    ),
    "nan-extent": (
        ["sweep"], _set("problem", "slave", "mesh", "extent", [math.nan, 1.0]),
        "slave.mesh.extent",
    ),
    "inf-origin": (
        ["sweep"], _set("problem", "slave", "mesh", "origin", [math.inf, 0.0]),
        "slave.mesh.origin",
    ),
    "nan-coefficient": (
        ["sweep"], _set("problem", "master", "operator", 1, "coefficient", math.nan),
        "master.operator[1].coefficient",
    ),
}


@pytest.mark.parametrize(
    "argv, edit, field", BAD_CLI_INPUTS.values(), ids=list(BAD_CLI_INPUTS)
)
def test_bad_input_is_config_error_before_any_solve(
    tmp_path, monkeypatch, capsys, argv, edit, field
):
    config = json.loads(make_config(tmp_path).read_text())
    if edit is not None:
        edit(config)
    path = tmp_path / "bad_input.json"
    path.write_text(json.dumps(config))

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
        (_set("training", "n_train", 20.7), "training.n_train"),
        (_set("training", "seed", 1.9), "training.seed"),
        (_set("training", "seed", True), "training.seed"),
        (_set("testing", "n_test", 5.5), "testing.n_test"),
        (_set("testing", "n_test", "5"), "testing.n_test"),
        (_set("problem", "master", "mesh", "subdivisions", [8.9, 8]),
         "master.mesh.subdivisions"),
        (_set("problem", "master", "mesh", "order", 1.5), "master.mesh.order"),
        (_set("problem", "time", {"dt": 0.01, "n_steps": 50.5}), "time.n_steps"),
        (_set("problem", "slave", "unsteady", "false"), "slave.unsteady"),
        (_set("problem", "master", "unsteady", 0), "master.unsteady"),
    ],
    ids=["time-dt-text", "time-n_steps-list", "long-range", "seed-text", "n_train-float",
         "seed-float", "seed-bool", "n_test-float", "n_test-text", "subdivisions-float",
         "order-float", "n_steps-float", "unsteady-text", "unsteady-number"],
)
def test_wrongly_typed_value_is_config_error_with_its_field(tmp_path, edit, field):
    config = json.loads(make_config(tmp_path).read_text())
    edit(config)
    with pytest.raises(ConfigError) as err:
        config_from_dict(config)
    assert err.value.field == field


@pytest.mark.parametrize("build, field", [
    (lambda: steady_pair_2d((4.0, 4), (2, 2)), "master.mesh.subdivisions"),
    (lambda: heat_laplace_pair((2, 2, 2), (2, 2, 2), n_steps=10.0), "time.n_steps"),
], ids=["float-subdivisions", "float-n_steps"])
def test_spec_built_in_python_takes_the_config_types(build, field):
    # such a spec would write a bundle whose manifest no load accepts
    with pytest.raises(ConfigError) as err:
        cr.build_fom(build())
    assert err.value.field == field


#: parameter names that expressions would misread: each is refused
BAD_PARAMETER_NAMES = {
    "constant": ["pi", "beta"],
    "time": ["t", "beta"],
    "function": ["exp", "beta"],
    "repeated": ["alpha", "alpha"],
}


@pytest.mark.parametrize("names", BAD_PARAMETER_NAMES.values(), ids=list(BAD_PARAMETER_NAMES))
def test_reserved_or_repeated_parameter_name_is_config_error(tmp_path, names):
    config = json.loads(make_config(tmp_path).read_text())
    assert config["problem"]["master"]["parameters"]["names"] == ["alpha", "beta"]
    config["problem"]["master"]["parameters"]["names"] = names
    with pytest.raises(ConfigError) as err:
        config_from_dict(config)
    assert err.value.field == "master.parameters.names"


def test_reserved_parameter_name_exits_2_from_offline(tmp_path, capsys):
    config = json.loads(make_config(tmp_path).read_text())
    config["problem"]["master"]["parameters"]["names"] = ["exp", "beta"]
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps(config))
    assert main(["offline", "--config", str(path)]) == 2
    assert "configuration error: master.parameters.names: " in capsys.readouterr().err


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


@pytest.mark.parametrize("verb, required", [
    ("online", "--bundle"), ("fom", "--config"), ("offline", "--config"), ("sweep", "--config"),
])
def test_threads_flag_rejected_where_unused(verb, required, capsys):
    with pytest.raises(SystemExit) as info:
        main([verb, required, "x", "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


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
