"""Artifact persistence: binary matrices, bundle directories, hashing.

Matrix files carry a 4-byte magic ``ROMB``, a version, the row/column counts
and a column-major float64 little-endian payload; round trips are
bit-identical.  A bundle is its deterministic manifest and the matrix files
it lists with their sha256, which loading checks, as it checks the format
version; the bundle hash covers exactly these files, so the wall-clock
timings file and subdirectories stay outside it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .interface import InterfaceReducer, make_deim_basis
from .mesh import extract_interface
from .problems import problem_from_dict, problem_to_dict

MAGIC = b"ROMB"
#: matrix file header version
VERSION = 1
#: manifest version; 2 dropped the reducer's unused point transfer and
#: master trace positions, 3 its nearest master DoFs of the magic points
#: (the reduced trace reads the full-order transfer's rows instead), 4 the
#: POD singular values and the provenance's copy of the tolerances, which
#: nothing loaded read
BUNDLE_VERSION = 4
_HEADER = struct.Struct("<4sIQQ")

def write_matrix(path, array: np.ndarray) -> None:
    array = np.atleast_2d(np.asarray(array, dtype="<f8"))
    if array.ndim != 2:
        raise ConfigError("matrix files store 2-D arrays")
    payload = np.asfortranarray(array).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, array.shape[0], array.shape[1]))
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError(f"{path}: truncated matrix header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = 8 * rows * cols
    if len(payload) != expected:
        raise ConfigError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape((rows, cols), order="F").copy()


def fmt_float(value: float) -> str:
    """17-significant-digit decimal, round-trips to the same float64."""
    return format(float(value), ".17g")


def dump_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def hash_bundle(path) -> str:
    """SHA-256 over ``manifest.json`` and the files it lists, each name then
    its bytes, sorted by name."""
    path = Path(path)
    names = ["manifest.json", *load_json(path / "manifest.json")["files"]]
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode())
        digest.update((path / name).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# bundle write / read


def _vec(array) -> np.ndarray:
    return np.asarray(array, dtype=float).reshape(-1, 1)


def write_bundle(path, artifacts, timings: dict | None = None) -> str:
    """Persist artifacts into a directory; returns the bundle hash.

    The manifest is written last so a complete manifest marks a complete
    bundle; then matrix files it does not list are removed, and on any
    failure the files written by this call are.
    """
    from .pipeline import RomArtifacts  # local import to avoid a cycle

    assert isinstance(artifacts, RomArtifacts)
    path = Path(path)
    created_dir = not path.exists()
    path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        return _write_bundle_files(path, artifacts, timings, written)
    except BaseException:
        for item in written:
            item.unlink(missing_ok=True)
        if created_dir and not any(path.iterdir()):
            path.rmdir()
        raise


def _write_bundle_files(path: Path, artifacts, timings, written: list[Path]) -> str:

    files: dict[str, np.ndarray] = {
        "master_basis": artifacts.master.basis,
        "master_u0": _vec(artifacts.master.u0_reduced),
        "slave_basis": artifacts.slave.basis,
        "slave_u0": _vec(artifacts.slave.u0_reduced),
        "phi": artifacts.reducer.deim.Phi,
        "full_transfer": artifacts.reducer.full_transfer,
    }
    for q, (_, A) in enumerate(artifacts.master.op_terms):
        files[f"master_op_{q}"] = A
    for k, (_, vec) in enumerate(artifacts.master.load_terms):
        files[f"master_load_{k}"] = _vec(vec)
    if artifacts.master.mass is not None:
        files["master_mass"] = artifacts.master.mass
    for q, (_, A) in enumerate(artifacts.slave.op_terms):
        files[f"slave_op_{q}"] = A
    for k, (_, vec) in enumerate(artifacts.slave.load_terms):
        files[f"slave_load_{k}"] = _vec(vec)
    if artifacts.slave.mass is not None:
        files["slave_mass"] = artifacts.slave.mass
    for key, product in artifacts.reducer.lift_products.items():
        files[f"lift_{key}"] = product

    shas = {}
    for name, array in files.items():
        target = path / f"{name}.rombin"
        write_matrix(target, array)
        written.append(target)
        shas[target.name] = hashlib.sha256(target.read_bytes()).hexdigest()

    provenance = dict(artifacts.provenance)
    clock = dict(provenance.pop("timings", {}))  # wall clock never enters the hash
    if timings:
        clock.update(timings)
    if clock:
        dump_json(path / "timings.json", clock)
        written.append(path / "timings.json")

    manifest = {
        "format": "coupledrom-bundle",
        "version": BUNDLE_VERSION,
        "problem": problem_to_dict(artifacts.spec),
        "tolerances": {
            "master": artifacts.tolerances[0],
            "slave": artifacts.tolerances[1],
            "interface": artifacts.tolerances[2],
        },
        "basis_sizes": artifacts.basis_sizes,
        "master": {
            "op_thetas": [theta for theta, _ in artifacts.master.op_terms],
            "load_thetas": [theta for theta, _ in artifacts.master.load_terms],
            "unsteady": artifacts.master.unsteady,
        },
        "slave": {
            "op_thetas": [theta for theta, _ in artifacts.slave.op_terms],
            "load_thetas": [theta for theta, _ in artifacts.slave.load_terms],
            "unsteady": artifacts.slave.unsteady,
            "lift_keys": sorted(artifacts.reducer.lift_products),
        },
        "reducer": {
            "indices": artifacts.reducer.deim.indices.tolist(),
            "transfer_norm": artifacts.reducer.transfer_norm,
            "cond": artifacts.reducer.deim.cond,
        },
        "provenance": provenance,
        "files": shas,
    }
    tmp = path / "manifest.json.tmp"
    dump_json(tmp, manifest)
    written.append(tmp)
    tmp.replace(path / "manifest.json")
    written.append(path / "manifest.json")
    for item in path.glob("*.rombin"):
        if item.name not in shas:
            item.unlink()
    return hash_bundle(path)


def load_bundle(path):
    """Reconstruct artifacts from a bundle directory."""
    from .pipeline import ReducedSubmodel, RomArtifacts

    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{path} is not a bundle (missing manifest.json)")
    manifest = load_json(manifest_path)
    if manifest.get("format") != "coupledrom-bundle":
        raise ConfigError(f"{path}: unrecognized bundle format")
    if manifest.get("version") != BUNDLE_VERSION:
        raise ConfigError(
            f"{path}: bundle version {manifest.get('version')} is not {BUNDLE_VERSION}; "
            "rebuild it with offline"
        )
    for name, sha in manifest["files"].items():
        file = path / name
        if not file.is_file() or hashlib.sha256(file.read_bytes()).hexdigest() != sha:
            raise ConfigError(f"{file}: missing, or not the file the manifest hashed")
    spec = problem_from_dict(manifest["problem"])

    def mat(name):
        return read_matrix(path / f"{name}.rombin")

    def vec(name):
        return mat(name).ravel()

    def load_submodel(side: str) -> ReducedSubmodel:
        meta = manifest[side]
        op_terms = [
            (theta, mat(f"{side}_op_{q}")) for q, theta in enumerate(meta["op_thetas"])
        ]
        load_terms = [
            (theta, vec(f"{side}_load_{k}"))
            for k, theta in enumerate(meta["load_thetas"])
        ]
        mass = mat(f"{side}_mass") if (path / f"{side}_mass.rombin").exists() else None
        return ReducedSubmodel(
            basis=mat(f"{side}_basis"),
            op_terms=op_terms,
            mass=mass,
            load_terms=load_terms,
            u0_reduced=vec(f"{side}_u0"),
            unsteady=bool(meta["unsteady"]),
        )

    master = load_submodel("master")
    slave = load_submodel("slave")

    slave_trace = extract_interface(spec.slave.mesh.build(), spec.slave.interface_tag)

    rd = manifest["reducer"]
    deim = make_deim_basis(mat("phi"), indices=np.asarray(rd["indices"], dtype=np.int64))
    reducer = InterfaceReducer(
        deim=deim,
        slave_trace=slave_trace,
        full_transfer=mat("full_transfer"),
        lift_products={key: mat(f"lift_{key}") for key in manifest["slave"]["lift_keys"]},
        transfer_norm=float(rd["transfer_norm"]),
    )
    tol = manifest["tolerances"]
    return RomArtifacts(
        spec=spec,
        master=master,
        slave=slave,
        reducer=reducer,
        tolerances=(tol["master"], tol["slave"], tol["interface"]),
        provenance=manifest.get("provenance", {}),
    )


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """CSV with floats in 17-significant-digit round-trip format."""
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt_float(v) if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
