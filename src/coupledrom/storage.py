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
import math
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .interface import InterfaceReducer, make_deim_basis
from .mesh import extract_interface
from .problems import config_mapping, config_value, problem_from_dict, problem_to_dict

MAGIC = b"ROMB"
#: matrix file header version
VERSION = 1
#: manifest version; 2 dropped the reducer's unused point transfer and
#: master trace positions, 3 its nearest master DoFs of the magic points
#: (the reduced trace reads the full-order transfer's rows instead), 4 the
#: POD singular values and the provenance's copy of the tolerances, 5 the
#: copies of the spec's weights and kinds, the basis sizes and the
#: interpolation conditioning, all of which nothing loaded read, 6 the
#: initial state of a side that does not march, which nothing read
BUNDLE_VERSION = 6
_HEADER = struct.Struct("<4sIQQ")

def write_matrix(path, array: np.ndarray) -> bytes:
    """Store ``array`` at ``path``; returns the bytes written."""
    array = np.atleast_2d(np.asarray(array, dtype="<f8"))
    if array.ndim != 2:
        raise ConfigError("matrix files store 2-D arrays")
    data = _HEADER.pack(MAGIC, VERSION, *array.shape) + array.tobytes(order="F")
    Path(path).write_bytes(data)
    return data


def read_matrix(path, sha256: str | None = None) -> np.ndarray:
    """The matrix stored at ``path``; with ``sha256``, its bytes must hash to
    it, and the matrix is parsed from the bytes that were hashed."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})")
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise ConfigError(f"{path}: not the file the manifest hashed")
    if len(data) < _HEADER.size:
        raise ConfigError(f"{path}: truncated matrix header")
    magic, version, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported version {version}")
    size, expected = len(data) - _HEADER.size, 8 * rows * cols
    if size != expected:
        raise ConfigError(f"{path}: payload is {size} bytes, expected {expected}")
    payload = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return payload.reshape((rows, cols), order="F").copy()


def fmt_float(value: float) -> str:
    """17-significant-digit decimal, round-trips to the same float64."""
    return format(float(value), ".17g")


def dump_json(path, payload: dict) -> bytes:
    """Store ``payload`` at ``path`` as indented JSON; returns the bytes written."""
    data = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
    Path(path).write_bytes(data)
    return data


def load_json(path) -> dict:
    """The JSON document at ``path``; one that cannot be read or parsed, or
    is not UTF-8, raises ``ConfigError`` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ConfigError(f"{path}: cannot read JSON ({exc})")


def _entry(mapping: Mapping, key: str, where: str, convert=None):
    """The section ``mapping[key]``, a mapping, or with ``convert`` the
    converted value; a missing key, another section or a value that does
    not convert raises ``ConfigError`` naming it."""
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", field=where)
    if convert is None:
        return config_mapping(mapping[key], f"{where}.{key}")
    return config_value(convert, mapping[key], f"{where}.{key}")


def _read_manifest(path: Path) -> Mapping:
    if not (path / "manifest.json").exists():
        raise ConfigError(f"{path} is not a bundle (missing manifest.json)")
    return config_mapping(load_json(path / "manifest.json"), f"{path / 'manifest.json'}")


def _listed_files(path: Path, manifest: Mapping) -> Mapping[str, str]:
    """The manifest's ``files``, name to sha256; every name must be a plain
    ``*.rombin`` name in the bundle directory."""
    files = _entry(manifest, "files", f"{path / 'manifest.json'}: manifest")
    for name in files:
        if Path(name).name != name or not name.endswith(".rombin"):
            raise ConfigError(f"{path}: manifest lists {name!r}, not a bundle matrix file")
    return files


def _digest(contents: dict[str, bytes]) -> str:
    """SHA-256 over each name of ``contents`` then its bytes, sorted by name."""
    digest = hashlib.sha256()
    for name in sorted(contents):
        digest.update(name.encode())
        digest.update(contents[name])
    return digest.hexdigest()


def hash_bundle(path) -> str:
    """SHA-256 over ``manifest.json`` and the files it lists, each name then
    its bytes, sorted by name."""
    path = Path(path)
    names = ["manifest.json", *_listed_files(path, _read_manifest(path))]
    return _digest({name: (path / name).read_bytes() for name in names})


# ---------------------------------------------------------------------------
# bundle write / read


def _vec(array) -> np.ndarray:
    return np.asarray(array, dtype=float).reshape(-1, 1)


def write_bundle(path, artifacts) -> str:
    """Persist artifacts into a directory; returns the bundle hash.

    ``artifacts.timings``, when any, go to ``timings.json``, outside the
    hash.  The manifest is written last so a complete manifest marks a
    complete bundle; then matrix files it does not list, and a timings file
    this call did not write, are removed, and on any failure the files
    written by this call are.
    """
    from .pipeline import RomArtifacts  # local import to avoid a cycle

    assert isinstance(artifacts, RomArtifacts)
    path = Path(path)
    created_dir = not path.exists()
    path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        return _write_bundle_files(path, artifacts, written)
    except BaseException:
        for item in written:
            item.unlink(missing_ok=True)
        if created_dir and not any(path.iterdir()):
            path.rmdir()
        raise


def _write_bundle_files(path: Path, artifacts, written: list[Path]) -> str:
    reducer = artifacts.reducer
    files: dict[str, np.ndarray] = {
        "phi": reducer.deim.Phi,
        "full_transfer": reducer.full_transfer,
    }
    for side in ("master", "slave"):
        sub = getattr(artifacts, side)
        files[f"{side}_basis"] = sub.basis
        files.update({f"{side}_op_{q}": A for q, A in enumerate(sub.op_terms)})
        files.update({f"{side}_load_{k}": _vec(f) for k, f in enumerate(sub.load_terms)})
        if sub.spec.unsteady:
            files[f"{side}_mass"] = sub.mass
            files[f"{side}_u0"] = _vec(sub.u0_reduced)
    files.update({f"lift_op_{q}": L for q, L in enumerate(reducer.lift_products)})
    if reducer.lift_mass is not None:
        files["lift_mass"] = reducer.lift_mass

    contents = {}  # the bytes of each file the bundle hash covers
    for name, array in files.items():
        target = path / f"{name}.rombin"
        contents[target.name] = write_matrix(target, array)
        written.append(target)
    shas = {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}

    if artifacts.timings:
        dump_json(path / "timings.json", artifacts.timings)
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
        "reducer": {
            "indices": reducer.deim.indices.tolist(),
            "transfer_norm": reducer.transfer_norm,
        },
        "provenance": artifacts.provenance,
        "files": shas,
    }
    tmp = path / "manifest.json.tmp"
    contents["manifest.json"] = dump_json(tmp, manifest)
    written.append(tmp)
    tmp.replace(path / "manifest.json")
    written.append(path / "manifest.json")
    for item in path.glob("*.rombin"):
        if item.name not in shas:
            item.unlink()
    if not artifacts.timings:  # an earlier write's timings describe another build
        (path / "timings.json").unlink(missing_ok=True)
    return _digest(contents)


def _finite_positive(raw) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("must be finite and positive")
    return value


def load_bundle(path):
    """Reconstruct artifacts from a bundle directory.  The problem spec sets
    every term count and kind, so which matrices are read, each once; a
    listed matrix that the spec does not need is refused, as is a needed
    one that is not listed.  Every matrix must have the shape that the
    spec's meshes and slave trace and the bases' sizes ``n1``, ``n2`` and
    ``m`` (their column counts) give it.  The reducer's indices must be
    distinct rows of ``phi``, one per column, and its ``transfer_norm``
    finite and positive.  Loading factorizes nothing: one SVD of the magic
    rows gives their ``inverse_norm``."""
    from .pipeline import ReducedSubmodel, RomArtifacts

    path = Path(path)
    manifest = _read_manifest(path)
    if manifest.get("format") != "coupledrom-bundle":
        raise ConfigError(f"{path}: unrecognized bundle format")
    if manifest.get("version") != BUNDLE_VERSION:
        raise ConfigError(
            f"{path}: bundle version {manifest.get('version')} is not {BUNDLE_VERSION}; "
            "rebuild it with offline"
        )
    where = f"{path / 'manifest.json'}: manifest"
    files = _listed_files(path, manifest)
    spec = problem_from_dict(_entry(manifest, "problem", where))
    tolerances = _entry(manifest, "tolerances", where)
    tolerances = tuple(
        _entry(tolerances, key, f"{where}.tolerances", float)
        for key in ("master", "slave", "interface")
    )
    rd = _entry(manifest, "reducer", where)
    transfer_norm = _entry(rd, "transfer_norm", f"{where}.reducer", _finite_positive)
    provenance = _entry(manifest, "provenance", where)
    slave_mesh = spec.slave.mesh.build()
    slave_trace = extract_interface(slave_mesh, spec.slave.interface_tag)
    unread = set(files)

    def mat(name, rows, cols=None):
        """The matrix ``name``, of ``rows`` rows and ``cols`` columns (any
        number when None)."""
        file = f"{name}.rombin"
        if file not in files:
            raise ConfigError(f"{path / file}: not listed in the manifest's files")
        unread.discard(file)
        array = read_matrix(path / file, files[file])
        if array.shape[0] != rows or cols not in (None, array.shape[1]):
            raise ConfigError(
                f"{path / file}: a {array.shape[0]}x{array.shape[1]} matrix, expected "
                f"{rows}x{'any' if cols is None else cols}"
            )
        return array

    def load_submodel(side: str, n_dofs: int) -> ReducedSubmodel:
        sub = getattr(spec, side)
        basis = mat(f"{side}_basis", n_dofs)
        n = basis.shape[1]
        return ReducedSubmodel(
            spec=sub,
            basis=basis,
            op_terms=[mat(f"{side}_op_{q}", n, n) for q in range(len(sub.operator))],
            mass=mat(f"{side}_mass", n, n) if sub.unsteady else None,
            load_terms=[mat(f"{side}_load_{k}", n, 1).ravel() for k in range(len(sub.forcing))],
            u0_reduced=mat(f"{side}_u0", n, 1).ravel() if sub.unsteady else None,
        )

    master = load_submodel("master", spec.master.mesh.build().n_dofs)
    slave = load_submodel("slave", slave_mesh.n_dofs)
    n1, n2 = master.n, slave.n
    lift_products = tuple(mat(f"lift_op_{q}", n2, n1) for q in range(len(spec.slave.operator)))
    lift_mass = mat("lift_mass", n2, n1) if spec.slave.unsteady else None
    phi = mat("phi", len(slave_trace))
    full_transfer = mat("full_transfer", len(slave_trace), n1)
    rows, cols = phi.shape

    def magic_rows(raw) -> np.ndarray:
        if len(raw) != cols or len(set(raw)) != cols or not all(
            type(i) is int and 0 <= i < rows for i in raw
        ):
            raise ValueError(f"need {cols} distinct integers in [0, {rows})")
        return np.asarray(raw, dtype=np.int64)

    indices = _entry(rd, "indices", f"{where}.reducer", magic_rows)
    if unread:
        raise ConfigError(
            f"{path / min(unread)}: listed in the manifest's files, but the problem "
            "does not need it"
        )
    reducer = InterfaceReducer(
        deim=make_deim_basis(phi, indices=indices),
        slave_trace=slave_trace,
        full_transfer=full_transfer,
        lift_products=lift_products,
        lift_mass=lift_mass,
        transfer_norm=transfer_norm,
    )
    return RomArtifacts(
        spec=spec,
        master=master,
        slave=slave,
        reducer=reducer,
        tolerances=tolerances,
        provenance=provenance,
    )


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """CSV with floats in 17-significant-digit round-trip format."""
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt_float(v) if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
