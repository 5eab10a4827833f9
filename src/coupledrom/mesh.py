"""Structured tensor-product meshes on axis-aligned boxes.

DoFs are numbered lexicographically with the x index running fastest, then y,
then z, which makes node order, element connectivity and boundary traces
reproducible across runs.  Elements are Q1 or Q2 tensor-product Lagrange
quads/hexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometryError, MissingTagError

AXIS_NAMES = ("x", "y", "z")

#: canonical face identifiers per dimension, e.g. "x-" is the face at minimum x
def face_ids(dim: int) -> tuple[str, ...]:
    return tuple(f"{AXIS_NAMES[a]}{s}" for a in range(dim) for s in ("-", "+"))


@dataclass(frozen=True)
class Mesh:
    """Structured box mesh with tensor-product Lagrange DoFs.

    Attributes
    ----------
    dim : spatial dimension (2 or 3)
    origin, extent : box corner and per-axis lengths
    subdivisions : per-axis cell counts
    order : polynomial degree (1 or 2)
    node_coords : (n_dofs, dim) DoF coordinates
    elements : (n_cells, (order+1)**dim) DoF indices per cell
    """

    dim: int
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    subdivisions: tuple[int, ...]
    order: int
    node_coords: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)

    @property
    def n_dofs(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_cells(self) -> int:
        return self.elements.shape[0]

    @property
    def nodes_per_axis(self) -> tuple[int, ...]:
        return tuple(self.order * n + 1 for n in self.subdivisions)

    @property
    def cell_sizes(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extent, self.subdivisions))

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.cell_sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        """1D DoF coordinates along one axis."""
        n = self.order * self.subdivisions[axis]
        return self.origin[axis] + self.extent[axis] * (np.arange(n + 1) / n)

    def content_hash(self) -> str:
        """SHA-256 over node coordinates and connectivity."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.node_coords).tobytes())
        h.update(np.ascontiguousarray(self.elements).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class InterfaceTrace:
    """Restriction of the DoF set to one boundary face.

    ``dof_indices`` are strictly increasing global indices; ``coords[k]`` is
    the coordinate of ``dof_indices[k]``.  The face lies in the plane
    ``x[normal_axis] == plane_value``, and its in-plane grid structure is kept
    so that trace values can be interpolated.
    """

    dof_indices: np.ndarray
    coords: np.ndarray
    parent_dim: int
    normal_axis: int
    plane_value: float
    inplane_axes: tuple[int, ...]
    inplane_grids: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.dof_indices.shape[0]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        # slowest axis first, matching the lexicographic trace ordering
        return tuple(len(g) for g in self.inplane_grids[::-1])


def build_box_mesh(origin, extent, subdivisions, order=1) -> Mesh:
    """Build a structured quad/hex mesh on an axis-aligned box.

    Parameters
    ----------
    origin, extent : length-d sequences (d = 2 or 3)
    subdivisions : per-axis cell counts (all >= 1)
    order : FE polynomial degree, 1 or 2
    """
    origin = tuple(float(v) for v in origin)
    extent = tuple(float(v) for v in extent)
    subdivisions = tuple(int(v) for v in subdivisions)
    dim = len(extent)
    if dim not in (2, 3) or len(origin) != dim or len(subdivisions) != dim:
        raise InvalidGeometryError(
            f"origin/extent/subdivisions must share length 2 or 3, got "
            f"{len(origin)}/{len(extent)}/{len(subdivisions)}"
        )
    if order not in (1, 2):
        raise InvalidGeometryError(f"order must be 1 or 2, got {order}")
    if any(n < 1 for n in subdivisions):
        raise InvalidGeometryError(f"subdivisions must be >= 1, got {subdivisions}")
    if any(e <= 0.0 for e in extent):
        raise InvalidGeometryError(f"extent components must be > 0, got {extent}")

    n_axis = [order * n + 1 for n in subdivisions]
    axes = [
        origin[a] + extent[a] * (np.arange(n_axis[a]) / (n_axis[a] - 1))
        for a in range(dim)
    ]

    # node coordinates, x fastest
    grids = np.meshgrid(*axes[::-1], indexing="ij")
    node_coords = np.stack([g.ravel() for g in grids[::-1]], axis=1)

    elements = _build_connectivity(subdivisions, order, n_axis)

    return Mesh(
        dim=dim,
        origin=origin,
        extent=extent,
        subdivisions=subdivisions,
        order=order,
        node_coords=node_coords,
        elements=elements,
    )


def _build_connectivity(subdivisions, order, n_axis):
    dim = len(subdivisions)
    # cell multi-indices, x fastest
    cell_ranges = [np.arange(n) for n in subdivisions]
    cgrids = np.meshgrid(*cell_ranges[::-1], indexing="ij")
    cells = np.stack([g.ravel() for g in cgrids[::-1]], axis=1)  # (n_cells, dim)

    # local node offsets along each axis, x fastest
    loc_ranges = [np.arange(order + 1)] * dim
    lgrids = np.meshgrid(*loc_ranges[::-1], indexing="ij")
    local = np.stack([g.ravel() for g in lgrids[::-1]], axis=1)  # (n_loc, dim)

    start = order * cells  # (n_cells, dim)
    # global index = ix + Nx*(iy + Ny*iz)
    idx = start[:, None, :] + local[None, :, :]
    conn = idx[..., dim - 1]
    for a in range(dim - 2, -1, -1):
        conn = conn * n_axis[a] + idx[..., a]
    return np.ascontiguousarray(conn, dtype=np.int64)


def _face_dof_indices(mesh: Mesh, axis: int, side: int) -> np.ndarray:
    n_axis = mesh.nodes_per_axis
    fixed = 0 if side == 0 else n_axis[axis] - 1
    ranges = [np.arange(n) for n in n_axis]
    ranges[axis] = np.array([fixed])
    grids = np.meshgrid(*ranges[::-1], indexing="ij")
    idx = np.stack([g.ravel() for g in grids[::-1]], axis=1)
    flat = idx[:, mesh.dim - 1]
    for a in range(mesh.dim - 2, -1, -1):
        flat = flat * n_axis[a] + idx[:, a]
    return np.sort(flat)


def extract_interface(mesh: Mesh, face: str) -> InterfaceTrace:
    """Collect the DoFs lying on one boundary face (``"x-"``, ``"x+"``, ...).

    The trace is canonically ordered by increasing global DoF index, and the
    in-plane grid axes are recorded so the trace can act as an interpolation
    source.
    """
    if face not in face_ids(mesh.dim):
        raise MissingTagError(f"face {face!r} not present on a {mesh.dim}-D mesh")
    axis, side = AXIS_NAMES.index(face[0]), (0 if face[1] == "-" else 1)
    dofs = _face_dof_indices(mesh, axis, side)
    inplane_axes = tuple(a for a in range(mesh.dim) if a != axis)
    return InterfaceTrace(
        dof_indices=dofs,
        coords=mesh.node_coords[dofs],
        parent_dim=mesh.dim,
        normal_axis=axis,
        plane_value=float(mesh.axis_coords(axis)[0 if side == 0 else -1]),
        inplane_axes=inplane_axes,
        inplane_grids=tuple(mesh.axis_coords(a) for a in inplane_axes),
    )
