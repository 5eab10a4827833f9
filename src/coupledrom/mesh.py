"""Structured tensor-product meshes on axis-aligned boxes.

DoFs are numbered lexicographically with the x index running fastest, then y,
then z, which makes node order, element connectivity and boundary traces
reproducible across runs.  ``grid_indices`` and ``flat_index`` are the one
owner of this numbering: every grid of the library (nodes, cells, local
nodes, quadrature points and trace corners) is enumerated and flattened by
them.  Elements are Q1 or Q2 tensor-product Lagrange quads/hexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometryError, MissingTagError

AXIS_NAMES = ("x", "y", "z")

def grid_indices(sizes) -> np.ndarray:
    """Every multi-index of a grid of ``sizes``, shape ``(prod(sizes), dim)``,
    in lexicographic order with axis 0 (x) fastest."""
    grids = np.meshgrid(*(np.arange(n) for n in sizes[::-1]), indexing="ij")
    return np.stack([g.ravel() for g in grids[::-1]], axis=-1)


def flat_index(multi: np.ndarray, sizes) -> np.ndarray:
    """Lexicographic position of the multi-indices ``multi`` ``(..., dim)`` in
    a grid of ``sizes``, x fastest: the inverse of ``grid_indices``."""
    axes = tuple(multi[..., a] for a in range(len(sizes)))
    return np.ravel_multi_index(axes[::-1], tuple(sizes)[::-1])


def _axis_coords(origin: float, extent: float, n_nodes: int) -> np.ndarray:
    return origin + extent * (np.arange(n_nodes) / (n_nodes - 1))


#: canonical face identifiers per dimension, e.g. "x-" is the face at minimum x
def face_ids(dim: int) -> tuple[str, ...]:
    return tuple(f"{AXIS_NAMES[a]}{s}" for a in range(dim) for s in ("-", "+"))


@dataclass(frozen=True)
class Mesh:
    """Structured box mesh with tensor-product Lagrange DoFs.

    Attributes
    ----------
    dim : spatial dimension (1, 2 or 3)
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
        return _axis_coords(self.origin[axis], self.extent[axis], self.nodes_per_axis[axis])

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
    normal_axis: int
    plane_value: float
    inplane_axes: tuple[int, ...]
    inplane_grids: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.dof_indices.shape[0]


def build_box_mesh(origin, extent, subdivisions, order=1) -> Mesh:
    """Build a structured quad/hex mesh on an axis-aligned box.

    Parameters
    ----------
    origin, extent : length-d sequences (d = 1, 2 or 3; ``fem`` assembles
        the factors of a term over one axis on a 1-D mesh)
    subdivisions : per-axis cell counts (all >= 1)
    order : FE polynomial degree, 1 or 2
    """
    origin = tuple(float(v) for v in origin)
    extent = tuple(float(v) for v in extent)
    subdivisions = tuple(int(v) for v in subdivisions)
    dim = len(extent)
    if dim not in (1, 2, 3) or len(origin) != dim or len(subdivisions) != dim:
        raise InvalidGeometryError(
            f"origin/extent/subdivisions must share length 1, 2 or 3, got "
            f"{len(origin)}/{len(extent)}/{len(subdivisions)}"
        )
    if order not in (1, 2):
        raise InvalidGeometryError(f"order must be 1 or 2, got {order}")
    if any(n < 1 for n in subdivisions):
        raise InvalidGeometryError(f"subdivisions must be >= 1, got {subdivisions}")
    if any(e <= 0.0 for e in extent):
        raise InvalidGeometryError(f"extent components must be > 0, got {extent}")

    n_axis = tuple(order * n + 1 for n in subdivisions)
    node_idx = grid_indices(n_axis)
    node_coords = np.stack(
        [_axis_coords(origin[a], extent[a], n_axis[a])[node_idx[:, a]] for a in range(dim)],
        axis=1,
    )
    # each cell's first node plus its local node offsets
    cell_nodes = order * grid_indices(subdivisions)[:, None] + grid_indices((order + 1,) * dim)
    elements = flat_index(cell_nodes, n_axis)

    return Mesh(
        dim=dim,
        origin=origin,
        extent=extent,
        subdivisions=subdivisions,
        order=order,
        node_coords=node_coords,
        elements=elements,
    )


def _face_dof_indices(mesh: Mesh, axis: int, side: int) -> np.ndarray:
    n_axis = mesh.nodes_per_axis
    face = grid_indices(n_axis[:axis] + (1,) + n_axis[axis + 1 :])
    face[:, axis] = 0 if side == 0 else n_axis[axis] - 1
    return flat_index(face, n_axis)


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
        normal_axis=axis,
        plane_value=float(mesh.axis_coords(axis)[0 if side == 0 else -1]),
        inplane_axes=inplane_axes,
        inplane_grids=tuple(mesh.axis_coords(a) for a in inplane_axes),
    )
