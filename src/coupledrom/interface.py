"""Interface Dirichlet-data reduction.

The full-order transfer ``B`` of interface data is a piecewise-(bi)linear
interpolation from the master trace grid to the slave trace points,
realized as a precomputed sparse matrix (a permutation when the traces
conform).  The reduced transfer keeps ``B`` and interpolates its output: an
interpolation basis ``Phi`` over trace snapshots, greedily selected
interpolation indices on the slave trace ("magic points"), and the rows
``B_I`` of ``B`` at those points, so that the reduced trace is
``Phi Phi_I^{-1} B_I`` applied to the master trace.  Dense products fold the
master basis in, which makes every online application an operation in
reduced dimensions only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    EmptyTraceError,
    ProjectionDistanceError,
)
from .mesh import InterfaceTrace, flat_index, grid_indices

log = logging.getLogger(__name__)

#: coincidence tolerance for conforming-trace detection, relative to trace extent
CONFORMING_RTOL = 1e-12


# ---------------------------------------------------------------------------
# full-order trace transfer


def _trace_scale(trace: InterfaceTrace) -> float:
    span = trace.coords.max(axis=0) - trace.coords.min(axis=0)
    return float(max(span.max(), 1.0))


def nearest_dof_map(slave_points: np.ndarray, master_trace: InterfaceTrace) -> np.ndarray:
    """Index of the nearest master-trace DoF for each query point, located on
    the trace grid axis by axis: the nearer node of the point's cell along
    each in-plane axis, the smaller one on a tie, so that of equally near
    DoFs the smallest trace index is taken.
    """
    if len(master_trace) == 0:
        raise EmptyTraceError("master trace is empty")
    pts = np.atleast_2d(np.asarray(slave_points, dtype=float))
    dim = master_trace.coords.shape[1]
    if pts.shape[1] != dim:
        raise DimensionMismatchError(f"query points have dim {pts.shape[1]}, trace has dim {dim}")
    grids = master_trace.inplane_grids
    nodes = []
    for grid, axis in zip(grids, master_trace.inplane_axes):
        x = pts[:, axis]
        j = _locate_1d(grid, x)[0]
        nodes.append(j + (grid[j + 1] - x < x - grid[j]))
    return flat_index(np.stack(nodes, axis=1), [len(g) for g in grids])


def _locate_1d(grid: np.ndarray, x: np.ndarray):
    """Cell index, barycentric weight and out-of-range distance per point."""
    j = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
    t = (x - grid[j]) / (grid[j + 1] - grid[j])
    outside = np.maximum(grid[0] - x, 0.0) + np.maximum(x - grid[-1], 0.0)
    return j, np.clip(t, 0.0, 1.0), outside


def build_transfer_matrix(
    master_trace: InterfaceTrace,
    slave_trace: InterfaceTrace,
    max_distance: float | None = None,
) -> sp.csr_matrix:
    """Sparse operator carrying master trace values to slave trace points.

    Each slave point receives the piecewise-(bi)linear interpolation of the
    master trace grid; points outside the master face are snapped to its
    nearest point, and any point farther than ``max_distance`` from the face
    raises an error.  A slave point on a master grid point gets weight exactly
    1 there and no other entry, so conforming traces yield an exact
    permutation.
    """
    if len(master_trace) == 0 or len(slave_trace) == 0:
        raise EmptyTraceError("cannot transfer between empty traces")
    n_m, n_s = len(master_trace), len(slave_trace)
    scale = max(_trace_scale(master_trace), _trace_scale(slave_trace))
    axes = master_trace.inplane_axes
    grids = master_trace.inplane_grids
    pts = slave_trace.coords

    off_plane = np.abs(pts[:, master_trace.normal_axis] - master_trace.plane_value)
    locs = [_locate_1d(g, pts[:, a]) for g, a in zip(grids, axes)]
    j, t, outside = (np.stack(v, axis=1) for v in zip(*locs))  # each (n_s, k)
    total_dist = np.sqrt(off_plane**2 + np.sum(outside**2, axis=1))
    snapped = int(np.sum(total_dist > CONFORMING_RTOL * scale))
    if snapped:
        log.info(
            "transfer: %d of %d slave points snapped to the master face "
            "(max distance %.3e)",
            snapped,
            n_s,
            float(total_dist.max()),
        )
    if max_distance is not None and np.any(total_dist > max_distance):
        worst = int(np.argmax(total_dist))
        raise ProjectionDistanceError(
            f"slave point {worst} lies {total_dist[worst]:.3e} from the master "
            f"face (limit {max_distance:.3e})"
        )

    # tensor the per-axis weights over the cell's corners, x fastest; each
    # weight is the product of its axes' (1 - t, t) factors in axis order
    corners = grid_indices((2,) * len(axes))  # (2**k, k)
    cols = flat_index(j[:, None] + corners, [len(g) for g in grids])
    factors = np.stack([1.0 - t, t], axis=2)  # (n_s, k, 2)
    wts = factors[:, np.arange(len(axes)), corners].prod(axis=2)
    rows = np.repeat(np.arange(n_s), cols.shape[1])
    mat = sp.csr_matrix(
        (wts.ravel(), (rows, cols.ravel())), shape=(n_s, n_m)
    )
    mat.eliminate_zeros()
    return mat


# ---------------------------------------------------------------------------
# greedy interpolation indices


def deim_indices(Phi: np.ndarray) -> np.ndarray:
    """Greedy interpolation indices for the columns of ``Phi``.

    The first index maximizes ``|Phi[:, 0]|``; each subsequent index
    maximizes the residual of the next column after interpolation on the
    indices chosen so far.  Indices come out in selection order, not
    ascending.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2 or Phi.shape[1] == 0:
        raise DimensionMismatchError("basis must be a nonempty 2-D array")
    m = Phi.shape[1]
    indices = [int(np.argmax(np.abs(Phi[:, 0])))]
    if Phi[indices[0], 0] == 0.0:
        raise DegenerateBasisError("first basis column is identically zero", step=1)
    for j in range(1, m):
        sub = Phi[np.array(indices), :j]
        try:
            c = np.linalg.solve(sub, Phi[np.array(indices), j])
        except np.linalg.LinAlgError:
            raise DegenerateBasisError(
                f"interpolation submatrix singular at step {j + 1}", step=j + 1
            )
        r = Phi[:, j] - Phi[:, :j] @ c
        k = int(np.argmax(np.abs(r)))
        if r[k] == 0.0:
            raise DegenerateBasisError(
                f"zero residual at step {j + 1}: column {j} already interpolated",
                step=j + 1,
            )
        indices.append(k)
    return np.asarray(indices, dtype=np.int64)


@dataclass(frozen=True)
class DeimBasis:
    """Interpolation basis and its selected rows ("magic points")."""

    Phi: np.ndarray = field(repr=False)
    indices: np.ndarray  # selection order positions into the trace
    #: upper bound of ``||Phi_I^{-1}||_2``, the amplification of the
    #: projection error in the interpolation error
    inverse_norm: float

    @property
    def m(self) -> int:
        return self.Phi.shape[1]

    def reconstruct(self, values_at_indices: np.ndarray) -> np.ndarray:
        return self.Phi @ _solve_magic_rows(self, values_at_indices)


def _solve_magic_rows(deim: DeimBasis, rhs: np.ndarray) -> np.ndarray:
    """``Phi_I^{-1} rhs``; an exactly singular ``Phi_I`` is degenerate."""
    try:
        return np.linalg.solve(deim.Phi[deim.indices], rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"magic-row submatrix singular ({exc})")


def make_deim_basis(Phi: np.ndarray, indices: np.ndarray | None = None) -> DeimBasis:
    """Select the magic rows ``Phi_I``, greedily unless ``indices`` are given,
    and take ``||Phi_I^{-1}||_2 = 1 / s_min`` from one SVD.

    The computed singular values are off by at most a modest multiple of
    ``m eps s_max`` (backward stability of the SVD); ``s_min`` is lowered by
    the margin ``4 m eps s_max`` before it is inverted, so that
    ``inverse_norm`` stays an upper bound, infinite when the lowered
    ``s_min`` is not positive.
    """
    indices = deim_indices(Phi) if indices is None else np.asarray(indices)
    sub = Phi[indices, :]
    if not np.isfinite(sub).all():
        raise DegenerateBasisError("magic-row submatrix is not finite")
    s = np.linalg.svd(sub, compute_uv=False)
    s_low = s[-1] - 4 * len(s) * np.finfo(float).eps * s[0]
    inverse_norm = float(1.0 / s_low) if s_low > 0 else np.inf
    log.info("interpolation basis: m=%d, ||Phi_I^-1||_2 <= %.3e", Phi.shape[1], inverse_norm)
    return DeimBasis(Phi=Phi, indices=indices, inverse_norm=inverse_norm)


# ---------------------------------------------------------------------------
# interface reducer


@dataclass(frozen=True)
class InterfaceReducer:
    """Offline-assembled reduced transfer of interface Dirichlet data.

    ``full_transfer @ u_n1`` yields the Dirichlet values on the whole slave
    trace from the reduced master solution; ``lift_products[q] @ u_n1`` the
    reduced lifting contribution of the slave operator term ``q``, and
    ``lift_mass @ u_n1`` that of the mass of a marching slave (None for a
    steady slave).
    """

    deim: DeimBasis
    slave_trace: InterfaceTrace = field(repr=False)
    full_transfer: np.ndarray = field(repr=False)  # (len slave trace, n1)
    lift_products: tuple = field(repr=False)  # each (n2, n1)
    lift_mass: np.ndarray | None = field(repr=False)  # (n2, n1)
    #: ``||Phi Phi_I^{-1} B_I||_2``, the reduced transfer's two-norm on
    #: master trace values
    transfer_norm: float

    @property
    def m(self) -> int:
        return self.deim.m

    def reduced_lifting(self, u_n1: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """``sum_q weights[q] * (lift_products[q] @ u_n1)``, one weight per
        slave operator term, accumulated in term order."""
        n = len(self.lift_products)
        if len(weights) != n or n == 0:
            raise DimensionMismatchError(f"{len(weights)} weights for {n} lifting products")
        out = weights[0] * (self.lift_products[0] @ u_n1)
        for w, product in zip(weights[1:], self.lift_products[1:]):
            out = out + w * (product @ u_n1)
        return out


def assemble_reducer(
    deim: DeimBasis,
    transfer: sp.spmatrix,
    master_trace: InterfaceTrace,
    slave_trace: InterfaceTrace,
    master_basis: np.ndarray,
    slave_basis: np.ndarray,
    slave_operators: Sequence[sp.spmatrix] = (),
    slave_mass: sp.spmatrix | None = None,
) -> InterfaceReducer:
    """Assemble the stored online products for a given interpolation basis:
    one lifting product per matrix of ``slave_operators``, in their order,
    and one of ``slave_mass``, the mass of a marching slave, when given.

    ``transfer`` is the full-order transfer ``B`` (slave trace x master
    trace) that made the interface snapshots; the reduced trace reads its
    rows ``B_I`` at the magic points, ``Phi Phi_I^{-1} B_I V1[master trace]``
    with ``V1`` the master basis.
    """
    B_I = sp.csr_matrix(transfer)[deim.indices]  # (m, len master trace)

    # the magic-point values of the master basis and B_I itself, through one
    # interpolation solve, folded into dense offline products
    extracted = B_I @ master_basis[master_trace.dof_indices]  # (m, n1)
    solved = _solve_magic_rows(deim, np.hstack([extracted, B_I.toarray()]))
    full_transfer = deim.Phi @ solved[:, : extracted.shape[1]]
    # Phi has orthonormal columns: ||Phi Phi_I^{-1} B_I||_2 = ||Phi_I^{-1} B_I||_2,
    # raised by the margin 4 m eps s_max of make_deim_basis, so that it stays
    # an upper bound under the rounding of the SVD
    s = np.linalg.svd(solved[:, extracted.shape[1] :], compute_uv=False)
    transfer_norm = float(s[0] + 4 * len(s) * np.finfo(float).eps * s[0])

    gamma = slave_trace.dof_indices

    def lift(A: sp.spmatrix) -> np.ndarray:
        # (n2, n1): the reduced slave columns at the trace, then the transfer
        return np.asarray((slave_basis.T @ A.tocsc()[:, gamma]) @ full_transfer)

    return InterfaceReducer(
        deim=deim,
        slave_trace=slave_trace,
        full_transfer=full_transfer,
        lift_products=tuple(lift(A) for A in slave_operators),
        lift_mass=None if slave_mass is None else lift(slave_mass),
        transfer_norm=transfer_norm,
    )
