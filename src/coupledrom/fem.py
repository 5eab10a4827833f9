"""Full-order finite element operators on structured box meshes.

Assembly uses Gauss-Legendre quadrature with ``order + 1`` points per axis,
which integrates the constant-coefficient bilinear forms of tensor-product
Lagrange elements exactly.  Source terms default to a higher-order rule since
forcing data is generally non-polynomial.  All cells of a structured mesh are
congruent, so reference shape data is evaluated once and scattered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    CoefficientDomainError,
    DimensionMismatchError,
    InconsistentConstraintError,
    SolverFailureError,
)
from .mesh import Mesh, build_box_mesh, grid_indices

SOLVE_RTOL = 1e-10
#: SuperLU ordering of every factorization in the library: each operator has
#: symmetric structure, for which minimum degree on ``A^T + A``, with the
#: diagonal preferred as pivot, fills less than the default COLAMD (X. S. Li,
#: "An overview of SuperLU", ACM TOMS 31, 2005).  The pivot threshold stays
#: at its default, so an operator that is not symmetric keeps threshold
#: partial pivoting.
LU_ORDERING = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}


# ---------------------------------------------------------------------------
# coefficient fields


def _at_points(value, points: np.ndarray, vector: bool = False) -> np.ndarray:
    """A coefficient at ``points`` ``(..., dim)``: a number, a tuple of numbers
    or a function of position, broadcast to ``points.shape[:-1]``.  A vector
    field keeps its own component count on a last axis; callers validate it."""
    out = np.asarray(value(points) if callable(value) else value, dtype=float)
    shape = points.shape[:-1]
    if vector:
        shape += (out.shape[-1] if out.ndim else 1,)
    return np.broadcast_to(out, shape)


# ---------------------------------------------------------------------------
# reference element and quadrature


def gauss_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points/weights on [0, 1]."""
    g, w = np.polynomial.legendre.leggauss(n)
    return (g + 1.0) / 2.0, w / 2.0


def lagrange_1d(order: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the order-q Lagrange basis on [0, 1] nodes."""
    nodes = np.arange(order + 1) / order if order > 0 else np.zeros(1)
    vals = np.ones((order + 1, len(pts)))
    ders = np.zeros((order + 1, len(pts)))
    for j in range(order + 1):
        for k in range(order + 1):
            if k == j:
                continue
            vals[j] *= (pts - nodes[k]) / (nodes[j] - nodes[k])
        for m in range(order + 1):
            if m == j:
                continue
            term = np.ones(len(pts)) / (nodes[j] - nodes[m])
            for k in range(order + 1):
                if k in (j, m):
                    continue
                term *= (pts - nodes[k]) / (nodes[j] - nodes[k])
            ders[j] += term
    return vals, ders


@dataclass(frozen=True)
class CellQuadrature:
    """Shape data shared by all cells of a structured mesh."""

    phi: np.ndarray        # (n_loc, n_qp)
    grad: np.ndarray       # (n_loc, n_qp, dim), physical gradients
    weights: np.ndarray    # (n_qp,), includes |det J|
    points: np.ndarray     # (n_cells, n_qp, dim), physical coordinates


def cell_quadrature(mesh: Mesh, n_qp: int | None = None) -> CellQuadrature:
    dim, order = mesh.dim, mesh.order
    n_qp = n_qp or order + 1
    g, w = gauss_1d(n_qp)
    vals, ders = lagrange_1d(order, g)

    # tensor products with x fastest, matching mesh connectivity
    local = grid_indices((order + 1,) * dim)  # (n_loc, dim)
    qidx = grid_indices((n_qp,) * dim)  # (n_qp_t, dim)

    sizes = np.asarray(mesh.cell_sizes)
    det_j = float(np.prod(sizes))

    n_loc, n_q = local.shape[0], qidx.shape[0]
    phi = np.ones((n_loc, n_q))
    grad = np.ones((n_loc, n_q, dim))
    for a in range(dim):
        va = vals[local[:, a]][:, qidx[:, a]]
        da = ders[local[:, a]][:, qidx[:, a]]
        phi *= va
        for b in range(dim):
            grad[:, :, b] *= da if b == a else va
    grad /= sizes[None, None, :]

    weights = det_j * np.prod(
        np.stack([w[qidx[:, a]] for a in range(dim)], axis=0), axis=0
    )

    # physical quadrature points: cell origin + reference point * cell size
    ref_pts = np.stack([g[qidx[:, a]] for a in range(dim)], axis=1) * sizes
    origins = np.asarray(mesh.origin) + grid_indices(mesh.subdivisions) * sizes
    points = origins[:, None, :] + ref_pts[None, :, :]

    return CellQuadrature(phi=phi, grad=grad, weights=weights, points=points)


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """Accumulate per-cell local matrices (n_cells, n_loc, n_loc) into CSR."""
    conn = mesh.elements
    n_loc = conn.shape[1]
    rows = np.broadcast_to(conn[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(conn[:, None, :], local.shape).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs)
    ).tocsr()
    mat.eliminate_zeros()
    return mat


# ---------------------------------------------------------------------------
# operator assembly


def assemble_mass(
    mesh: Mesh, density=None, quadrature: CellQuadrature | None = None
) -> sp.csr_matrix:
    """Mass matrix with entries ``∫ rho phi_j phi_k`` (``rho = 1`` by default)."""
    q = quadrature or cell_quadrature(mesh)
    if density is None:
        local = np.einsum("aq,bq,q->ab", q.phi, q.phi, q.weights)
        local = np.broadcast_to(local, (mesh.n_cells,) + local.shape)
    else:
        rho = _at_points(density, q.points)
        local = np.einsum("cq,aq,bq,q->cab", rho, q.phi, q.phi, q.weights, optimize=True)
    return _scatter(mesh, local)


def assemble_stiffness(
    mesh: Mesh, diffusion, quadrature: CellQuadrature | None = None
) -> sp.csr_matrix:
    """Diffusion operator with entries ``∫ a grad(phi_j).grad(phi_k)``.

    The diffusion coefficient must be strictly positive at every quadrature
    point.
    """
    q = quadrature or cell_quadrature(mesh)
    a = _at_points(diffusion, q.points)
    if np.any(a <= 0.0):
        raise CoefficientDomainError(
            f"diffusion must be > 0 at quadrature points (min {a.min():g})"
        )
    local = np.einsum("cq,aqk,bqk,q->cab", a, q.grad, q.grad, q.weights, optimize=True)
    return _scatter(mesh, local)


def assemble_advection(
    mesh: Mesh, velocity, quadrature: CellQuadrature | None = None
) -> sp.csr_matrix:
    """Advection operator with entries ``∫ (v . grad phi_j) phi_k``."""
    q = quadrature or cell_quadrature(mesh)
    v = _at_points(velocity, q.points, vector=True)
    if v.shape[-1] != mesh.dim:
        raise DimensionMismatchError(
            f"velocity has {v.shape[-1]} components, mesh dim is {mesh.dim}"
        )
    local = np.einsum("cqk,aq,bqk,q->cab", v, q.phi, q.grad, q.weights, optimize=True)
    return _scatter(mesh, local)


def assemble_load(
    mesh: Mesh, source, quadrature: CellQuadrature | None = None
) -> np.ndarray:
    """Load vector with entries ``∫ f phi_k`` (higher-order default rule)."""
    q = quadrature or cell_quadrature(mesh, n_qp=mesh.order + 4)
    f = _at_points(source, q.points)
    local = np.einsum("cq,aq,q->ca", f, q.phi, q.weights, optimize=True)
    vec = np.zeros(mesh.n_dofs)
    np.add.at(vec, mesh.elements.ravel(), local.ravel())
    return vec


def l2_error(mesh: Mesh, u: np.ndarray, exact: Callable, n_qp: int | None = None) -> float:
    """Quadrature L2 norm of ``u_h - exact`` over the mesh."""
    q = cell_quadrature(mesh, n_qp=n_qp or mesh.order + 3)
    uh = np.einsum("ca,aq->cq", u[mesh.elements], q.phi)
    ue = np.asarray(exact(q.points))
    return float(np.sqrt(np.einsum("cq,q->", (uh - ue) ** 2, q.weights)))


# ---------------------------------------------------------------------------
# Dirichlet constraints


def _normalize_dirichlet(dirichlet) -> tuple[np.ndarray, np.ndarray]:
    """Sorted constrained DoFs and their values from a mapping or ``(dof,
    value)`` pairs; a value is a scalar, or one entry per load of a block."""
    if isinstance(dirichlet, Mapping):
        items: Iterable = dirichlet.items()
    else:
        items = dirichlet
    seen: dict[int, np.ndarray] = {}
    for dof, value in items:
        dof = int(dof)
        value = np.asarray(value, dtype=float)
        if dof in seen and not np.array_equal(seen[dof], value):
            raise InconsistentConstraintError(
                f"DoF {dof} constrained to both {seen[dof]} and {value}"
            )
        seen[dof] = value
    if not seen:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dofs = np.fromiter(sorted(seen), dtype=np.int64)
    return dofs, np.array([seen[d] for d in dofs])


def eliminate_rows_cols(A: sp.spmatrix, dofs: np.ndarray) -> sp.csr_matrix:
    """Zero rows and columns at ``dofs`` and place ones on their diagonal."""
    if len(dofs) == 0:
        return A.tocsr()
    n = A.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[dofs] = True
    coo = A.tocoo()
    keep = ~mask[coo.row] & ~mask[coo.col]
    out = sp.coo_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=A.shape
    ).tocsr()
    out = out + sp.diags(mask.astype(float), format="csr")
    out.eliminate_zeros()
    return out


def apply_dirichlet_lifting(
    A: sp.spmatrix, f: np.ndarray, dirichlet
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Move Dirichlet data to the right-hand side and symmetrize the system.

    Returns ``(A_bc, f_bc)`` with identity rows/columns at constrained DoFs and
    ``f - A u_D`` in the interior; solving the pair reproduces the constrained
    solution exactly.  ``f`` is one load ``(N,)`` or a block of loads
    ``(N, k)``; for a block, each constrained DoF takes ``k`` values, one per
    load.
    """
    dofs, values = _normalize_dirichlet(dirichlet)
    f = np.asarray(f, dtype=float)
    if len(dofs) == 0:
        return A.tocsr(), f.copy()
    u_d = np.zeros(f.shape)
    u_d[dofs] = values
    g = f - A @ u_d
    g[dofs] = values
    return eliminate_rows_cols(A, dofs), g


# ---------------------------------------------------------------------------
# linear solvers


def factorized_solver(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Return a reusable solver for ``A``, of one right-hand side or a block
    of columns: the ``solve`` of a SuperLU factorization ordered by
    ``LU_ORDERING``."""
    try:
        lu = spla.splu(A.tocsc(), **LU_ORDERING)
    except RuntimeError as exc:  # exactly singular factor
        raise SolverFailureError(f"sparse LU failed: {exc}", residual=np.inf)
    return lu.solve


def assemble_term(
    mesh: Mesh, kind: str, coefficient, quadrature: CellQuadrature | None = None
) -> sp.csr_matrix:
    """One operator term of ``kind``: ``"diffusion"`` the stiffness,
    ``"reaction"`` the mass and ``"advection"`` the advection operator,
    with ``coefficient``."""
    assemble = {
        "diffusion": assemble_stiffness, "reaction": assemble_mass, "advection": assemble_advection,
    }[kind]
    return assemble(mesh, coefficient, quadrature=quadrature)


def axis_matrices(mesh: Mesh, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D unit stiffness and mass ``(K_a, M_a)`` on every node of one
    axis, assembled with the quadrature of ``cell_quadrature``."""
    order, h = mesh.order, mesh.cell_sizes[axis]
    g, w = gauss_1d(order + 1)
    vals, ders = lagrange_1d(order, g)
    local_k = (ders * w) @ ders.T / h
    local_m = (vals * w) @ vals.T * h
    n = mesh.nodes_per_axis[axis]
    K, M = np.zeros((n, n)), np.zeros((n, n))
    for c in range(mesh.subdivisions[axis]):
        span = slice(order * c, order * c + order + 1)
        K[span, span] += local_k
        M[span, span] += local_m
    return K, M


def affine_sum(weights, terms):
    """``sum_q weights[q] * terms[q]``, accumulated in term order."""
    out = weights[0] * terms[0]
    for w, A in zip(weights[1:], terms[1:]):
        out = out + w * A
    return out


def _rest_factors(
    mesh: Mesh, rest: list[int], keep: list[np.ndarray], kind: str, coefficient
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """``(Q, P)`` of one operator term over the axes ``rest`` (0 = x, x
    first), restricted to the nodes ``keep`` of each, for a term that
    separates along every other axis (see ``FastDiagonalization``).  They
    are assembled on the box of ``rest`` alone, with the coefficient read at
    points whose other coordinates are the mesh origin's; with no axis left
    they are the 1x1 weights of the unit mass and stiffness."""
    vector = kind == "advection"
    if not rest:
        value = 0.0 if vector else float(_at_points(coefficient, np.array([mesh.origin]))[0])
        q, p = (0.0, value) if kind == "diffusion" else (value, 0.0)
        return np.array([[q]]), np.array([[p]])
    box = build_box_mesh(
        [mesh.origin[a] for a in rest],
        [mesh.extent[a] for a in rest],
        [mesh.subdivisions[a] for a in rest],
        mesh.order,
    )

    def on_rest(points: np.ndarray) -> np.ndarray:
        full = np.empty(points.shape[:-1] + (mesh.dim,))
        full[...] = mesh.origin
        full[..., rest] = points
        value = _at_points(coefficient, full, vector)
        return value[..., rest] if vector else value

    # the box's DoFs on its grid, slowest axis first, at the kept nodes
    nodes = np.arange(box.n_dofs).reshape(box.nodes_per_axis[::-1])[np.ix_(*keep[::-1])].ravel()
    Q = assemble_term(box, kind, on_rest)[nodes][:, nodes]
    if kind == "diffusion":
        return Q, assemble_mass(box, on_rest)[nodes][:, nodes]
    return Q, sp.csr_matrix(Q.shape)


class FastDiagonalization:
    """Solves with a weighted sum of operator terms ``A_q``, plus ``M/dt``
    for a march, on a tensor-product set of DoFs of a box mesh: the axes S
    along which every term separates are diagonalized, and one sparse block
    per S-mode over the remaining axes R is factorized.  Its grid runs
    slowest axis first (z, y, x), the order in which ``mesh.grid_indices``
    and ``mesh.flat_index`` number the DoFs.

    On such a set, with ``M_S`` the Kronecker product of the 1-D masses
    ``M_a`` of the axes of S restricted to their nodes, and ``G_S`` the sum
    over S of that product with the stiffness ``K_a`` in the place of
    ``M_a``, term ``q`` is ``M_S ⊗ Q_q + G_S ⊗ P_q`` for factors over R: a
    diffusion term with coefficient ``c`` has ``(K_c, M_c)``, its stiffness
    and mass over R; a reaction term ``(M_c, 0)``; an advection term
    ``(C_v, 0)``; the unit mass ``(M_R, 0)``.  With ``V_a^T M_a V_a = I``
    and ``V_a^T K_a V_a = diag(l_a)`` from ``eigh(K_a, M_a)``, ``V`` the
    product of the ``V_a`` gives ``V^T M_S V = I`` and ``V^T G_S V =
    diag(L)``, ``L`` the sum over S of the ``l_a``; in the mode coordinates
    ``z`` of ``u = (V ⊗ I) z``, ``sum_q w_q A_q`` is one block ``Q + L_j P``
    per S-mode ``j``, with ``Q = sum_q w_q Q_q`` and ``P = sum_q w_q P_q``,
    and the unit mass is ``M_R`` in every mode (R. E. Lynch, J. R. Rice and
    D. H. Thomas, Numer. Math. 6, 1964).  A load enters those coordinates
    by ``V^T`` along each axis of S, and a state leaves them by ``V``.  When
    S is every axis the blocks are 1x1 and a solve divides by ``Q + P L``;
    when S is empty there is one block, the whole system, and the
    coordinates are the DoFs themselves.
    """

    def __init__(self, shape, axis_pairs: list, factors: list, mass: tuple):
        """``shape``: the grid of the DoFs, slowest axis first (z, y, x);
        ``axis_pairs``: per grid axis, ``(K_a, M_a)`` on its nodes when it is
        in S, else None; ``factors``: ``(Q_q, P_q)`` of each term, sparse
        over the nodes of R (1x1 arrays when R is empty), and ``mass`` those
        of the unit mass."""
        self.shape = tuple(shape)
        self.n = int(np.prod(self.shape))
        self.axis_pairs, self.factors, self.mass = axis_pairs, factors, mass
        self._separated = [i for i, pair in enumerate(axis_pairs) if pair is not None]
        self._rest = [i for i, pair in enumerate(axis_pairs) if pair is None]
        spectra = [None if pair is None else sla.eigh(*pair) for pair in axis_pairs]
        self._vectors = [None if e is None else e[1] for e in spectra]
        # the sum over S of each axis's eigenvalues, broadcast to the grid of S
        self.eigenvalues = sum(
            (np.reshape(spectra[i][0], [-1 if b == a else 1 for b in range(len(self._separated))])
             for a, i in enumerate(self._separated)),
            np.zeros(()),
        )
        # mode coordinates of k vectors: the grid (k, *shape) as (k, *R, *S)
        self._modes_last = [0] + [1 + i for i in self._rest] + [1 + i for i in self._separated]

    @property
    def blocks(self) -> tuple[int, int]:
        """The number of S-modes and the size of each one's block."""
        return self.eigenvalues.size, self.n // self.eigenvalues.size

    @classmethod
    def of(cls, mesh: Mesh, dofs: np.ndarray, terms, separated=None) -> FastDiagonalization:
        """The diagonalization on the sorted ``dofs`` of ``mesh``, which must
        be the tensor product of one node set per axis, of the operator
        terms ``(kind, coefficient)`` of ``assemble_term``, along the axes
        ``separated`` (0 = x; every axis by default): along those no term's
        coefficient may vary and no velocity may have a component."""
        grid = mesh.nodes_per_axis[::-1]
        nodes = [np.unique(i) for i in np.unravel_index(dofs, grid)]
        if len(dofs) == 0 or np.prod([len(i) for i in nodes]) != len(dofs):
            raise DimensionMismatchError(
                f"{len(dofs)} DoFs are not the tensor product of one node set per axis"
            )
        separated = range(mesh.dim) if separated is None else separated
        pairs = []
        for a, keep in zip(range(mesh.dim - 1, -1, -1), nodes):
            if a in separated:
                K, M = axis_matrices(mesh, a)
                pairs.append((K[np.ix_(keep, keep)], M[np.ix_(keep, keep)]))
            else:
                pairs.append(None)
        rest = [a for a in range(mesh.dim) if a not in separated]
        keep = [nodes[mesh.dim - 1 - a] for a in rest]
        factors = [_rest_factors(mesh, rest, keep, kind, c) for kind, c in terms]
        mass = _rest_factors(mesh, rest, keep, "reaction", 1.0)
        return cls([len(i) for i in nodes], pairs, factors, mass)

    @classmethod
    def of_matrices(cls, A: sp.spmatrix, M: sp.spmatrix) -> FastDiagonalization:
        """The diagonalization along no axis of the one operator ``A`` with
        the mass ``M``: the coordinates are the DoFs, and the one block is
        the whole system."""
        zero = sp.csr_matrix(A.shape)
        return cls(A.shape[:1], [None], [(A, zero)], (M, zero))

    def _contract(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """Each axis of S of ``x`` ``(k, *shape)`` multiplied by its ``V_a``,
        or by ``V_a^T`` when ``transpose``, as reshapes and matrix products."""
        after = self.n
        for V, size in zip(self._vectors, self.shape):
            after //= size
            if V is None:
                continue
            if after == 1:
                x = x.reshape(-1, size) @ (V if transpose else V.T)
            else:
                x = np.matmul(V.T if transpose else V, x.reshape(-1, size, after))
        return x

    def to_modes(self, b: np.ndarray) -> np.ndarray:
        """The mode coordinates ``(k, size, modes)``, by ``V^T``, of one load
        ``(n,)`` or the columns of a block of loads ``(n, k)``."""
        x = self._contract(b.T.reshape((-1,) + self.shape), transpose=True)
        x = x.reshape((-1,) + self.shape).transpose(self._modes_last)
        return x.reshape((-1,) + self.blocks[::-1])

    def from_modes(self, z: np.ndarray) -> np.ndarray:
        """The states ``(k, n)`` of mode coordinates ``(k, size, modes)``."""
        grid = [self.shape[i - 1] for i in self._modes_last[1:]]
        x = z.reshape([-1] + grid).transpose(np.argsort(self._modes_last))
        return self._contract(x, transpose=False).reshape(len(z), self.n)

    def solver(self, weights, dt: float | None = None) -> ModeSolve:
        """The solve with ``sum_q weights[q] A_q``, plus ``M/dt`` when ``dt``
        is given; each block is factorized by ``factorized_solver``.
        ``SolverFailureError`` when the system is singular."""
        Q, P = (affine_sum(weights, [f[part] for f in self.factors]) for part in (0, 1))
        if dt is not None:
            Q = Q + self.mass[0] / dt
        return self._solver(Q, P)

    def mass_solver(self) -> ModeSolve:
        """The solve with the unit mass."""
        return self._solver(*self.mass)

    def _solver(self, Q, P) -> ModeSolve:
        if not self._rest:
            diagonal = Q[0, 0] + P[0, 0] * self.eigenvalues.ravel()
            if not np.all(diagonal != 0.0):
                raise SolverFailureError("fast diagonalization: singular system", residual=np.inf)

            def solve_modes(x):
                return x / diagonal

        else:
            blocks = [factorized_solver(Q + P * float(l)) for l in self.eigenvalues.ravel()]

            def solve_modes(x):
                return np.stack([block(x[..., j].T).T for j, block in enumerate(blocks)], axis=-1)

        return ModeSolve(self, solve_modes)


@dataclass(frozen=True)
class ModeSolve:
    """The solve with one system of ``coordinates``, of one right-hand side
    or a block of columns: into the mode coordinates, ``solve_modes``, and
    back.  ``solve_modes`` solves every mode's block for mode coordinates
    ``(..., size, modes)``, which is how a march steps."""

    coordinates: FastDiagonalization
    solve_modes: Callable[[np.ndarray], np.ndarray]

    def __call__(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        fd = self.coordinates
        return fd.from_modes(self.solve_modes(fd.to_modes(b))).reshape(b.T.shape).T


def _check_residuals(res: np.ndarray, rhs: np.ndarray, first_step=None) -> None:
    """Raise ``SolverFailureError`` at the first column of ``res`` whose norm
    exceeds ``SOLVE_RTOL`` times the norm of the same column of ``rhs``.

    Column ``j`` is reported as step ``first_step + j``; a single vector
    (``first_step=None``) carries no step.
    """
    norms = np.linalg.norm(res.reshape(len(res), -1), axis=0)
    bounds = SOLVE_RTOL * np.maximum(np.linalg.norm(rhs.reshape(len(rhs), -1), axis=0), 1e-300)
    bad = np.flatnonzero(~(norms <= bounds))  # NaN and inf fail too
    if bad.size:
        j = int(bad[0])
        step = None if first_step is None else first_step + j
        where = "" if step is None else f"step {step}: "
        raise SolverFailureError(
            f"{where}residual {norms[j]:.3e} exceeds tolerance {bounds[j]:.3e}",
            residual=float(norms[j]),
            step=step,
        )


def solve_steady(
    A: sp.spmatrix, f: np.ndarray, solve: Callable[[np.ndarray], np.ndarray] | None = None
) -> np.ndarray:
    """Solve ``A u = f`` and verify the residual against ``SOLVE_RTOL * ||f||``.

    ``f`` is one load ``(N,)`` or a block ``(N, k)``; in a block, each
    column is checked on its own and column ``j`` is reported as step ``j``.
    ``solve`` is a solve with ``A`` of one load or a block, when the caller
    has one; the default is one ``factorized_solver`` of ``A``.
    """
    f = np.asarray(f, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(f):
        raise DimensionMismatchError(
            f"system shape {A.shape} incompatible with load of length {len(f)}"
        )
    u = (solve or factorized_solver(A))(f)
    _check_residuals(f - A @ u, f, first_step=0 if f.ndim == 2 else None)
    return u


def solve_unsteady_bdf1(
    M: sp.spmatrix,
    A: sp.spmatrix,
    F: np.ndarray,
    u0: np.ndarray,
    dt: float,
    solve: ModeSolve | None = None,
) -> np.ndarray:
    """March ``M u' + A u = f`` with implicit Euler from ``u0``.

    ``F`` holds one load column per state ``(N, n_steps + 1)``; column 0
    belongs to ``u0`` and is not used.  Each step solves with ``M/dt + A``
    by ``solve``, the ``FastDiagonalization`` solve of it when the caller
    has one, else by one ``factorized_solver`` of it in the coordinates of
    ``FastDiagonalization.of_matrices``.  The march runs in the mode
    coordinates of that solve from zero modes: the loads enter them once,
    ``u0`` as the load ``(M/dt) u0`` of the first step; each step solves
    every mode's block ``(Q + L_j P + M_R/dt) z_k = g_k + (M_R/dt) z_{k-1}``,
    carrying the previous state with one product by ``M_R/dt``, and the
    trajectory leaves them once.  After the march every step's residual is
    checked in the DoFs against its ``F_k + (M/dt) u_{k-1}``, with one
    product of ``M`` and one of ``A`` by the whole trajectory; the first step
    above ``SOLVE_RTOL`` raises ``SolverFailureError`` with ``.step`` set.
    Returns the trajectory of ``n_steps + 1`` states.
    """
    F = np.asarray(F, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    n = M.shape[0]
    if dt <= 0.0 or F.ndim != 2 or F.shape[0] != n or F.shape[1] < 2 or u0.shape != (n,):
        raise DimensionMismatchError(
            f"need dt > 0, a load block ({n}, n_steps + 1) with n_steps >= 1 and "
            f"an initial state ({n},), got dt={dt}, {F.shape} and {u0.shape}"
        )
    n_steps = F.shape[1] - 1
    solver = solve or FastDiagonalization.of_matrices(A, M).solver([1.0], dt)
    fd = solver.coordinates
    carry = fd.mass[0] / dt
    G = F[:, 1:].copy()
    G[:, 0] += (M @ u0) / dt
    loads = fd.to_modes(G)
    modes = np.zeros((n_steps + 1,) + loads.shape[1:])
    for k in range(1, n_steps + 1):
        modes[k] = solver.solve_modes(loads[k - 1] + carry @ modes[k - 1])
    traj = np.empty((n_steps + 1, n))
    traj[0] = u0
    traj[1:] = fd.from_modes(modes[1:])
    m_traj = (M @ traj.T) / dt
    rhs = F[:, 1:] + m_traj[:, :-1]
    _check_residuals(rhs - m_traj[:, 1:] - A @ traj[1:].T, rhs, first_step=1)
    return traj
