import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom.errors import (
    CoefficientDomainError,
    DimensionMismatchError,
    InconsistentConstraintError,
    SolverFailureError,
)
from coupledrom.fem import (
    SOLVE_RTOL,
    FastDiagonalization,
    apply_dirichlet_lifting,
    assemble_advection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    axis_matrices,
    cell_quadrature,
    factorized_solver,
    l2_error,
    solve_steady,
    solve_unsteady_bdf1,
)
from coupledrom.library import heat_laplace_pair, transport_wall_pair
from coupledrom.mesh import build_box_mesh, extract_interface


def unit_square(n, order=1):
    return build_box_mesh((0, 0), (1, 1), (n, n), order=order)


def gauss01(n):
    g, w = np.polynomial.legendre.leggauss(n)
    return (g + 1) / 2, w / 2


def q1_shape_2d(local, x, y):
    lx, ly = local % 2, local // 2
    fx = x if lx else 1 - x
    fy = y if ly else 1 - y
    return fx * fy


def q1_grad_2d(local, x, y):
    lx, ly = local % 2, local // 2
    fx, dfx = (x, 1.0) if lx else (1 - x, -1.0)
    fy, dfy = (y, 1.0) if ly else (1 - y, -1.0)
    return np.array([dfx * fy, fx * dfy])


def quad_oracle_2d(fn, n=3):
    """Tensor 3-point Gauss integral of fn(x, y) over the unit square."""
    g, w = gauss01(n)
    total = 0.0
    for xi, wi in zip(g, w):
        for yj, wj in zip(g, w):
            total += wi * wj * fn(xi, yj)
    return total


class TestMass:
    def test_entry_sum_is_domain_measure(self):
        M = assemble_mass(unit_square(1))
        assert M.sum() == pytest.approx(1.0, rel=1e-14)

    def test_single_element_matrix(self):
        # oracle: 3-point Gauss quadrature of bilinear shape products
        oracle = np.array(
            [
                [quad_oracle_2d(lambda x, y, a=a, b=b: q1_shape_2d(a, x, y) * q1_shape_2d(b, x, y)) for b in range(4)]
                for a in range(4)
            ]
        )
        expected = np.array([[4, 2, 2, 1], [2, 4, 1, 2], [2, 1, 4, 2], [1, 2, 2, 4]]) / 36
        assert np.allclose(oracle, expected, atol=1e-15)
        M = assemble_mass(unit_square(1)).toarray()
        assert np.allclose(M, expected, atol=1e-14)

    @given(n=st.integers(1, 4), order=st.sampled_from([1, 2]))
    @settings(max_examples=12, deadline=None)
    def test_partition_of_unity(self, n, order):
        mesh = build_box_mesh((0, 0, 0), (1.2, 0.7, 1.0), (n, n, n), order=order)
        M = assemble_mass(mesh)
        measure = 1.2 * 0.7 * 1.0
        assert (M @ np.ones(mesh.n_dofs)).sum() == pytest.approx(measure, rel=1e-12)

    def test_spd_and_symmetric(self):
        M = assemble_mass(unit_square(3)).toarray()
        assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
        assert np.linalg.eigvalsh(M).min() > 0


class TestStiffness:
    def test_single_element_matrix(self):
        oracle = np.array(
            [
                [
                    quad_oracle_2d(lambda x, y, a=a, b=b: q1_grad_2d(a, x, y) @ q1_grad_2d(b, x, y))
                    for b in range(4)
                ]
                for a in range(4)
            ]
        )
        expected = np.array([[4, -1, -1, -2], [-1, 4, -2, -1], [-1, -2, 4, -1], [-2, -1, -1, 4]]) / 6
        assert np.allclose(oracle, expected, atol=1e-14)
        K = assemble_stiffness(unit_square(1), diffusion=1.0).toarray()
        assert np.allclose(K, expected, atol=1e-14)

    def test_constants_in_kernel(self):
        mesh = build_box_mesh((0, 0, 0), (1, 1, 1), (3, 2, 2), order=2)
        K = assemble_stiffness(mesh, diffusion=1.0)
        assert np.max(np.abs(K @ np.ones(mesh.n_dofs))) <= 1e-12

    def test_diffusion_scaling_linearity(self):
        mesh = unit_square(3)
        K1 = assemble_stiffness(mesh, diffusion=1.0)
        # power-of-two scaling commutes with rounding, so equality is exact
        K2 = assemble_stiffness(mesh, diffusion=2.0)
        assert np.max(np.abs((K2 - 2.0 * K1).toarray())) == 0.0
        K3 = assemble_stiffness(mesh, diffusion=3.0)
        scale = np.max(np.abs(K3.data))
        assert np.max(np.abs((K3 - 3.0 * K1).toarray())) <= 1e-15 * scale

    def test_nonpositive_diffusion_rejected(self):
        with pytest.raises(CoefficientDomainError):
            assemble_stiffness(unit_square(2), diffusion=lambda x: x[..., 0] - 0.5)

    def test_spd_after_elimination(self):
        mesh = unit_square(3)
        K = assemble_stiffness(mesh, diffusion=1.0)
        boundary = np.unique(
            np.concatenate(
                [extract_interface(mesh, t).dof_indices for t in ("x-", "x+", "y-", "y+")]
            )
        )
        A, _ = apply_dirichlet_lifting(K, np.zeros(mesh.n_dofs), {int(d): 0.0 for d in boundary})
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() > 0


class TestAdvection:
    def test_zero_velocity(self):
        C = assemble_advection(unit_square(2), velocity=(0.0, 0.0))
        assert C.nnz == 0

    def test_single_element_quadrature_oracle(self):
        oracle = np.array(
            [
                [quad_oracle_2d(lambda x, y, a=a, b=b: q1_grad_2d(b, x, y)[0] * q1_shape_2d(a, x, y)) for b in range(4)]
                for a in range(4)
            ]
        )
        C = assemble_advection(unit_square(1), velocity=(1.0, 0.0)).toarray()
        assert np.allclose(C, oracle, atol=1e-14)

    def test_constant_field_annihilated(self):
        mesh = build_box_mesh((0, 0, 0), (1, 1, 1), (2, 2, 2))
        C = assemble_advection(mesh, velocity=(0.3, -1.0, 2.0))
        assert np.max(np.abs(C @ np.ones(mesh.n_dofs))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            assemble_advection(unit_square(1), velocity=(1.0, 0.0, 0.0))


def hat_1d(x, node, h):
    return np.maximum(0.0, 1.0 - np.abs(x - node) / h)


def brute_force_load_3d(mesh, f, n_gauss=8):
    """Independent load oracle: explicit trilinear hats + dense Gauss per cell."""
    g, w = gauss01(n_gauss)
    h = mesh.cell_sizes
    vec = np.zeros(mesh.n_dofs)
    for cz in range(mesh.subdivisions[2]):
        for cy in range(mesh.subdivisions[1]):
            for cx in range(mesh.subdivisions[0]):
                ox = mesh.origin[0] + cx * h[0]
                oy = mesh.origin[1] + cy * h[1]
                oz = mesh.origin[2] + cz * h[2]
                X, Y, Z = np.meshgrid(ox + g * h[0], oy + g * h[1], oz + g * h[2], indexing="ij")
                W = np.einsum("i,j,k->ijk", w, w, w) * h[0] * h[1] * h[2]
                fv = f(X, Y, Z)
                for k, dof in enumerate(np.sort(np.unique(
                    mesh.elements[cx + mesh.subdivisions[0] * (cy + mesh.subdivisions[1] * cz)]
                ))):
                    xn, yn, zn = mesh.node_coords[dof]
                    phi = hat_1d(X, xn, h[0]) * hat_1d(Y, yn, h[1]) * hat_1d(Z, zn, h[2])
                    vec[dof] += np.sum(W * fv * phi)
    return vec


class TestLoad:
    def test_zero_source(self):
        assert np.all(assemble_load(unit_square(2), 0.0) == 0.0)

    def test_unit_source_sums_to_measure(self):
        mesh = build_box_mesh((0, 0, 0), (2.0, 0.5, 1.0), (2, 3, 2), order=2)
        vec = assemble_load(mesh, 1.0)
        assert vec.sum() == pytest.approx(1.0, rel=1e-12)

    def test_smooth_source_against_brute_force_oracle(self):
        mesh = build_box_mesh((0, 0, 0), (1, 1, 1), (3, 3, 3), order=1)

        def f_xyz(x, y, z):
            return np.pi / 4 * y * x**2 * np.sin(np.pi * y / 2) * np.exp(z - 1)

        vec = assemble_load(mesh, lambda x: f_xyz(x[..., 0], x[..., 1], x[..., 2]))
        oracle = brute_force_load_3d(mesh, f_xyz)
        assert np.linalg.norm(vec - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestDirichletLifting:
    def test_no_constraints_is_identity(self):
        mesh = unit_square(2)
        A = assemble_stiffness(mesh, diffusion=1.0)
        f = assemble_load(mesh, 1.0)
        A2, f2 = apply_dirichlet_lifting(A, f, {})
        assert (A2 - A).nnz == 0
        assert np.array_equal(f2, f)

    def test_all_dofs_constrained(self):
        mesh = unit_square(2)
        A = assemble_stiffness(mesh, diffusion=1.0)
        f = assemble_load(mesh, 1.0)
        A2, f2 = apply_dirichlet_lifting(A, f, {d: 3.5 for d in range(mesh.n_dofs)})
        u = solve_steady(A2, f2)
        assert np.allclose(u, 3.5, atol=1e-13)

    def test_three_dof_laplace_analog(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        A2, f2 = apply_dirichlet_lifting(A, np.zeros(3), {0: 0.0, 2: 1.0})
        u = solve_steady(A2, f2)
        assert np.allclose(u, [0.0, 0.5, 1.0], atol=1e-13)

    def test_conflicting_values_rejected(self):
        A = sp.identity(3, format="csr")
        with pytest.raises(InconsistentConstraintError):
            apply_dirichlet_lifting(A, np.zeros(3), [(1, 0.0), (1, 1.0)])

    def test_lifting_commutes_with_row_elimination(self):
        mesh = unit_square(3)
        rng = np.random.default_rng(7)
        A = assemble_stiffness(mesh, 1.0) + 1.0 * assemble_mass(mesh)
        f = rng.standard_normal(mesh.n_dofs)
        constrained = {3: 0.7, 8: -0.2, 12: 1.1}
        A2, f2 = apply_dirichlet_lifting(A, f, constrained)
        u = solve_steady(A2, f2)
        # oracle: direct row elimination on the dense system
        dense = A.toarray()
        g = f.copy()
        for d, v in constrained.items():
            g -= dense[:, d] * v
        idx = sorted(constrained)
        free = [i for i in range(mesh.n_dofs) if i not in constrained]
        u_ref = np.zeros(mesh.n_dofs)
        u_ref[idx] = [constrained[d] for d in idx]
        u_ref[free] = np.linalg.solve(dense[np.ix_(free, free)], g[free])
        assert np.max(np.abs(u - u_ref)) <= 1e-10
        # a block of loads, with one constrained value per load
        block = {d: [v, -v] for d, v in constrained.items()}
        A3, F3 = apply_dirichlet_lifting(A, np.column_stack([f, -f]), block)
        U = solve_steady(A3, F3)
        assert np.max(np.abs(U - np.column_stack([u_ref, -u_ref]))) <= 1e-10


class TestSolveSteady:
    def test_identity(self):
        f = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(solve_steady(sp.identity(3, format="csr"), f), f)

    def test_diagonal(self):
        A = sp.diags([2.0, 4.0]).tocsr()
        assert np.allclose(solve_steady(A, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_singular_matrix_fails(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverFailureError):
            solve_steady(A, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("order,band", [(1, (1.8, 2.2)), (2, (2.7, 3.3))])
    def test_manufactured_convergence(self, order, band):
        errors = []
        for n in (4, 8, 16):
            mesh = unit_square(n, order=order)
            A = assemble_stiffness(mesh, diffusion=1.0)
            f = assemble_load(
                mesh,
                lambda x: 2 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
            )
            boundary = np.unique(
                np.concatenate(
                    [extract_interface(mesh, t).dof_indices for t in ("x-", "x+", "y-", "y+")]
                )
            )
            A2, f2 = apply_dirichlet_lifting(A, f, {int(d): 0.0 for d in boundary})
            u = solve_steady(A2, f2)
            errors.append(
                l2_error(mesh, u, lambda p: np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1]))
            )
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert band[0] <= rates.mean() <= band[1]


class TestSolveUnsteadyBdf1:
    def test_zero_dynamics_constant_trajectory(self):
        M = sp.identity(4, format="csr")
        A = sp.csr_matrix((4, 4))
        u0 = np.array([1.0, -1.0, 2.0, 0.5])
        traj = solve_unsteady_bdf1(M, A, np.zeros((4, 6)), u0, 0.1)
        assert np.allclose(traj, u0[None, :], atol=1e-14)

    def test_scalar_closed_form(self):
        M = sp.identity(1, format="csr")
        A = sp.identity(1, format="csr")
        dt, n = 0.05, 20
        traj = solve_unsteady_bdf1(M, A, np.zeros((1, n + 1)), np.ones(1), dt)
        expected = (1 + dt) ** (-np.arange(n + 1))
        assert np.allclose(traj[:, 0], expected, rtol=1e-12)

    # a length-1 initial state would broadcast to a constant one
    @pytest.mark.parametrize(
        "shape, dt, n0",
        [((4, 1), 0.1, 4), ((3, 6), 0.1, 4), ((4,), 0.1, 4), ((4, 6), 0.0, 4),
         ((4, 6), 0.1, 1), ((4, 6), 0.1, 5)],
        ids=["shape0-0.1", "shape1-0.1", "shape2-0.1", "shape3-0.0", "u0-1", "u0-5"],
    )
    def test_malformed_load_block_or_step_rejected(self, shape, dt, n0):
        M = sp.identity(4, format="csr")
        with pytest.raises(DimensionMismatchError):
            solve_unsteady_bdf1(M, M, np.zeros(shape), np.ones(n0), dt)

    def test_heat_equation_first_order_in_time(self):
        mesh = unit_square(8)
        M = assemble_mass(mesh)
        K = assemble_stiffness(mesh, diffusion=1.0)
        boundary = np.unique(
            np.concatenate(
                [extract_interface(mesh, t).dof_indices for t in ("x-", "x+", "y-", "y+")]
            )
        )
        dofs = {int(d): 0.0 for d in boundary}
        from coupledrom.fem import eliminate_rows_cols

        idx = np.array(sorted(dofs))
        K_bc = eliminate_rows_cols(K, idx)
        M_bc = M.tolil()
        M_bc[idx, :] = 0.0
        M_bc[:, idx] = 0.0
        M_bc = M_bc.tocsr()
        u0 = np.sin(np.pi * mesh.node_coords[:, 0]) * np.sin(np.pi * mesh.node_coords[:, 1])
        u0[idx] = 0.0
        source = 2 * np.pi**2 - 1.0

        def rhs(t):
            f = assemble_load(
                mesh,
                lambda x: source
                * np.exp(-t)
                * np.sin(np.pi * x[..., 0])
                * np.sin(np.pi * x[..., 1]),
            )
            f[idx] = 0.0
            return f

        def loads(dt, n):
            return np.column_stack([rhs(k * dt) for k in range(n + 1)])

        T = 0.5
        ref = solve_unsteady_bdf1(M_bc, K_bc, loads(T / 256, 256), u0, T / 256)[-1]
        errs = []
        for n in (8, 16, 32):
            traj = solve_unsteady_bdf1(M_bc, K_bc, loads(T / n, n), u0, T / n)
            errs.append(np.linalg.norm(traj[-1] - ref))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert 0.8 <= rates.mean() <= 1.2


class TestGalerkinConsistency:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_projection_commutes(self, seed):
        rng = np.random.default_rng(seed)
        mesh = unit_square(2)
        A = assemble_stiffness(mesh, 1.0) + 0.5 * assemble_mass(mesh)
        V, _ = np.linalg.qr(rng.standard_normal((mesh.n_dofs, 3)))
        x = rng.standard_normal(3)
        left = V.T @ (A @ (V @ x))
        right = (V.T @ (A @ V)) @ x
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(right), 1.0)


def test_assembly_deterministic():
    mesh = build_box_mesh((0, 0, 0), (1, 1, 1), (3, 2, 2), order=2)
    K1 = assemble_stiffness(mesh, diffusion=lambda x: 1.0 + x[..., 0])
    K2 = assemble_stiffness(mesh, diffusion=lambda x: 1.0 + x[..., 0])
    assert (K1 != K2).nnz == 0
    assert np.array_equal(K1.data, K2.data)


def test_quadrature_weights_sum_to_cell_volume():
    mesh = build_box_mesh((0, 0), (2.0, 3.0), (4, 5))
    q = cell_quadrature(mesh)
    assert q.weights.sum() == pytest.approx((2.0 / 4) * (3.0 / 5), rel=1e-14)


def free_of_faces(mesh, *faces):
    """The DoFs of ``mesh`` off the given faces, a tensor product."""
    fixed = np.unique(np.concatenate([extract_interface(mesh, f).dof_indices for f in faces]))
    return np.setdiff1d(np.arange(mesh.n_dofs), fixed)


def kron_forms(mesh, free, axes):
    """The 1-D ``(K_a, M_a)`` of each of ``axes`` (slowest first) on its free nodes."""
    nodes = [np.unique(i) for i in np.unravel_index(free, mesh.nodes_per_axis[::-1])]
    pairs = []
    for a in axes:
        keep = nodes[mesh.dim - 1 - a]
        K_a, M_a = axis_matrices(mesh, a)
        pairs.append((K_a[np.ix_(keep, keep)], M_a[np.ix_(keep, keep)]))
    return pairs


def per_step_march(M, A, F, u0, dt):
    """The BDF1 march stepped in the DoFs, one sparse LU solve a step: the
    reference for ``solve_unsteady_bdf1``."""
    m_dt = (M / dt).tocsr()
    solve = spla.splu((m_dt + A).tocsc()).solve
    traj = [u0]
    for k in range(1, F.shape[1]):
        traj.append(solve(F[:, k] + m_dt @ traj[-1]))
    return np.array(traj)


def velocity_along_x(p):
    return np.stack([4 * p[..., 2] * (1 - p[..., 2]), 0 * p[..., 0], 0 * p[..., 0]], axis=-1)


class TestFastDiagonalization:
    @pytest.mark.parametrize("order", [1, 2])
    def test_kronecker_forms_and_solve_match_assembly(self, order):
        # anisotropic cells, two constrained faces on different axes; every
        # axis separates, so each block is 1x1
        mesh = build_box_mesh((0, 0, 0), (1.0, 0.5, 2.0), (3, 2, 4), order=order)
        free = free_of_faces(mesh, "x-", "z+")
        fd = FastDiagonalization.of(mesh, free, [("reaction", 1.0), ("diffusion", 1.0)])
        assert fd.blocks == (len(free), 1)
        M_ref = assemble_mass(mesh)[free][:, free]
        K_ref = assemble_stiffness(mesh, 1.0)[free][:, free]
        # the Kronecker forms of the 1-D matrices on the kept nodes, slowest axis first
        pairs = kron_forms(mesh, free, (2, 1, 0))
        M = functools.reduce(sp.kron, [M_a for _, M_a in pairs])
        K = sum(
            functools.reduce(sp.kron, [Kb if b == a else Mb for b, (Kb, Mb) in enumerate(pairs)])
            for a in range(len(pairs))
        )  # the stiffness: K_a in the place of M_a, summed over axes
        assert abs(M - M_ref).max() <= 1e-15 * abs(M_ref).max()
        assert abs(K - K_ref).max() <= 1e-15 * abs(K_ref).max()
        B = np.random.default_rng(2).standard_normal((len(free), 3))
        # the mass and the stiffness Kronecker forms alone, then a sum, then a march
        for weights, dt in [((1.0, 0.0), None), ((0.0, 1.0), None), ((2.0, 0.3), None),
                            ((0.0, 0.3), 0.5)]:
            solve = fd.solver(weights, dt)
            A = weights[0] * M_ref + weights[1] * K_ref + (0 if dt is None else M_ref / dt)
            oracle = np.linalg.solve(A.toarray(), B)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(solve(B) - oracle)) <= 1e-13 * scale
            assert np.max(np.abs(solve(B[:, 1]) - oracle[:, 1])) <= 1e-13 * scale

    @pytest.mark.parametrize("order", [1, 2])
    def test_partly_separable_terms_are_kronecker_forms_solved_by_mode_blocks(self, order):
        # diffusion "1 + x" and a velocity along x that reads z separate
        # along y only: one block over (z, x) per y-mode
        mesh = build_box_mesh((0, 0, 0), (2.0, 1.0, 1.0), (3, 2, 3), order=order)
        free = free_of_faces(mesh, "x-", "y+")
        terms = [("diffusion", lambda p: 1 + p[..., 0]), ("advection", velocity_along_x)]
        fd = FastDiagonalization.of(mesh, free, terms, separated=(1,))
        shape = fd.shape  # (z, y, x)
        assert fd.blocks == (shape[1], shape[0] * shape[2])
        # free DoFs reordered (y, z, x), where each term is kron(M_y, Q) + kron(K_y, P)
        yzx = np.arange(len(free)).reshape(shape).transpose(1, 0, 2).ravel()
        [(K_y, M_y)] = kron_forms(mesh, free, (1,))
        assembled = [
            assemble_stiffness(mesh, terms[0][1]), assemble_advection(mesh, velocity_along_x)
        ]
        for A, (Q, P) in zip(assembled + [assemble_mass(mesh)], fd.factors + [fd.mass]):
            A_ff = A[free][:, free][yzx][:, yzx]
            kron = sp.kron(M_y, Q) + sp.kron(K_y, P)
            assert abs(kron - A_ff).max() <= 1e-15 * abs(A_ff).max()
        M_ff = assemble_mass(mesh)[free][:, free]
        B = np.random.default_rng(5).standard_normal((len(free), 2))
        for weights, dt in [((1.0, 1.0), None), ((0.4, 2.0), 0.1)]:
            A = weights[0] * assembled[0] + weights[1] * assembled[1]
            A = A[free][:, free] + (0 if dt is None else M_ff / dt)
            oracle = np.linalg.solve(A.toarray(), B)
            solved = fd.solver(weights, dt)(B)
            assert np.max(np.abs(solved - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("separated", [None, (1,), ()], ids=["1x1", "mode-blocks", "one-block"])
    def test_march_in_mode_coordinates_agrees_with_a_per_step_march(self, separated):
        # a nonzero initial state enters the coordinates by V^T M_S
        mesh = build_box_mesh((0, 0, 0), (2.0, 1.0, 1.0), (3, 3, 2))
        free = free_of_faces(mesh, "x-", "y+")
        if separated is None:
            terms = [("diffusion", 1.0), ("reaction", 2.0)]
        else:
            terms = [("diffusion", lambda p: 1 + p[..., 0]), ("advection", velocity_along_x)]
        fd = FastDiagonalization.of(mesh, free, terms, separated)
        weights, dt = [0.7, 1.3], 0.05
        A = sum(w * cr.fem.assemble_term(mesh, kind, c) for w, (kind, c) in zip(weights, terms))
        A_ff, M_ff = A[free][:, free], assemble_mass(mesh)[free][:, free]
        rng = np.random.default_rng(7)
        F, u0 = rng.standard_normal((len(free), 7)), rng.standard_normal(len(free))
        reference = per_step_march(M_ff, A_ff, F, u0, dt)
        for solve in (fd.solver(weights, dt), None):
            traj = solve_unsteady_bdf1(M_ff, A_ff, F, u0, dt, solve)
            assert np.array_equal(traj[0], u0)
            assert np.max(np.abs(traj - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_dof_set_that_is_not_a_tensor_product_is_refused(self):
        mesh = unit_square(3)
        for dofs in (np.arange(1, mesh.n_dofs), np.arange(0)):
            with pytest.raises(DimensionMismatchError):
                FastDiagonalization.of(mesh, dofs, [("reaction", 1.0)])

    @pytest.mark.parametrize("separated", [None, (0,), ()], ids=["1x1", "mode-blocks", "one-block"])
    def test_zero_system_raises(self, separated):
        mesh = unit_square(2)
        fd = FastDiagonalization.of(mesh, np.arange(mesh.n_dofs), [("reaction", 1.0)], separated)
        with pytest.raises(SolverFailureError):
            fd.solver([0.0])


def march_system(spec, mu):
    """The free block of ``M/dt + A(mu)`` of a spec's master."""
    sub = cr.build_fom(spec).master
    A_ff, _ = sub.free_system(sub.mu_mapping(mu))
    return (sub.constants.mass.matrix / spec.time.dt + A_ff).tocsc()


class TestLuOrdering:
    def test_symmetric_ordering_keeps_diagonal_pivots_and_fills_less(self):
        A = march_system(heat_laplace_pair(), [1.0])
        lu = factorized_solver(A).__self__
        assert np.array_equal(lu.perm_r, lu.perm_c)
        colamd = spla.splu(A)  # scipy's default column ordering
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_advection_system_solves_within_tolerance(self):
        A = march_system(transport_wall_pair(), [1.0])
        assert abs(A - A.T).max() > 1e-3 * abs(A).max()  # not symmetric
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        u = factorized_solver(A)(b)
        assert np.linalg.norm(b - A @ u) <= SOLVE_RTOL * np.linalg.norm(b)
