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
    apply_dirichlet_lifting,
    assemble_advection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
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


class TestIterativeSolvePath:
    def test_cg_path_used_above_direct_limit(self, monkeypatch):
        import coupledrom.fem as fem

        monkeypatch.setattr(fem, "DIRECT_SOLVE_LIMIT", 10)
        mesh = unit_square(4)  # 25 DoFs, above the patched limit
        A = assemble_stiffness(mesh, 1.0) + 1.0 * assemble_mass(mesh)
        f = assemble_load(mesh, 1.0)
        u = solve_steady(A, f)
        res = np.linalg.norm(f - A @ u)
        assert res <= 1e-10 * np.linalg.norm(f)
        # a block of loads is solved column by column on this path
        U = solve_steady(A, np.column_stack([f, 2.0 * f]))
        assert np.linalg.norm(U[:, 1] - 2.0 * u) <= 1e-9 * np.linalg.norm(u)
        # so is a block passed to the solver itself
        assert np.array_equal(fem.factorized_solver(A)(np.column_stack([f, 2.0 * f])), U)


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
