import dataclasses
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    OversamplingError,
    ProjectionDistanceError,
)
from coupledrom.fem import assemble_stiffness
from coupledrom.interface import (
    assemble_reducer,
    build_transfer_matrix,
    deim_indices,
    make_deim_basis,
    nearest_dof_map,
)
from coupledrom.mesh import build_box_mesh, extract_interface
from coupledrom.library import steady_pair_2d
from coupledrom.pod import PodFactorization


def cube_trace(n, order=1, origin=(0, 0, 0), face="x+"):
    mesh = build_box_mesh(origin, (1, 1, 1), (n, n, n), order=order)
    return mesh, extract_interface(mesh, face)


def greedy_oracle(Phi):
    """Brute-force greedy index selection via dense least squares."""
    picked = [int(np.argmax(np.abs(Phi[:, 0])))]
    for j in range(1, Phi.shape[1]):
        sub = Phi[np.array(picked), :j]
        c, *_ = np.linalg.lstsq(sub, Phi[np.array(picked), j], rcond=None)
        r = Phi[:, j] - Phi[:, :j] @ c
        picked.append(int(np.argmax(np.abs(r))))
    return picked


class TestTransferLinear:
    def test_constant_preserved(self):
        _, tm = cube_trace(4)
        _, ts = cube_trace(3)
        out = build_transfer_matrix(tm, ts) @ np.full(len(tm), 2.5)
        assert np.allclose(out, 2.5, atol=1e-14)

    def test_conforming_is_bit_identical_permutation(self):
        def adjacent(dim, n, order, axis):
            shift = np.eye(dim, dtype=int)[axis]
            master = build_box_mesh((0,) * dim, (1,) * dim, (n,) * dim, order=order)
            slave = build_box_mesh(tuple(shift), (1,) * dim, (n,) * dim, order=order)
            face = "xyz"[axis]
            return extract_interface(master, face + "+"), extract_interface(slave, face + "-")

        pairs = {
            "same Q1 face": (cube_trace(4)[1], cube_trace(4)[1]),
            "same Q2 face": (cube_trace(3, order=2)[1], cube_trace(3, order=2)[1]),
            "adjacent 3-D Q1 x": adjacent(3, 4, 1, 0),
            "adjacent 3-D Q2 y": adjacent(3, 2, 2, 1),
            "adjacent 2-D Q1 x": adjacent(2, 16, 1, 0),
            "adjacent 2-D Q2 y": adjacent(2, 5, 2, 1),
        }
        rng = np.random.default_rng(0)
        for name, (tm, ts) in pairs.items():
            # the master point at each slave point's exact in-plane position
            axes = list(tm.inplane_axes)
            same = tm.coords[None, :, axes] == ts.coords[:, None, axes]
            match = np.argmax(same.all(axis=2), axis=1)
            vals = rng.standard_normal(len(tm))
            P = build_transfer_matrix(tm, ts)
            assert P.nnz == len(tm), name
            assert np.all(P.data == 1.0), name
            assert np.array_equal(P.indptr, np.arange(len(ts) + 1)), name
            assert np.array_equal(P.indices, match), name
            assert np.array_equal(P @ vals, vals[match]), name

    def test_affine_field_reproduced_exactly(self):
        _, tm = cube_trace(5)
        _, ts = cube_trace(3)

        def affine(c):
            return 0.3 + 1.7 * c[:, 1] - 0.9 * c[:, 2]

        out = build_transfer_matrix(tm, ts) @ affine(tm.coords)
        assert np.max(np.abs(out - affine(ts.coords))) <= 1e-12

    def test_affine_2d_line_trace(self):
        m2 = build_box_mesh((0, 0), (1, 1), (6, 6))
        s2 = build_box_mesh((1, 0), (1, 1), (4, 4))
        tm = extract_interface(m2, "x+")
        ts = extract_interface(s2, "x-")
        vals = 1.0 + 2.0 * tm.coords[:, 1]
        out = build_transfer_matrix(tm, ts) @ vals
        assert np.max(np.abs(out - (1.0 + 2.0 * ts.coords[:, 1]))) <= 1e-12

    @pytest.mark.parametrize(
        "master, slave, faces",
        [
            # non-nested 2-D line traces; the slave's top point lies above the master face
            (((0, 0), (1, 1), (7, 7), 2), ((1, 0), (1, 1.2), (5, 5), 1), ("x+", "x-")),
            # non-nested 3-D face traces, partly off the master face
            (((0, 0, 0), (1, 1, 1), (5, 5, 5), 1), ((1, -0.1, 0), (1, 1, 1.1), (3, 4, 3), 1),
             ("x+", "x-")),
        ],
    )
    def test_non_nested_weights_match_brute_force(self, master, slave, faces):
        tm = extract_interface(build_box_mesh(*master), faces[0])
        ts = extract_interface(build_box_mesh(*slave), faces[1])
        axes = list(tm.inplane_axes)
        expected = np.zeros((len(ts), len(tm)))
        snapped = 0
        for row, point in enumerate(ts.coords[:, axes]):
            cells, factors = [], []
            for g, x in zip(tm.inplane_grids, point):
                j = max([i for i in range(len(g) - 1) if g[i] <= x], default=0)
                t = min(max((x - g[j]) / (g[j + 1] - g[j]), 0.0), 1.0)
                cells.append(j)
                factors.append((1.0 - t, t))
                snapped += not g[0] <= x <= g[-1]
            for corner in itertools.product((0, 1), repeat=len(axes)):
                weight = 1.0
                for f, c in zip(factors, corner):
                    weight *= f[c]
                at = [g[j + c] for g, j, c in zip(tm.inplane_grids, cells, corner)]
                col = np.flatnonzero((tm.coords[:, axes] == at).all(axis=1))
                expected[row, col] += weight
        assert snapped
        assert np.array_equal(build_transfer_matrix(tm, ts).toarray(), expected)

    def test_out_of_hull_points_snap(self):
        big = build_box_mesh((0, 0, 0), (1, 2, 2), (2, 4, 4))
        small = build_box_mesh((1, 0.5, 0.5), (1, 1, 1), (2, 2, 2))
        tm = extract_interface(small, "x-")  # small face
        ts = extract_interface(big, "x+")  # larger face: some points outside
        out = build_transfer_matrix(tm, ts) @ np.ones(len(tm))
        assert np.allclose(out, 1.0, atol=1e-14)  # constants survive snapping

    def test_distance_limit_enforced(self):
        far = build_box_mesh((0, 0, 0), (1, 1, 1), (2, 2, 2))
        off = build_box_mesh((3, 0, 0), (1, 1, 1), (2, 2, 2))
        tm = extract_interface(far, "x+")
        ts = extract_interface(off, "x-")
        with pytest.raises(ProjectionDistanceError):
            build_transfer_matrix(tm, ts, max_distance=0.5)


class TestDeimIndices:
    def test_single_basis_vector(self):
        Phi = np.zeros((5, 1))
        Phi[3, 0] = 1.0
        assert deim_indices(Phi).tolist() == [3]

    def test_two_canonical_columns(self):
        Phi = np.eye(4)[:, :2]
        assert deim_indices(Phi).tolist() == [0, 1]

    def test_matches_dense_greedy_oracle(self):
        rng = np.random.default_rng(21)
        Phi, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        assert deim_indices(Phi).tolist() == greedy_oracle(Phi)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_oracle_agreement_random_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        Phi, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        idx = deim_indices(Phi)
        assert idx.tolist() == greedy_oracle(Phi)
        assert len(set(idx.tolist())) == 5

    def test_degenerate_basis_reports_step(self):
        Phi = np.zeros((4, 2))
        Phi[0, 0] = 1.0
        Phi[0, 1] = 1.0  # second column interpolated exactly by the first index
        with pytest.raises(DegenerateBasisError) as err:
            deim_indices(Phi)
        assert err.value.step == 2

    def test_singular_magic_rows_are_degenerate_where_solved(self):
        # a repeated index: Phi_I has an exactly zero column, so its norm
        # bound is infinite and a solve with it is refused
        Phi = np.eye(6)[:, :3]
        basis = make_deim_basis(Phi, [1, 1, 2])
        assert basis.inverse_norm == np.inf
        with pytest.raises(DegenerateBasisError, match="singular"):
            basis.reconstruct(np.ones(3))
        Phi[2, 0] = np.nan
        with pytest.raises(DegenerateBasisError, match="not finite"):
            make_deim_basis(Phi, [1, 0, 2])

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_interpolation_property(self, seed):
        rng = np.random.default_rng(seed)
        Phi, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        basis = make_deim_basis(Phi)
        w = Phi @ rng.standard_normal(6)
        rec = basis.reconstruct(w[basis.indices])
        assert np.linalg.norm(rec - w) <= 1e-10 * np.linalg.norm(w)


class TestNearestDofMap:
    def test_coinciding_points_identity(self):
        _, tm = cube_trace(3)
        assert np.array_equal(nearest_dof_map(tm.coords, tm), np.arange(len(tm)))

    def test_line_example(self):
        m = build_box_mesh((0, 0), (1, 1), (4, 4))
        tm = extract_interface(m, "y-")  # nodes at x = 0, .25, .5, .75, 1
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        assert nearest_dof_map(pts, tm).tolist() == [0, 2, 4]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        _, tm = cube_trace(6)
        pts = np.column_stack(
            [np.ones(40), rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)]
        )
        got = nearest_dof_map(pts, tm)
        d2 = np.sum((pts[:, None, :] - tm.coords[None, :, :]) ** 2, axis=2)
        assert np.array_equal(got, np.argmin(d2, axis=1))

    def test_tie_breaks_to_smallest_index(self):
        m = build_box_mesh((0, 0), (1, 1), (2, 2))
        tm = extract_interface(m, "y-")  # x = 0, 0.5, 1
        got = nearest_dof_map(np.array([[0.25, 0.0]]), tm)
        assert got.tolist() == [0]

    def test_points_off_the_face_match_exhaustive_oracle(self):
        # off the plane, beyond the face's edges, on a second-order grid
        rng = np.random.default_rng(5)
        _, tm = cube_trace(3, order=2)
        pts = rng.uniform(-0.5, 1.5, (60, 3))
        d2 = np.sum((pts[:, None, :] - tm.coords[None, :, :]) ** 2, axis=2)
        assert np.array_equal(nearest_dof_map(pts, tm), np.argmin(d2, axis=1))


def test_import_loads_no_kd_tree():
    # the nearest-DoF map locates points on the trace grid, so importing the
    # package does not load scipy.spatial
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, coupledrom; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def reducer_from_snapshots(S_D, eps, tm, ts, V1, V2=None, slave_operators=()):
    """Interpolation basis over the trace snapshots ``S_D`` and the stored
    products, through the full-order transfer from ``tm`` to ``ts``."""
    deim = make_deim_basis(PodFactorization(S_D).truncate(eps))
    P = build_transfer_matrix(tm, ts)
    return assemble_reducer(deim, P, tm, ts, V1, V2, slave_operators)


def make_reducer_setup(n_master=4, n_slave=2, n_snap=12, eps=1e-10, order=1):
    master_mesh, tm = cube_trace(n_master, order=order)
    slave_mesh = build_box_mesh((1, 0, 0), (1, 1, 1), (n_slave, n_slave, n_slave))
    ts = extract_interface(slave_mesh, "x-")
    rng = np.random.default_rng(17)
    # smooth synthetic master fields evaluated on the master trace
    fields = []
    for _ in range(n_snap):
        a, b, c = rng.uniform(0.3, 2.0, 3)
        fields.append(
            np.sin(a * tm.coords[:, 1]) * np.cos(b * tm.coords[:, 2]) + c
        )
    P = build_transfer_matrix(tm, ts)
    S_D = np.stack([P @ f for f in fields], axis=1)
    V1 = np.zeros((master_mesh.n_dofs, n_snap))
    V1[tm.dof_indices] = np.stack(fields, axis=1)  # master basis carrying the traces
    q1, _ = np.linalg.qr(V1)
    K2 = assemble_stiffness(slave_mesh, diffusion=1.0)
    V2 = np.linalg.qr(np.random.default_rng(5).standard_normal((slave_mesh.n_dofs, 6)))[0]
    V2[ts.dof_indices] = 0.0
    reducer = reducer_from_snapshots(S_D, eps, tm, ts, q1, V2, slave_operators=[K2])
    return reducer, tm, ts, P, q1, V2, K2


#: a slave trace nested in the master's (every slave point a master point)
#: and one that is not
SLAVE_SUBDIVISIONS = {"nested": 2, "non-nested": 3}


class TestInterfaceReducer:
    def test_single_snapshot_reconstruction(self):
        mesh, tm = cube_trace(3)
        slave_mesh = build_box_mesh((1, 0, 0), (1, 1, 1), (2, 2, 2))
        ts = extract_interface(slave_mesh, "x-")
        V1 = np.zeros((mesh.n_dofs, 1))
        V1[tm.dof_indices, 0] = 1.0 + tm.coords[:, 1] * 2.0
        s = 1.0 + ts.coords[:, 1] * 2.0  # the affine field's exact transfer
        reducer = reducer_from_snapshots(s[:, None], 1e-8, tm, ts, V1)
        assert reducer.m == 1
        rec = reducer.deim.reconstruct(s[reducer.deim.indices])
        assert np.linalg.norm(rec - s) <= 1e-12 * np.linalg.norm(s)
        trace = reducer.full_transfer @ np.array([1.0])
        assert np.linalg.norm(trace - s) <= 1e-12 * np.linalg.norm(s)

    def test_oversampling_rejected(self):
        spec = steady_pair_2d(master_subdivisions=(1, 1), slave_subdivisions=(3, 3))
        training = cr.run_training(spec, 3, seed=1)  # 2 master trace DoFs
        n_trace = len(training.fom.slave.interface)
        S = np.random.default_rng(0).standard_normal((n_trace, n_trace))
        training = dataclasses.replace(training, pod_dirichlet=PodFactorization(S))
        with pytest.raises(OversamplingError):
            cr.build_artifacts(training, (1e-14, 1e-14, 1e-14))

    def test_full_deim_on_conforming_grids_reproduces_snapshots(self):
        mesh, tm = cube_trace(3)
        slave_mesh = build_box_mesh((1, 0, 0), (1, 1, 1), (3, 3, 3))
        ts = extract_interface(slave_mesh, "x-")
        P = build_transfer_matrix(tm, ts)
        rng = np.random.default_rng(1)
        V1 = np.zeros((mesh.n_dofs, len(ts)))
        V1[tm.dof_indices] = rng.standard_normal((len(tm), len(ts)))
        S = P @ V1[tm.dof_indices]  # full rank: m = trace size
        reducer = reducer_from_snapshots(S, 1e-14, tm, ts, V1)
        assert reducer.m == len(ts)
        for j in range(4):
            coeff = np.zeros(len(ts))
            coeff[j] = 1.0
            # u_n1 = e_j reconstructs column j of the snapshot matrix
            trace = reducer.full_transfer @ coeff
            assert np.linalg.norm(trace - S[:, j]) <= 1e-10 * np.linalg.norm(S[:, j])

    def test_held_out_reconstruction_within_tolerance_budget(self):
        eps = 1e-3
        master_mesh, tm = cube_trace(6)
        slave_mesh = build_box_mesh((1, 0, 0), (1, 1, 1), (3, 3, 3))
        ts = extract_interface(slave_mesh, "x-")
        rng = np.random.default_rng(9)

        def field(alpha, beta):
            return np.exp(-alpha * tm.coords[:, 1]) + beta * tm.coords[:, 2] ** 2

        P = build_transfer_matrix(tm, ts)
        train = np.stack(
            [P @ field(a, b) for a, b in rng.uniform(0.5, 5.0, size=(40, 2))], axis=1
        )
        deim = make_deim_basis(PodFactorization(train).truncate(eps))
        rel_errors = []
        for a, b in rng.uniform(0.5, 5.0, size=(10, 2)):
            w = P @ field(a, b)
            rec = deim.reconstruct(w[deim.indices])
            rel_errors.append(np.linalg.norm(rec - w) / np.linalg.norm(w))
        assert max(rel_errors) <= 10 * eps

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_lifting_needs_one_weight_per_product(self, count):
        reducer, tm, ts, P, V1, V2, K2 = make_reducer_setup()
        two = assemble_reducer(reducer.deim, P, tm, ts, V1, V2, [K2, 2 * K2])
        assert len(two.lift_products) == 2 and two.lift_mass is None
        with pytest.raises(DimensionMismatchError, match="2 lifting products"):
            two.reduced_lifting(np.ones(V1.shape[1]), [1.0] * count)

    def test_zero_input(self):
        reducer, *_ = make_reducer_setup()
        u_n1 = np.zeros(reducer.full_transfer.shape[1])
        assert not np.any(reducer.full_transfer @ u_n1)
        assert not np.any(reducer.reduced_lifting(u_n1, [1.0]))

    @pytest.mark.parametrize("slave", SLAVE_SUBDIVISIONS.values(), ids=SLAVE_SUBDIVISIONS)
    def test_matches_unreduced_path(self, slave):
        reducer, tm, ts, P, V1, V2, K2 = make_reducer_setup(n_slave=slave)
        rng = np.random.default_rng(23)
        u_n1 = rng.standard_normal(V1.shape[1])
        trace = reducer.full_transfer @ u_n1
        lift = reducer.reduced_lifting(u_n1, [1.0])
        # unreduced oracle: expand master, extract trace, transfer, then
        # interpolate again from the magic values
        u_full = V1 @ u_n1
        transferred = P @ u_full[tm.dof_indices]
        oracle_trace = reducer.deim.reconstruct(transferred[reducer.deim.indices])
        assert np.linalg.norm(trace - oracle_trace) <= 1e-10 * max(
            np.linalg.norm(oracle_trace), 1e-30
        )
        # lifting oracle: project the zero-extended Dirichlet vector
        full_dirichlet = np.zeros(V2.shape[0])
        full_dirichlet[ts.dof_indices] = trace
        oracle_lift = V2.T @ (K2 @ full_dirichlet)
        assert np.linalg.norm(lift - oracle_lift) <= 1e-10 * max(
            np.linalg.norm(oracle_lift), 1e-30
        )

    @pytest.mark.parametrize("slave", SLAVE_SUBDIVISIONS.values(), ids=SLAVE_SUBDIVISIONS)
    def test_transfer_norm_is_the_reduced_transfer_norm(self, slave):
        reducer, tm, ts, P, *_ = make_reducer_setup(n_slave=slave)
        deim = reducer.deim
        dense = deim.Phi @ np.linalg.solve(deim.Phi[deim.indices], P[deim.indices].toarray())
        assert reducer.transfer_norm == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)

    @pytest.mark.parametrize("slave", SLAVE_SUBDIVISIONS.values(), ids=SLAVE_SUBDIVISIONS)
    def test_transfer_norm_carries_the_svd_margin(self, slave):
        # the margin 4 m eps s_max of make_deim_basis keeps it above the
        # plain two-norm of the same product
        reducer, tm, ts, P, *_ = make_reducer_setup(n_slave=slave)
        deim = reducer.deim
        plain = np.linalg.norm(np.linalg.solve(deim.Phi[deim.indices], P[deim.indices].toarray()), 2)
        margin = 4 * deim.m * np.finfo(float).eps * plain
        assert plain < reducer.transfer_norm
        assert reducer.transfer_norm == pytest.approx(plain + margin, rel=1e-15)

    def test_order_covariance_under_permutation(self):
        reducer, tm, ts, P, V1, V2, K2 = make_reducer_setup()
        rng = np.random.default_rng(31)
        perm = rng.permutation(reducer.m)
        permuted = make_deim_basis(reducer.deim.Phi, indices=reducer.deim.indices[perm])
        other = assemble_reducer(permuted, P, tm, ts, V1, V2, [K2])
        u_n1 = rng.standard_normal(V1.shape[1])
        t0, t1 = reducer.full_transfer @ u_n1, other.full_transfer @ u_n1
        l0, l1 = reducer.reduced_lifting(u_n1, [1.0]), other.reduced_lifting(u_n1, [1.0])
        assert np.allclose(t0, t1, atol=1e-11 * max(1.0, np.abs(t0).max()))
        assert np.allclose(l0, l1, atol=1e-11 * max(1.0, np.abs(l0).max()))

    def test_inverse_norm_bounds_the_dense_inverse(self):
        rng = np.random.default_rng(43)
        for n, m in ((30, 5), (12, 12), (50, 1)):
            Phi, _ = np.linalg.qr(rng.standard_normal((n, m)))
            basis = make_deim_basis(Phi)
            dense = np.linalg.norm(np.linalg.inv(Phi[basis.indices]), 2)
            assert dense <= basis.inverse_norm <= dense * (1 + 1e-12)
        assert make_deim_basis(np.eye(7), np.arange(7)).inverse_norm >= 1.0

    def test_reconstruction_error_surrogate_bound(self):
        # the computable two-norm surrogate dominates the interpolation error
        rng = np.random.default_rng(41)
        Phi, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        basis = make_deim_basis(Phi)
        inv_norm = np.linalg.norm(np.linalg.inv(Phi[basis.indices]), 2)
        for _ in range(20):
            w = rng.standard_normal(30)
            rec = basis.reconstruct(w[basis.indices])
            proj = np.linalg.norm(w - Phi @ (Phi.T @ w))
            assert np.linalg.norm(w - rec) <= inv_norm * proj * (1 + 1e-10)

    def test_constant_master_field_constant_trace(self):
        mesh, tm = cube_trace(3)
        slave_mesh = build_box_mesh((1, 0, 0), (1, 1, 1), (3, 3, 3))
        ts = extract_interface(slave_mesh, "x-")
        const = np.ones(len(ts))
        V1 = np.zeros((mesh.n_dofs, 1))
        V1[tm.dof_indices, 0] = 1.0
        reducer = reducer_from_snapshots(const[:, None], 1e-10, tm, ts, V1)
        trace = reducer.full_transfer @ np.array([1.0])
        assert np.allclose(trace, 1.0, atol=1e-12)
