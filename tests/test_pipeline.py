import dataclasses
import itertools
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
import coupledrom.fem as fem
from coupledrom.errors import (
    ConfigError,
    DegenerateSnapshotsError,
    SingularRomError,
    SolverFailureError,
)
from coupledrom.library import heat_laplace_pair, steady_pair_2d, transport_wall_pair
from coupledrom.experiments import query_bounds, unsteady_query_bounds
from coupledrom.pipeline import ReducedSubmodel, _reduced_march, affine_sum
from coupledrom.pod import ReducedBasis
from coupledrom.problems import (
    AffineTerm,
    BoxMeshSpec,
    CoupledProblemSpec,
    ForcingTerm,
    SubmodelSpec,
    TimeSpec,
    compile_expression,
    eval_theta,
    reads_time,
)
from coupledrom.sampling import ParameterSpace, lhs_sample


@pytest.fixture(scope="module")
def steady_training():
    spec = steady_pair_2d()
    return cr.run_training(spec, n_train=24, seed=5)


@pytest.fixture(scope="module")
def unsteady_training():
    spec = heat_laplace_pair(
        master_subdivisions=(6, 6, 6), slave_subdivisions=(3, 3, 3), n_steps=25
    )
    return cr.run_training(spec, n_train=10, seed=7)


@pytest.fixture(scope="module")
def marching_training():
    spec = transport_wall_pair(
        channel_subdivisions=(6, 4, 4), wall_subdivisions=(3, 2, 2), n_steps=15
    )
    return cr.run_training(spec, 6, seed=3)


def constant_pair(c=0.7):
    """Pure-Neumann heat master with zero forcing: constants are invariant."""
    master = SubmodelSpec(
        mesh=BoxMeshSpec((0, 0), (1, 1), (4, 4)),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),),
        forcing=(),
        dirichlet={},
        interface_tag="x+",
        unsteady=True,
        initial=c,
    )
    slave = SubmodelSpec(
        mesh=BoxMeshSpec((1, 0), (1, 1), (2, 2)),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),),
        interface_tag="x-",
    )
    return CoupledProblemSpec(master=master, slave=slave, time=TimeSpec(0.1, 6))


def load_at(sub, mu, t=None):
    """One state's load ``sum_q theta_q(mu, t) f_q``, accumulated term by
    term into zeros."""
    out = np.zeros(sub.n)
    for theta, vec in sub.load_terms:
        out += eval_theta(theta, mu, t) * vec
    return out


def reference_march(M, A, dofs, values_of_step, load_of_t, u0, dt, n_steps):
    """Per-step BDF1 composition under time-varying Dirichlet values: one
    factorization of the eliminated system, one lifted load per step."""
    S = (M / dt + A).tocsr()
    solver = fem.factorized_solver(fem.eliminate_rows_cols(S, dofs))
    m_dt = (M / dt).tocsr()
    traj = np.empty((n_steps + 1, M.shape[0]))
    traj[0] = u0
    traj[0, dofs] = values_of_step(0)
    for k in range(n_steps):
        c = np.zeros(M.shape[0])
        c[dofs] = values_of_step(k + 1)
        rhs = load_of_t((k + 1) * dt) + m_dt @ traj[k] - S @ c
        rhs[dofs] = 0.0
        u = solver(rhs)
        u[dofs] = c[dofs]
        traj[k + 1] = u
    return traj


def reference_series(A, dofs, values_of_step, load_of_t, dt, n_steps):
    """Per-step steady solves of one operator under time-varying Dirichlet
    values, one vector solve per state."""
    solver = fem.factorized_solver(fem.eliminate_rows_cols(A, dofs))
    traj = np.empty((n_steps + 1, A.shape[0]))
    for k in range(n_steps + 1):
        c = np.zeros(A.shape[0])
        c[dofs] = values_of_step(k)
        rhs = load_of_t(k * dt) - A @ c
        rhs[dofs] = 0.0
        u = solver(rhs)
        u[dofs] = c[dofs]
        traj[k] = u
    return traj


def reference_coupled_solve(fom, mu1, mu2):
    """The coupled unsteady reference path composed step by step."""
    ts = fom.spec.time
    master, slave = fom.master, fom.slave
    mu1m, mu2m = master.mu_mapping(mu1), slave.mu_mapping(mu2)
    traj1 = reference_march(
        master.mass,
        master.assemble_operator(mu1m),
        master.dirichlet_dofs,
        lambda k: master.dirichlet_values,
        lambda t: load_at(master, mu1m, t),
        master.u0,
        ts.dt,
        ts.n_steps,
    )
    g_traj = (fom.transfer @ traj1[:, master.interface.dof_indices].T).T
    dofs2 = np.concatenate([slave.dirichlet_dofs, slave.interface.dof_indices])

    def values2(k):
        return np.concatenate([slave.dirichlet_values, g_traj[k]])

    A2 = slave.assemble_operator(mu2m)
    load2 = lambda t: load_at(slave, mu2m, t)
    if slave.spec.unsteady:
        traj2 = reference_march(
            slave.mass, A2, dofs2, values2, load2, slave.u0, ts.dt, ts.n_steps
        )
    else:
        traj2 = reference_series(A2, dofs2, values2, load2, ts.dt, ts.n_steps)
    return traj1, traj2


def small_heat_fom(n_steps=8):
    return cr.build_fom(
        heat_laplace_pair(
            master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=n_steps
        )
    )


class TestFomCoupledSolve:
    def test_march_and_steady_series_match_per_step_reference(self):
        fom = small_heat_fom()
        res = cr.fom_coupled_solve(fom, [0.8], [])
        traj1, traj2 = reference_coupled_solve(fom, [0.8], [])
        assert np.array_equal(res.master, traj1)
        # the series lifts all states as one block: summation order may differ
        assert np.max(np.abs(res.slave - traj2)) <= 1e-12 * np.max(np.abs(traj2))

    def test_unsteady_slave_march_matches_per_step_reference(self):
        spec = transport_wall_pair(
            channel_subdivisions=(4, 3, 3), wall_subdivisions=(2, 2, 2), n_steps=8
        )
        fom = cr.build_fom(spec)
        res = cr.fom_coupled_solve(fom, [0.6], [])
        traj1, traj2 = reference_coupled_solve(fom, [0.6], [])
        assert np.array_equal(res.master, traj1)
        # the march lifts on the free rows as A_fc L + M_fc dL/dt, the
        # reference as system @ lift on padded rows: summation order differs
        assert np.max(np.abs(res.slave - traj2)) <= 1e-12 * np.max(np.abs(traj2))

    def test_constant_master_gives_constant_slave(self):
        fom = cr.build_fom(constant_pair(0.7))
        res = cr.fom_coupled_solve(fom, [], [])
        assert np.allclose(res.master, 0.7, atol=1e-11)
        assert np.allclose(res.slave, 0.7, atol=1e-10)

    def test_affine_data_harmonic_extension(self):
        # a slave Laplace solve constrained by affine boundary data on every
        # face reproduces the affine field, since affine functions are harmonic
        mesh = cr.build_box_mesh((1, 0, 0), (1, 1, 1), (3, 3, 3))
        K = cr.assemble_stiffness(mesh, diffusion=1.0)
        boundary = np.unique(
            np.concatenate(
                [cr.extract_interface(mesh, f).dof_indices
                 for f in ("x-", "x+", "y-", "y+", "z-", "z+")]
            )
        )
        affine = lambda p: 0.4 + 0.3 * p[:, 0] - 1.1 * p[:, 1] + 0.9 * p[:, 2]
        values = affine(mesh.node_coords[boundary])
        K_bc, f_bc = cr.apply_dirichlet_lifting(
            K, np.zeros(mesh.n_dofs), zip(boundary, values)
        )
        u = cr.solve_steady(K_bc, f_bc)
        assert np.max(np.abs(u - affine(mesh.node_coords))) <= 1e-9

    def test_matches_componentwise_composition(self):
        spec = steady_pair_2d()
        fom = cr.build_fom(spec)
        mu1, mu2 = np.array([1.3, 2.2]), np.zeros(0)
        res = cr.fom_coupled_solve(fom, mu1, mu2)
        # manual composition of the primitives
        mu1m = fom.master.mu_mapping(mu1)
        A1 = fom.master.assemble_operator(mu1m)
        f1 = load_at(fom.master, mu1m)
        u1 = cr.solve_steady(
            *cr.apply_dirichlet_lifting(
                A1, f1, zip(fom.master.dirichlet_dofs, fom.master.dirichlet_values)
            )
        )
        B = cr.build_transfer_matrix(fom.master.interface, fom.slave.interface)
        g = B @ u1[fom.master.interface.dof_indices]
        A2 = fom.slave.assemble_operator({})
        u2 = cr.solve_steady(
            *cr.apply_dirichlet_lifting(
                A2, np.zeros(fom.slave.n_dofs), zip(fom.slave.interface.dof_indices, g)
            )
        )
        assert np.array_equal(res.master, u1)
        assert np.allclose(res.slave, u2, atol=1e-12)

    @pytest.mark.parametrize("unsteady", [False, True], ids=["steady-pair", "heat-series"])
    def test_free_system_solve_matches_lifting_composition(self, unsteady):
        # the slave of the steady pair and the instantaneous heat slave, one
        # state and a series of states: the free block solves bit for bit
        # like the identity-padded system
        if unsteady:
            fom, mu1 = small_heat_fom(), [0.8]
        else:
            fom, mu1 = cr.build_fom(steady_pair_2d()), [1.3, 2.2]
        time = fom.spec.time
        res = cr.fom_coupled_solve(fom, mu1, [])
        slave = fom.slave
        A_bc, F_bc = cr.apply_dirichlet_lifting(
            slave.assemble_operator({}),
            slave.loads_per_state({}, time),
            zip(slave.constrained_dofs, slave.constrained_values(res.dirichlet).T),
        )
        composed = cr.solve_steady(A_bc, F_bc).T
        assert np.array_equal(slave.solve({}, res.dirichlet, time), composed)
        assert np.array_equal(res.slave, composed)


def corrupt_solves(monkeypatch, n_dofs, call):
    """Scale by 1.001 the solution of the ``call``-th solve (1-based) with a
    factorization on ``n_dofs`` unknowns."""
    real = fem.factorized_solver

    def factory(A):
        solve = real(A)
        if A.shape[0] != n_dofs:
            return solve
        calls = []

        def corrupted(b):
            calls.append(1)
            x = solve(b)
            return 1.001 * x if len(calls) == call else x

        return corrupted

    monkeypatch.setattr(fem, "factorized_solver", factory)


class TestResidualChecks:
    # master: the BDF1 march solves steps 1..n; slave: the quasi-static
    # steady series solves states 0..n
    @pytest.mark.parametrize("side, call, step", [("master", 3, 3), ("slave", 6, 5)])
    def test_corrupted_step_raises_with_its_step(self, monkeypatch, side, call, step):
        fom = small_heat_fom()
        # the march and the series each factorize their submodel's free block
        n = len(getattr(fom, side).free_dofs)
        corrupt_solves(monkeypatch, n, call)
        with pytest.raises(SolverFailureError) as info:
            cr.fom_coupled_solve(fom, [0.8], [])
        assert info.value.step == step
        assert info.value.residual > 0.0


@pytest.mark.parametrize(
    "spec",
    [
        heat_laplace_pair(master_subdivisions=(3, 3, 3), slave_subdivisions=(2, 2, 2), n_steps=4),
        transport_wall_pair(channel_subdivisions=(4, 3, 3), wall_subdivisions=(2, 2, 2), n_steps=4),
    ],
    ids=["heat", "transport"],
)
def test_constrained_dofs_enter_only_through_the_free_system(monkeypatch, spec):
    # the identity-padded primitives are test references, not library paths
    def padded(*args, **kwargs):
        raise AssertionError("identity-padded system built")

    monkeypatch.setattr(fem, "eliminate_rows_cols", padded)
    monkeypatch.setattr(fem, "apply_dirichlet_lifting", padded)
    art = cr.full_rank_artifacts(spec)
    fom, mu1 = cr.build_fom(spec), [0.6]
    res = cr.fom_coupled_solve(fom, mu1, [])
    reports = query_bounds(fom, art, mu1, [], cr.online_solve(art, mu1, []), res)
    assert len(reports) == spec.time.n_steps + 1


class TestParameterCount:
    @pytest.mark.parametrize("mu1, mu2", [([0.7, 123.0], []), ([0.7], [5.0]), ([], [])])
    def test_online_query_rejects_a_wrong_count(self, mu1, mu2):
        spec = heat_laplace_pair(
            master_subdivisions=(2, 2, 2), slave_subdivisions=(1, 1, 1), n_steps=3
        )
        art = cr.full_rank_artifacts(spec)
        with pytest.raises(ConfigError, match="parameter value"):
            cr.online_solve(art, mu1, mu2)


class TestOffline:
    def test_single_training_sample_rejected(self):
        with pytest.raises(ConfigError):
            cr.run_training(steady_pair_2d(), n_train=1, seed=0)

    def test_zero_forcing_degenerate_snapshots(self):
        spec = steady_pair_2d()
        master = dataclasses.replace(spec.master, forcing=())
        with pytest.raises(DegenerateSnapshotsError):
            cr.run_training(dataclasses.replace(spec, master=master), n_train=3, seed=0)

    def test_basis_sizes_small(self, unsteady_training):
        art = cr.build_artifacts(unsteady_training, (1e-5, 1e-5, 1e-5))
        sizes = art.basis_sizes
        assert 1 <= sizes["master"] <= 25
        assert 1 <= sizes["slave"] <= 25
        assert 1 <= sizes["interface"] <= 25

    def test_reproducible_bit_identical(self):
        spec = steady_pair_2d()
        a = cr.build_artifacts(cr.run_training(spec, 6, seed=3), (1e-4, 1e-4, 1e-4))
        b = cr.build_artifacts(cr.run_training(spec, 6, seed=3), (1e-4, 1e-4, 1e-4))
        assert np.array_equal(a.master.basis.V, b.master.basis.V)
        assert np.array_equal(a.slave.basis.V, b.slave.basis.V)
        assert np.array_equal(a.reducer.full_transfer, b.reducer.full_transfer)
        for key in a.reducer.lift_products:
            assert np.array_equal(a.reducer.lift_products[key], b.reducer.lift_products[key])

    def test_threaded_training_matches_serial(self):
        spec = steady_pair_2d()
        serial = cr.run_training(spec, 8, seed=2, threads=1)
        threaded = cr.run_training(spec, 8, seed=2, threads=4)
        assert np.array_equal(
            serial.snapshots_master.matrix, threaded.snapshots_master.matrix
        )
        assert np.array_equal(
            serial.snapshots_dirichlet.matrix, threaded.snapshots_dirichlet.matrix
        )


class TestOnlineSteady:
    def test_training_point_accuracy(self, steady_training):
        art = cr.build_artifacts(steady_training, (1e-5, 1e-5, 1e-5))
        mu1 = steady_training.master_samples.points[0]
        res = cr.fom_coupled_solve(steady_training.fom, mu1, [])
        online = cr.online_steady(art, mu1, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        assert rel <= 1e-3

    def test_zero_forcing_zero_solution(self):
        spec = steady_pair_2d()
        master = dataclasses.replace(spec.master, forcing=())
        spec0 = dataclasses.replace(spec, master=master)
        fom = cr.build_fom(spec0)
        res = cr.fom_coupled_solve(fom, [1.0, 1.0], [])
        assert np.allclose(res.slave, 0.0, atol=1e-12)
        art = cr.full_rank_artifacts(spec0)
        online = cr.online_steady(art, [1.0, 1.0], [])
        assert np.allclose(online.slave_solution, 0.0, atol=1e-12)

    def test_full_rank_conforming_exactness(self):
        spec = steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(4, 4))
        art = cr.full_rank_artifacts(spec)
        fom = cr.build_fom(spec)
        mu1 = [2.0, 1.5]
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_steady(art, mu1, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        assert rel <= 1e-10

    def test_out_of_range_warns_but_proceeds(self, steady_training):
        art = cr.build_artifacts(steady_training, (1e-4, 1e-4, 1e-4))
        online = cr.online_steady(art, [50.0, 1.0], [])
        assert online.slave_solution is not None
        assert any("outside trained ranges" in w for w in online.diagnostics["warnings"])


class TestOnlineUnsteady:
    def test_constant_trajectories(self):
        spec = constant_pair(0.7)
        training = cr.run_training(spec, 2, seed=0)
        art = cr.build_artifacts(training, (1e-8, 1e-8, 1e-8))
        online = cr.online_unsteady(art, [], [])
        assert np.allclose(online.slave_solution, 0.7, atol=1e-9)

    def test_training_point_accuracy(self, unsteady_training):
        art = cr.build_artifacts(unsteady_training, (1e-5, 1e-5, 1e-5))
        mu1 = unsteady_training.master_samples.points[0]
        res = cr.fom_coupled_solve(unsteady_training.fom, mu1, [])
        online = cr.online_unsteady(art, mu1, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        assert rel <= 1e-3

    def test_richardson_first_order_in_dt(self, unsteady_training):
        art = cr.build_artifacts(unsteady_training, (1e-7, 1e-7, 1e-7))
        mu1 = unsteady_training.master_samples.points[1]
        base = unsteady_training.fom.spec.time

        def final_state(refine):
            spec_r = art.spec.with_time(base.dt / refine, base.n_steps * refine)
            art_r = dataclasses.replace(art, spec=spec_r)
            return cr.online_unsteady(art_r, mu1, []).slave_solution[-1]

        ref = final_state(32)
        errs = [np.linalg.norm(final_state(r) - ref) for r in (1, 2, 4)]
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert 0.8 <= rates.mean() <= 1.25

    def test_unsteady_slave_pair_runs_and_is_accurate(self, marching_training):
        training = marching_training
        art = cr.build_artifacts(training, (1e-6, 1e-6, 1e-6))
        mu = training.master_samples.points[2]
        res = cr.fom_coupled_solve(training.fom, mu, [])
        online = cr.online_unsteady(art, mu, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        assert rel <= 1e-3
        assert online.slave_solution.shape == res.slave.shape


def reference_online_unsteady(art, mu1, mu2):
    """The reduced coupled march composed step by step: one load per state
    from the load terms, one factorization per march and one solve per
    step."""
    ts = art.spec.time
    dt, n = ts.dt, ts.n_steps
    m1, s2 = art.master, art.slave
    mu1m = art.spec.master.parameters.as_mapping(np.atleast_1d(mu1))
    mu2m = art.spec.slave.parameters.as_mapping(np.atleast_1d(mu2))

    def march(S, rhs, u0):
        lu = sla.lu_factor(S)
        u = np.empty((n + 1, len(u0)))
        u[0] = u0
        for k in range(n):
            u[k + 1] = sla.lu_solve(lu, rhs(k, u[k]), check_finite=False)
        return u

    M1_dt = m1.mass / dt
    u1 = march(
        M1_dt + m1.assemble_operator(mu1m),
        lambda k, u: load_at(m1, mu1m, (k + 1) * dt) + M1_dt @ u,
        m1.u0_reduced,
    )
    w2 = s2.theta_weights(mu2m)
    if s2.unsteady:
        lift = art.reducer.lift_products
        LA = affine_sum(w2, [lift[f"A{q}"] for q in range(len(w2))])
        LM_dt = lift["M"] / dt
        M2_dt = s2.mass / dt
        u2 = march(
            M2_dt + s2.assemble_operator(mu2m),
            lambda k, u: load_at(s2, mu2m, (k + 1) * dt)
            + M2_dt @ u
            + LM_dt @ (u1[k] - u1[k + 1])
            - LA @ u1[k + 1],
            s2.u0_reduced,
        )
    else:
        lifting = art.reducer.reduced_lifting(
            u1.T, {f"A{q}": w for q, w in enumerate(w2)}
        )
        loads = np.column_stack([load_at(s2, mu2m, k * dt) for k in range(n + 1)])
        u2 = np.linalg.solve(s2.assemble_operator(mu2m), loads - lifting).T
    return u1, u2


class TestOnlineMatchesPerStepMarch:
    @pytest.mark.parametrize("sample", [0, 3])
    def test_heat_pair_bit_identical(self, unsteady_training, sample):
        art = cr.build_artifacts(unsteady_training, (1e-5, 1e-5, 1e-5))
        mu1 = unsteady_training.master_samples.points[sample]
        online = cr.online_unsteady(art, mu1, [], expand=False)
        u1, u2 = reference_online_unsteady(art, mu1, [])
        assert np.array_equal(online.master_reduced, u1)
        assert np.array_equal(online.slave_reduced, u2)

    @pytest.mark.parametrize("sample", [0, 5])
    def test_steady_pair_bit_identical(self, steady_training, sample):
        art = cr.build_artifacts(steady_training, (1e-5, 1e-5, 1e-5))
        mu1 = steady_training.master_samples.points[sample]
        online = cr.online_steady(art, mu1, [], expand=False)
        m1, s2 = art.master, art.slave
        mu1m = art.spec.master.parameters.as_mapping(mu1)
        u1 = np.linalg.solve(m1.assemble_operator(mu1m), m1.loads_per_state(mu1m))
        weights = s2.theta_weights({})
        lifting = art.reducer.reduced_lifting(u1, {f"A{q}": w for q, w in enumerate(weights)})
        u2 = np.linalg.solve(s2.assemble_operator({}), s2.loads_per_state({}) - lifting)
        assert np.array_equal(online.master_reduced, u1)
        assert np.array_equal(online.slave_reduced, u2)

    @pytest.mark.parametrize("sample", [0, 2])
    def test_marching_slave_matches(self, marching_training, sample):
        art = cr.build_artifacts(marching_training, (1e-6, 1e-6, 1e-6))
        mu1 = marching_training.master_samples.points[sample]
        online = cr.online_unsteady(art, mu1, [], expand=False)
        u1, u2 = reference_online_unsteady(art, mu1, [])
        assert np.array_equal(online.master_reduced, u1)
        # the slave's lifting is summed term by term, sum_q w_q (L_q u1) +
        # (1/dt)(L_M du), not as (sum_q w_q L_q) u1 + (L_M/dt) du: the
        # summation order differs
        assert np.max(np.abs(online.slave_reduced - u2)) <= 1e-12 * np.max(np.abs(u2))


    @pytest.mark.parametrize("sample", [0, 2])
    def test_marching_slave_bound_totals_match(self, marching_training, sample):
        training = marching_training
        art = cr.build_artifacts(training, (1e-6, 1e-6, 1e-6))
        mu1 = training.master_samples.points[sample]
        res = cr.fom_coupled_solve(training.fom, mu1, [])
        online = cr.online_unsteady(art, mu1, [])
        u1, u2 = reference_online_unsteady(art, mu1, [])
        reference = dataclasses.replace(online, master_reduced=u1, slave_reduced=u2)
        totals, ref_totals = (
            np.array([r.total for r in unsteady_query_bounds(training.fom, art, mu1, [], o, res)])
            for o in (online, reference)
        )
        # the slave residual cancels: its 1e-16 state differences grow here
        assert np.all(np.abs(totals - ref_totals) <= 2e-11 * ref_totals)


def test_weights_compiled_once_per_submodel_and_rejected_every_time(monkeypatch):
    import coupledrom.pipeline as pipeline

    calls = []
    real = pipeline.compile_expression

    def counting(source, *args):
        calls.append(source)
        return real(source, *args)

    monkeypatch.setattr(pipeline, "compile_expression", counting)
    source = "0.25 * kappa_once + t ** 3"
    sub = ReducedSubmodel(
        basis=ReducedBasis(np.eye(2), np.ones(2), 0.0),
        op_terms=[(source, np.eye(2))],
        mass=np.eye(2),
        load_terms=[(source, np.ones(2))],
        u0_reduced=np.zeros(2),
        unsteady=True,
    )
    mu = {"kappa_once": 2.0}
    loads = sub.loads_per_state(mu, TimeSpec(0.001, 999))
    weights = [sub.theta_weights(mu, k * 0.001)[0] for k in range(1000)]
    assert calls == [source]
    expected = [eval_theta(source, mu, k * 0.001) for k in range(1000)]
    assert np.array_equal(loads[0], expected) and weights == expected
    for _ in range(2):
        with pytest.raises(ConfigError):
            sub.theta_weights({"kappa": 1.0})
    assert calls == [source] * 3
    # a submodel built again compiles again, so every run compiles as often
    dataclasses.replace(sub).theta_weights(mu)
    assert calls == [source] * 4


class TestTimeIndependentLoadWeights:
    # a weight that does not read t is evaluated once per query; the loads
    # stay those of the per-state evaluation, bit for bit
    WEIGHTS = {
        "number": 1.5,
        "mu-only": "2.0 * kappa + 0.25",
        "time": "kappa * sin(3 * t) + t ** 2",
        "comprehension": "maximum(*[k * k for k in (t, kappa)])",
    }

    @pytest.mark.parametrize("name", list(WEIGHTS))
    def test_loads_equal_per_state_evaluation(self, name):
        rng = np.random.default_rng(11)
        theta = self.WEIGHTS[name]
        sub = ReducedSubmodel(
            basis=ReducedBasis(np.eye(5), np.ones(5), 0.0),
            op_terms=[(1.0, np.eye(5))],
            mass=np.eye(5),
            load_terms=[(0.3, rng.standard_normal(5)), (theta, rng.standard_normal(5))],
            u0_reduced=np.zeros(5),
            unsteady=True,
        )
        mu, time = {"kappa": 0.7}, TimeSpec(0.013, 40)
        loads = sub.loads_per_state(mu, time)
        for k in range(time.n_steps + 1):
            assert np.array_equal(loads[:, k], load_at(sub, mu, k * time.dt))
        assert np.array_equal(sub.loads_per_state(mu), load_at(sub, mu))

    def test_reads_time_looks_into_nested_code(self):
        names = {"t", "kappa"}
        assert reads_time(compile_expression("kappa * t", names))
        assert reads_time(compile_expression("minimum(*[k * t for k in (1.0, 2.0)])", names))
        assert not reads_time(compile_expression("minimum(*[t for t in (1.0, kappa)])", names))
        assert not reads_time(compile_expression("2.0 * kappa", names))
        assert not reads_time(1.0)

    def test_heat_query_evaluates_its_load_weight_once(self, monkeypatch):
        import coupledrom.pipeline as pipeline

        spec = heat_laplace_pair(
            master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=50
        )
        art = cr.full_rank_artifacts(spec)
        calls = []
        real = pipeline.eval_theta

        def counting(value, mu, t=None):
            calls.append(t)
            return real(value, mu, t)

        monkeypatch.setattr(pipeline, "eval_theta", counting)
        mu1m = spec.master.parameters.as_mapping(np.array([0.5]))
        art.master.loads_per_state(mu1m, spec.time)
        assert calls == [None]
        # the whole query: one call per weight, however many steps
        calls.clear()
        cr.online_unsteady(art, [0.5], [], expand=False)
        per_query = len(calls)
        short = dataclasses.replace(art, spec=dataclasses.replace(spec, time=TimeSpec(0.02, 3)))
        calls.clear()
        cr.online_unsteady(short, [0.5], [], expand=False)
        assert len(calls) == per_query and set(calls) == {None}


def test_heat_query_evaluates_each_weight_once(monkeypatch):
    import coupledrom.pipeline as pipeline

    spec = heat_laplace_pair(
        master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=10
    )
    art = cr.full_rank_artifacts(spec)
    calls = []
    real = pipeline.eval_theta

    def counting(value, mu, t=None):
        calls.append(value)
        return real(value, mu, t)

    monkeypatch.setattr(pipeline, "eval_theta", counting)
    online = cr.online_unsteady(art, [0.5], [], expand=False)
    # the master operator and load weights and the slave operator weight
    assert len(calls) == 3
    # the slave states of the composition that evaluates its weights twice
    s2 = art.slave
    weights = {f"A{q}": w for q, w in enumerate(s2.theta_weights({}))}
    lifting = art.reducer.reduced_lifting(online.master_reduced.T, weights)
    loads = s2.loads_per_state({}, spec.time)
    expected = np.linalg.solve(s2.assemble_operator({}), loads - lifting).T
    assert np.array_equal(online.slave_reduced, expected)


class TestNonzeroDirichletData:
    # reduced bases vanish at constrained DoFs and reduced loads carry no
    # lifting, so a reduced model would silently drop nonzero values
    @staticmethod
    def spec_with(side, face):
        spec = steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(2, 2))
        sub = dataclasses.replace(getattr(spec, side), dirichlet={face: 1.0})
        return dataclasses.replace(spec, **{side: sub})

    @pytest.mark.parametrize("side, face", [("master", "x-"), ("slave", "x+")])
    def test_reduced_models_refuse_it_before_any_solve(self, monkeypatch, side, face):
        import coupledrom.pipeline as pipeline

        def no_solve(*args):
            raise AssertionError("a full-order solve ran")

        monkeypatch.setattr(pipeline, "fom_coupled_solve", no_solve)
        spec = self.spec_with(side, face)
        with pytest.raises(ConfigError, match=f"{side}.*'{re.escape(face)}'"):
            cr.run_training(spec, 4, seed=3)
        with pytest.raises(ConfigError, match=f"{side}.*'{re.escape(face)}'"):
            cr.run_training(cr.build_fom(spec), 4, seed=3)
        with pytest.raises(ConfigError, match=f"{side}.*'{re.escape(face)}'"):
            cr.full_rank_artifacts(spec)

    @pytest.mark.parametrize("side, face", [("master", "x-"), ("slave", "x+")])
    def test_full_order_solve_imposes_it(self, side, face):
        fom = cr.build_fom(self.spec_with(side, face))
        res = cr.fom_coupled_solve(fom, [1.0, 1.0], [])
        sub = getattr(fom, side)
        dofs = cr.extract_interface(sub.mesh, face).dof_indices
        assert np.all(getattr(res, side)[dofs] == 1.0)


class TestToleranceMonotonicity:
    def test_plateau_property_on_grid(self, steady_training):
        # once the slave tolerance drops below the other two, further
        # tightening moves the mean error by less than a factor two
        grid = (1e-2, 1e-3, 1e-4, 1e-5)
        fom = steady_training.fom
        mu1s = list(cr.lhs_sample(fom.master.spec.parameters, 5, seed=42, kind="test").points)
        foms = [cr.fom_coupled_solve(fom, mu1, []) for mu1 in mu1s]

        def mean_error(tols):
            art = cr.build_artifacts(steady_training, tols)
            errs = []
            for mu1, res in zip(mu1s, foms):
                online = cr.online_steady(art, mu1, [])
                errs.append(
                    np.linalg.norm(res.slave - online.slave_solution)
                    / np.linalg.norm(res.slave)
                )
            return float(np.mean(errs))

        for e1, ed in itertools.product(grid, grid):
            floor = max(e1, ed)
            below = [e for e in grid if e < floor]
            if len(below) < 2:
                continue
            # in the regime ruled by the looser master/interface tolerances,
            # the slave tolerance no longer moves the error
            errors = [mean_error((e1, e2, ed)) for e2 in below]
            ref = errors[0]
            for err in errors[1:]:
                assert err <= 2.0 * ref
                assert err >= ref / 2.0


def without_full_order_arrays(art):
    """The artifacts with every full-order array emptied: ``basis.V`` is
    ``(0, n)``, ``reducer.full_transfer`` ``(0, n1)``, ``deim.Phi`` ``(0, m)``,
    and the reducer holds no interface trace."""
    reducer = art.reducer
    empty = lambda sub: dataclasses.replace(
        sub, basis=dataclasses.replace(sub.basis, V=np.empty((0, sub.n)))
    )
    return dataclasses.replace(
        art,
        master=empty(art.master),
        slave=empty(art.slave),
        reducer=dataclasses.replace(
            reducer,
            deim=dataclasses.replace(reducer.deim, Phi=np.empty((0, reducer.m))),
            full_transfer=np.empty((0, art.master.n)),
            slave_trace=None,
        ),
    )


class TestOnlineReads:
    # apart from the final expansions, the online path reads no full-order
    # array: with all of them emptied the reduced answers are unchanged
    @pytest.mark.parametrize("training", ["steady", "unsteady", "marching"])
    def test_reduced_answers_without_full_order_arrays(self, request, training):
        training = request.getfixturevalue(f"{training}_training")
        art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
        mu1 = training.master_samples.points[0]
        intact = cr.online_solve(art, mu1, [], expand=False)
        hollow = cr.online_solve(without_full_order_arrays(art), mu1, [], expand=False)
        assert np.array_equal(hollow.master_reduced, intact.master_reduced)
        assert np.array_equal(hollow.slave_reduced, intact.slave_reduced)


def with_zero_system(sub):
    """The reduced submodel with every operator term and its mass zeroed."""
    return dataclasses.replace(
        sub,
        op_terms=[(theta, np.zeros_like(A)) for theta, A in sub.op_terms],
        mass=None if sub.mass is None else np.zeros_like(sub.mass),
    )


def test_online_steady_rejects_unsteady_artifacts():
    # a steady solve of the heat master would drop its mass and u0
    spec = heat_laplace_pair(
        master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=8
    )
    with pytest.raises(ConfigError, match="online_steady requires a steady problem"):
        cr.online_steady(cr.full_rank_artifacts(spec), [0.5], [])


class TestSingularReducedSystems:
    # the master march, the marching slave and the instantaneous slave each
    # raise the typed error that the CLI maps to exit code 3
    @pytest.mark.parametrize("pair", ["heat", "transport"])
    @pytest.mark.parametrize("side", ["master", "slave"])
    def test_zero_system_raises_singular_rom_error(self, pair, side):
        if pair == "heat":
            spec = heat_laplace_pair(
                master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=8
            )
        else:
            spec = transport_wall_pair(
                channel_subdivisions=(6, 4, 4), wall_subdivisions=(3, 2, 2), n_steps=15
            )
        art = cr.full_rank_artifacts(spec)
        art = dataclasses.replace(art, **{side: with_zero_system(getattr(art, side))})
        with pytest.raises(SingularRomError):
            cr.online_unsteady(art, [0.5], [])

    def test_overflowing_steady_solution_raises_singular_rom_error(self):
        # nonzero pivots, so the factorization passes; the solution overflows
        art = cr.full_rank_artifacts(
            steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(2, 2))
        )
        tiny = [(theta, 1e-310 * A) for theta, A in art.master.op_terms]
        art = dataclasses.replace(art, master=dataclasses.replace(art.master, op_terms=tiny))
        with pytest.raises(SingularRomError):
            cr.online_steady(art, [1.0, 1.0], [])


    def test_overflowing_unsteady_march_raises_singular_rom_error(self):
        # nonzero pivots, so the factorization passes; the states overflow,
        # and the march's final check is the one that sees it
        spec = heat_laplace_pair(
            master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=8
        )
        art = cr.full_rank_artifacts(spec)
        m1 = art.master
        tiny = dataclasses.replace(
            m1, op_terms=[(theta, 1e-310 * A) for theta, A in m1.op_terms], mass=1e-310 * m1.mass
        )
        art = dataclasses.replace(art, master=tiny)
        with pytest.raises(SingularRomError):
            cr.online_unsteady(art, [0.5], [])
        mu1m = spec.master.parameters.as_mapping(np.array([0.5]))
        M_dt = tiny.mass / spec.time.dt
        with pytest.raises(SingularRomError, match="non-finite"):
            _reduced_march(
                M_dt + tiny.assemble_operator(mu1m),
                M_dt,
                tiny.loads_per_state(mu1m, spec.time),
                tiny.u0_reduced,
            )


def reference_reduced_march(S, M_dt, G, u0):
    """``_reduced_march`` composed from scipy's factor and solve wrappers."""
    lu = sla.lu_factor(S)
    u = np.empty((G.shape[1], len(u0)))
    u[0] = u0
    for k in range(G.shape[1] - 1):
        u[k + 1] = sla.lu_solve(lu, G[:, k + 1] + M_dt @ u[k], check_finite=False)
    return u


class TestReducedMarch:
    @given(n=st.integers(1, 12), n_steps=st.integers(1, 60), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_lu_solve_bit_for_bit(self, n, n_steps, seed):
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, n))
        S = K + (np.linalg.norm(K) + 1.0) * np.eye(n)  # sigma_min(S) >= 1
        M_dt = rng.standard_normal((n, n))
        G = rng.standard_normal((n, n_steps + 1))
        u0 = rng.standard_normal(n)
        got = _reduced_march(S, M_dt, G, u0)
        assert np.array_equal(got, reference_reduced_march(S, M_dt, G, u0))

    @given(n=st.integers(1, 12), seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_exactly_singular_system_raises(self, n, seed, data):
        # a zero column stays zero under elimination: an exactly zero pivot
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((n, n))
        S[:, data.draw(st.integers(0, n - 1))] = 0.0
        with pytest.raises(SingularRomError, match="getrf"):
            _reduced_march(S, np.eye(n), rng.standard_normal((n, 4)), np.zeros(n))


class TestConformingTraceExactness:
    def test_full_deim_trace_matches_master_values(self):
        # with a full interpolation basis on conforming grids, the online
        # Dirichlet data reproduces the master trace up to one factorized
        # solve's rounding
        spec = steady_pair_2d(master_subdivisions=(4, 4), slave_subdivisions=(4, 4))
        art = cr.full_rank_artifacts(spec)
        fom = cr.build_fom(spec)
        res = cr.fom_coupled_solve(fom, [1.7, 0.9], [])
        online = cr.online_steady(art, [1.7, 0.9], [])
        master_vals = res.master[fom.master.interface.dof_indices]
        scale = np.linalg.norm(master_vals)
        assert np.linalg.norm(online.trace - master_vals) <= 1e-12 * scale


#: per family: the pair for given slave subdivisions, the nested and the
#: non-nested slave subdivisions (the paper's case: slave trace points between
#: master trace points), and the tolerance of every triple entry
INTERFACE_PAIRS = {
    "heat": (
        lambda slave: heat_laplace_pair((8, 8, 8), slave, n_steps=10), (4, 4, 4), (5, 5, 5), 1e-5
    ),
    "steady-2d": (lambda slave: steady_pair_2d((8, 8), slave), (4, 4), (5, 5), 1e-6),
}
NESTINGS = ("nested", "non-nested")


@pytest.fixture(scope="module")
def interface_pairs():
    """Spec, full-order problem, artifacts and test rows of every pair."""
    out = {}
    for family, (make, nested, non_nested, tol) in INTERFACE_PAIRS.items():
        for nesting, slave in zip(NESTINGS, (nested, non_nested)):
            spec = make(slave)
            training = cr.run_training(spec, n_train=12, seed=11)
            art = cr.build_artifacts(training, (tol, tol, tol))
            rows = cr.evaluate_test_set(art, training.fom, n_test=4, seed=99, with_bounds=True)
            out[family, nesting] = (spec, training.fom, art, rows)
    return out


class TestNonNestedInterface:
    @pytest.mark.parametrize("family", INTERFACE_PAIRS)
    def test_full_rank_reproduces_full_order_solve(self, interface_pairs, family):
        spec, fom, _, _ = interface_pairs[family, "non-nested"]
        assert not fom.conforming
        art = cr.full_rank_artifacts(spec)
        for mu1 in lhs_sample(fom.master.spec.parameters, 2, 5, "test").points:
            res = cr.fom_coupled_solve(fom, mu1, [])
            online = cr.online_solve(art, mu1, [])
            rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
            assert rel <= 1e-10

    @pytest.mark.parametrize("family", INTERFACE_PAIRS)
    def test_error_within_ten_times_the_nested_pair(self, interface_pairs, family):
        nested, non_nested = (
            cr.summarize(interface_pairs[family, nesting][3]) for nesting in NESTINGS
        )
        assert non_nested["max_rel_error"] <= 10 * nested["max_rel_error"]
        assert nested["bound_valid_fraction"] == non_nested["bound_valid_fraction"] == 1.0

    @pytest.mark.parametrize("nesting", NESTINGS)
    @pytest.mark.parametrize("family", INTERFACE_PAIRS)
    def test_interface_terms_bound_the_trace_error(self, interface_pairs, family, nesting):
        _, fom, art, _ = interface_pairs[family, nesting]
        for mu1 in lhs_sample(fom.master.spec.parameters, 4, 99, "test").points:
            res = cr.fom_coupled_solve(fom, mu1, [])
            online = cr.online_solve(art, mu1, [])
            reports = query_bounds(fom, art, mu1, [], online, res)
            trace_errors = np.linalg.norm(np.atleast_2d(res.dirichlet - online.trace), axis=1)
            for report, error in zip(reports, trace_errors, strict=True):
                assert error <= report.deim_term + report.master_term
