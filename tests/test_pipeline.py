import dataclasses
import itertools
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
from coupledrom.library import (
    heat_laplace_pair,
    steady_pair_2d,
    steady_reaction_diffusion_pair,
    transport_wall_pair,
)
from coupledrom.experiments import (
    config_from_dict,
    query_bounds,
    run_offline,
    unsteady_query_bounds,
)
from coupledrom.pipeline import ReducedSubmodel, _reduced_march, affine_sum
from coupledrom.problems import (
    AffineTerm,
    BoxMeshSpec,
    CoupledProblemSpec,
    ForcingTerm,
    SubmodelSpec,
    TimeSpec,
    eval_theta,
)
from coupledrom.sampling import ParameterSpace, lhs_sample
from coupledrom.storage import load_bundle


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
    for (theta, _), vec in zip(sub.spec.compiled.forcing_weights, sub.load_terms):
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
        # the separable master marches by fast diagonalization, not by the
        # reference's LU
        assert np.max(np.abs(res.master - traj1)) <= 1e-13 * np.max(np.abs(traj1))
        # the series lifts all states as one block: summation order may differ
        assert np.max(np.abs(res.slave - traj2)) <= 1e-12 * np.max(np.abs(traj2))

    def test_unsteady_slave_march_matches_per_step_reference(self):
        spec = transport_wall_pair(
            channel_subdivisions=(4, 3, 3), wall_subdivisions=(2, 2, 2), n_steps=8
        )
        fom = cr.build_fom(spec)
        res = cr.fom_coupled_solve(fom, [0.6], [])
        traj1, traj2 = reference_coupled_solve(fom, [0.6], [])
        # the master solves one block per y-mode, the reference the whole
        # identity-padded system by LU
        assert np.max(np.abs(res.master - traj1)) <= 1e-13 * np.max(np.abs(traj1))
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
        # both submodels are separable: fast diagonalization against LU
        assert np.max(np.abs(res.master - u1)) <= 1e-13 * np.max(np.abs(u1))
        assert np.allclose(res.slave, u2, atol=1e-12)

    @pytest.mark.parametrize("unsteady", [False, True], ids=["steady-pair", "heat-series"])
    def test_free_system_solve_matches_lifting_composition(self, unsteady):
        # the slave of the steady pair and the instantaneous heat slave, one
        # state and a series of states: the free block, separable and so
        # diagonalized, solves like the identity-padded system under LU
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
        assert np.array_equal(slave.solve({}, res.dirichlet, time), res.slave)
        assert np.max(np.abs(res.slave - composed)) <= 1e-13 * np.max(np.abs(composed))


def corrupt_solves(monkeypatch, n_dofs, call):
    """Scale by 1.001 the ``call``-th state (1-based; each state of a block
    counts) that the mode-coordinate solves of a fast diagonalization on
    ``n_dofs`` unknowns return: a march solves one step per call, the
    steady and quasi-static series every state in one call."""
    real = fem.FastDiagonalization.solver

    def factory(self, weights, dt=None):
        solve = real(self, weights, dt)
        if self.n != n_dofs:
            return solve
        solved = [0]

        def corrupted(x):
            z = np.array(solve.solve_modes(x))
            states = z.reshape((-1,) + z.shape[-2:])
            first = solved[0]
            solved[0] += len(states)
            if first < call <= solved[0]:
                states[call - first - 1] *= 1.001
            return z

        return dataclasses.replace(solve, solve_modes=corrupted)

    monkeypatch.setattr(fem.FastDiagonalization, "solver", factory)


class TestResidualChecks:
    # master: the BDF1 march solves steps 1..n; slave: the quasi-static
    # steady series solves states 0..n
    @pytest.mark.parametrize("side, call, step", [("master", 3, 3), ("slave", 6, 5)])
    def test_corrupted_step_raises_with_its_step(self, monkeypatch, side, call, step):
        fom = small_heat_fom()
        # the march and the series each diagonalize their submodel's free block
        n = len(getattr(fom, side).free_dofs)
        corrupt_solves(monkeypatch, n, call)
        with pytest.raises(SolverFailureError) as info:
            cr.fom_coupled_solve(fom, [0.8], [])
        assert info.value.step == step
        assert info.value.residual > 0.0


def midpoint(space):
    return [(lo + hi) / 2 for lo, hi in space.ranges]


def solved_and_lu(fom, role):
    """One submodel's free states from ``fom_coupled_solve`` at the middle
    of both parameter ranges, and the same free system solved by sparse LU."""
    spec = fom.spec
    mu1, mu2 = midpoint(spec.master.parameters), midpoint(spec.slave.parameters)
    res = cr.fom_coupled_solve(fom, mu1, mu2)
    sub = getattr(fom, role)
    mu = sub.mu_mapping(mu1 if role == "master" else mu2)
    time = spec.time if spec.is_unsteady else None
    A_ff, F = sub.free_system(mu, None if role == "master" else res.dirichlet, time)
    free = sub.free_dofs
    if sub.spec.unsteady:
        M_ff = sub.mass[free][:, free]
        lu = fem.solve_unsteady_bdf1(M_ff, A_ff, F, sub.u0[free], time.dt)
    else:
        lu = fem.solve_steady(A_ff, F).T
    return sub, getattr(res, role)[..., free], lu


def heat_with_diffusion(coefficient):
    spec = heat_laplace_pair((4, 4, 4), (2, 2, 2), n_steps=8)
    term = AffineTerm(kind="diffusion", theta="alpha", coefficient=coefficient)
    return dataclasses.replace(spec, master=dataclasses.replace(spec.master, operator=(term,)))


def varying_diffusion_steady():
    spec = steady_pair_2d((4, 4), (2, 2))
    term = AffineTerm(kind="diffusion", theta="alpha", coefficient="1 + x*y")
    operator = (term,) + spec.master.operator[1:]
    return dataclasses.replace(spec, master=dataclasses.replace(spec.master, operator=operator))


def small_transport_fom(n_steps=8):
    return cr.build_fom(transport_wall_pair((4, 3, 3), (2, 2, 2), n_steps=n_steps))


#: (spec, role, the axes that separate, 0 = x)
SEPARATED_AXES = {
    "heat-master": (heat_laplace_pair((4, 4, 4), (2, 2, 2), n_steps=8), "master", (0, 1, 2)),
    "3d-q1-master": (steady_reaction_diffusion_pair((4, 4, 4), (2, 2, 2)), "master", (0, 1, 2)),
    "3d-q2-master": (
        steady_reaction_diffusion_pair((3, 3, 3), (2, 2, 2), 2, 2), "master", (0, 1, 2)
    ),
    "2d-master": (steady_pair_2d(), "master", (0, 1)),
    "2d-slave": (steady_pair_2d(), "slave", (0, 1)),
    "transport-wall-slave": (
        transport_wall_pair((4, 3, 3), (2, 2, 2), n_steps=8), "slave", (0, 1, 2)
    ),
    "non-nested-5-slave": (heat_laplace_pair((8, 8, 8), (5, 5, 5), n_steps=8), "slave", (0, 1, 2)),
    # an expression that reads none of x, y, z is a constant
    "constant-expression-master": (heat_with_diffusion("0.5 + sqrt(2.25)"), "master", (0, 1, 2)),
    # the velocity (4z(1-z), 0, 0) has a component along x that reads z
    "transport-master": (transport_wall_pair((4, 3, 3), (2, 2, 2), n_steps=8), "master", (1,)),
    # 1-D blocks along x
    "diffusion-1+x-master": (heat_with_diffusion("1 + x"), "master", (1, 2)),
    "diffusion-1+xy-master": (heat_with_diffusion("1 + x*y"), "master", (2,)),
    # no axis separates: one block, the whole free system
    "2d-diffusion-1+xy-master": (varying_diffusion_steady(), "master", ()),
}


class TestFastDiagonalization:
    @pytest.mark.parametrize(
        "spec, role, axes", SEPARATED_AXES.values(), ids=SEPARATED_AXES
    )
    def test_separated_axes_and_solve_agree_with_lu(self, spec, role, axes):
        sub, solved, lu = solved_and_lu(cr.build_fom(spec), role)
        assert sub.spec.separated_axes == axes
        free_nodes = [len(np.unique(i)) for i in np.unravel_index(
            sub.free_dofs, sub.mesh.nodes_per_axis[::-1])][::-1]  # x first
        modes = int(np.prod([free_nodes[a] for a in axes]))
        assert sub.operator_diagonalization.blocks == (modes, len(sub.free_dofs) // modes)
        assert np.max(np.abs(solved - lu)) <= 1e-13 * np.max(np.abs(lu))
        if not axes:  # the one block is the free system, factorized as the LU is
            assert np.array_equal(solved, lu)

    def test_free_block_off_its_kronecker_form_fails_the_residual_check(self):
        # separability is read from the spec, so a block that is not its
        # coefficient times the unit form is solved wrongly, and caught; a
        # 1e-9 change of this entry leaves step 1's residual at 5.6e-11 of
        # its load, inside SOLVE_RTOL, so the change here is 1e-7
        fom = small_heat_fom()
        A = fom.master.op_terms[0]
        i = fom.master.free_dofs[len(fom.master.free_dofs) // 2]
        A[i, i] *= 1.0 + 1e-7  # an existing entry of a free row and column
        assert fom.master.spec.separated_axes == (0, 1, 2)
        with pytest.raises(SolverFailureError) as info:
            cr.fom_coupled_solve(fom, [0.8], [])
        assert info.value.step == 1

    def test_mass_block_solve_agrees_with_its_lu(self):
        assert_mass_solve_is_diagonalized(small_heat_fom().master)

    def test_separable_mass_block_solves_by_the_operator_diagonalization(self, monkeypatch):
        # one eigh per axis serves the operator and the mass block
        sub = small_heat_fom().master
        eigh, calls = fem.sla.eigh, []
        monkeypatch.setattr(fem.sla, "eigh", lambda *a: calls.append(a) or eigh(*a))
        mass = sub.constants.mass
        sub.free_solver(sub.theta_weights(sub.mu_mapping([0.8])), 0.1)
        assert len(calls) == sub.mesh.dim
        B = np.random.default_rng(8).standard_normal((len(sub.free_dofs), 2))
        own = fem.FastDiagonalization.of(sub.mesh, sub.free_dofs, []).mass_solver()
        assert np.array_equal(mass.solve(B), own(B))

    def test_advecting_submodel_diagonalizes_its_mass_block(self):
        sub = small_transport_fom().master
        assert sub.spec.separated_axes == (1,)
        assert_mass_solve_is_diagonalized(sub)


def assert_mass_solve_is_diagonalized(sub):
    """The submodel's mass block solves by fast diagonalization, and agrees
    with an LU of it."""
    mass = sub.constants.mass
    B = np.random.default_rng(4).standard_normal((mass.matrix.shape[0], 3))
    lu = fem.factorized_solver(mass.matrix)(B)
    assert isinstance(mass.solve, fem.ModeSolve)
    assert np.max(np.abs(mass.solve(B) - lu)) <= 1e-13 * np.max(np.abs(lu))


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(
    [*(REPO / "configs").glob("*.json"), *(REPO / "perfbench" / "configs").glob("*.json")]
)
#: the one shipped operator that does not separate along every axis: the
#: transport master's velocity runs along x and varies in z
PARTLY_SEPARATED = {("transport-unsteady", "master"): (1,)}


@pytest.mark.parametrize(
    "path", SHIPPED_CONFIGS, ids=[str(p.relative_to(REPO)) for p in SHIPPED_CONFIGS]
)
def test_shipped_configs_take_fast_diagonalization(path):
    """Every operator of a shipped config but the transport master's
    separates along every axis, so its solve divides by 1x1 blocks, and
    every mass block solves by fast diagonalization, so that an edit that
    moves a benchmarked block to sparse LU fails here."""
    fom = cr.build_fom(config_from_dict(json.loads(path.read_text())).problem)
    for role in ("master", "slave"):
        sub = getattr(fom, role)
        every_axis = tuple(range(sub.mesh.dim))
        assert sub.spec.separated_axes == PARTLY_SEPARATED.get((path.stem, role), every_axis), role
        if sub.mass is not None:
            assert isinstance(sub.constants.mass.solve, fem.ModeSolve), role


def count_factorizations(monkeypatch) -> list:
    """One entry, the matrix, per ``fem.factorized_solver`` call."""
    real, matrices = fem.factorized_solver, []

    def counted(A):
        matrices.append(A)
        return real(A)

    monkeypatch.setattr(fem, "factorized_solver", counted)
    return matrices


class TestKeptFactorization:
    """A submodel keeps the operator solve of its last weights and step; on
    the transport master, one sparse LU per y-mode block."""

    def test_transport_states_agree_with_a_fresh_lu_march(self):
        fom = small_transport_fom()
        spec, sub, free = fom.spec, fom.master, fom.master.free_dofs
        for zeta in ([0.2], [0.5], [0.9]):
            res = cr.fom_coupled_solve(fom, zeta, [])
            A_ff, F = sub.free_system(sub.mu_mapping(zeta), None, spec.time)
            fresh = fem.solve_unsteady_bdf1(
                sub.mass[free][:, free], A_ff, F, sub.u0[free], spec.time.dt
            )
            # mode blocks against one 3-D LU: rounding apart
            assert np.max(np.abs(res.master[:, free] - fresh)) <= 1e-13 * np.max(np.abs(fresh))

    def test_training_on_mu_free_weights_factorizes_once(self, monkeypatch):
        # the transport master's weights do not depend on mu, and its slave
        # separates along every axis: each of the master's y-mode blocks,
        # one per y node of its 4x3x3 grid, is factorized once
        matrices = count_factorizations(monkeypatch)
        training = cr.run_training(
            transport_wall_pair((4, 3, 3), (2, 2, 2), n_steps=4), 4, seed=1
        )
        modes, size = training.fom.master.operator_diagonalization.blocks
        assert (modes, size) == (4, 16)
        assert len(matrices) == modes
        assert all(A.shape == (size, size) for A in matrices)

    def test_new_weights_or_step_refactorize(self, monkeypatch):
        matrices = count_factorizations(monkeypatch)
        sub = cr.build_fom(heat_with_diffusion("1 + x*y")).master
        modes = sub.operator_diagonalization.blocks[0]  # one per z node
        weights = sub.theta_weights(sub.mu_mapping([0.7]))
        solve = sub.free_solver(weights, 0.1)
        assert sub.free_solver(list(weights), 0.1) is solve
        assert len(matrices) == modes
        sub.free_solver([2.0 * w for w in weights], 0.1)
        sub.free_solver([2.0 * w for w in weights], 0.05)
        sub.free_solver([2.0 * w for w in weights])
        sub.free_solver(weights, 0.1)  # only the last system is kept
        assert len(matrices) == 5 * modes
        # the blocks of the doubled weights without the mass are Q + L_j P
        # of the factors, twice those of the weights: doubling is exact
        fd = sub.operator_diagonalization
        Q, P = (affine_sum(weights, [f[k] for f in fd.factors]) for k in (0, 1))
        for A, L in zip(matrices[3 * modes : 4 * modes], fd.eigenvalues.ravel()):
            assert abs(A - 2.0 * (Q + P * L)).max() == 0.0

    def test_corrupted_mode_block_solve_raises_at_its_step(self, monkeypatch):
        fom = small_transport_fom()
        modes = fom.master.operator_diagonalization.blocks[0]
        n_steps = fom.spec.time.n_steps
        real, calls = fem.factorized_solver, [0]

        def corrupting(A):
            solve = real(A)

            def corrupted(b):
                calls[0] += 1
                x = solve(b)
                # the first mode block of step 3 of the second march, which
                # reuses the kept blocks
                return x * 1.001 if calls[0] == modes * (n_steps + 2) + 1 else x

            return corrupted

        monkeypatch.setattr(fem, "factorized_solver", corrupting)
        cr.fom_coupled_solve(fom, [0.5], [])
        assert calls[0] == modes * n_steps
        with pytest.raises(SolverFailureError) as info:
            cr.fom_coupled_solve(fom, [0.6], [])
        assert info.value.step == 3
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("role", ["2d-one-block", "transport-mode-blocks"])
    def test_racing_callers_get_the_solve_of_their_weights(self, role):
        if role == "2d-one-block":
            sub = cr.build_fom(varying_diffusion_steady()).master
        else:
            sub = small_transport_fom().master
        systems = {w: affine_sum([w, 1.0], [ff for ff, _ in sub.free_blocks]) for w in (1.0, 3.0)}
        b = np.ones(len(sub.free_dofs))

        def worker(seed):
            for w in np.random.default_rng(seed).choice(list(systems), size=300):
                x = sub.free_solver([float(w), 1.0])(b)
                if not np.linalg.norm(systems[w] @ x - b) <= 1e-10 * np.linalg.norm(b):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(worker, seed) for seed in range(4)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)


def test_submodel_without_free_dofs_rejected():
    # the wall's one cell across y puts every node on its Dirichlet face or
    # on the interface
    with pytest.raises(ConfigError) as info:
        cr.build_fom(transport_wall_pair((4, 2, 2), (2, 1, 1)))
    assert info.value.field == "slave.mesh"


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
        assert np.array_equal(a.master.basis, b.master.basis)
        assert np.array_equal(a.slave.basis, b.slave.basis)
        assert np.array_equal(a.reducer.full_transfer, b.reducer.full_transfer)
        assert len(a.reducer.lift_products) == len(b.reducer.lift_products)
        for product, again in zip(a.reducer.lift_products, b.reducer.lift_products):
            assert np.array_equal(product, again)


class TestOnlineSteady:
    def test_training_point_accuracy(self, steady_training):
        art = cr.build_artifacts(steady_training, (1e-5, 1e-5, 1e-5))
        mu1 = steady_training.master_samples[0]
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
        mu1 = unsteady_training.master_samples[0]
        res = cr.fom_coupled_solve(unsteady_training.fom, mu1, [])
        online = cr.online_unsteady(art, mu1, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        assert rel <= 1e-3

    def test_richardson_first_order_in_dt(self, unsteady_training):
        art = cr.build_artifacts(unsteady_training, (1e-7, 1e-7, 1e-7))
        mu1 = unsteady_training.master_samples[1]
        base = unsteady_training.fom.spec.time

        def final_state(refine):
            spec_r = dataclasses.replace(
                art.spec, time=TimeSpec(base.dt / refine, base.n_steps * refine)
            )
            art_r = dataclasses.replace(art, spec=spec_r)
            return cr.online_unsteady(art_r, mu1, []).slave_solution[-1]

        ref = final_state(32)
        errs = [np.linalg.norm(final_state(r) - ref) for r in (1, 2, 4)]
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert 0.8 <= rates.mean() <= 1.25

    def test_unsteady_slave_pair_runs_and_is_accurate(self, marching_training):
        training = marching_training
        art = cr.build_artifacts(training, (1e-6, 1e-6, 1e-6))
        mu = training.master_samples[2]
        res = cr.fom_coupled_solve(training.fom, mu, [])
        online = cr.online_unsteady(art, mu, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        assert rel <= 1e-3
        assert online.slave_solution.shape == res.slave.shape


def solved_reduced_march(S, M_dt, G, u0):
    """The march of ``S u[k+1] = G[:, k+1] + M_dt u[k]`` composed from one
    solve ``S^{-1} [M_dt | G]``, then one product per step."""
    n = len(u0)
    TH = np.linalg.solve(S, np.hstack([M_dt, G]))
    u = np.empty((G.shape[1], n))
    u[0] = u0
    for k in range(G.shape[1] - 1):
        u[k + 1] = TH[:, n + k + 1] + TH[:, :n] @ u[k]
    return u


def lu_reduced_march(S, M_dt, G, u0):
    """The same march with one LU of ``S`` and one solve per step, from
    scipy's factor and solve wrappers."""
    lu = sla.lu_factor(S)
    u = np.empty((G.shape[1], len(u0)))
    u[0] = u0
    for k in range(G.shape[1] - 1):
        u[k + 1] = sla.lu_solve(lu, G[:, k + 1] + M_dt @ u[k], check_finite=False)
    return u


def reference_online_unsteady(art, mu1, mu2, march=solved_reduced_march):
    """The reduced coupled march composed by ``march``: one load per state
    from the load terms, the marching slave's lifting per state."""
    ts = art.spec.time
    dt, n = ts.dt, ts.n_steps
    m1, s2 = art.master, art.slave
    mu1m = art.spec.master.parameters.as_mapping(np.atleast_1d(mu1))
    mu2m = art.spec.slave.parameters.as_mapping(np.atleast_1d(mu2))

    def loads(sub, mu):
        return np.column_stack([load_at(sub, mu, k * dt) for k in range(n + 1)])

    M1_dt = m1.mass / dt
    u1 = march(M1_dt + m1.assemble_operator(mu1m), M1_dt, loads(m1, mu1m), m1.u0_reduced)
    w2 = s2.theta_weights(mu2m)
    if s2.spec.unsteady:
        LA = affine_sum(w2, art.reducer.lift_products)
        LM_dt = art.reducer.lift_mass / dt
        M2_dt = s2.mass / dt
        G2 = loads(s2, mu2m)
        G2[:, 1:] += LM_dt @ (u1[:-1] - u1[1:]).T - LA @ u1[1:].T
        u2 = march(M2_dt + s2.assemble_operator(mu2m), M2_dt, G2, s2.u0_reduced)
    else:
        lifting = art.reducer.reduced_lifting(u1.T, w2)
        u2 = np.linalg.solve(s2.assemble_operator(mu2m), loads(s2, mu2m) - lifting).T
    return u1, u2


def max_relative_gap(got, reference):
    return np.max(np.abs(got - reference)) / np.max(np.abs(reference))


class TestOnlineMatchesPerStepMarch:
    @pytest.mark.parametrize("sample", [0, 3])
    def test_heat_pair_bit_identical(self, unsteady_training, sample):
        art = cr.build_artifacts(unsteady_training, (1e-5, 1e-5, 1e-5))
        mu1 = unsteady_training.master_samples[sample]
        online = cr.online_unsteady(art, mu1, [], expand=False)
        u1, u2 = reference_online_unsteady(art, mu1, [])
        assert np.array_equal(online.master_reduced, u1)
        assert np.array_equal(online.slave_reduced, u2)
        # the per-step LU march rounds otherwise: measured at most 2.9e-15
        u1, u2 = reference_online_unsteady(art, mu1, [], march=lu_reduced_march)
        assert max_relative_gap(online.master_reduced, u1) <= 1e-13
        assert max_relative_gap(online.slave_reduced, u2) <= 1e-13

    @pytest.mark.parametrize("sample", [0, 5])
    def test_steady_pair_bit_identical(self, steady_training, sample):
        art = cr.build_artifacts(steady_training, (1e-5, 1e-5, 1e-5))
        mu1 = steady_training.master_samples[sample]
        online = cr.online_steady(art, mu1, [], expand=False)
        m1, s2 = art.master, art.slave
        mu1m = art.spec.master.parameters.as_mapping(mu1)
        u1 = np.linalg.solve(m1.assemble_operator(mu1m), m1.loads_per_state(mu1m))
        weights = s2.theta_weights({})
        lifting = art.reducer.reduced_lifting(u1, weights)
        u2 = np.linalg.solve(s2.assemble_operator({}), s2.loads_per_state({}) - lifting)
        assert np.array_equal(online.master_reduced, u1)
        assert np.array_equal(online.slave_reduced, u2)

    @pytest.mark.parametrize("sample", [0, 2])
    def test_marching_slave_matches(self, marching_training, sample):
        art = cr.build_artifacts(marching_training, (1e-6, 1e-6, 1e-6))
        mu1 = marching_training.master_samples[sample]
        online = cr.online_unsteady(art, mu1, [], expand=False)
        u1, u2 = reference_online_unsteady(art, mu1, [])
        assert np.array_equal(online.master_reduced, u1)
        # the slave's lifting is summed term by term, sum_q w_q (L_q u1) +
        # (1/dt)(L_M du), not as (sum_q w_q L_q) u1 + (L_M/dt) du: the
        # summation order differs
        assert np.max(np.abs(online.slave_reduced - u2)) <= 1e-12 * np.max(np.abs(u2))
        u1, u2 = reference_online_unsteady(art, mu1, [], march=lu_reduced_march)
        assert max_relative_gap(online.master_reduced, u1) <= 1e-13
        assert max_relative_gap(online.slave_reduced, u2) <= 1e-12


    @pytest.mark.parametrize("sample", [0, 2])
    def test_marching_slave_bound_totals_match(self, marching_training, sample):
        training = marching_training
        art = cr.build_artifacts(training, (1e-6, 1e-6, 1e-6))
        mu1 = training.master_samples[sample]
        res = cr.fom_coupled_solve(training.fom, mu1, [])
        online = cr.online_unsteady(art, mu1, [])
        references = [
            dataclasses.replace(online, master_reduced=u1, slave_reduced=u2)
            for u1, u2 in (
                reference_online_unsteady(art, mu1, []),
                reference_online_unsteady(art, mu1, [], march=lu_reduced_march),
            )
        ]
        totals, ref_totals, lu_totals = (
            np.array([r.total for r in unsteady_query_bounds(training.fom, art, mu1, [], o, res)])
            for o in (online, *references)
        )
        # the slave residual cancels: its 1e-16 state differences grow here
        assert np.all(np.abs(totals - ref_totals) <= 2e-11 * ref_totals)
        # and the per-step LU march's 1e-15 ones to at most 2.9e-11 (samples 0-5)
        assert np.all(np.abs(totals - lu_totals) <= 1e-10 * lu_totals)


def submodel_spec(op_thetas, load_thetas, names=("kappa",)):
    """A marching submodel spec whose operator and load terms carry the
    given weights, under the parameters ``names``."""
    return SubmodelSpec(
        mesh=BoxMeshSpec((0.0,), (1.0,), (1,)),
        operator=tuple(AffineTerm(kind="reaction", theta=theta) for theta in op_thetas),
        interface_tag="x-",
        forcing=tuple(ForcingTerm(theta=theta) for theta in load_thetas),
        parameters=ParameterSpace(names=names, ranges=((0.0, 1.0),) * len(names)),
        unsteady=True,
    )


def test_weights_compiled_once_per_submodel_and_rejected_every_time(monkeypatch, tmp_path):
    """Each spec object compiles each of its expressions once: the spec of
    ``config_from_dict`` when it is validated, the spec ``load_bundle``
    reads once more, and nothing else on the way: not ``run_offline`` on the
    first spec, not an online or certified query on either."""
    import coupledrom.problems as problems

    calls = []
    real = problems.compile_expression

    def counting(source, *args):
        calls.append(source)
        return real(source, *args)

    monkeypatch.setattr(problems, "compile_expression", counting)
    raw = json.loads((REPO / "perfbench" / "configs" / "heat-unsteady.json").read_text())
    raw["outputs"]["directory"] = str(tmp_path)
    config = config_from_dict(raw)
    per_spec = sorted(calls)
    assert "alpha" in per_spec and len(set(per_spec)) == len(per_spec)
    training, results = run_offline(config)
    assert sorted(calls) == per_spec
    loaded = load_bundle(results[0][1])
    assert sorted(calls) == sorted(per_spec * 2)
    calls.clear()
    fom = training.fom
    for artifacts in (results[0][3], loaded):
        online = cr.online_solve(artifacts, [0.5], [])
        query_bounds(fom, artifacts, [0.5], [], online, cr.fom_coupled_solve(fom, [0.5], []))
    assert calls == []
    # a copy is a new spec object, and its validation compiles again
    copy = dataclasses.replace(config.problem.master)
    assert copy == config.problem.master and calls == []
    copy.validate("master")
    assert calls.count("alpha") == 1 and len(set(calls)) == len(calls)
    calls.clear()
    # a failed compile keeps nothing, so every validation raises
    bad = submodel_spec(["kappa_typo"], [])
    for _ in range(2):
        with pytest.raises(ConfigError, match=re.escape("master.operator[0].theta")):
            bad.validate("master")
    assert calls == ["kappa_typo", "kappa_typo"]


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
            spec=submodel_spec([1.0], [0.3, theta]),
            basis=np.eye(5),
            op_terms=[np.eye(5)],
            mass=np.eye(5),
            load_terms=[rng.standard_normal(5), rng.standard_normal(5)],
            u0_reduced=np.zeros(5),
        )
        mu, time = {"kappa": 0.7}, TimeSpec(0.013, 40)
        loads = sub.loads_per_state(mu, time)
        for k in range(time.n_steps + 1):
            assert np.array_equal(loads[:, k], load_at(sub, mu, k * time.dt))
        assert np.array_equal(sub.loads_per_state(mu), load_at(sub, mu))

    def test_reads_time_looks_into_nested_code(self):
        # the spec decides once, when it compiles, whether each load weight reads t
        weights = ["kappa * t", "minimum(*[k * t for k in (1.0, 2.0)])",
                   "minimum(*[t for t in (1.0, kappa)])", "2.0 * kappa", 1.0]
        spec = submodel_spec([1.0], weights)
        assert [timed for _, timed in spec.compiled.forcing_weights] == [
            True, True, False, False, False
        ]

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
    lifting = art.reducer.reduced_lifting(online.master_reduced.T, s2.theta_weights({}))
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
        mu1s = list(cr.lhs_sample(fom.master.spec.parameters, 5, seed=42))
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
    """The artifacts with every full-order array emptied: ``basis`` is
    ``(0, n)``, ``reducer.full_transfer`` ``(0, n1)``, ``deim.Phi`` ``(0, m)``,
    and the reducer holds no interface trace."""
    reducer = art.reducer
    empty = lambda sub: dataclasses.replace(sub, basis=np.empty((0, sub.n)))
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
        mu1 = training.master_samples[0]
        intact = cr.online_solve(art, mu1, [], expand=False)
        hollow = cr.online_solve(without_full_order_arrays(art), mu1, [], expand=False)
        assert np.array_equal(hollow.master_reduced, intact.master_reduced)
        assert np.array_equal(hollow.slave_reduced, intact.slave_reduced)


def with_zero_system(sub):
    """The reduced submodel with every operator term and its mass zeroed."""
    return dataclasses.replace(
        sub,
        op_terms=[np.zeros_like(A) for A in sub.op_terms],
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
        tiny = [1e-310 * A for A in art.master.op_terms]
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
            m1, op_terms=[1e-310 * A for A in m1.op_terms], mass=1e-310 * m1.mass
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


class TestReducedMarch:
    @given(n=st.integers(1, 12), n_steps=st.integers(1, 60), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_one_solve_then_products_bit_for_bit(self, n, n_steps, seed):
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, n))
        S = K + (np.linalg.norm(K) + 1.0) * np.eye(n)  # sigma_min(S) >= 1
        M_dt = rng.standard_normal((n, n))
        G = rng.standard_normal((n, n_steps + 1))
        u0 = rng.standard_normal(n)
        got = _reduced_march(S, M_dt, G, u0)
        assert np.array_equal(got, solved_reduced_march(S, M_dt, G, u0))

    @given(n=st.integers(1, 12), n_steps=st.integers(1, 60), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bdf1_march_matches_per_step_lu(self, n, n_steps, seed):
        # a BDF1 system S = M/dt + A with M and A symmetric positive
        # (semi)definite, as every reduced march solves: each step of either
        # march is off by a few cond(S) eps relative, and the dissipative
        # march adds them up; 40,000 draws gave at most 1.8 n_steps cond(S) eps
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((2, n, n))
        M_dt = (X @ X.T + n * np.eye(n)) / 10.0 ** rng.uniform(-3, 0)
        S = M_dt + Y @ Y.T
        G = rng.standard_normal((n, n_steps + 1))
        u0 = rng.standard_normal(n)
        gap = max_relative_gap(_reduced_march(S, M_dt, G, u0), lu_reduced_march(S, M_dt, G, u0))
        assert gap <= 4 * (n + 1) * n_steps * np.linalg.cond(S) * np.finfo(float).eps

    @given(n=st.integers(1, 12), seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_exactly_singular_system_raises(self, n, seed, data):
        # a zero column stays zero under elimination: an exactly zero pivot
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((n, n))
        S[:, data.draw(st.integers(0, n - 1))] = 0.0
        with pytest.raises(SingularRomError, match="Singular matrix"):
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
            rows = cr.evaluate_test_set(art, training.fom, n_test=4, seed=99)
            out[family, nesting] = (spec, training.fom, art, rows)
    return out


class TestNonNestedInterface:
    @pytest.mark.parametrize("family", INTERFACE_PAIRS)
    def test_full_rank_reproduces_full_order_solve(self, interface_pairs, family):
        spec, fom, _, _ = interface_pairs[family, "non-nested"]
        assert not fom.conforming
        art = cr.full_rank_artifacts(spec)
        for mu1 in lhs_sample(fom.master.spec.parameters, 2, 5):
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
        for mu1 in lhs_sample(fom.master.spec.parameters, 4, 99):
            res = cr.fom_coupled_solve(fom, mu1, [])
            online = cr.online_solve(art, mu1, [])
            reports = query_bounds(fom, art, mu1, [], online, res)
            trace_errors = np.linalg.norm(np.atleast_2d(res.dirichlet - online.trace), axis=1)
            for report, error in zip(reports, trace_errors, strict=True):
                assert error <= report.deim_term + report.master_term


def test_steady_pair_on_a_time_grid_answers_every_instant():
    """A problem is unsteady exactly when it has a time grid: two steady
    submodels on one respond at each of its states, and the full-order
    solve, the online query and the bound all give one state per instant."""
    steady = steady_pair_2d(master_subdivisions=(6, 6), slave_subdivisions=(3, 3))
    spec = dataclasses.replace(steady, time=TimeSpec(0.1, 3))
    assert spec.is_unsteady and not steady.is_unsteady
    training = cr.run_training(spec, n_train=8, seed=4)
    art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
    fom, mu1 = training.fom, [1.3, 2.1]
    res = cr.fom_coupled_solve(fom, mu1, [])
    assert res.master.shape[0] == res.slave.shape[0] == res.dirichlet.shape[0] == 4
    # the load does not depend on t: every state is the steady answer
    steady_slave = cr.fom_coupled_solve(cr.build_fom(steady), mu1, []).slave
    assert np.allclose(res.slave, steady_slave, rtol=1e-12, atol=0.0)
    online = cr.online_solve(art, mu1, [])
    assert online.master_reduced.shape[0] == online.slave_solution.shape[0] == 4
    with pytest.raises(ConfigError):
        cr.online_steady(art, mu1, [])
    reports = query_bounds(fom, art, mu1, [], online, res)
    assert len(reports) == 4 and all(r.valid for r in reports)
    rows = cr.evaluate_test_set(art, fom, n_test=3, seed=9)
    assert cr.summarize(rows)["bound_valid_fraction"] == 1.0
