import dataclasses
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import coupledrom as cr
import coupledrom.estimator as est
import coupledrom.experiments as experiments
import coupledrom.pipeline as pipeline
from coupledrom.cli import main
from coupledrom.errors import ConfigError, DimensionMismatchError, EstimatorConvergenceError
from coupledrom.estimator import (
    MassBlock,
    _is_dissipative,
    deim_projection_term,
    error_bound_steady,
    error_bound_unsteady,
    operator_two_norm,
    residual_steady,
    residual_unsteady,
    semigroup_constant,
    sigma_min,
)
from coupledrom.experiments import (
    SigmaCache,
    _submodel_bound,
    config_from_dict,
    query_bounds,
    run_sweep,
    steady_query_bound,
    summarize,
    unsteady_query_bounds,
)
from coupledrom.fem import factorized_solver
from coupledrom.library import heat_laplace_pair, steady_pair_2d, transport_wall_pair
from coupledrom.problems import (
    AffineTerm,
    BoxMeshSpec,
    CoupledProblemSpec,
    ForcingTerm,
    SubmodelSpec,
    TimeSpec,
    problem_to_dict,
)
from coupledrom.sampling import ParameterSpace


class TestResidualSteady:
    def test_full_basis_residual_vanishes(self):
        rng = np.random.default_rng(0)
        A = sp.csr_matrix(rng.standard_normal((6, 6)) + 6 * np.eye(6))
        f = rng.standard_normal(6)
        V = np.eye(6)
        u_n = np.linalg.solve(A.toarray(), f)
        assert np.linalg.norm(residual_steady(A, f, V, u_n)) <= 1e-10 * np.linalg.norm(f)

    def test_zero_solution_residual_is_load(self):
        A = sp.identity(4, format="csr")
        f = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(residual_steady(A, f, np.eye(4), np.zeros(4)), f)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        A = sp.csr_matrix(rng.standard_normal((8, 8)))
        f = rng.standard_normal(8)
        V = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        u_n = rng.standard_normal(3)
        dense = f - A.toarray() @ V @ u_n
        assert np.linalg.norm(residual_steady(A, f, V, u_n) - dense) <= 1e-12


class TestResidualUnsteady:
    def test_constant_trajectory_zero_dynamics(self):
        M = sp.identity(3, format="csr")
        A = sp.csr_matrix((3, 3))
        traj = np.tile(np.array([1.0, -2.0, 0.5]), (5, 1))
        r = residual_unsteady(M, A, np.zeros((3, 5)), np.eye(3), traj, 0.1)
        assert np.max(np.abs(r)) <= 1e-14

    @pytest.mark.parametrize("shape", [(3, 4), (2, 5), (3,)])
    def test_load_block_needs_one_column_per_state(self, shape):
        M = sp.identity(3, format="csr")
        traj = np.zeros((5, 3))
        with pytest.raises(DimensionMismatchError):
            residual_unsteady(M, M, np.zeros(shape), np.eye(3), traj, 0.1)

    def test_full_basis_residual_at_solver_tolerance(self):
        rng = np.random.default_rng(2)
        n = 5
        M = sp.csr_matrix(np.diag(rng.uniform(1, 2, n)))
        K = rng.standard_normal((n, n))
        A = sp.csr_matrix(K @ K.T + n * np.eye(n))
        f = rng.standard_normal(n)
        F = np.tile(f[:, None], 11)
        traj = cr.solve_unsteady_bdf1(M, A, F, np.zeros(n), 0.05)
        r = residual_unsteady(M, A, F, np.eye(n), traj, 0.05)
        assert np.max(np.linalg.norm(r, axis=1)) <= 1e-9

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        n, m, steps = 7, 3, 4
        M = sp.csr_matrix(np.diag(rng.uniform(0.5, 2, n)))
        A = sp.csr_matrix(rng.standard_normal((n, n)))
        V = np.linalg.qr(rng.standard_normal((n, m)))[0]
        traj = rng.standard_normal((steps + 1, m))
        loads = {k: rng.standard_normal(n) for k in range(1, steps + 1)}
        dt = 0.2
        F = np.column_stack([np.zeros(n)] + [loads[k] for k in range(1, steps + 1)])
        r = residual_unsteady(M, A, F, V, traj, dt)
        Minv = np.linalg.inv(M.toarray())
        for k in range(1, steps + 1):
            dense = Minv @ (loads[k] - A.toarray() @ (V @ traj[k])) - V @ (
                (traj[k] - traj[k - 1]) / dt
            )
            assert np.linalg.norm(r[k - 1] - dense) <= 1e-12


class TestSigmaMin:
    def test_identity(self):
        assert sigma_min(sp.identity(5, format="csr")) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert sigma_min(sp.diags([2.0, 3.0]).tocsr()) == pytest.approx(2.0, rel=1e-9)

    def test_random_matches_dense_svd(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((20, 20))
        expected = np.linalg.svd(A, compute_uv=False)[-1]
        assert sigma_min(sp.csr_matrix(A)) == pytest.approx(expected, rel=1e-6)

    def test_singular_matrix_gives_trivial_bound(self):
        # an exactly singular factor proves nothing above the trivial 0.0,
        # and the steady rule then bounds by inf
        A = sp.csr_matrix(np.ones((3, 3)))
        assert sigma_min(A) == 0.0
        bound = error_bound_steady(A, np.zeros(3), np.eye(3), np.zeros(3), sigma_min(A))
        assert np.array_equal(bound, [np.inf])

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(est, "_POWER_MAX_ITER", 1)
        A = sp.identity(4, format="csr")
        with pytest.raises(EstimatorConvergenceError):
            sigma_min(A)


class TestOperatorNorms:
    def test_two_norm_matches_dense(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((9, 9))
        got = operator_two_norm(lambda x: B @ x, lambda x: B.T @ x, 9)
        assert got == pytest.approx(np.linalg.norm(B, 2), rel=1e-6)

    def test_semigroup_constant_dominates_matrix_exponential(self):
        rng = np.random.default_rng(6)
        n = 8
        Md = np.diag(rng.uniform(0.5, 3.0, n))
        K = rng.standard_normal((n, n))
        Ad = K @ K.T + 0.5 * np.eye(n)
        c, growth = semigroup_constant(sp.csr_matrix(Md), sp.csr_matrix(Ad), 0.1)
        assert growth == 1.0
        B = -np.linalg.inv(Md) @ Ad
        sup = max(np.linalg.norm(sla.expm(B * t), 2) for t in np.linspace(0, 1, 21))
        assert c >= sup * (1 - 1e-9)

    def test_growth_rate_above_dense_oracle_random_pair(self):
        # SPD M and an indefinite sym(A): the proved gamma, read back from
        # growth = 1 / (1 - dt gamma), is on the safe side of the dense
        # -lambda_min(sym A, M), and growth bounds the propagator's M-norm
        rng = np.random.default_rng(6)
        n = 30
        K = rng.standard_normal((n, n))
        Md = K @ K.T / n + np.eye(n)
        Ad = rng.standard_normal((n, n))
        oracle = -sla.eigh((Ad + Ad.T) / 2, Md, eigvals_only=True)[0]
        assert oracle > 0.0
        dt = 0.5 / oracle
        c, growth = semigroup_constant(sp.csr_matrix(Md), sp.csr_matrix(Ad), dt)
        gamma = (1.0 - 1.0 / growth) / dt
        assert oracle <= gamma <= oracle * (1 + 1e-6)
        assert c >= dense_condition_root(sp.csr_matrix(Md))
        L = np.linalg.cholesky(Md)
        P = np.linalg.solve(Md + dt * Ad, Md)
        assert np.linalg.norm(L.T @ P @ np.linalg.inv(L.T), 2) <= growth


class TestBdf1ScalarSanity:
    # u' = u, that is M = 1 and A = -1, so gamma = 1: a reduced model with
    # the zero trajectory and a unit initial error has the BDF1 error
    # (1 - dt)^{-k}, which the rule meets with equality up to its margins
    M, A = sp.csr_matrix([[1.0]]), sp.csr_matrix([[-1.0]])

    @pytest.mark.parametrize("dt, n_steps", [(0.5, 2), (0.9, 1)])
    def test_bound_dominates_error_every_step(self, dt, n_steps):
        constant, growth = semigroup_constant(self.M, self.A, dt)
        zeros = np.zeros((1, n_steps + 1))
        bounds = error_bound_unsteady(
            self.M, self.A, zeros, np.eye(1), zeros.T, dt, 1.0, constant, growth
        )
        error = cr.solve_unsteady_bdf1(self.M, self.A, zeros, np.ones(1), dt)[:, 0]
        assert error == pytest.approx((1.0 - dt) ** -np.arange(n_steps + 1), rel=1e-12)
        assert np.all(bounds >= error)
        assert np.all(bounds <= error * (1 + 1e-8))

    def test_dt_gamma_at_one_claims_no_bound(self):
        with pytest.raises(EstimatorConvergenceError, match="dt gamma"):
            semigroup_constant(self.M, self.A, 1.0)


class TestErrorBoundSteady:
    def test_decomposition_total_is_sum(self):
        spec = steady_pair_2d()
        training = cr.run_training(spec, 10, seed=1)
        art = cr.build_artifacts(training, (1e-3, 1e-3, 1e-3))
        mu1 = [1.0, 1.0]
        res = cr.fom_coupled_solve(training.fom, mu1, [])
        online = cr.online_steady(art, mu1, [])
        report = steady_query_bound(training.fom, art, mu1, [], online, res)
        total = report.master_term + report.deim_term + report.slave_term
        assert report.total == pytest.approx(total, rel=1e-12)
        assert report.total >= 0.0

    def test_full_rank_bound_and_error_tiny(self):
        spec = steady_pair_2d(master_subdivisions=(3, 3), slave_subdivisions=(3, 3))
        art = cr.full_rank_artifacts(spec)
        fom = cr.build_fom(spec)
        mu1 = [2.0, 0.8]
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_steady(art, mu1, [])
        report = steady_query_bound(fom, art, mu1, [], online, res)
        assert report.actual_error <= 1e-8
        assert report.total <= 1e-8

    def test_data_in_span_annihilates_middle_term(self):
        rng = np.random.default_rng(7)
        Phi = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        w = Phi @ rng.standard_normal(4)
        assert deim_projection_term(Phi, 1.0, w) <= 1e-10 * np.linalg.norm(w)

    def test_projection_term_of_each_row(self):
        # one row per state gives one term per state; one state, one float
        rng = np.random.default_rng(8)
        Phi = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        W = rng.standard_normal((5, 12))
        terms = deim_projection_term(Phi, 2.5, W)
        assert terms.shape == (5,)
        single = [deim_projection_term(Phi, 2.5, w) for w in W]
        assert all(isinstance(t, float) for t in single)
        assert np.allclose(terms, single, rtol=1e-14, atol=0.0)
        oracle = 2.5 * np.linalg.norm(W.T - Phi @ (Phi.T @ W.T), axis=0)
        assert np.allclose(terms, oracle, rtol=1e-14, atol=0.0)

    def test_bound_valid_on_test_sample(self):
        spec = steady_pair_2d()
        training = cr.run_training(spec, 20, seed=9)
        art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
        rows = cr.evaluate_test_set(art, training.fom, n_test=10, seed=123, with_bounds=True)
        assert all(r.bound_valid for r in rows)


class TestErrorBoundUnsteady:
    def test_zero_dynamics_reduces_to_initial_terms(self):
        # a constant trajectory of u' = 0 has zero residuals at every step
        n = 3
        bounds = error_bound_unsteady(
            M=sp.identity(n, format="csc"),
            A=sp.csr_matrix((n, n)),
            F=np.zeros((n, 5)),
            V=np.eye(n),
            trajectory=np.ones((5, n)),
            dt=0.1,
            initial_error=0.25,
            constant=2.0,
            growth=1.0,
        )
        assert len(bounds) == 5
        for b in bounds:
            assert b == pytest.approx(2.0 * 0.25)

    def test_right_endpoint_sum_of_given_residual_norms(self):
        # u' = f with M = 1, A = 0 and the zero trajectory: the residual at
        # step k is f^k, and BDF1's error e^k = e^{k-1} + dt f^k meets the
        # rule C (e_0 + dt sum_{j<=k} |f^j|) with equality for C = 1
        f = np.array([0.0, 1.0, 2.0, 3.0])
        dt = 0.5
        kwargs = dict(
            M=sp.identity(1, format="csc"), A=sp.csr_matrix((1, 1)), F=f[None, :],
            V=np.eye(1), trajectory=np.zeros((4, 1)), dt=dt,
        )
        fom_march = np.cumsum(dt * f)
        assert np.array_equal(fom_march, [0.0, 0.5, 1.5, 3.0])
        bounds = error_bound_unsteady(**kwargs, initial_error=0.0, constant=1.0, growth=1.0)
        assert np.array_equal(bounds, fom_march)
        bounds = error_bound_unsteady(**kwargs, initial_error=0.25, constant=2.0, growth=1.0)
        assert np.array_equal(bounds, 2.0 * (0.25 + fom_march))
        # A = -1 at dt 0.5 has gamma = 1 and growth 2: the error of the march
        # from e_0 = 0.25 is e^k = 2 (e^{k-1} + dt f^k), which the rule meets
        # with equality, every number exact in binary
        kwargs["A"] = sp.csr_matrix([[-1.0]])
        error = cr.solve_unsteady_bdf1(kwargs["M"], kwargs["A"], f[None, :], np.array([0.25]), dt)
        bounds = error_bound_unsteady(**kwargs, initial_error=0.25, constant=1.0, growth=2.0)
        assert np.array_equal(bounds, error[:, 0])
        assert np.array_equal(bounds, [0.25, 1.5, 5.0, 13.0])

    def test_full_rank_bound_tiny(self):
        spec = heat_laplace_pair(
            master_subdivisions=(3, 3, 3), slave_subdivisions=(3, 3, 3), n_steps=5
        )
        art = cr.full_rank_artifacts(spec)
        fom = cr.build_fom(spec)
        mu1 = [1.0]
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_unsteady(art, mu1, [])
        err = np.linalg.norm(res.slave - online.slave_solution)
        assert err <= 1e-8 * max(np.linalg.norm(res.slave), 1.0)
        reports = unsteady_query_bounds(fom, art, mu1, [], online, res)
        assert all(r.actual_error <= 1e-8 for r in reports)

    def test_bound_valid_every_step_mixed_pair(self):
        spec = heat_laplace_pair(
            master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=12
        )
        training = cr.run_training(spec, 8, seed=3)
        art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
        rows = cr.evaluate_test_set(art, training.fom, n_test=3, seed=55, with_bounds=True)
        assert all(r.bound_valid for r in rows)

    def test_bound_valid_every_step_unsteady_slave(self):
        spec = transport_wall_pair(
            channel_subdivisions=(5, 3, 3), wall_subdivisions=(5, 3, 3), n_steps=10
        )
        training = cr.run_training(spec, 6, seed=13)
        art = cr.build_artifacts(training, (1e-5, 1e-5, 1e-5))
        rows = cr.evaluate_test_set(art, training.fom, n_test=3, seed=77, with_bounds=True)
        assert all(r.bound_valid for r in rows)


class TestQueryBounds:
    # one per-state path: each submodel applies the rule of its kind
    def test_steady_query_is_the_one_state_case(self):
        training = cr.run_training(steady_pair_2d(), 10, seed=1)
        art = cr.build_artifacts(training, (1e-3, 1e-3, 1e-3))
        mu1 = [1.5, 2.0]
        res = cr.fom_coupled_solve(training.fom, mu1, [])
        online = cr.online_steady(art, mu1, [])
        reports = query_bounds(training.fom, art, mu1, [], online, res)
        assert len(reports) == 1
        single = steady_query_bound(training.fom, art, mu1, [], online, res)
        assert reports[0].total == single.total

    def test_instantaneous_slave_takes_the_steady_rule_at_each_step(self):
        spec = heat_laplace_pair(
            master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=12
        )
        training = cr.run_training(spec, 8, seed=3)
        art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
        fom, mu1 = training.fom, [0.7]
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_unsteady(art, mu1, [])
        reports = query_bounds(fom, art, mu1, [], online, res)
        assert len(reports) == spec.time.n_steps + 1
        slave = fom.slave
        sigma = reports[0].constants["sigma_min_slave"]
        for k, report in enumerate(reports):
            A_bc, f_hom = cr.apply_dirichlet_lifting(
                slave.assemble_operator({}),
                slave.loads_per_state({}),
                zip(slave.constrained_dofs, slave.constrained_values(res.dirichlet[k])),
            )
            f_hom[slave.constrained_dofs] = 0.0
            alone = error_bound_steady(
                A_bc, f_hom, art.slave.basis, online.slave_reduced[k], sigma
            )
            assert alone.shape == (1,)
            # the residual cancels about four digits of the load, so the
            # rounding of one product V u against the block V U shows at
            # 1e-11 of the term; it stays at 1e-13 of the load's scale
            scale = np.linalg.norm(f_hom) / sigma
            assert abs(report.slave_term - alone[0]) <= 1e-13 * scale

    @pytest.mark.parametrize("unsteady", [False, True], ids=["steady-pair", "heat-series"])
    def test_free_system_residuals_match_the_identity_padded_system(self, unsteady):
        # the identity rows of the padded system carry no residual, and its
        # free rows are those of the free block bit for bit
        if unsteady:
            spec = heat_laplace_pair(
                master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=6
            )
            mu1, online_solve, sides = [0.7], cr.online_unsteady, ("slave",)
        else:
            spec = steady_pair_2d()
            mu1, online_solve, sides = [1.5, 2.0], cr.online_steady, ("master", "slave")
        training = cr.run_training(spec, 8, seed=3)
        art = cr.build_artifacts(training, (1e-3, 1e-3, 1e-3))
        fom = training.fom
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = online_solve(art, mu1, [])
        for role in sides:
            sub, V = getattr(fom, role), getattr(art, role).basis
            mu = sub.mu_mapping(mu1 if role == "master" else [])
            trace = res.dirichlet if role == "slave" else None
            states = getattr(online, f"{role}_reduced").T
            A_bc, F_bc = cr.apply_dirichlet_lifting(
                sub.assemble_operator(mu),
                sub.loads_per_state(mu, spec.time),
                zip(sub.constrained_dofs, sub.constrained_values(trace).T),
            )
            F_bc[sub.constrained_dofs] = 0.0
            A_ff, F = sub.free_system(mu, trace, spec.time)
            padded = residual_steady(A_bc, F_bc, V, states)
            free = residual_steady(A_ff, F, V[sub.free_dofs], states)
            assert not np.any(padded[sub.constrained_dofs])
            assert np.array_equal(padded[sub.free_dofs], free)
            # the norms differ only in the blocking of their sums
            assert np.allclose(
                np.linalg.norm(padded, axis=0), np.linalg.norm(free, axis=0),
                rtol=1e-15, atol=0.0,
            )

    @pytest.mark.parametrize("unsteady", [False, True], ids=["steady", "unsteady"])
    def test_unexpanded_query_is_config_error(self, unsteady):
        spec = (
            heat_laplace_pair((3, 3, 3), (2, 2, 2), n_steps=4)
            if unsteady else steady_pair_2d((4, 4), (2, 2))
        )
        mu1 = [0.7] if unsteady else [1.5, 2.0]
        art, fom = cr.full_rank_artifacts(spec), cr.build_fom(spec)
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_solve(art, mu1, [], expand=False)
        with pytest.raises(ConfigError, match="expanded"):
            query_bounds(fom, art, mu1, [], online, res)

    def test_validity_allows_rounding_of_the_norms(self):
        report = est.ErrorBoundReport(0.5, 0.0, 0.5, actual_error=1.0)
        assert report.valid
        assert est.ErrorBoundReport(0.5, 0.0, 0.5, actual_error=1.0 + 1e-13).valid
        assert not est.ErrorBoundReport(0.5, 0.0, 0.5, actual_error=1.0 + 1e-11).valid


class TestDissipativeDetection:
    def test_skew_perturbed_spd_still_dissipative(self):
        rng = np.random.default_rng(8)
        n = 10
        K = rng.standard_normal((n, n))
        spd = K @ K.T + np.eye(n)
        skew = rng.standard_normal((n, n))
        skew = skew - skew.T  # contributes nothing to the symmetric part
        M = sp.identity(n, format="csr")
        c, growth = semigroup_constant(M, sp.csr_matrix(spd + skew), 0.1)
        assert growth == 1.0
        assert c == pytest.approx(1.0, rel=1e-6)

    def test_unstable_operator_gets_proved_growth_rate(self):
        # lambda_min = -2 gives gamma = 2, so growth 2 at dt 0.25
        A = sp.csr_matrix(np.diag([1.0, -2.0, 3.0]))
        M = sp.identity(3, format="csr")
        c, growth = semigroup_constant(M, A, 0.25)
        assert 1.0 <= c <= 1.0 + 1e-8
        assert 2.0 <= growth <= 2.0 * (1 + 1e-8)

    def test_slightly_negative_eigenvalue_is_not_dissipative(self):
        # lambda_min = -1e-11 lies within any relative margin of zero, but
        # only a proof of lambda_min >= 0 gives growth 1
        A = sp.diags([-1e-11, 1.0, 2.0]).tocsr()
        assert not _is_dissipative(A)
        _, growth = semigroup_constant(sp.identity(3, format="csr"), A, 0.1)
        assert growth > 1.0


# ---------------------------------------------------------------------------
# constants that depend on the full-order model alone


def sweep_config(problem, tmp_path):
    """A sweep over ``problem``: 2 tolerances per family, 6 training and 3
    test points."""
    tols = [1e-2, 1e-4]
    return config_from_dict({
        "problem": problem_to_dict(problem),
        "training": {
            "n_train": 6,
            "seed": 7,
            "tolerances": {"master": tols, "slave": tols, "interface": tols},
        },
        "testing": {"n_test": 3, "seed": 77},
        "outputs": {"directory": str(tmp_path / "out")},
    })


def reference_semigroup_constant(M, A, dt, upper=None, **_):
    """Per-query composition of the marching constants, computing everything
    afresh: a new mass block, with its own factorization and lower spectrum
    end, and the eigenvalue test on A(mu) whatever the caller knows.  The
    upper end proved from the 1-D factors is passed along: ``upper``, or the
    one a given ``MassBlock`` holds."""
    if isinstance(M, MassBlock):
        M, upper = M.matrix, M.upper
    return semigroup_constant(MassBlock(M.tocsc(), upper=upper), A.tocsr(), dt)


def bounds_at(spec, artifacts, mu1s, fom=None):
    """Per-step totals and constants of ``unsteady_query_bounds`` on one FOM,
    each query with its own (empty) cache."""
    fom = fom or cr.build_fom(spec)
    out = []
    for mu1 in mu1s:
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_unsteady(artifacts, mu1, [])
        reports = unsteady_query_bounds(fom, artifacts, mu1, [], online, res, SigmaCache())
        out.append((np.array([r.total for r in reports]), reports[0].constants))
    return out


def reaction_heat_pair(beta_range=(-30.0, 1.0), time=TimeSpec(0.01, 5)):
    """2-D heat master ``u' - div grad u + beta u = f`` whose reaction weight
    may be negative, feeding a steady Laplace slave."""
    master = SubmodelSpec(
        mesh=BoxMeshSpec((0, 0), (1, 1), (4, 4)),
        operator=(
            AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),
            AffineTerm(kind="reaction", theta="beta", coefficient=1.0),
        ),
        forcing=(ForcingTerm(theta=1.0, profile="1 + x*y"),),
        dirichlet={"x-": 0.0},
        parameters=ParameterSpace(names=("beta",), ranges=(beta_range,)),
        interface_tag="x+",
        unsteady=True,
        initial=0.0,
    )
    slave = SubmodelSpec(
        mesh=BoxMeshSpec((1, 0), (1, 1), (2, 2)),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),),
        interface_tag="x-",
    )
    return CoupledProblemSpec(master=master, slave=slave, time=time)


@pytest.fixture(scope="module")
def heat_artifacts():
    spec = heat_laplace_pair(
        master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=12
    )
    training = cr.run_training(spec, 6, seed=3)
    return spec, cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))


class TestConstantsPerFom:
    ALPHAS = ([0.01], [0.7], [2.5], [4.9])

    def test_bounds_bit_identical_to_per_query_composition(self, heat_artifacts, monkeypatch):
        spec, art = heat_artifacts
        cached = bounds_at(spec, art, self.ALPHAS)
        monkeypatch.setattr(est, "semigroup_constant", reference_semigroup_constant)
        # a new model per query: its own mass block, whose solve of the
        # residuals is the same fast diagonalization built afresh
        fresh = [bounds_at(spec, art, [mu1])[0] for mu1 in self.ALPHAS]
        for (totals, constants), (ref_totals, ref_constants) in zip(cached, fresh):
            assert np.array_equal(totals, ref_totals)
            assert constants["master_semigroup_C1"] == ref_constants["master_semigroup_C1"]
            assert constants["master_growth"] == ref_constants["master_growth"] == 1.0

    def test_mass_work_runs_once_per_fom(self, heat_artifacts, monkeypatch):
        spec, art = heat_artifacts
        calls = {"two_norm": 0, "factorize": 0, "dissipative": 0, "eigsh": 0, "certificate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(est, "operator_two_norm", counted("two_norm", operator_two_norm))
        monkeypatch.setattr(est, "factorized_solver", counted("factorize", factorized_solver))
        monkeypatch.setattr(est, "_is_dissipative", counted("dissipative", _is_dissipative))
        monkeypatch.setattr(est.spla, "eigsh", counted("eigsh", est.spla.eigsh))
        monkeypatch.setattr(est, "_negative_radius", counted("certificate", est._negative_radius))
        fom = cr.build_fom(spec)
        assert set(calls.values()) == {0}
        assert "constants" not in vars(fom.master)
        bounds_at(spec, art, [[0.7]], fom)
        # the mass's one factorization, and one Lanczos run and certificate
        # for its lower end; the master separates along every axis, so its
        # upper end and its one term's dissipativity come from the 1-D
        # factors: certificates of lo(K_x), lo(M_x) and hi(M_x) on the 4
        # free x nodes and of lo(M) and hi(M) of the 5 y and z nodes, whose
        # singular stiffness takes its Gershgorin end; one certificate of
        # the slave's sigma_min
        once = {"two_norm": 0, "factorize": 1, "dissipative": 0, "eigsh": 1, "certificate": 7}
        assert calls == once
        bounds_at(spec, art, self.ALPHAS, fom)
        # the slave keeps its sigma_min: later queries, each with its own
        # cache, certify nothing
        assert calls == once

    def test_steady_sigma_min_once_per_distinct_weights(self, monkeypatch):
        spec = steady_pair_2d()
        training = cr.run_training(spec, 6, seed=1)
        art = cr.build_artifacts(training, (1e-3, 1e-3, 1e-3))
        certified = []

        def counted(A, *args, **kwargs):
            certified.append(A.shape[0])
            return sigma_min(A, *args, **kwargs)

        def reports(fom, mu1):
            res = cr.fom_coupled_solve(fom, mu1, [])
            online = cr.online_steady(art, mu1, [])
            return query_bounds(fom, art, mu1, [], online, res)

        mu1s = ([1.0, 2.0], [1.0, 2.0], [3.0, 0.5], [3.0, 0.5], [4.5, 4.5])
        fresh = [reports(cr.build_fom(spec), mu1) for mu1 in mu1s]
        monkeypatch.setattr(est, "sigma_min", counted)
        fom = cr.build_fom(spec)
        kept = [reports(fom, mu1) for mu1 in mu1s]
        assert kept == fresh
        # the slave's weights do not depend on mu: one certificate; the
        # master's one per change of its weights
        n_master, n_slave = len(fom.master.free_dofs), len(fom.slave.free_dofs)
        assert certified == [n_master, n_slave, n_master, n_master]

    def test_one_sigma_cache_across_models_keeps_each_models_constants(self):
        # the cache a caller passes is unused: a second, finer model with the
        # same weights reports its own sigma_min, not the first model's
        cache, mu1 = SigmaCache(), [2.0, 1.0]
        reports = []
        for master, slave in (((4, 4), (2, 2)), ((12, 12), (6, 6))):
            spec = steady_pair_2d(master, slave)
            art = cr.build_artifacts(cr.run_training(spec, 4, seed=1), (1e-3, 1e-3, 1e-3))
            res = cr.fom_coupled_solve(cr.build_fom(spec), mu1, [])
            online = cr.online_steady(art, mu1, [])
            fresh = steady_query_bound(cr.build_fom(spec), art, mu1, [], online, res)
            shared = steady_query_bound(cr.build_fom(spec), art, mu1, [], online, res, cache)
            assert shared.constants == fresh.constants
            reports.append(shared)
        coarse, fine = (r.constants["sigma_min_master"] for r in reports)
        assert fine < 0.5 * coarse

    def test_mu_free_marching_constant_proved_once_per_fom(self, monkeypatch):
        spec = transport_wall_pair((4, 2, 2), (2, 2, 2), n_steps=3)
        art = cr.full_rank_artifacts(spec)
        fom = cr.build_fom(spec)
        tested = []

        def recording(A):
            tested.append(A)
            return _is_dissipative(A)

        monkeypatch.setattr(est, "_is_dissipative", recording)
        for zeta in ([0.2], [0.5], [0.9]):
            assert fom.master.theta_weights(fom.master.mu_mapping(zeta)) == [1.0, 1.0]
            res = cr.fom_coupled_solve(fom, zeta, [])
            online = cr.online_unsteady(art, zeta, [])
            assert all(r.valid for r in query_bounds(fom, art, zeta, [], online, res))
        terms = fom.master.constants.terms + fom.slave.constants.terms
        summed = [A for A in tested if all(A is not T for T in terms)]
        # the advection term is not proved dissipative, so the summed master
        # operator is tested, once for all three queries
        assert fom.master.constants.dissipative_terms == [True, False]
        assert len(summed) == 1

    def test_kept_sigma_min_under_racing_threads(self):
        constants = cr.build_fom(steady_pair_2d((2, 2), (2, 2))).master.constants
        computed = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for w in rng.integers(0, 3, size=2000):
                weights = (float(w), 1.0)
                key = ("sigma_min", weights)
                got = constants.proved(key, lambda: computed.append(1) or sum(weights))
                if got != sum(weights):
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
        # each of the 3 weights is proved once, or once by each racing thread
        assert 3 <= len(computed) <= 12

    @pytest.mark.parametrize("problem", [
        steady_pair_2d(master_subdivisions=(6, 6), slave_subdivisions=(3, 3)),
        heat_laplace_pair(master_subdivisions=(3, 3, 3), slave_subdivisions=(2, 2, 2), n_steps=4),
    ], ids=["steady-grid", "heat"])
    def test_sweep_rows_equal_per_triple_evaluation(self, problem, tmp_path):
        config = sweep_config(problem, tmp_path)
        rows = run_sweep(config)
        training = cr.run_training(problem, config.n_train, config.train_seed)
        assert len(rows) == len(config.grid()) == 8
        for row, triple in zip(rows, config.grid()):
            art = cr.build_artifacts(training, triple)
            summary = summarize(cr.evaluate_test_set(
                art, training.fom, config.n_test, config.test_seed, with_bounds=True
            ))
            del row["online_s"]  # a wall-clock time
            assert row == {
                "eps_master": triple[0],
                "eps_interface": triple[2],
                "eps_slave": triple[1],
                "mean_error": summary["mean_rel_error"],
                "mean_bound": summary["mean_rel_bound"],
                "bound_valid_fraction": summary["bound_valid_fraction"],
                "median_effectivity": summary["median_effectivity"],
                "basis_sizes": art.basis_sizes,
            }
            assert row["bound_valid_fraction"] == 1.0

    def test_sweep_solves_each_test_point_once(self, tmp_path, monkeypatch):
        config = sweep_config(steady_pair_2d((4, 4), (2, 2)), tmp_path)
        solved = []

        def counted(fom, mu1, mu2):
            solved.append((tuple(mu1), tuple(mu2)))
            return cr.fom_coupled_solve(fom, mu1, mu2)

        monkeypatch.setattr(experiments, "fom_coupled_solve", counted)
        monkeypatch.setattr(pipeline, "fom_coupled_solve", counted)
        run_sweep(config)
        assert len(solved) == len(set(solved)) == config.n_train + config.n_test

    @pytest.mark.parametrize("beta", [0.5, -0.5, -30.0])
    def test_negative_weight_runs_the_per_query_test(self, beta, monkeypatch):
        spec = reaction_heat_pair()
        art = cr.full_rank_artifacts(spec)
        fom = cr.build_fom(spec)
        sub = fom.master
        free = sub.free_dofs
        A_ff = sub.assemble_operator(sub.mu_mapping([beta]))[np.ix_(free, free)]
        M_ff = sub.mass[np.ix_(free, free)]
        expected = reference_semigroup_constant(
            M_ff, A_ff, spec.time.dt, upper=sub.constants.mass.upper
        )
        # K - 0.5 M stays definite on this mesh, K - 30 M does not
        assert (expected[1] > 1.0) == (beta < -1.0)
        assert sub.constants.dissipative_terms == [True, True]

        tested = []

        def recording(A, *args, **kwargs):
            tested.append(A.shape)
            return _is_dissipative(A, *args, **kwargs)

        monkeypatch.setattr(est, "_is_dissipative", recording)
        [(_, constants)] = bounds_at(spec, art, [[beta]], fom)
        assert constants["master_semigroup_C1"] == expected[0]
        assert constants["master_growth"] == expected[1]
        # the per-term verdicts are cached; only a negative weight tests A(mu)
        assert len(tested) == (1 if beta < 0 else 0)


class TestNonDissipativeMarching:
    # K - 30 M on the reaction master: lambda_min(sym A, M) is near
    # (pi/2)^2 - 30, so gamma is about 27.5 and dt gamma < 1 needs dt < 0.036
    BETA = [-30.0]

    def test_growth_rate_above_dense_oracle(self):
        sub = cr.build_fom(reaction_heat_pair()).master
        free = sub.free_dofs
        A = sub.assemble_operator(sub.mu_mapping(self.BETA))[np.ix_(free, free)]
        sym = (A + A.T).toarray() / 2
        oracle = -sla.eigh(sym, free_mass(sub).toarray(), eigvals_only=True)[0]
        dt = 0.02
        _, growth = semigroup_constant(free_mass(sub), A, dt)
        gamma = (1.0 - 1.0 / growth) / dt
        assert oracle <= gamma <= oracle * (1 + 1e-6)

    @pytest.mark.parametrize("dt", [0.02, 0.03])
    @pytest.mark.parametrize("tolerance", [1e-1, 1e-3])
    def test_master_bound_every_step_on_a_truncated_basis(self, dt, tolerance):
        spec = reaction_heat_pair(time=TimeSpec(dt, 5))
        training = cr.run_training(spec, 6, seed=3)
        art = cr.build_artifacts(training, (tolerance, 1e-6, 1e-6))
        assert art.basis_sizes["master"] <= 3
        fom, sub = training.fom, training.fom.master
        res = cr.fom_coupled_solve(fom, self.BETA, [])
        online = cr.online_unsteady(art, self.BETA, [])
        V, free = art.master.basis, sub.free_dofs
        bounds, constants = _submodel_bound(
            "master", sub, V, online.master_reduced, res.master,
            sub.mu_mapping(self.BETA), None, spec.time,
        )
        assert constants["master_growth"] > 2.0
        error = np.linalg.norm(res.master[:, free] - online.master_reduced @ V[free].T, axis=1)
        assert np.all(bounds >= error)
        assert error[-1] > 0.0
        reports = query_bounds(fom, art, self.BETA, [], online, res)
        assert all(r.valid for r in reports)

    def test_cli_exits_3_when_dt_gamma_reaches_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "problem": problem_to_dict(reaction_heat_pair(time=TimeSpec(0.05, 5))),
            "training": {"n_train": 4, "seed": 3,
                         "tolerances": {"master": 1e-2, "slave": 1e-4, "interface": 1e-4}},
            "outputs": {"directory": str(tmp_path / "out")},
        }))
        assert main(["offline", "--config", str(config)]) == 0
        [bundle] = (tmp_path / "out").glob("bundle_*")
        capsys.readouterr()
        argv = ["online", "--bundle", str(bundle), "--mu1", "-30", "--compare-fom"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert "EstimatorConvergenceError" in err and "dt gamma" in err
        assert "bound" not in out


# ---------------------------------------------------------------------------
# certified constants against dense oracles


def free_mass(sub):
    return sub.mass[np.ix_(sub.free_dofs, sub.free_dofs)].tocsc()


def dense_condition_root(M):
    lam = np.linalg.eigvalsh(M.toarray())
    return float(np.sqrt(lam[-1] / lam[0]))


class EigshOffset:
    """``scipy.sparse.linalg`` whose shift-invert ``eigsh`` returns its
    eigenvalues scaled by ``factor``: an estimate on the unsafe side."""

    def __init__(self, factor):
        self.factor = factor

    def eigsh(self, *args, **kwargs):
        lam = sp.linalg.eigsh(*args, **kwargs)
        return lam * self.factor if "sigma" in kwargs else lam

    def __getattr__(self, attr):
        return getattr(sp.linalg, attr)


class TestCertifiedConstants:
    @pytest.fixture(
        scope="class",
        params=["heat-4^3", "reaction-heat-2d", "transport-clustered"],
    )
    def mass(self, request):
        spec = {
            "heat-4^3": lambda: heat_laplace_pair(
                master_subdivisions=(4, 4, 4), slave_subdivisions=(2, 2, 2), n_steps=2
            ),
            "reaction-heat-2d": reaction_heat_pair,
            # the channel's smallest mass eigenvalues: a pair 0.6% above lambda_min
            "transport-clustered": lambda: transport_wall_pair((12, 8, 8), (6, 2, 4)),
        }[request.param]()
        return free_mass(cr.build_fom(spec).master)

    def test_condition_root_above_dense_oracle(self, mass):
        oracle = dense_condition_root(mass)
        got = MassBlock(mass).condition_root
        assert oracle <= got <= oracle * (1 + 1e-8)

    def test_unsafe_estimate_stays_on_the_safe_side(self, mass, monkeypatch):
        oracle = dense_condition_root(mass)
        monkeypatch.setattr(est, "spla", EigshOffset(1 + 1e-3))
        got = MassBlock(mass).condition_root
        assert oracle <= got <= oracle * 1.01

    @pytest.mark.parametrize("role", ["master", "slave"])
    def test_sigma_min_below_dense_oracle_steady_pair(self, role):
        fom = cr.build_fom(steady_pair_2d())
        sub = getattr(fom, role)
        mu = sub.mu_mapping([hi for _, hi in sub.spec.parameters.ranges])
        trace = np.zeros(len(sub.interface.dof_indices)) if role == "slave" else None
        A, _ = sub.free_system(mu, trace)
        oracle = np.linalg.svd(A.toarray(), compute_uv=False)[-1]
        got = sigma_min(A)
        assert oracle * (1 - 1e-8) <= got <= oracle

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_sigma_min_below_dense_oracle_nonsymmetric(self, seed):
        A = np.random.default_rng(seed).standard_normal((30, 30))
        oracle = np.linalg.svd(A, compute_uv=False)[-1]
        got = sigma_min(sp.csr_matrix(A))
        assert oracle * (1 - 1e-6) <= got <= oracle

    def test_symmetric_indefinite_certified_on_normal_matrix(self):
        # A - s I is indefinite at every shift near sigma_min, so A^T A
        # carries the certificate
        got = sigma_min(sp.csr_matrix(np.diag([1.5, -1.0, 3.0])))
        assert 1.0 - 1e-8 <= got <= 1.0

    def test_no_certificate_gives_trivial_bound(self, monkeypatch):
        monkeypatch.setattr(est, "_negative_radius", lambda B: None)
        assert sigma_min(sp.diags([2.0, 3.0]).tocsr()) == 0.0
        with pytest.raises(EstimatorConvergenceError):
            MassBlock(sp.diags([2.0, 3.0, 4.0]).tocsc()).condition_root

    def test_arpack_start_is_seeded(self, monkeypatch):
        rng = np.random.default_rng(9)
        K = rng.standard_normal((40, 40))
        A = sp.csr_matrix(K + K.T + 20 * np.eye(40))
        seen = []
        eigsh = est.spla.eigsh

        def recording(*args, **kwargs):
            seen.append(eigsh(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(est.spla, "eigsh", recording)
        _is_dissipative(A)
        eigsh(sp.identity(40, format="csr") + A, k=2)  # moves ARPACK's own start
        _is_dissipative(A)
        assert len(seen) == 2
        assert seen[0].tobytes() == seen[1].tobytes()


# ---------------------------------------------------------------------------
# proofs from the 1-D factors of a submodel that separates along every axis


def axis_proof(sub):
    """The per-axis proof of a marching submodel, and its terms' free blocks
    with their 1x1 factors ``(q, p)``."""
    fd = sub.operator_diagonalization
    terms = [
        (ff, float(Q[0, 0]), float(P[0, 0]))
        for (ff, _), (Q, P) in zip(sub.free_blocks, fd.factors)
    ]
    return est.AxisProof(fd.axis_pairs), terms


def dense_lambda_min(B):
    return np.linalg.eigvalsh((B + B.T).toarray() / 2)[0]


def perturbed(B, rtol, seed=0):
    """``B`` plus a symmetric perturbation of ``rtol`` times its largest
    entry on each stored entry, so its pattern is kept."""
    coo = sp.coo_matrix(B)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, coo.nnz)
    E = sp.csr_matrix((noise, (coo.row, coo.col)), shape=B.shape)
    return (B + rtol * abs(B).max() * (E + E.T) / 2).tocsr()


class TestAxisProof:
    @pytest.fixture(
        scope="class",
        params=["heat-8^3", "heat-10^3", "reaction-heat-2d", "transport-slave"],
    )
    def submodel(self, request):
        spec = {
            "heat-8^3": lambda: heat_laplace_pair((8, 8, 8), (4, 4, 4)),
            "heat-10^3": lambda: heat_laplace_pair((10, 10, 10), (5, 5, 5)),
            "reaction-heat-2d": reaction_heat_pair,
            "transport-slave": transport_wall_pair,
        }[request.param]()
        role = "slave" if request.param == "transport-slave" else "master"
        sub = getattr(cr.build_fom(spec), role)
        assert len(sub.spec.separated_axes) == sub.mesh.dim and sub.spec.unsteady
        return sub

    @staticmethod
    def rebuilt(sub):
        """A fresh full-order model of the submodel's own problem."""
        return pipeline.build_submodel(sub.spec, sub.role)

    def test_upper_end_above_dense_maximum_and_near_the_certified_one(self, submodel):
        M = free_mass(submodel)
        proof, _ = axis_proof(submodel)
        upper, gap = proof.upper(M)
        assert upper >= np.linalg.eigvalsh(M.toarray())[-1]
        assert abs(upper / MassBlock(M).spectrum[1] - 1.0) <= 1e-9
        assert 0.0 <= gap <= 1e-14 * abs(M).max()
        # the kept mass block takes it, and proves its lower end as before
        mass = submodel.constants.mass
        assert mass.upper == upper
        assert mass.spectrum[0] == MassBlock(M).spectrum[0]

    def test_term_lower_bounds_below_dense_minimum(self, submodel):
        proof, terms = axis_proof(submodel)
        verdicts = []
        for B, q, p in terms:
            lower, gap = proof.lower(B, q, p)
            assert lower <= dense_lambda_min(B)
            assert gap <= 1e-13 * abs(B).max()
            verdicts.append(lower >= 0.0)
            assert verdicts[-1] == _is_dissipative(B)
        assert submodel.constants.known_dissipative == verdicts == [True] * len(terms)

    def test_weighted_operator_below_dense_minimum(self, submodel):
        # a positive weighting of the terms is the form of the weighted factors
        proof, terms = axis_proof(submodel)
        rng = np.random.default_rng(3)
        for _ in range(3):
            w = rng.uniform(0.01, 10.0, len(terms))
            A = sum(wq * B for wq, (B, _, _) in zip(w, terms))
            q, p = (float(sum(wq * t[i] for wq, t in zip(w, terms))) for i in (1, 2))
            lower, _ = proof.lower(A, q, p)
            assert 0.0 <= lower <= dense_lambda_min(A)

    def test_first_marching_proof_runs_no_dissipativity_test(self, submodel, monkeypatch):
        calls = {"dissipative": 0, "eigsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(est, "_is_dissipative", counted("dissipative", _is_dissipative))
        monkeypatch.setattr(est.spla, "eigsh", counted("eigsh", est.spla.eigsh))
        constants = self.rebuilt(submodel).constants
        weights = (1.0,) * len(constants.terms)
        A = sum(constants.terms)
        assert constants.marching(weights, A, 0.01)[1] == 1.0
        # the mass's lower end is the one Lanczos run
        assert calls == {"dissipative": 0, "eigsh": 1}

    def test_negative_coefficient_is_not_proved(self, submodel):
        proof, terms = axis_proof(submodel)
        B, q, p = terms[0]
        assert proof.lower(-B, -q, -p) == (None, None)

    def test_negative_reaction_coefficient_goes_to_the_general_test(self, caplog):
        spec = reaction_heat_pair()
        master = dataclasses.replace(spec.master, operator=(
            spec.master.operator[0], AffineTerm(kind="reaction", theta="beta", coefficient=-1.0),
        ))
        sub = pipeline.build_submodel(master, "master")
        with caplog.at_level(logging.INFO, logger="coupledrom.pipeline"):
            constants = sub.constants
        assert constants.known_dissipative == [True, False]
        assert constants.dissipative_terms == [True, False]
        [line] = [r.getMessage() for r in caplog.records if "1-D factors" in r.getMessage()]
        assert "mass upper end proved (gap " in line
        assert "diffusion term dissipative (gap " in line
        # no gap is measured for a negative factor
        assert line.endswith("reaction term left to the general test")

    def test_block_off_its_kronecker_form_falls_back(self, submodel, monkeypatch):
        proof, terms = axis_proof(submodel)
        B, q, p = terms[0]
        off = perturbed(B, 1e-8)
        lower, gap = proof.lower(off, q, p)
        assert lower is None and gap > 1e-10 * abs(B).max()
        upper, _ = proof.upper(perturbed(free_mass(submodel), 1e-8))
        assert upper is None
        # on the submodel: the term goes to the general test, the mass's
        # upper end to Lanczos
        sub = self.rebuilt(submodel)
        sub.free_blocks[0] = (perturbed(sub.free_blocks[0][0], 1e-8), sub.free_blocks[0][1])
        sub._mass_blocks = (perturbed(sub._mass_blocks[0], 1e-8), sub._mass_blocks[1])
        tested = []
        monkeypatch.setattr(
            est, "_is_dissipative", lambda A: tested.append(A) or _is_dissipative(A)
        )
        constants = sub.constants
        assert constants.known_dissipative[0] is False
        assert constants.mass.upper is None
        assert constants.dissipative_terms[0] is True
        assert len(tested) == 1


class TestOneByOneBlocks:
    # ARPACK cannot take k = 1 eigenvalue of a 1x1 matrix: the entry is the
    # estimate, and the certificate still proves it
    pytestmark = pytest.mark.filterwarnings("error")

    @pytest.mark.parametrize("entry, expected", [(1.0, True), (-1.0, False), (0.0, True)])
    def test_is_dissipative(self, entry, expected):
        assert _is_dissipative(sp.csr_matrix([[entry]])) == expected

    def test_condition_root_proved(self, monkeypatch):
        assert 1.0 <= MassBlock(sp.csr_matrix([[2.0]])).condition_root <= 1.0 + 1e-8
        monkeypatch.setattr(est, "_negative_radius", lambda B: None)
        with pytest.raises(EstimatorConvergenceError):
            MassBlock(sp.csr_matrix([[2.0]])).condition_root

    def test_semigroup_constant(self):
        M = sp.csr_matrix([[2.0]])
        c, growth = semigroup_constant(M, sp.csr_matrix([[3.0]]), 1.0)
        assert growth == 1.0 and 1.0 <= c <= 1.0 + 1e-8
        # lambda(-1, 2) = -0.5: gamma = 0.5, so growth 2 at dt 1
        c, growth = semigroup_constant(M, sp.csr_matrix([[-1.0]]), 1.0)
        assert 1.0 <= c <= 1.0 + 1e-8
        assert 2.0 <= growth <= 2.0 * (1 + 1e-8)

    def test_sigma_min_proved(self):
        assert 2.0 * (1 - 1e-8) <= sigma_min(sp.csr_matrix([[2.0]])) < 2.0
