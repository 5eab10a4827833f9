import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom.errors import DegenerateSnapshotsError
from coupledrom.library import steady_pair_2d
from coupledrom.pod import PodFactorization, _fix_signs, pod


def align_signs(A, B):
    """Flip columns of B so each best matches the corresponding column of A."""
    B = B.copy()
    for j in range(B.shape[1]):
        if A[:, j] @ B[:, j] < 0:
            B[:, j] = -B[:, j]
    return B


class TestPod:
    def test_rank_one(self):
        s = np.array([3.0, 0.0, 4.0])
        X = np.tile(s[:, None], (1, 5))
        basis = pod(X, 1e-8)
        assert basis.n == 1
        assert np.allclose(np.abs(basis.V[:, 0]), s / 5.0)

    def test_size_capped_at_rank_with_a_warning(self, caplog):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 10))
        factorization = PodFactorization(X)
        assert factorization.U.shape[1] == 2
        with caplog.at_level("WARNING", logger="coupledrom.pod"):
            assert factorization.size_for(1e-6) == 2
            assert not caplog.records
            # the rounding-level tail holds more than 1e-32 of the energy
            assert factorization.size_for(1e-16) == 2
        [record] = caplog.records
        assert "asks for 3 modes" in record.message
        assert "numerical rank 2" in record.message

    def test_identity_snapshots(self):
        basis = pod(np.eye(3), 1e-6)
        assert basis.n == 3
        assert np.allclose(basis.singular_values[:3], 1.0)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 20))
        basis = pod(X, 1e-12)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        assert np.allclose(basis.singular_values[: len(s)], s, atol=1e-10)
        Ua = align_signs(basis.V, U[:, : basis.n])
        assert np.max(np.abs(basis.V - Ua)) <= 1e-10

    def test_tall_matrix_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 40))
        basis = pod(X, 1e-12)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        assert np.allclose(basis.singular_values[: len(s)], s, atol=1e-10)
        Ua = align_signs(basis.V, U[:, : basis.n])
        assert np.max(np.abs(basis.V - Ua)) <= 1e-10

    @given(seed=st.integers(0, 500), tol_exp=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_energy_rule_minimality_and_orthonormality(self, seed, tol_exp):
        rng = np.random.default_rng(seed)
        tol = 10.0**-tol_exp
        # spread spectrum so truncation actually bites
        U, _ = np.linalg.qr(rng.standard_normal((60, 15)))
        s = np.logspace(0, -10, 15)
        X = U * s @ rng.standard_normal((15, 15))
        basis = pod(X, tol)
        s2 = basis.singular_values**2
        total = s2.sum()
        n = basis.n
        assert s2[n:].sum() <= tol**2 * total * (1 + 1e-12)
        if n > 1:
            assert s2[n - 1 :].sum() > tol**2 * total  # n is minimal
        G = basis.V.T @ basis.V
        assert np.max(np.abs(G - np.eye(n))) <= 1e-10

    def test_projection_error_bound(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 12)) * np.logspace(0, -6, 12)
        tol = 1e-3
        basis = pod(X, tol)
        V = basis.V
        tail = (basis.singular_values[basis.n :] ** 2).sum()
        total_err = 0.0
        for j in range(X.shape[1]):
            s = X[:, j]
            err = np.linalg.norm(s - V @ (V.T @ s)) ** 2
            assert err <= tail * (1 + 1e-8) + 1e-14
            total_err += err
        assert total_err <= tail * (1 + 1e-8) + 1e-14
        assert total_err <= tol**2 * (basis.singular_values**2).sum() + 1e-14

    def test_reproducible_and_sign_fixed(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 8))
        a = pod(X.copy(), 1e-6)
        b = pod(X.copy(), 1e-6)
        assert np.array_equal(a.V, b.V)
        for j in range(a.n):
            nz = np.nonzero(a.V[:, j])[0]
            assert a.V[nz[0], j] > 0

    def test_rounding_noise_does_not_decide_signs(self):
        # leading rows of rounding noise with either sign, as the SVD leaves
        # at rows that vanish in every snapshot
        U = np.array([
            [1e-18, -1e-18, 0.0],
            [-1e-18, 1e-18, 0.0],
            [-0.6, 0.8, 0.0],
            [0.8, 0.6, 0.0],
        ])
        fixed = _fix_signs(U)
        assert np.array_equal(fixed[:, 0], -U[:, 0])
        assert np.array_equal(fixed[:, 1], U[:, 1])
        assert np.array_equal(fixed[:, 2], U[:, 2])  # a zero column stays

    def test_stored_bases_start_positive_after_zeroed_rows(self):
        # the master and slave bases of this pair carry SVD noise at their
        # constrained rows, which the stored bases then zero
        art = cr.build_artifacts(cr.run_training(steady_pair_2d(), 4, seed=3), (1e-6,) * 3)
        for V in (art.master.basis.V, art.slave.basis.V, art.reducer.deim.Phi):
            for j in range(V.shape[1]):
                nz = np.nonzero(V[:, j])[0]
                assert V[nz[0], j] > 0

    def test_degenerate_snapshots(self):
        with pytest.raises(DegenerateSnapshotsError):
            pod(np.zeros((10, 3)), 1e-6)

    def test_factorization_truncation_consistency(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 10)) * np.logspace(0, -8, 10)
        fact = PodFactorization(X)
        for tol in (1e-1, 1e-3, 1e-6):
            assert np.array_equal(fact.truncate(tol).V, pod(X, tol).V)

