import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom import pipeline
from coupledrom.errors import DegenerateSnapshotsError, DimensionMismatchError
from coupledrom.library import heat_laplace_pair, steady_pair_2d
from coupledrom.pod import (
    PodFactorization, SnapshotSet, _fix_signs, blas_thread_control,
)


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
        basis = PodFactorization(X).truncate(1e-8)
        assert basis.shape == (3, 1)
        assert np.allclose(np.abs(basis[:, 0]), s / 5.0)

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
        fact = PodFactorization(np.eye(3))
        assert fact.truncate(1e-6).shape == (3, 3)
        assert np.allclose(fact.singular_values[:3], 1.0)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 20))
        fact = PodFactorization(X)
        basis = fact.truncate(1e-12)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        assert np.allclose(fact.singular_values[: len(s)], s, atol=1e-10)
        Ua = align_signs(basis, U[:, : basis.shape[1]])
        assert np.max(np.abs(basis - Ua)) <= 1e-10

    def test_tall_matrix_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 40))
        fact = PodFactorization(X)
        basis = fact.truncate(1e-12)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        assert np.allclose(fact.singular_values[: len(s)], s, atol=1e-10)
        Ua = align_signs(basis, U[:, : basis.shape[1]])
        assert np.max(np.abs(basis - Ua)) <= 1e-10

    @given(seed=st.integers(0, 500), tol_exp=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_energy_rule_minimality_and_orthonormality(self, seed, tol_exp):
        rng = np.random.default_rng(seed)
        tol = 10.0**-tol_exp
        # spread spectrum so truncation actually bites
        U, _ = np.linalg.qr(rng.standard_normal((60, 15)))
        s = np.logspace(0, -10, 15)
        X = U * s @ rng.standard_normal((15, 15))
        fact = PodFactorization(X)
        basis = fact.truncate(tol)
        s2 = fact.singular_values**2
        total = s2.sum()
        n = basis.shape[1]
        assert s2[n:].sum() <= tol**2 * total * (1 + 1e-12)
        if n > 1:
            assert s2[n - 1 :].sum() > tol**2 * total  # n is minimal
        G = basis.T @ basis
        assert np.max(np.abs(G - np.eye(n))) <= 1e-10

    def test_projection_error_bound(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 12)) * np.logspace(0, -6, 12)
        tol = 1e-3
        fact = PodFactorization(X)
        V = fact.truncate(tol)
        tail = (fact.singular_values[V.shape[1] :] ** 2).sum()
        total_err = 0.0
        for j in range(X.shape[1]):
            s = X[:, j]
            err = np.linalg.norm(s - V @ (V.T @ s)) ** 2
            assert err <= tail * (1 + 1e-8) + 1e-14
            total_err += err
        assert total_err <= tail * (1 + 1e-8) + 1e-14
        assert total_err <= tol**2 * (fact.singular_values**2).sum() + 1e-14

    def test_reproducible_and_sign_fixed(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 8))
        a = PodFactorization(X.copy()).truncate(1e-6)
        b = PodFactorization(X.copy()).truncate(1e-6)
        assert np.array_equal(a, b)
        for j in range(a.shape[1]):
            nz = np.nonzero(a[:, j])[0]
            assert a[nz[0], j] > 0

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
        for V in (art.master.basis, art.slave.basis, art.reducer.deim.Phi):
            for j in range(V.shape[1]):
                nz = np.nonzero(V[:, j])[0]
                assert V[nz[0], j] > 0

    def test_degenerate_snapshots(self):
        with pytest.raises(DegenerateSnapshotsError):
            PodFactorization(np.zeros((10, 3))).truncate(1e-6)

    def test_factorization_truncation_consistency(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 10)) * np.logspace(0, -8, 10)
        fact = PodFactorization(X)
        for tol in (1e-1, 1e-3, 1e-6):
            assert np.array_equal(fact.truncate(tol), PodFactorization(X).truncate(tol))


TOLERANCES = [10.0**-k for k in range(1, 11)]


def one_svd(X):
    """The single thin SVD of the whole matrix, as ``PodFactorization`` takes
    it for a matrix of one block."""
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps))
    return _fix_signs(U[:, :rank]), s


def subspace_distance(A, B):
    """Sine of the largest principal angle between two orthonormal bases."""
    return np.linalg.norm(B - A @ (A.T @ B), 2)


def assert_two_level_matches_one_svd(snapshots, kept_tolerance):
    X = snapshots.matrix
    full = PodFactorization(X)
    two = PodFactorization(snapshots)
    assert two.stacked_cols <= X.shape[1]
    assert two.U.shape[1] == full.U.shape[1]  # same numerical rank
    for tol in TOLERANCES:
        n = two.size_for(tol)
        assert n == full.size_for(tol), tol
        V = two.U[:, :n]
        # the energy rule holds against the snapshots, not only the factors
        residual = np.sum((X - V @ (V.T @ X)) ** 2)
        assert residual <= tol**2 * np.sum(X**2) * (1 + 1e-12), tol
    n = full.size_for(kept_tolerance)
    assert subspace_distance(full.U[:, :n], two.U[:, :n]) <= 1e-10


def training_and_snapshots(spec, n_train, seed):
    """``run_training``'s result, and the snapshot set of each family as it
    factorizes them."""
    factorized = []

    def recording(snapshots):
        factorized.append(snapshots)
        return PodFactorization(snapshots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "PodFactorization", recording)
        training = cr.run_training(spec, n_train, seed)
    return training, dict(zip(["master", "slave", "dirichlet"], factorized, strict=True))


@pytest.fixture(scope="module", params=["heat-unsteady", "heat-fine"])
def heat_training_set(request):
    """The training of the heat_laplace config and of its refinement to
    10^3 / 5^3, 20 trajectories of 50 steps each, with its snapshot sets."""
    fine = request.param == "heat-fine"
    spec = heat_laplace_pair(
        master_subdivisions=(10, 10, 10) if fine else (8, 8, 8),
        slave_subdivisions=(5, 5, 5) if fine else (4, 4, 4),
    )
    return training_and_snapshots(spec, n_train=20, seed=11)


class TestTwoLevel:
    @pytest.mark.parametrize("family", ["master", "slave", "dirichlet"])
    def test_heat_training_sets_match_one_svd(self, heat_training_set, family):
        training, snapshots = heat_training_set
        assert snapshots[family].block == 50
        assert_two_level_matches_one_svd(snapshots[family], kept_tolerance=1e-5)
        assert getattr(training, f"pod_{family}").stacked_cols < 1000

    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(20, 60),
        n_blocks=st.integers(2, 6),
        block=st.integers(3, 12),
        rank=st.integers(1, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocked_low_rank_matches_one_svd(self, seed, n_rows, n_blocks, block, rank):
        rng = np.random.default_rng(seed)
        n_cols = n_blocks * block
        rank = min(rank, n_cols)
        # singular values 10^(-1.3 i): no partial tail lies within a factor
        # 1.5 of any tol^2 = 10^(-2k), so the sizes are decided with margin
        s = 10.0 ** (-1.3 * np.arange(rank))
        Q, _ = np.linalg.qr(rng.standard_normal((n_rows, rank)))
        W, _ = np.linalg.qr(rng.standard_normal((n_cols, rank)))
        X = (Q * s) @ W.T
        assert_two_level_matches_one_svd(SnapshotSet(X, block=block), kept_tolerance=1e-5)

    def test_block_must_divide_the_columns(self):
        X = np.random.default_rng(1).standard_normal((10, 12))
        with pytest.raises(DimensionMismatchError, match=r"\b5\b.*\b12\b"):
            PodFactorization(SnapshotSet(X, block=5))

    def test_zero_block_adds_no_columns(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 18))
        X[:, 6:12] = 0.0  # a trajectory that never leaves zero
        two = PodFactorization(SnapshotSet(X, block=6))
        assert two.stacked_cols == 8  # rank 4 from each nonzero block
        assert np.all(np.isfinite(two.U)) and np.all(np.isfinite(two.singular_values))
        full = PodFactorization(X)
        assert [two.size_for(t) for t in TOLERANCES] == [full.size_for(t) for t in TOLERANCES]
        assert subspace_distance(full.U, two.U) <= 1e-10

    @pytest.mark.parametrize("block", [None, 12, 13])
    def test_one_block_is_the_one_svd(self, block):
        X = np.random.default_rng(3).standard_normal((25, 12)) * np.logspace(0, -9, 12)
        U, s = one_svd(X)
        for snapshots in (SnapshotSet(X, block=block), X):
            fact = PodFactorization(snapshots)
            assert fact.stacked_cols == 12
            assert np.array_equal(fact.U, U)
            assert np.array_equal(fact.singular_values, s)

    def test_steady_training_is_one_svd(self):
        training, factorized = training_and_snapshots(steady_pair_2d(), 4, seed=3)
        for family, snapshots in factorized.items():
            assert snapshots.block is None
            U, s = one_svd(snapshots.matrix)
            assert np.array_equal(getattr(training, f"pod_{family}").U, U)
            assert np.array_equal(getattr(training, f"pod_{family}").singular_values, s)


ROOT = Path(__file__).resolve().parents[1]
#: the tightest-bundle digests of a heat pair, whose master marches and
#: whose POD at two OpenBLAS threads rounds differently from one thread when
#: unpinned, and of a transport pair, whose master marches in y-mode blocks
OFFLINE_DIGESTS = """
import tempfile
from coupledrom.experiments import ExperimentConfig, run_offline
from coupledrom.library import heat_laplace_pair, transport_wall_pair
for spec in (heat_laplace_pair((8, 8, 8), (4, 4, 4), n_steps=50),
             transport_wall_pair((8, 5, 5), (4, 2, 3), n_steps=12)):
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(spec, 8, 3, (1e-6,), (1e-6,), (1e-6,), 2, 5, out)
        print(run_offline(config)[1][0][2])
"""


class TestBlasThreads:
    def test_bundle_digests_do_not_depend_on_the_thread_count(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", OFFLINE_DIGESTS],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    @pytest.fixture
    def control(self):
        control = blas_thread_control()
        if control is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread control")
        get, put = control
        old = get()
        put(2)
        yield control
        put(old)

    def test_svds_run_on_one_thread_and_the_count_is_restored(self, control, monkeypatch):
        get, _ = control
        seen, svd = [], np.linalg.svd

        def recording(*args, **kwargs):
            seen.append(get())
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        X = np.random.default_rng(5).standard_normal((40, 12))
        fact = PodFactorization(SnapshotSet(X, block=4))
        assert seen == [1, 1]  # the blocks, then the stacked factors
        assert fact.blas_threads == 1
        assert get() == 2
        with pytest.raises(DegenerateSnapshotsError):
            PodFactorization(np.zeros((5, 3)))
        assert get() == 2

    def test_concurrent_factorizations_restore_the_count(self, control):
        get, _ = control
        X = np.random.default_rng(6).standard_normal((200, 60))

        def factorize(_):
            return PodFactorization(SnapshotSet(X, block=10)).U

        with ThreadPoolExecutor(max_workers=4) as pool:
            bases = [f.result(timeout=60) for f in [pool.submit(factorize, i) for i in range(16)]]
        assert all(np.array_equal(U, bases[0]) for U in bases)
        assert get() == 2

    def test_bundle_provenance_records_the_pinned_count(self):
        training = cr.run_training(steady_pair_2d(), 3, seed=1)
        artifacts = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
        pinned = None if blas_thread_control() is None else 1
        assert artifacts.provenance["pod_blas_threads"] == pinned
