"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (the summary lines bypass
pytest's capture so they always appear).
"""

import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

import coupledrom as cr
from coupledrom.library import (
    heat_laplace_pair,
    steady_reaction_diffusion_pair,
)
from coupledrom.storage import hash_bundle, write_bundle


def check(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = (
        f"[acceptance criterion {num}] {'PASS' if ok and elapsed < budget else 'FAIL'}"
        f" ({elapsed:.1f}s / budget {budget:.0f}s): {detail}"
    )
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s over budget"


@pytest.fixture(scope="module")
def heat_training():
    """Unsteady heat/Laplace analog shared by criteria 5, 6 and 8."""
    spec = heat_laplace_pair(
        master_subdivisions=(8, 8, 8),
        slave_subdivisions=(4, 4, 4),
        alpha_range=(1e-3, 5.0),
        dt=0.01,
        n_steps=50,
    )
    return cr.run_training(spec, n_train=20, seed=11)


def _solve_dirichlet_poisson(mesh, forcing, exact):
    A = cr.assemble_stiffness(mesh, diffusion=1.0)
    f = cr.assemble_load(mesh, forcing)
    faces = ("x-", "x+", "y-", "y+") + (("z-", "z+") if mesh.dim == 3 else ())
    boundary = np.unique(
        np.concatenate([cr.extract_interface(mesh, t).dof_indices for t in faces])
    )
    A_bc, f_bc = cr.apply_dirichlet_lifting(A, f, {int(d): 0.0 for d in boundary})
    u = cr.solve_steady(A_bc, f_bc)
    return cr.l2_error(mesh, u, exact)


def test_criterion_1_fe_convergence():
    t0 = time.perf_counter()

    def sin_nd(p):
        out = np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])
        if p.shape[-1] == 3:
            out = out * np.sin(np.pi * p[..., 2])
        return out

    results = {}
    for label, dim, order in (("2D-Q1", 2, 1), ("2D-Q2", 2, 2), ("3D-Q1", 3, 1)):
        errors = []
        for n in (4, 8, 16):
            mesh = cr.build_box_mesh((0,) * dim, (1,) * dim, (n,) * dim, order=order)
            factor = float(dim) * np.pi**2
            errors.append(
                _solve_dirichlet_poisson(
                    mesh, lambda x: factor * sin_nd(x), sin_nd
                )
            )
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        results[label] = rates.mean()
    ok = (
        1.8 <= results["2D-Q1"] <= 2.2
        and 1.8 <= results["3D-Q1"] <= 2.2
        and 2.7 <= results["2D-Q2"] <= 3.3
    )
    detail = ", ".join(f"{k} rate {v:.2f}" for k, v in results.items())
    check(1, ok, detail, time.perf_counter() - t0, 30.0)


def test_criterion_2_pod_optimality():
    t0 = time.perf_counter()
    worst_gap = 0.0
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        # random 200x40 set: dense-SVD oracle match for vectors and values
        X = rng.standard_normal((200, 40))
        tol = 10.0 ** -float(rng.integers(1, 7))
        fact = cr.PodFactorization(X)
        basis = fact.truncate(tol)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        ok &= bool(np.allclose(fact.singular_values[: len(s)], s, atol=1e-10))
        for j in range(basis.shape[1]):
            flip = np.sign(U[:, j] @ basis[:, j]) or 1.0
            worst_gap = max(worst_gap, np.max(np.abs(basis[:, j] - flip * U[:, j])))
        ok &= worst_gap <= 1e-10
        # decaying-spectrum variant: the energy rule truncates and n is minimal
        Xd = rng.standard_normal((200, 40)) * np.logspace(0, -8, 40)
        fact_d = cr.PodFactorization(Xd)
        n = fact_d.truncate(tol).shape[1]
        s2 = fact_d.singular_values**2
        total = s2.sum()
        ok &= bool(s2[n:].sum() <= tol**2 * total * (1 + 1e-12))
        if n > 1:
            ok &= bool(s2[n - 1 :].sum() > tol**2 * total)  # minimality
    check(
        2,
        ok,
        f"energy rule + minimality on 5 random 200x40 sets, "
        f"max deviation from dense SVD {worst_gap:.1e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_3_deim_exactness():
    t0 = time.perf_counter()
    from test_interface import greedy_oracle

    ok = True
    worst_rec = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n_rows = int(rng.integers(10, 40))
        m = int(rng.integers(2, min(8, n_rows)))
        Phi = np.linalg.qr(rng.standard_normal((n_rows, m)))[0]
        idx = cr.deim_indices(Phi)
        ok &= idx.tolist() == greedy_oracle(Phi)
        from coupledrom.interface import make_deim_basis

        basis = make_deim_basis(Phi, indices=idx)
        w = Phi @ rng.standard_normal(m)
        rec = basis.reconstruct(w[idx])
        worst_rec = max(worst_rec, np.linalg.norm(rec - w) / np.linalg.norm(w))
    ok &= worst_rec <= 1e-10
    check(
        3,
        ok,
        f"greedy indices match dense oracle on 20 random bases, "
        f"max span-reconstruction error {worst_rec:.1e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_4_conforming_exactness():
    t0 = time.perf_counter()
    spec = steady_reaction_diffusion_pair((8, 8, 8), (8, 8, 8))
    art = cr.full_rank_artifacts(spec)
    fom = cr.build_fom(spec)
    assert art.reducer.m == len(fom.slave.interface)  # full interpolation basis
    worst = 0.0
    for mu1 in ([1.0, 1.0], [0.5, 5.0], [5.0, 0.5]):
        res = cr.fom_coupled_solve(fom, mu1, [])
        online = cr.online_steady(art, mu1, [])
        rel = np.linalg.norm(res.slave - online.slave_solution) / np.linalg.norm(res.slave)
        worst = max(worst, rel)
    check(
        4,
        worst <= 1e-8,
        f"identical 8^3 meshes, M = N_Gamma = {art.reducer.m}, full-rank bases: "
        f"worst relative deviation {worst:.2e}",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_5_heat_laplace_analog(heat_training):
    t0 = time.perf_counter()
    fom = heat_training.fom

    def mean_rel_error(tolerances):
        art = cr.build_artifacts(heat_training, tolerances)
        rows = cr.evaluate_test_set(art, fom, n_test=5, seed=99)
        return float(np.mean([r.rel_error for r in rows]))

    err_tight = mean_rel_error((1e-5, 1e-5, 1e-5))  # (a)
    err_loose = mean_rel_error((1e-2, 1e-2, 1e-2))  # (b) start
    err_loose_master = mean_rel_error((1e-2, 1e-5, 1e-5))  # (b) end
    improvement = err_loose / err_loose_master
    ok = err_tight <= 1e-3 and improvement < 10.0
    detail = (
        f"(a) mean relative slave error {err_tight:.2e} at tolerances 1e-5; "
        f"(b) fixing master 1e-2, tightening the rest 1e-2 -> 1e-5 improves "
        f"{improvement:.1f}x (< 10x, master-dominated plateau); "
        f"(c) absolute magnitudes are machine/scale specific by design"
    )
    check(5, ok, detail, time.perf_counter() - t0, 600.0)


def test_criterion_6_estimator_validity(heat_training):
    t0 = time.perf_counter()
    parts = []
    all_valid = True

    # steady pair (reaction-diffusion -> Laplace), 50 test queries
    spec = steady_reaction_diffusion_pair((8, 8, 8), (4, 4, 4))
    training = cr.run_training(spec, 30, seed=17)
    art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
    rows = cr.evaluate_test_set(art, training.fom, n_test=50, seed=2024)
    valid = sum(r.bound_valid for r in rows)
    effs = [r.effectivity for r in rows if r.effectivity]
    all_valid &= valid == len(rows)
    parts.append(
        f"steady: {valid}/{len(rows)} valid, effectivity median {np.median(effs):.0f}"
    )

    # conforming full-rank pair from criterion 4 (three queries)
    spec4 = steady_reaction_diffusion_pair((6, 6, 6), (6, 6, 6))
    art4 = cr.full_rank_artifacts(spec4)
    fom4 = cr.build_fom(spec4)
    rows4 = cr.evaluate_test_set(art4, fom4, n_test=3, seed=5)
    all_valid &= all(r.bound_valid for r in rows4)
    parts.append(f"conforming full-rank: {sum(r.bound_valid for r in rows4)}/3 valid")

    # unsteady analog over the criterion-5 tolerance sweep
    unsteady_valid = 0
    unsteady_total = 0
    effs_u = []
    for tols in ((1e-2, 1e-2, 1e-2), (1e-2, 1e-5, 1e-5), (1e-5, 1e-5, 1e-5)):
        art_u = cr.build_artifacts(heat_training, tols)
        rows_u = cr.evaluate_test_set(art_u, heat_training.fom, n_test=5, seed=99)
        unsteady_valid += sum(r.bound_valid for r in rows_u)
        unsteady_total += len(rows_u)
        effs_u.extend(r.effectivity for r in rows_u if r.effectivity)
    all_valid &= unsteady_valid == unsteady_total
    parts.append(
        f"unsteady sweep: {unsteady_valid}/{unsteady_total} valid at every step, "
        f"effectivity median {np.median(effs_u):.0f} (logged, unconstrained)"
    )
    check(6, all_valid, "; ".join(parts), time.perf_counter() - t0, 600.0)


def test_criterion_7_online_speedup():
    t0 = time.perf_counter()
    spec = steady_reaction_diffusion_pair((16, 16, 16), (8, 8, 8))
    fom = cr.build_fom(spec)
    assert fom.master.n_dofs == 4913
    training = cr.run_training(fom, 10, seed=5)
    art = cr.build_artifacts(training, (1e-4, 1e-4, 1e-4))
    timing = cr.measure_speedup(art, fom, [1.2, 3.0], [], repeats=5)
    ok = timing["speedup"] >= 5.0
    check(
        7,
        ok,
        f"N1 = 4913: online {timing['online_s'] * 1e3:.2f} ms vs reference "
        f"{timing['fom_s'] * 1e3:.1f} ms, speedup {timing['speedup']:.0f}x "
        f"(expansion excluded; literature figures are machine-specific)",
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_8_offline_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = heat_laplace_pair(
        master_subdivisions=(6, 6, 6), slave_subdivisions=(3, 3, 3), n_steps=10
    )
    hashes = []
    for name in ("run1", "run2"):
        art = cr.build_artifacts(cr.run_training(spec, 5, seed=33), (1e-4, 1e-4, 1e-4))
        hashes.append(write_bundle(tmp_path / name, art))
    ok = hashes[0] == hashes[1] == hash_bundle(tmp_path / "run1")
    check(
        8,
        ok,
        f"two offline runs, bundle sha256 {hashes[0][:16]}... identical",
        time.perf_counter() - t0,
        120.0,
    )


def test_criterion_9_bdf1_temporal_order():
    t0 = time.perf_counter()
    rates = {}

    # scalar closed form against the exact exponential
    errs = []
    for n in (16, 32, 64):
        traj = cr.solve_unsteady_bdf1(
            sp.identity(1, format="csr"),
            sp.identity(1, format="csr"),
            np.zeros((1, n + 1)),
            np.ones(1),
            1.0 / n,
        )
        errs.append(abs(traj[-1, 0] - np.exp(-1.0)))
    rates["scalar-full"] = np.log2(np.array(errs[:-1]) / np.array(errs[1:])).mean()

    # heat equation: full and POD-reduced marchers against fine references
    mesh = cr.build_box_mesh((0, 0), (1, 1), (8, 8))
    M = cr.assemble_mass(mesh)
    K = cr.assemble_stiffness(mesh, diffusion=1.0)
    boundary = np.unique(
        np.concatenate(
            [cr.extract_interface(mesh, f).dof_indices for f in ("x-", "x+", "y-", "y+")]
        )
    )
    from coupledrom.fem import eliminate_rows_cols

    K_bc = eliminate_rows_cols(K, boundary)
    M_bc = M.tolil()
    M_bc[boundary, :] = 0.0
    M_bc[:, boundary] = 0.0
    M_bc = M_bc.tocsr()
    u0 = np.sin(np.pi * mesh.node_coords[:, 0]) * np.sin(np.pi * mesh.node_coords[:, 1])
    u0[boundary] = 0.0
    f_vec = cr.assemble_load(
        mesh,
        lambda x: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
    )
    f_vec[boundary] = 0.0

    def rhs(t):
        return (2 * np.pi**2 - 1.0) * np.exp(-t) * f_vec

    T = 0.5

    def loads(load_of_t, n):
        return np.column_stack([load_of_t(k * (T / n)) for k in range(n + 1)])

    def march_full(n):
        return cr.solve_unsteady_bdf1(M_bc, K_bc, loads(rhs, n), u0, T / n)

    ref = march_full(512)[-1]
    errs = [np.linalg.norm(march_full(n)[-1] - ref) for n in (8, 16, 32)]
    rates["heat-full"] = np.log2(np.array(errs[:-1]) / np.array(errs[1:])).mean()

    # reduced marcher: POD basis from a fine trajectory, same BDF1 driver
    snapshots = march_full(128)[1:].T
    V = cr.PodFactorization(snapshots).truncate(1e-12)
    M_r = sp.csr_matrix(V.T @ (M_bc @ V))
    K_r = sp.csr_matrix(V.T @ (K_bc @ V))
    u0_r = V.T @ u0

    def march_reduced(n):
        return cr.solve_unsteady_bdf1(M_r, K_r, loads(lambda t: V.T @ rhs(t), n), u0_r, T / n)

    ref_r = march_reduced(512)[-1]
    errs = [np.linalg.norm(march_reduced(n)[-1] - ref_r) for n in (8, 16, 32)]
    rates["heat-reduced"] = np.log2(np.array(errs[:-1]) / np.array(errs[1:])).mean()

    ok = all(0.8 <= r <= 1.2 for r in rates.values())
    detail = ", ".join(f"{k} rate {v:.2f}" for k, v in rates.items())
    check(9, ok, detail, time.perf_counter() - t0, 120.0)
