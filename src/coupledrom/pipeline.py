"""Offline training and online reduced solves for one-way coupled problems.

Offline: solve the full-order master and slave over a training sample, stack
solution and transferred-interface snapshots, build the three bases and the
interface reducer, and project every operator term.  Online: solve the two
small reduced systems and reassemble the slave field; apart from the final
expansions, no online operation touches full-order dimensions.
"""

from __future__ import annotations

import logging
import math
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import estimator as est
from . import fem
from .errors import ConfigError, SingularRomError
from .interface import (
    InterfaceReducer,
    assemble_reducer,
    build_transfer_matrix,
    make_deim_basis,
)
from .mesh import InterfaceTrace, Mesh, extract_interface
from .pod import PodFactorization, ReducedBasis, SnapshotSet
from .problems import (
    CoupledProblemSpec,
    SubmodelSpec,
    TimeSpec,
    compile_expression,
    eval_spatial,
    eval_theta,
    reads_time,
    spatial_coefficient,
)
from .sampling import SampleSet, lhs_sample

log = logging.getLogger(__name__)

#: deterministic offset separating master and slave sample streams
_SLAVE_SEED_OFFSET = 0x9E3779B9


def affine_sum(weights, terms):
    """``sum_q weights[q] * terms[q]``, accumulated in term order."""
    out = weights[0] * terms[0]
    for w, A in zip(weights[1:], terms[1:]):
        out = out + w * A
    return out


class AffineSubmodel:
    """Parameter-affine operator and load sums, shared by the full-order and
    the reduced submodels: ``op_terms`` and ``load_terms`` are ``(theta,
    array)`` pairs and ``n`` is the number of unknowns."""

    @cached_property
    def _theta_code(self) -> dict:
        return {}

    def _compiled(self, theta, mu: Mapping):
        """``theta``, an expression compiled once per submodel and set of
        parameter names; one with an unknown name raises on every call."""
        if not isinstance(theta, str):
            return theta
        key = (theta, frozenset(mu))
        if key not in self._theta_code:
            self._theta_code[key] = compile_expression(theta, set(mu) | {"t"}, "theta")
        return self._theta_code[key]

    def theta_weights(self, mu: Mapping, t: float | None = None) -> list[float]:
        return [eval_theta(self._compiled(theta, mu), mu, t) for theta, _ in self.op_terms]

    def assemble_operator(self, mu: Mapping, t: float | None = None):
        return affine_sum(self.theta_weights(mu, t), [A for _, A in self.op_terms])

    def loads_per_state(self, mu: Mapping, time: TimeSpec | None = None) -> np.ndarray:
        """The steady load ``(n,)`` when ``time`` is None, else one load
        column per state ``t_0 .. t_n`` of the time grid ``(n, n_steps + 1)``:
        each weight is evaluated once per state, or once when it does not
        read ``t``, and each term is added into every state at once."""
        states = [None] if time is None else [k * time.dt for k in range(time.n_steps + 1)]
        out = np.zeros((self.n, len(states)))
        for theta, vec in self.load_terms:
            code = self._compiled(theta, mu)
            if reads_time(code):
                out += vec[:, None] * np.array([eval_theta(code, mu, t) for t in states])
            else:
                out += vec[:, None] * eval_theta(code, mu)
        return out[:, 0] if time is None else out


# ---------------------------------------------------------------------------
# full-order side


@dataclass
class FomSubmodel(AffineSubmodel):
    """Assembled full-order operators for one submodel.

    What certification needs of the operators and not of the parameters
    (the free mass block, its factorization and ``sqrt(cond)``, and the
    dissipativity of each operator term) is computed on first use and kept.
    """

    spec: SubmodelSpec
    mesh: Mesh
    interface: InterfaceTrace
    op_terms: list[tuple[object, sp.csr_matrix]]
    mass: sp.csr_matrix | None
    load_terms: list[tuple[object, np.ndarray]]
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    u0: np.ndarray
    #: Dirichlet DoFs, followed on the slave by the interface DoFs
    constrained_dofs: np.ndarray
    #: sorted complement of ``constrained_dofs``
    free_dofs: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_dofs

    n = n_dofs

    def constrained_values(self, trace: np.ndarray | None = None) -> np.ndarray:
        """Values at ``constrained_dofs``: the Dirichlet data, followed on the
        slave by the interface ``trace`` (one row per step when 2-D)."""
        if trace is None:
            return self.dirichlet_values
        trace = np.asarray(trace, dtype=float)
        fixed = np.broadcast_to(
            self.dirichlet_values, trace.shape[:-1] + self.dirichlet_values.shape
        )
        return np.concatenate([fixed, trace], axis=-1)

    @cached_property
    def free_mass(self) -> est.MassBlock:
        """The mass matrix on ``free_dofs``."""
        free = self.free_dofs
        return est.MassBlock(self.mass[np.ix_(free, free)])

    @cached_property
    def dissipative_terms(self) -> list[bool]:
        """Per operator term: its free block has a positive semidefinite
        symmetric part."""
        free = self.free_dofs
        return [est._is_dissipative(A[np.ix_(free, free)]) for _, A in self.op_terms]

    def known_dissipative(self, weights) -> bool:
        """True when ``sum_q weights[q] * term_q`` is dissipative on the free
        block by its terms alone: no weight is negative and every term is
        dissipative, and a non-negative sum of positive semidefinite matrices
        is positive semidefinite.  False leaves the question open."""
        return all(w >= 0.0 for w in weights) and all(self.dissipative_terms)

    def mu_mapping(self, mu) -> dict[str, float]:
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu.size != self.spec.parameters.dim:
            raise ConfigError(
                f"expected {self.spec.parameters.dim} parameter value(s), got {mu.size}"
            )
        return self.spec.parameters.as_mapping(mu)


def build_submodel(spec: SubmodelSpec, role: str) -> FomSubmodel:
    spec.validate(role)
    mesh = spec.mesh.build()
    quad = fem.cell_quadrature(mesh)
    terms = []
    for term in spec.operator:
        coeff = spatial_coefficient(term.coefficient)
        if term.kind == "diffusion":
            A = fem.assemble_stiffness(mesh, coeff, quadrature=quad)
        elif term.kind == "reaction":
            A = fem.assemble_mass(mesh, coeff, quadrature=quad)
        else:
            A = fem.assemble_advection(mesh, coeff, quadrature=quad)
        terms.append((term.theta, A))
    mass = fem.assemble_mass(mesh, quadrature=quad) if spec.unsteady else None
    loads = [
        (t.theta, fem.assemble_load(mesh, spatial_coefficient(t.profile)))
        for t in spec.forcing
    ]
    interface = extract_interface(mesh, spec.interface_tag)

    pairs = []
    for face, value in spec.dirichlet.items():
        dofs = extract_interface(mesh, face).dof_indices
        pairs.extend((int(d), float(value)) for d in dofs)
    d_dofs, d_values = fem._normalize_dirichlet(pairs)
    constrained = d_dofs
    if role == "slave":
        if np.intersect1d(d_dofs, interface.dof_indices).size:
            raise ConfigError(
                "slave Dirichlet faces share DoFs with the interface face",
                field="slave.dirichlet",
            )
        constrained = np.concatenate([d_dofs, interface.dof_indices])
    u0 = np.asarray(eval_spatial(spec.initial, mesh.node_coords), dtype=float).copy()
    return FomSubmodel(
        spec=spec,
        mesh=mesh,
        interface=interface,
        op_terms=terms,
        mass=mass,
        load_terms=loads,
        dirichlet_dofs=d_dofs,
        dirichlet_values=d_values,
        u0=u0,
        constrained_dofs=constrained,
        free_dofs=np.setdiff1d(np.arange(mesh.n_dofs), constrained),
    )


@dataclass
class FomProblem:
    spec: CoupledProblemSpec
    master: FomSubmodel
    slave: FomSubmodel
    transfer: sp.csr_matrix  # slave trace x master trace
    #: true when every slave trace point coincides with a master trace point
    #: (conforming meshes or nested refinements); the transfer is then exact
    conforming: bool


def build_fom(spec: CoupledProblemSpec) -> FomProblem:
    spec.validate()
    master = build_submodel(spec.master, "master")
    slave = build_submodel(spec.slave, "slave")
    transfer = build_transfer_matrix(
        master.interface, slave.interface, max_distance=master.mesh.cell_diagonal
    )
    conforming = transfer.nnz == transfer.shape[0] and np.all(transfer.data == 1.0)
    return FomProblem(
        spec=spec, master=master, slave=slave, transfer=transfer, conforming=conforming
    )


@dataclass
class FomResult:
    master: np.ndarray  # (N1,) or (n_steps+1, N1)
    slave: np.ndarray  # (N2,) or (n_steps+1, N2)
    dirichlet: np.ndarray  # transferred interface data, per step when unsteady
    timings: dict


def fom_coupled_solve(fom: FomProblem, mu1, mu2) -> FomResult:
    """Reference path: master solve, trace transfer, slave solve.

    A steady problem is the one-state case: its arrays are 1-D, and an
    unsteady problem's hold one row per state.
    """
    master, slave = fom.master, fom.slave
    mu1m = master.mu_mapping(mu1)
    mu2m = slave.mu_mapping(mu2)
    ts = fom.spec.time if fom.spec.is_unsteady else None
    t0 = _time.perf_counter()
    A1 = master.assemble_operator(mu1m)
    F1 = master.loads_per_state(mu1m, ts)
    if ts is None:
        u1 = fem.solve_steady(
            *fem.apply_dirichlet_lifting(
                A1, F1, zip(master.constrained_dofs, master.constrained_values())
            )
        )
    else:
        u1 = fem.solve_unsteady_bdf1(
            master.mass,
            A1,
            F1,
            master.u0,
            ts.dt,
            master.constrained_dofs,
            master.constrained_values(),
        )
    t1 = _time.perf_counter()
    g = (fom.transfer @ u1[..., master.interface.dof_indices].T).T
    values2 = slave.constrained_values(g)
    A2 = slave.assemble_operator(mu2m)
    F2 = slave.loads_per_state(mu2m, ts)
    if slave.spec.unsteady:
        u2 = fem.solve_unsteady_bdf1(
            slave.mass, A2, F2, slave.u0, ts.dt, slave.constrained_dofs, values2
        )
    else:
        # instantaneous slave: one lifting and one factorization for all states
        A2_bc, F2_bc = fem.apply_dirichlet_lifting(
            A2, F2, zip(slave.constrained_dofs, values2.T)
        )
        u2 = np.ascontiguousarray(fem.solve_steady(A2_bc, F2_bc).T)
    t2 = _time.perf_counter()
    return FomResult(
        master=u1,
        slave=u2,
        dirichlet=g,
        timings={"master_s": t1 - t0, "slave_s": t2 - t1, "total_s": t2 - t0},
    )


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainingData:
    """Snapshots and their factorizations; independent of any tolerance."""

    fom: FomProblem
    master_samples: SampleSet
    slave_samples: SampleSet
    snapshots_master: SnapshotSet
    snapshots_slave: SnapshotSet  # interface rows zeroed (homogenized part)
    snapshots_dirichlet: SnapshotSet
    pod_master: PodFactorization
    pod_slave: PodFactorization
    pod_dirichlet: PodFactorization
    pairing: str
    seed: int
    timings: dict


def run_training(
    spec_or_fom,
    n_train: int,
    seed: int,
    pairing: str = "paired",
    centered: bool = False,
    threads: int = 1,
) -> TrainingData:
    """Solve the coupled full-order model over the training plan and collect
    the three snapshot families."""
    if n_train < 2:
        raise ConfigError("insufficient training samples: n_train must be >= 2")
    if pairing not in ("paired", "tensor"):
        raise ConfigError(f"pairing must be 'paired' or 'tensor', got {pairing!r}")
    fom = spec_or_fom if isinstance(spec_or_fom, FomProblem) else build_fom(spec_or_fom)
    t0 = _time.perf_counter()

    m_space, s_space = fom.master.spec.parameters, fom.slave.spec.parameters
    master_samples = lhs_sample(m_space, n_train, seed, "train", centered)
    slave_samples = lhs_sample(
        s_space, n_train, seed + _SLAVE_SEED_OFFSET, "train", centered
    )
    if pairing == "paired":
        pairs = [(i, i) for i in range(n_train)]
    else:
        pairs = [(i, j) for i in range(n_train) for j in range(n_train)]

    nt = fom.spec.time.n_steps if fom.spec.is_unsteady else None
    cols_per = nt if nt else 1
    n_cols = len(pairs) * cols_per
    S1 = np.empty((fom.master.n_dofs, n_cols))
    S2 = np.empty((fom.slave.n_dofs, n_cols))
    SD = np.empty((len(fom.slave.interface), n_cols))

    def solve_pair(k: int):
        i, j = pairs[k]
        res = fom_coupled_solve(fom, master_samples.points[i], slave_samples.points[j])
        return k, res

    def commit(k: int, res: FomResult):
        base = k * cols_per
        if nt:
            # columns are the states at t_1 .. t_nt; t_0 is data, not response
            S1[:, base : base + nt] = res.master[1:].T
            S2[:, base : base + nt] = res.slave[1:].T
            SD[:, base : base + nt] = res.dirichlet[1:].T
        else:
            S1[:, base] = res.master
            S2[:, base] = res.slave
            SD[:, base] = res.dirichlet

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for k, res in pool.map(solve_pair, range(len(pairs))):
                commit(k, res)
    else:
        for k in range(len(pairs)):
            commit(*solve_pair(k))
    t_solve = _time.perf_counter()

    gamma2 = fom.slave.interface.dof_indices
    S2[gamma2, :] = 0.0  # homogenized slave snapshots
    snap1, snap2, snapD = SnapshotSet(S1), SnapshotSet(S2), SnapshotSet(SD)
    pod1 = PodFactorization(snap1)
    pod2 = PodFactorization(snap2)
    podD = PodFactorization(snapD)
    t_pod = _time.perf_counter()

    log.info(
        "training: %d coupled solves (%d snapshot columns) in %.2fs, POD in %.2fs",
        len(pairs),
        n_cols,
        t_solve - t0,
        t_pod - t_solve,
    )
    return TrainingData(
        fom=fom,
        master_samples=master_samples,
        slave_samples=slave_samples,
        snapshots_master=snap1,
        snapshots_slave=snap2,
        snapshots_dirichlet=snapD,
        pod_master=pod1,
        pod_slave=pod2,
        pod_dirichlet=podD,
        pairing=pairing,
        seed=seed,
        timings={"fom_solves_s": t_solve - t0, "pod_s": t_pod - t_solve},
    )


# ---------------------------------------------------------------------------
# reduced artifacts


@dataclass
class ReducedSubmodel(AffineSubmodel):
    basis: ReducedBasis
    op_terms: list[tuple[object, np.ndarray]]
    mass: np.ndarray | None
    load_terms: list[tuple[object, np.ndarray]]
    u0_reduced: np.ndarray
    unsteady: bool

    @property
    def n(self) -> int:
        return self.basis.n


@dataclass
class RomArtifacts:
    """Everything the online phase needs besides parameter values."""

    spec: CoupledProblemSpec
    master: ReducedSubmodel
    slave: ReducedSubmodel
    reducer: InterfaceReducer
    tolerances: tuple[float, float, float]  # (master, slave, interface)
    provenance: dict = field(default_factory=dict)

    @property
    def basis_sizes(self) -> dict:
        return {"master": self.master.n, "slave": self.slave.n, "interface": self.reducer.m}


def _zero_rows(V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # constrained rows must vanish exactly so that raw-matrix Galerkin
    # products coincide with the eliminated system
    V = V.copy()
    if rows.size:
        V[rows, :] = 0.0
    return V


def _project_submodel(sub: FomSubmodel, V: np.ndarray, basis: ReducedBasis) -> ReducedSubmodel:
    op_terms = [(theta, np.asarray(V.T @ (A @ V))) for theta, A in sub.op_terms]
    mass = np.asarray(V.T @ (sub.mass @ V)) if sub.mass is not None else None
    load_terms = [(theta, np.asarray(V.T @ vec)) for theta, vec in sub.load_terms]
    u0_reduced = np.asarray(V.T @ sub.u0)
    return ReducedSubmodel(
        basis=basis,
        op_terms=op_terms,
        mass=mass,
        load_terms=load_terms,
        u0_reduced=u0_reduced,
        unsteady=sub.spec.unsteady,
    )


def _assemble_artifacts(
    fom: FomProblem,
    V1: np.ndarray,
    sv1: np.ndarray,
    V2: np.ndarray,
    sv2: np.ndarray,
    deim_basis,
    tolerances,
    provenance,
) -> RomArtifacts:
    V1 = _zero_rows(V1, fom.master.constrained_dofs)
    V2 = _zero_rows(V2, fom.slave.constrained_dofs)
    basis1 = ReducedBasis(V=V1, singular_values=sv1, tolerance=tolerances[0])
    basis2 = ReducedBasis(V=V2, singular_values=sv2, tolerance=tolerances[1])

    slave_ops = {f"A{q}": A for q, (_, A) in enumerate(fom.slave.op_terms)}
    if fom.slave.spec.unsteady:
        slave_ops["M"] = fom.slave.mass
    reducer = assemble_reducer(
        deim_basis,
        fom.master.interface,
        fom.slave.interface,
        V1,
        V2,
        slave_operators=slave_ops,
    )
    master_red = _project_submodel(fom.master, V1, basis1)
    slave_red = _project_submodel(fom.slave, V2, basis2)
    return RomArtifacts(
        spec=fom.spec,
        master=master_red,
        slave=slave_red,
        reducer=reducer,
        tolerances=tuple(tolerances),
        provenance=provenance,
    )


def build_artifacts(training: TrainingData, tolerances) -> RomArtifacts:
    """Truncate the training factorizations at the given (master, slave,
    interface) tolerances and assemble all stored online products."""
    eps1, eps2, eps_d = tolerances
    t0 = _time.perf_counter()
    b1 = training.pod_master.truncate(eps1)
    b2 = training.pod_slave.truncate(eps2)
    bd = training.pod_dirichlet.truncate(eps_d)
    fom = training.fom
    if bd.n > len(fom.master.interface):
        from .errors import OversamplingError

        raise OversamplingError(
            f"{bd.n} interpolation indices exceed master trace size "
            f"{len(fom.master.interface)}"
        )
    deim_basis = make_deim_basis(bd.V)
    provenance = {
        "n_train": len(training.master_samples),
        "seed": training.seed,
        "pairing": training.pairing,
        "tolerances": {"master": eps1, "slave": eps2, "interface": eps_d},
        "master_samples": training.master_samples.points.tolist(),
        "slave_samples": training.slave_samples.points.tolist(),
        "mesh_hashes": {
            "master": fom.master.mesh.content_hash(),
            "slave": fom.slave.mesh.content_hash(),
        },
        "conforming": bool(fom.conforming),
        "timings": dict(training.timings),
    }
    artifacts = _assemble_artifacts(
        fom, b1.V, b1.singular_values, b2.V, b2.singular_values,
        deim_basis, (eps1, eps2, eps_d), provenance,
    )
    artifacts.provenance["timings"]["reduce_s"] = _time.perf_counter() - t0
    log.info(
        "artifacts: basis sizes %s at tolerances %s",
        artifacts.basis_sizes,
        tolerances,
    )
    return artifacts


def offline(
    spec: CoupledProblemSpec,
    n_train: int,
    tolerances,
    seed: int,
    pairing: str = "paired",
    centered: bool = False,
    threads: int = 1,
) -> RomArtifacts:
    """Complete offline stage: training solves, bases, stored products."""
    training = run_training(spec, n_train, seed, pairing, centered, threads)
    return build_artifacts(training, tolerances)


def _unit_columns(n: int, rows: np.ndarray) -> np.ndarray:
    """Columns of the ``n x n`` identity at ``rows``, without forming it."""
    V = np.zeros((n, len(rows)))
    V[rows, np.arange(len(rows))] = 1.0
    return V


def full_rank_artifacts(spec: CoupledProblemSpec) -> RomArtifacts:
    """Exactness-limit artifacts: identity bases on all free DoFs and a full
    interpolation basis on the slave trace (no truncation anywhere)."""
    fom = build_fom(spec)
    V1 = _unit_columns(fom.master.n_dofs, fom.master.free_dofs)
    V2 = _unit_columns(fom.slave.n_dofs, fom.slave.free_dofs)
    n_trace = len(fom.slave.interface)
    deim_basis = make_deim_basis(np.eye(n_trace), indices=np.arange(n_trace))
    return _assemble_artifacts(
        fom,
        V1,
        np.ones(V1.shape[1]),
        V2,
        np.ones(V2.shape[1]),
        deim_basis,
        (0.0, 0.0, 0.0),
        {"full_rank": True},
    )


# ---------------------------------------------------------------------------
# online


@dataclass
class OnlineResult:
    master_reduced: np.ndarray  # (n1,) or (n_steps+1, n1)
    slave_reduced: np.ndarray  # homogeneous part, same layout
    trace: np.ndarray | None  # Dirichlet data on the slave trace
    slave_solution: np.ndarray | None  # expanded full-order slave field
    diagnostics: dict


def _query_parameters(spec: CoupledProblemSpec, mu1, mu2):
    """Parameter mappings of a query, and a warning for each side whose
    parameters lie outside its trained ranges."""
    warnings: list[str] = []
    mappings = []
    for label, sub, mu in (("master", spec.master, mu1), ("slave", spec.slave, mu2)):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        mappings.append(sub.parameters.as_mapping(mu))
        if mu.size and not sub.parameters.contains(mu):
            msg = f"{label} parameters {mu.tolist()} outside trained ranges"
            warnings.append(msg)
            log.warning("%s (proceeding)", msg)
    return mappings[0], mappings[1], warnings


# Every reduced factorization and solve goes through ``_reduced_solve`` or
# ``_reduced_march``: an exactly singular system or a non-finite result
# raises ``SingularRomError``.


def _singular(detail: str) -> SingularRomError:
    return SingularRomError(f"reduced system singular ({detail}); tolerances may be too loose")


def _finite(x: np.ndarray) -> np.ndarray:
    # one dot product is half the cost of np.isfinite(x).all() on these
    # small arrays; a squared norm beyond the float range counts as well
    if not math.isfinite(np.vdot(x, x)):
        raise _singular("non-finite solution")
    return x


def _reduced_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A^{-1} B`` for one reduced system and one or many right-hand sides."""
    try:
        return _finite(np.linalg.solve(A, B))
    except np.linalg.LinAlgError as exc:
        raise _singular(str(exc))


def _reduced_march(S: np.ndarray, M_dt: np.ndarray, G: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """States ``u[0] = u0`` and ``S u[k+1] = G[:, k+1] + M_dt u[k]``, one per
    column of the load block ``G`` (column 0 is not read), with ``S``
    factorized once."""
    # LAPACK itself: scipy's lu_factor only warns on an exactly zero pivot,
    # and lu_solve(..., check_finite=False) calls this same getrs on the same
    # arrays behind a per-call wrapper that costs more than the 2n^2 flops
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (S,))
    lu, piv, info = getrf(S)
    if info != 0:
        raise _singular(f"getrf info {info}")
    u = np.empty((G.shape[1], len(u0)))
    u[0] = u0
    for k in range(G.shape[1] - 1):
        u[k + 1], info = getrs(lu, piv, G[:, k + 1] + M_dt @ u[k])
        if info != 0:
            raise _singular(f"getrs info {info}")
    return _finite(u)


def _instantaneous_slave(
    artifacts: RomArtifacts, u1: np.ndarray, mu2m: Mapping, time: TimeSpec | None = None
) -> np.ndarray:
    """Reduced slave response to each master state: one state ``(n1,)`` when
    steady, else one row per state of ``time``; one lifting and one dense
    solve of all load columns."""
    s2 = artifacts.slave
    weights = {f"A{q}": w for q, w in enumerate(s2.theta_weights(mu2m))}
    lifting = artifacts.reducer.reduced_lifting(u1.T, weights)
    loads = s2.loads_per_state(mu2m, time)
    return _reduced_solve(s2.assemble_operator(mu2m), loads - lifting).T


def _online_result(
    artifacts: RomArtifacts, u1: np.ndarray, u2: np.ndarray, warnings, t0: float, expand: bool
) -> OnlineResult:
    """Stop the solve clock started at ``t0`` and, when asked, expand the
    trace and the slave field of one state or of every state."""
    t_solve = _time.perf_counter() - t0
    trace = slave_solution = None
    t_expand = 0.0
    if expand:
        t1 = _time.perf_counter()
        # states as columns, then back to one row per state
        reducer = artifacts.reducer
        trace = reducer.full_transfer @ u1.T
        slave_solution = artifacts.slave.basis.V @ u2.T
        slave_solution[reducer.slave_trace.dof_indices] = trace
        trace, slave_solution = trace.T, slave_solution.T
        t_expand = _time.perf_counter() - t1
    return OnlineResult(
        master_reduced=u1,
        slave_reduced=u2,
        trace=trace,
        slave_solution=slave_solution,
        diagnostics={
            "online_s": t_solve,
            "expand_s": t_expand,
            "basis_sizes": artifacts.basis_sizes,
            "warnings": warnings,
        },
    )


def online_steady(artifacts: RomArtifacts, mu1, mu2, expand: bool = True) -> OnlineResult:
    """Reduced master solve, the slave's response to its one state, optional
    expansion."""
    mu1m, mu2m, warnings = _query_parameters(artifacts.spec, mu1, mu2)
    t0 = _time.perf_counter()
    m1 = artifacts.master
    u1 = _reduced_solve(m1.assemble_operator(mu1m), m1.loads_per_state(mu1m))
    u2 = _instantaneous_slave(artifacts, u1, mu2m)
    return _online_result(artifacts, u1, u2, warnings, t0, expand)


def online_unsteady(artifacts: RomArtifacts, mu1, mu2, expand: bool = True) -> OnlineResult:
    """Reduced BDF1 marching of the coupled pair.

    The master marches implicitly; the slave either marches with the
    precomputed mass/stiffness lifting products or, when declared steady,
    responds instantaneously to every master state.
    """
    spec = artifacts.spec
    if spec.time is None:
        raise ConfigError("online_unsteady requires a time grid", field="time")
    mu1m, mu2m, warnings = _query_parameters(spec, mu1, mu2)
    dt = spec.time.dt
    t0 = _time.perf_counter()

    # master: (M/dt + A) u^{k+1} = f^{k+1} + (M/dt) u^k
    m1 = artifacts.master
    M1_dt = m1.mass / dt
    u1 = _reduced_march(
        M1_dt + m1.assemble_operator(mu1m),
        M1_dt,
        m1.loads_per_state(mu1m, spec.time),
        m1.u0_reduced,
    )

    s2 = artifacts.slave
    if s2.unsteady:
        # the lifting enters with its stiffness and its discrete time derivative
        lift = artifacts.reducer.lift_products
        w2 = s2.theta_weights(mu2m)
        LA = affine_sum(w2, [lift[f"A{q}"] for q in range(len(w2))])
        LM_dt = lift["M"] / dt
        M2_dt = s2.mass / dt
        # du[k] = u1[k] - u1[k-1], zero at k = 0
        du = np.diff(u1, axis=0, prepend=u1[:1])
        G2 = s2.loads_per_state(mu2m, spec.time) - LM_dt @ du.T - LA @ u1.T
        u2 = _reduced_march(M2_dt + s2.assemble_operator(mu2m), M2_dt, G2, s2.u0_reduced)
    else:
        u2 = _instantaneous_slave(artifacts, u1, mu2m, spec.time)
    return _online_result(artifacts, u1, u2, warnings, t0, expand)


def online_solve(artifacts: RomArtifacts, mu1, mu2, **kwargs) -> OnlineResult:
    if artifacts.spec.is_unsteady:
        return online_unsteady(artifacts, mu1, mu2, **kwargs)
    return online_steady(artifacts, mu1, mu2, **kwargs)
