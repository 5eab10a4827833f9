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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from . import estimator as est
from . import fem
from .errors import ConfigError, SingularRomError
from .fem import affine_sum
from .interface import (
    InterfaceReducer,
    assemble_reducer,
    build_transfer_matrix,
    make_deim_basis,
)
from .mesh import AXIS_NAMES, InterfaceTrace, Mesh, extract_interface
from .pod import PodFactorization, SnapshotSet
from .problems import (
    CoupledProblemSpec,
    SubmodelSpec,
    TimeSpec,
    eval_spatial,
    eval_theta,
    spatial_coefficient,
)
from .sampling import SampleSet, lhs_sample

log = logging.getLogger(__name__)

#: deterministic offset separating master and slave sample streams
_SLAVE_SEED_OFFSET = 0x9E3779B9


class AffineSubmodel:
    """Parameter-affine operator and load sums, shared by the full-order and
    the reduced submodels: ``op_terms`` and ``load_terms`` hold the arrays of
    the terms of ``spec.operator`` and ``spec.forcing``, in spec order, whose
    weights the spec compiles, and ``n`` is the number of unknowns."""

    def theta_weights(self, mu: Mapping) -> list[float]:
        return [eval_theta(w, mu) for w in self.spec.compiled.operator_weights]

    def assemble_operator(self, mu: Mapping):
        return affine_sum(self.theta_weights(mu), self.op_terms)

    def loads_per_state(self, mu: Mapping, time: TimeSpec | None = None) -> np.ndarray:
        """The steady load ``(n,)`` when ``time`` is None, else one load
        column per state ``t_0 .. t_n`` of the time grid ``(n, n_steps + 1)``:
        each weight is evaluated once per state, or once when it does not
        read ``t``, and each term is added into every state at once."""
        out = np.zeros((self.n, 1 if time is None else time.n_steps + 1))
        for (code, timed), vec in zip(self.spec.compiled.forcing_weights, self.load_terms):
            if timed:
                states = [None] if time is None else time.instants()
                out += vec[:, None] * np.array([eval_theta(code, mu, t) for t in states])
            else:
                out += vec[:, None] * eval_theta(code, mu)
        return out[:, 0] if time is None else out


# ---------------------------------------------------------------------------
# full-order side


@dataclass
class FomSubmodel(AffineSubmodel):
    """Assembled full-order operators for one submodel.

    What the solves and certification need of the operators and not of the
    parameters (the free and constrained blocks of each term, the fast
    diagonalizations of the free DoFs, and the ``constants`` proved on them)
    is computed on first use and kept.  So is the operator solve of the
    last operator weights and step, so that solves at unchanged weights and
    step, such as those of a master whose weights do not depend on the
    parameters, factorize once.
    """

    spec: SubmodelSpec
    role: str
    mesh: Mesh
    interface: InterfaceTrace
    op_terms: list[sp.csr_matrix]
    mass: sp.csr_matrix | None
    load_terms: list[np.ndarray]
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    u0: np.ndarray
    #: Dirichlet DoFs, followed on the slave by the interface DoFs
    constrained_dofs: np.ndarray
    #: sorted complement of ``constrained_dofs``, a union of whole faces, so
    #: a tensor product of one node set per axis
    free_dofs: np.ndarray
    #: ``((weights, dt), solve)`` of the last ``free_solver``
    _kept_solve: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _split(self, A: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The rows of ``A`` at ``free_dofs``, split into the columns at
        ``free_dofs`` and the columns at ``constrained_dofs``."""
        rows = A[self.free_dofs]
        return rows[:, self.free_dofs], rows[:, self.constrained_dofs]

    @cached_property
    def free_blocks(self) -> list[tuple[sp.csr_matrix, sp.csr_matrix]]:
        """Per operator term, its free-free and free-constrained blocks."""
        return [self._split(A) for A in self.op_terms]

    @cached_property
    def _mass_blocks(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        return self._split(self.mass)

    @cached_property
    def operator_diagonalization(self) -> fem.FastDiagonalization:
        """The diagonalization of the operator terms on the free DoFs along
        every axis that the spec separates, with one block per mode over
        the other axes."""
        terms = [
            (term.kind, spatial_coefficient(value))
            for term, value in zip(self.spec.operator, self.spec.compiled.coefficients)
        ]
        separated = self.spec.separated_axes
        fd = fem.FastDiagonalization.of(self.mesh, self.free_dofs, terms, separated)
        log.info(
            "%s operator solve: axes %s diagonalized, %d mode blocks of size %d",
            self.role, "".join(AXIS_NAMES[a] for a in separated) or "none", *fd.blocks,
        )
        return fd

    def free_solver(self, weights, dt: float | None = None):
        """The solve with the free operator ``A_ff(weights)``, or with the
        march's ``M_ff/dt + A_ff`` when ``dt`` is given, of one load or a
        block of loads, by ``operator_diagonalization``; the solve of the
        last ``(weights, dt)`` is kept."""
        key = (tuple(weights), dt)
        kept = self._kept_solve
        if kept is not None and kept[0] == key:
            return kept[1]
        self._kept_solve = None  # free the old factors before the new ones fill in
        solve = self.operator_diagonalization.solver(weights, dt)
        self._kept_solve = (key, solve)
        return solve

    @cached_property
    def constants(self) -> est.StabilityConstants:
        """The stability constants proved on the free blocks, kept for every
        query against this submodel; the mass block solves by a
        diagonalization along every axis: ``operator_diagonalization`` when
        the operator separates along every axis, else one of the unit mass
        alone.  A marching submodel that separates along every axis proves
        the upper end of its mass spectrum and the dissipativity of its terms
        from the 1-D factors of that diagonalization (``est.AxisProof``) and
        logs what it proved."""
        terms = [ff for ff, _ in self.free_blocks]
        if self.mass is None:
            return est.StabilityConstants(terms)
        fd, M_ff = self.operator_diagonalization, self._mass_blocks[0]
        if len(self.spec.separated_axes) < self.mesh.dim:
            log.info("%s constants: the operator does not separate along every axis, so no "
                     "constant comes from the 1-D factors", self.role)
            fd = fem.FastDiagonalization.of(self.mesh, self.free_dofs, [])
            return est.StabilityConstants(terms, est.MassBlock(M_ff, fd.mass_solver()))
        proof = est.AxisProof(fd.axis_pairs)
        upper, mass_gap = proof.upper(M_ff)
        lowers = [proof.lower(B, Q[0, 0], P[0, 0]) for B, (Q, P) in zip(terms, fd.factors)]
        known = [lo is not None and lo >= 0.0 for lo, _ in lowers]
        log.info(
            "%s constants from the 1-D factors: mass upper end %s (gap %.2e); %s",
            self.role, "proved" if upper is not None else "left to Lanczos", mass_gap,
            ", ".join(
                f"{term.kind} term {'dissipative' if ok else 'left to the general test'}"
                + ("" if gap is None else f" (gap {gap:.2e})")
                for term, ok, (_, gap) in zip(self.spec.operator, known, lowers)
            ),
        )
        mass = est.MassBlock(M_ff, fd.mass_solver(), upper)
        return est.StabilityConstants(terms, mass, known)

    def free_system(
        self, mu: Mapping, trace=None, time: TimeSpec | None = None, weights=None
    ):
        """``(A_ff, F)``: the operator on the free DoFs, and the load of each
        state on them less the lifting of the constrained values ``L`` (on
        the slave, with the interface ``trace``): ``f - A_fc L``, and for a
        marching submodel ``- M_fc dL/dt`` too.  ``F`` is one load when
        ``time`` is None, else one column per state.  ``weights`` are the
        operator weights of ``mu``, when the caller has them."""
        if weights is None:
            weights = self.theta_weights(mu)
        A_ff = affine_sum(weights, [ff for ff, _ in self.free_blocks])
        F = self.loads_per_state(mu, time)[self.free_dofs]
        values = self.constrained_values(trace)
        if np.any(values):  # zero values have a zero lifting
            if time is not None:
                values = np.broadcast_to(values, (time.n_steps + 1, values.shape[-1]))
            F = F - affine_sum(weights, [fc for _, fc in self.free_blocks]) @ values.T
            if self.spec.unsteady:
                dL = np.diff(values, axis=0, prepend=values[:1]) / time.dt
                F = F - self._mass_blocks[1] @ dL.T
        return A_ff, F

    def solve(self, mu: Mapping, trace=None, time: TimeSpec | None = None) -> np.ndarray:
        """Full-order states under the constrained values: one ``(n,)`` when
        ``time`` is None, else one row per state.  Every kind solves its free
        system by ``free_solver``: a marching submodel marches it from
        ``u0``, a steady or instantaneous one solves every state at once."""
        weights = self.theta_weights(mu)
        A_ff, F = self.free_system(mu, trace, time, weights)
        if self.spec.unsteady:
            free = fem.solve_unsteady_bdf1(
                self._mass_blocks[0], A_ff, F, self.u0[self.free_dofs], time.dt,
                self.free_solver(weights, time.dt),
            )
        else:
            free = fem.solve_steady(A_ff, F, self.free_solver(weights)).T
        u = np.empty(F.shape[1:] + (self.n_dofs,))
        u[..., self.free_dofs] = free
        u[..., self.constrained_dofs] = self.constrained_values(trace)
        return u

    def mu_mapping(self, mu) -> dict[str, float]:
        return self.spec.parameters.as_mapping(mu)


def build_submodel(spec: SubmodelSpec, role: str) -> FomSubmodel:
    mesh = spec.mesh.build()
    quad = fem.cell_quadrature(mesh)
    terms = [
        fem.assemble_term(mesh, term.kind, spatial_coefficient(value), quadrature=quad)
        for term, value in zip(spec.operator, spec.compiled.coefficients)
    ]
    mass = fem.assemble_mass(mesh, quadrature=quad) if spec.unsteady else None
    loads = [fem.assemble_load(mesh, spatial_coefficient(p)) for p in spec.compiled.profiles]
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
    free = np.setdiff1d(np.arange(mesh.n_dofs), constrained)
    if free.size == 0:
        raise ConfigError(
            f"every {role} DoF is constrained: the mesh needs more subdivisions "
            "across its constrained faces",
            field=f"{role}.mesh",
        )
    u0 = np.asarray(eval_spatial(spec.compiled.initial, mesh.node_coords), dtype=float).copy()
    return FomSubmodel(
        spec=spec,
        role=role,
        mesh=mesh,
        interface=interface,
        op_terms=terms,
        mass=mass,
        load_terms=loads,
        dirichlet_dofs=d_dofs,
        dirichlet_values=d_values,
        u0=u0,
        constrained_dofs=constrained,
        free_dofs=free,
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
    t0 = _time.perf_counter()
    u1 = master.solve(mu1m, time=fom.spec.time)
    t1 = _time.perf_counter()
    g = (fom.transfer @ u1[..., master.interface.dof_indices].T).T
    u2 = slave.solve(mu2m, g, fom.spec.time)
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
    """The snapshots' factorizations; independent of any tolerance."""

    fom: FomProblem
    master_samples: SampleSet
    slave_samples: SampleSet
    pod_master: PodFactorization
    pod_slave: PodFactorization
    pod_dirichlet: PodFactorization
    seed: int
    timings: dict


def _require_zero_dirichlet(spec: CoupledProblemSpec) -> None:
    """A reduced model vanishes at the constrained DoFs and its loads carry
    no lifting of Dirichlet values, so it would drop nonzero Dirichlet data:
    refuse such data before any solve."""
    for role, sub in (("master", spec.master), ("slave", spec.slave)):
        for face, value in sub.dirichlet.items():
            if value != 0.0:
                raise ConfigError(
                    f"{role} Dirichlet value {value:g} on face {face!r}: reduced models "
                    "support zero Dirichlet data only",
                    field=f"{role}.dirichlet",
                )


def run_training(spec_or_fom, n_train: int, seed: int) -> TrainingData:
    """Solve the coupled full-order model at ``n_train`` paired samples
    ``(mu1_i, mu2_i)`` and collect the three snapshot families."""
    if n_train < 2:
        raise ConfigError("insufficient training samples: n_train must be >= 2")
    fom = spec_or_fom if isinstance(spec_or_fom, FomProblem) else build_fom(spec_or_fom)
    _require_zero_dirichlet(fom.spec)
    t0 = _time.perf_counter()

    m_space, s_space = fom.master.spec.parameters, fom.slave.spec.parameters
    master_samples = lhs_sample(m_space, n_train, seed, "train")
    slave_samples = lhs_sample(s_space, n_train, seed + _SLAVE_SEED_OFFSET, "train")
    nt = None if fom.spec.time is None else fom.spec.time.n_steps
    cols_per = nt if nt else 1
    n_cols = n_train * cols_per
    S1 = np.empty((fom.master.n_dofs, n_cols))
    S2 = np.empty((fom.slave.n_dofs, n_cols))
    SD = np.empty((len(fom.slave.interface), n_cols))

    for k in range(n_train):
        res = fom_coupled_solve(fom, master_samples.points[k], slave_samples.points[k])
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
    t_solve = _time.perf_counter()

    gamma2 = fom.slave.interface.dof_indices
    S2[gamma2, :] = 0.0  # homogenized slave snapshots
    pod1, pod2, podD = (PodFactorization(SnapshotSet(S, block=nt)) for S in (S1, S2, SD))
    t_pod = _time.perf_counter()

    log.info(
        "training: %d coupled solves (%d snapshot columns) in %.2fs, POD in %.2fs "
        "(stacked widths: master %d->%d, slave %d->%d, interface %d->%d cols)",
        n_train,
        n_cols,
        t_solve - t0,
        t_pod - t_solve,
        n_cols, pod1.stacked_cols,
        n_cols, pod2.stacked_cols,
        n_cols, podD.stacked_cols,
    )
    return TrainingData(
        fom=fom,
        master_samples=master_samples,
        slave_samples=slave_samples,
        pod_master=pod1,
        pod_slave=pod2,
        pod_dirichlet=podD,
        seed=seed,
        timings={"fom_solves_s": t_solve - t0, "pod_s": t_pod - t_solve},
    )


# ---------------------------------------------------------------------------
# reduced artifacts


@dataclass
class ReducedSubmodel(AffineSubmodel):
    spec: SubmodelSpec
    basis: np.ndarray  # (N, n), zero at the constrained DoFs
    op_terms: list[np.ndarray]
    mass: np.ndarray | None
    load_terms: list[np.ndarray]
    u0_reduced: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[1]


@dataclass
class RomArtifacts:
    """Everything the online phase needs besides parameter values."""

    spec: CoupledProblemSpec
    master: ReducedSubmodel
    slave: ReducedSubmodel
    reducer: InterfaceReducer
    tolerances: tuple[float, float, float]  # (master, slave, interface)
    provenance: dict = field(default_factory=dict)
    #: wall-clock seconds of the build's stages, which no comparison and no
    #: bundle hash reads
    timings: dict = field(default_factory=dict, compare=False)

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


def _project_submodel(sub: FomSubmodel, V: np.ndarray) -> ReducedSubmodel:
    return ReducedSubmodel(
        spec=sub.spec,
        basis=V,
        op_terms=[np.asarray(V.T @ (A @ V)) for A in sub.op_terms],
        mass=np.asarray(V.T @ (sub.mass @ V)) if sub.mass is not None else None,
        load_terms=[np.asarray(V.T @ vec) for vec in sub.load_terms],
        u0_reduced=np.asarray(V.T @ sub.u0),
    )


def _assemble_artifacts(
    fom: FomProblem,
    V1: np.ndarray,
    V2: np.ndarray,
    deim_basis,
    tolerances,
    provenance,
) -> RomArtifacts:
    V1 = _zero_rows(V1, fom.master.constrained_dofs)
    V2 = _zero_rows(V2, fom.slave.constrained_dofs)

    slave = fom.slave
    reducer = assemble_reducer(
        deim_basis,
        fom.transfer,
        fom.master.interface,
        slave.interface,
        V1,
        V2,
        slave_operators=slave.op_terms,
        slave_mass=slave.mass,
    )
    return RomArtifacts(
        spec=fom.spec,
        master=_project_submodel(fom.master, V1),
        slave=_project_submodel(fom.slave, V2),
        reducer=reducer,
        tolerances=tuple(tolerances),
        provenance=provenance,
    )


def build_artifacts(training: TrainingData, tolerances) -> RomArtifacts:
    """Truncate the training factorizations at the given (master, slave,
    interface) tolerances and assemble all stored online products."""
    eps1, eps2, eps_d = tolerances
    t0 = _time.perf_counter()
    V1 = training.pod_master.truncate(eps1)
    V2 = training.pod_slave.truncate(eps2)
    Phi = training.pod_dirichlet.truncate(eps_d)
    fom = training.fom
    if Phi.shape[1] > len(fom.master.interface):
        from .errors import OversamplingError

        raise OversamplingError(
            f"{Phi.shape[1]} interpolation indices exceed master trace size "
            f"{len(fom.master.interface)}"
        )
    deim_basis = make_deim_basis(Phi)
    provenance = {
        "n_train": len(training.master_samples),
        "seed": training.seed,
        "master_samples": training.master_samples.points.tolist(),
        "slave_samples": training.slave_samples.points.tolist(),
        "mesh_hashes": {
            "master": fom.master.mesh.content_hash(),
            "slave": fom.slave.mesh.content_hash(),
        },
        "conforming": bool(fom.conforming),
        "pod_blas_threads": training.pod_master.blas_threads,
    }
    artifacts = _assemble_artifacts(fom, V1, V2, deim_basis, (eps1, eps2, eps_d), provenance)
    artifacts.timings = {**training.timings, "reduce_s": _time.perf_counter() - t0}
    log.info(
        "artifacts: basis sizes %s at tolerances %s",
        artifacts.basis_sizes,
        tolerances,
    )
    return artifacts


def offline(spec: CoupledProblemSpec, n_train: int, tolerances, seed: int) -> RomArtifacts:
    """Complete offline stage: training solves, bases, stored products."""
    training = run_training(spec, n_train, seed)
    return build_artifacts(training, tolerances)


def _unit_columns(n: int, rows: np.ndarray) -> np.ndarray:
    """Columns of the ``n x n`` identity at ``rows``, without forming it."""
    V = np.zeros((n, len(rows)))
    V[rows, np.arange(len(rows))] = 1.0
    return V


def full_rank_artifacts(spec: CoupledProblemSpec) -> RomArtifacts:
    """Exactness-limit artifacts: identity bases on all free DoFs and a full
    interpolation basis on the slave trace (no truncation anywhere)."""
    _require_zero_dirichlet(spec)
    fom = build_fom(spec)
    V1 = _unit_columns(fom.master.n_dofs, fom.master.free_dofs)
    V2 = _unit_columns(fom.slave.n_dofs, fom.slave.free_dofs)
    n_trace = len(fom.slave.interface)
    deim_basis = make_deim_basis(np.eye(n_trace), indices=np.arange(n_trace))
    return _assemble_artifacts(fom, V1, V2, deim_basis, (0.0, 0.0, 0.0), {"full_rank": True})


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


# Every reduced solve, the march's too, is one ``_reduced_solve``: an exactly
# singular system or a non-finite result raises ``SingularRomError``.


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
    column of the load block ``G`` (column 0 is not read): one solve gives
    ``T = S^{-1} M_dt`` and ``H = S^{-1} G``, then each step is
    ``u[k+1] = H[:, k+1] + T u[k]``."""
    n = len(u0)
    TH = _reduced_solve(S, np.hstack([M_dt, G]))
    T, u = TH[:, :n], TH[:, n:].T.copy()  # u[k] holds H[:, k] until step k
    u[0] = u0
    for k in range(1, len(u)):
        u[k] += T @ u[k - 1]
    return _finite(u)


def _reduced_states(
    sub: ReducedSubmodel, mu: Mapping, time: TimeSpec | None = None, lifting=None
) -> np.ndarray:
    """Reduced states under ``mu``, the reduced mirror of ``FomSubmodel.solve``:
    one ``(n,)`` when ``time`` is None, else one row per state.  When given,
    ``lifting(weights)`` of the operator weights is subtracted from the loads.
    A marching submodel marches from ``u0_reduced``; a steady or
    instantaneous one solves every state with one factorization."""
    weights = sub.theta_weights(mu)
    A = affine_sum(weights, sub.op_terms)
    F = sub.loads_per_state(mu, time)
    if lifting is not None:
        F = F - lifting(weights)
    if sub.spec.unsteady:
        # (M/dt + A) u^{k+1} = f^{k+1} + (M/dt) u^k
        M_dt = sub.mass / time.dt
        return _reduced_march(M_dt + A, M_dt, F, sub.u0_reduced)
    return _reduced_solve(A, F).T


def _online(
    artifacts: RomArtifacts, mu1, mu2, time: TimeSpec | None, expand: bool
) -> OnlineResult:
    """The reduced mirror of ``fom_coupled_solve``: reduced master states,
    their reduced transfer as the slave's lifting, reduced slave states; then,
    when asked, the trace and the slave field of one state or of every state."""
    mu1m, mu2m, warnings = _query_parameters(artifacts.spec, mu1, mu2)
    slave, reducer = artifacts.slave, artifacts.reducer
    t0 = _time.perf_counter()
    u1 = _reduced_states(artifacts.master, mu1m, time)

    def lifting(weights):
        # the operator terms on the master states and, for a marching slave,
        # the mass on their time derivative, 0 at t_0
        out = reducer.reduced_lifting(u1.T, weights)
        if reducer.lift_mass is not None:
            du = np.diff(u1, axis=0, prepend=u1[:1])
            out = out + (1.0 / time.dt) * (reducer.lift_mass @ du.T)
        return out

    u2 = _reduced_states(slave, mu2m, time, lifting)
    t_solve = _time.perf_counter() - t0
    trace = slave_solution = None
    t_expand = 0.0
    if expand:
        t1 = _time.perf_counter()
        # states as columns, then back to one row per state
        trace = reducer.full_transfer @ u1.T
        slave_solution = slave.basis @ u2.T
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
    if artifacts.spec.is_unsteady:
        raise ConfigError("online_steady requires a steady problem", field="time")
    return _online(artifacts, mu1, mu2, None, expand)


def online_unsteady(artifacts: RomArtifacts, mu1, mu2, expand: bool = True) -> OnlineResult:
    """Reduced BDF1 marching of the coupled pair: the master marches; the
    slave marches too or, when declared steady, responds instantaneously to
    every master state."""
    if not artifacts.spec.is_unsteady:
        raise ConfigError("online_unsteady requires a time grid", field="time")
    return _online(artifacts, mu1, mu2, artifacts.spec.time, expand)


def online_solve(artifacts: RomArtifacts, mu1, mu2, **kwargs) -> OnlineResult:
    if artifacts.spec.is_unsteady:
        return online_unsteady(artifacts, mu1, mu2, **kwargs)
    return online_steady(artifacts, mu1, mu2, **kwargs)
