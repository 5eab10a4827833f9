"""Residual-based a-posteriori error bounds for the coupled reduction.

A coupled bound sums three computable terms at each state: the master
error bound carried through the norm of the stored reduced-transfer
operator, the interpolation-projection error of the interface data, and the
slave error bound.  Each submodel bounds its own error by the rule of its
kind.  A steady or instantaneous submodel takes the steady rule: its
residual over the smallest singular value of its free block.  A
marching submodel takes the marching rule, an energy recursion in the
M-norm: with ``sym(A) >= -gamma M``, one BDF1 step grows the M-norm by at
most ``rho = 1 / (1 - dt gamma)``, and ``sqrt(cond(M))`` carries the M-norm
to the two-norm.  What depends on ``M`` alone a ``MassBlock`` computes
once, on first use; a submodel's ``StabilityConstants`` keeps it, with every
constant it has proved, across queries.

``sqrt(cond(M))``, ``gamma``, dissipativity and ``sigma_min`` are proved:
an eigenvalue estimate is moved a small margin to its safe side and one
factorization with positive pivots, whose rounding error is bounded
rigorously (S. M. Rump, "Verification of positive definiteness", BIT 46,
2006), proves the shifted bound.  The bounds are heuristic in tightness;
effectivities are reported, not constrained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatchError, EstimatorConvergenceError
from .fem import LU_ORDERING, factorized_solver

#: iteration cap and seed of the power iterations in ``sigma_min`` and
#: ``operator_two_norm``, and the relative change of the eigenvalue
#: estimate at which each stops
_POWER_MAX_ITER = 5000
_POWER_SEED = 0
_POWER_RTOL = 1e-9
_TWO_NORM_RTOL = 1e-8
#: relative distance of the first certified shift from an eigenvalue
#: estimate; each factorization that fails multiplies it by _CERT_GROWTH
_CERT_MARGIN = 1e-10
_CERT_GROWTH = 100.0
_CERT_TRIES = 5
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


# ---------------------------------------------------------------------------
# residuals


def residual_steady(A_N, f_N: np.ndarray, V: np.ndarray, u_n: np.ndarray) -> np.ndarray:
    """Full-order residual ``f - A V u_n`` of a reduced steady solution."""
    V = np.asarray(V)
    if V.shape[1] != len(u_n) or A_N.shape[1] != V.shape[0] or len(f_N) != A_N.shape[0]:
        raise DimensionMismatchError(
            f"incompatible residual shapes A{A_N.shape} V{V.shape} u({len(u_n)})"
        )
    return np.asarray(f_N, dtype=float) - A_N @ (V @ u_n)


def residual_unsteady(
    M, A_N, F: np.ndarray, V: np.ndarray, trajectory: np.ndarray, dt: float
) -> np.ndarray:
    """Dynamical-system residuals of a reduced trajectory at steps 1..n.

    The system is scaled to ``u' = -M^{-1} A u + M^{-1} f``; the time
    derivative uses the same backward difference as the solver.  ``F`` holds
    one load column per state of ``trajectory``.  Row ``k-1`` of the output
    is the residual at ``t_k``.  ``M`` is a matrix or a ``MassBlock``, whose
    factorization is then reused.
    """
    traj = np.asarray(trajectory, dtype=float)
    F = np.asarray(F, dtype=float)
    if traj.ndim != 2 or traj.shape[1] != V.shape[1]:
        raise DimensionMismatchError(
            f"trajectory shape {traj.shape} incompatible with basis {V.shape}"
        )
    n_steps = traj.shape[0] - 1
    if n_steps < 1:
        raise DimensionMismatchError("trajectory must contain at least two states")
    if F.shape != (A_N.shape[0], n_steps + 1):
        raise DimensionMismatchError(
            f"load block {F.shape} is not one column per state ({A_N.shape[0]}, {n_steps + 1})"
        )
    m_solve = MassBlock.of(M).solve
    dudt = V @ (np.diff(traj, axis=0).T / dt)
    return (m_solve(F[:, 1:] - A_N @ (V @ traj[1:].T)) - dudt).T


# ---------------------------------------------------------------------------
# mass block


class MassBlock:
    """A mass matrix with the quantities that depend on it alone.

    The factorization ``solve``, the proved ends of the spectrum and
    ``condition_root = sqrt(cond(M))`` are each computed on first use and
    then kept, so that every query against one full-order model shares them.
    """

    def __init__(self, M):
        self.matrix = M.tocsc() if sp.issparse(M) else sp.csc_matrix(np.asarray(M))

    @classmethod
    def of(cls, M) -> MassBlock:
        return M if isinstance(M, cls) else cls(M)

    @cached_property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        return factorized_solver(self.matrix)

    @cached_property
    def symmetric(self) -> bool:
        return _nearly_symmetric(self.matrix)

    @cached_property
    def spectrum(self) -> tuple[float, float]:
        """A proved ``(lower, upper)`` around the eigenvalues of a symmetric
        positive definite ``M``.  Lanczos estimates both ends, the smaller
        one by shift-invert through the kept factorization, and
        ``_certified_eigenvalue`` proves each."""
        M = self.matrix
        op_inv = spla.LinearOperator(M.shape, matvec=self.solve, dtype=float)
        try:
            lam_min = _lanczos_eigenvalue(M, sigma=0.0, OPinv=op_inv)
            lam_max = _lanczos_eigenvalue(M, which="LA")
        except spla.ArpackNoConvergence as exc:
            raise EstimatorConvergenceError(f"Lanczos on the mass matrix: {exc}") from exc
        lower = _certified_eigenvalue(M, lam_min, "min")
        upper = _certified_eigenvalue(M, lam_max, "max")
        if lower is None or upper is None or not lower > 0.0:
            raise EstimatorConvergenceError(
                f"could not certify the spectrum of the mass matrix near "
                f"[{lam_min:.6e}, {lam_max:.6e}]"
            )
        return lower, upper

    @cached_property
    def condition_root(self) -> float:
        """A proved upper bound on ``sqrt(lambda_max / lambda_min)``."""
        lower, upper = self.spectrum
        return float(_up(np.sqrt(_up(upper / lower))))


# ---------------------------------------------------------------------------
# spectral estimates


def sigma_min(A) -> float:
    """A proved lower bound on the smallest singular value.

    Inverse power iteration on ``A^T A`` estimates it, through one LU of
    ``A`` ordered by ``fem.LU_ORDERING``, and ``_certified_sigma`` proves the
    estimate.  An exactly singular factor, or no proof, gives 0.0, the
    trivial lower bound.
    """
    A = A.tocsc() if sp.issparse(A) else sp.csc_matrix(np.asarray(A))
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("sigma_min requires a square matrix")
    try:
        lu = spla.splu(A, **LU_ORDERING)
    except RuntimeError:  # an exactly zero pivot
        return 0.0
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam_old = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = lu.solve(lu.solve(v, trans="T"))
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            raise EstimatorConvergenceError("inverse iteration collapsed to zero")
        v = w / norm_w
        if abs(lam - lam_old) <= _POWER_RTOL * abs(lam):
            return _certified_sigma(A, float(1.0 / np.sqrt(lam)))
        lam_old = lam
    raise EstimatorConvergenceError(
        f"sigma_min did not converge within {_POWER_MAX_ITER} iterations"
    )


def _certified_sigma(A, estimate: float) -> float:
    """A proved lower bound on ``sigma_min(A)`` near ``estimate``, or 0.0.

    A symmetric ``A`` is certified on itself: ``x^T A x <= ||A x|| ||x||``, so
    a positive lower bound on ``lambda_min`` of its symmetric part bounds
    ``sigma_min`` from below.  Otherwise, or when that fails (``A`` is
    indefinite), ``lambda_min(A^T A)`` is certified, less the rounding of
    the product ``A^T A``."""
    if _nearly_symmetric(A):
        lower = _certified_eigenvalue(A, estimate, "min")
        if lower is not None and lower > 0.0:
            return lower
    gram = (A.T @ A).tocsc()
    lower = _certified_eigenvalue(gram, estimate * estimate, "min")
    if lower is None:
        return 0.0
    absA = abs(A)
    terms = int(np.diff(A.indptr).max(initial=0))
    lower = _down(lower - _gamma(terms) * _product_norm_bound(absA.T, absA))
    return float(_down(np.sqrt(lower))) if lower > 0.0 else 0.0


# ---------------------------------------------------------------------------
# certificates


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def _gamma(k: int) -> float:
    """``k u / (1 - k u)``: relative error bound of a sum of ``k`` products."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _nearly_symmetric(A) -> bool:
    return abs(A - A.T).max() <= 1e-10 * abs(A).max()


def _start_vector(n: int) -> np.ndarray:
    """The start vector of every ARPACK call: without one, ARPACK's start
    depends on the call history of the process, and so do its results."""
    return np.random.default_rng(0).standard_normal(n)


def _lanczos_eigenvalue(S, **options) -> float:
    """One eigenvalue of a symmetric sparse ``S``, or of the pencil
    ``(S, M)`` for a mass ``M=`` in ``options``, by ``eigsh(k=1, **options)``.
    ARPACK needs ``k < N``: a 1x1 pencil's eigenvalue is its entry ratio."""
    if S.shape[0] == 1:
        return float(S[0, 0] / options["M"][0, 0]) if "M" in options else float(S[0, 0])
    return float(spla.eigsh(S, k=1, v0=_start_vector(S.shape[0]),
                            return_eigenvectors=False, **options)[0])


def _product_norm_bound(P, Q) -> float:
    """An upper bound on ``||P Q||_2`` for entrywise non-negative sparse ``P``
    and ``Q``: ``sqrt(||PQ||_1 ||PQ||_inf)``, each norm from two mat-vecs with
    a ones vector, raised for the rounding of their non-negative sums."""
    inf_norm = (P @ (Q @ np.ones(Q.shape[1]))).max(initial=0.0)
    one_norm = (Q.T @ (P.T @ np.ones(P.shape[0]))).max(initial=0.0)
    return float(np.sqrt(one_norm * inf_norm)) * (1.0 + 8.0 * _gamma(sum(P.shape) + 4))


def _negative_radius(B) -> float | None:
    """An ``eps`` with ``B >= -eps I`` for a symmetric sparse ``B``, proved by
    one factorization, or None when a pivot is not positive.

    ``P B P^T = L U`` with diagonal pivots ``d = diag(U)``.  With ``d > 0``,
    ``L D L^T`` is positive semidefinite, and ``P B P^T - L D L^T = L F - E``
    with ``F = U - D L^T`` and the backward error ``|E| <= gamma_k |L| |U|``
    of Gaussian elimination, ``k`` bounding the products summed into any
    entry.  So ``eps = ||X||_2`` for ``X = |L| |F| + gamma_k |L| |U|``.  The
    computed ``F`` has ``|F| <= (1 + 3u) |fl(F)| + 2u |U|``, hence the extra
    ``2u``, and a factor ``1 + 8u`` that also covers the rounding in forming
    ``G``.
    """
    try:
        lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly zero pivot
        return None
    L, U = lu.L, lu.U  # CSC
    d = U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(d > 0.0)):  # NaN fails too
        return None
    rows = L.tocsr()  # row j of L is column j of L^T
    DLt = sp.csc_matrix((rows.data * d[rows.indices], rows.indices, rows.indptr), shape=L.shape)
    k = 1 + max(np.diff(L.indptr).max(), np.diff(rows.indptr).max(),
                np.diff(U.indptr).max(), np.bincount(U.indices).max())
    G = abs(U - DLt) + (_gamma(int(k)) + 2.0 * _UNIT_ROUNDOFF) * abs(U)
    radius = _product_norm_bound(abs(L), G) * (1.0 + 8.0 * _UNIT_ROUNDOFF)
    return radius if np.isfinite(radius) else None


def _certified_eigenvalue(
    S, estimate: float, end: str, mass: MassBlock | None = None
) -> float | None:
    """A proved bound on an extreme eigenvalue of the symmetric part of
    ``S``, near its ``estimate``: a lower bound on ``lambda_min`` for
    ``end == "min"``, an upper bound on ``lambda_max`` for ``"max"``; with a
    ``mass``, of the pencil ``(sym(S), M)``.

    The shift ``s`` is the estimate moved a relative margin to the safe side;
    ``B = +-(sym(S) - s M)``, with ``M = I`` when no mass is given, then
    certifies ``lambda_min >= s - eps`` or ``lambda_max <= s + eps`` by
    ``_negative_radius``, with ``eps`` raised by the rounding in forming
    ``B``.  A mass turns ``B >= -eps I`` into ``B >= -(eps / lower) M``, with
    ``lower`` its proved smallest eigenvalue.  A failed factorization widens
    the margin, up to ``_CERT_TRIES`` times; None when none succeeds.
    """
    sign = 1.0 if end == "min" else -1.0
    S = S.tocsc()
    sym = (S + S.tocsr().T) * 0.5  # CSC plus the CSC layout of S^T
    M = sp.identity(S.shape[0], format="csc") if mass is None else mass.matrix
    margin = _CERT_MARGIN
    for _ in range(_CERT_TRIES):
        shift = estimate - sign * margin * abs(estimate)
        margin *= _CERT_GROWTH
        B = sym - shift * M if end == "min" else shift * M - sym
        radius = _negative_radius(B)
        if radius is None:
            continue
        # forming B rounds each entry by at most 4u W: three roundings within
        # W = |sym(S)| + |s| |M|, or one within W = |B| when M = I; the row
        # and column sums of W bound the two-norm
        W = abs(B) if mass is None else abs(sym) + abs(shift) * abs(M)
        ones = np.ones(W.shape[0])
        radius += 4.0 * _UNIT_ROUNDOFF * float(max((W @ ones).max(), (W.T @ ones).max()))
        if mass is not None:
            radius = _up(radius / mass.spectrum[0])
        return float(_down(shift - radius) if end == "min" else _up(shift + radius))
    return None


def operator_two_norm(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> float:
    """Two-norm of a linear operator by power iteration on ``B^T B``; no
    library caller, but the benchmark's tracer wraps it by name."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_old = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = rmatvec(matvec(v))
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(lam - lam_old) <= _TWO_NORM_RTOL * max(abs(lam), 1e-300):
            return float(np.sqrt(max(lam, 0.0)))
        lam_old = lam
    raise EstimatorConvergenceError(
        f"two-norm power iteration did not converge within {_POWER_MAX_ITER} iterations"
    )


def semigroup_constant(M, A, dt: float, known_dissipative: bool = False) -> tuple[float, float]:
    """``(constant, growth)`` of the marching rule, for a symmetric positive
    definite ``M``: ``constant = sqrt(cond(M))``, and ``growth`` bounds the
    M-norm of the BDF1 propagator ``(M + dt A)^{-1} M``.  With
    ``sym(A) >= -gamma M``, ``(M + dt A) y = M x`` gives
    ``(1 - dt gamma) ||y||_M^2 <= ||y||_M ||x||_M``, so
    ``growth = 1 / (1 - dt gamma)``, rounded up.

    A dissipative ``A`` has ``gamma = 0``; ``known_dissipative`` skips that
    test for a caller that has proved it.  Otherwise ``gamma`` is the
    negative part of ``lambda_min(sym(A), M)``, estimated by Lanczos and
    proved by ``_certified_eigenvalue``.  Without a proof, with
    ``dt gamma >= 1`` or a non-symmetric ``M``, no bound is claimed:
    ``EstimatorConvergenceError``.  ``M`` is a matrix or a ``MassBlock``,
    whose factorization and spectrum are then kept across calls.
    """
    mass = MassBlock.of(M)
    if not mass.symmetric:
        raise EstimatorConvergenceError("the marching rule needs a symmetric mass matrix")
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(np.asarray(A))
    if known_dissipative or _is_dissipative(A):
        return mass.condition_root, 1.0
    op_inv = spla.LinearOperator(A.shape, matvec=mass.solve, dtype=float)
    try:
        estimate = _lanczos_eigenvalue(((A + A.T) * 0.5).tocsc(), M=mass.matrix, Minv=op_inv,
                                       which="SA", maxiter=_POWER_MAX_ITER)
    except spla.ArpackError as exc:  # no convergence included
        raise EstimatorConvergenceError(f"Lanczos on (sym(A), M): {exc}") from exc
    lower = _certified_eigenvalue(A, estimate, "min", mass)
    if lower is None:
        raise EstimatorConvergenceError(f"could not certify lambda_min near {estimate:.6e}")
    if lower >= 0.0:
        return mass.condition_root, 1.0
    decay = _down(1.0 - _up(dt * -lower))
    if not decay > 0.0:
        raise EstimatorConvergenceError(
            f"dt gamma = {dt * -lower:.6e} >= 1: the BDF1 propagator may grow without bound"
        )
    return mass.condition_root, float(_up(1.0 / decay))


def _is_dissipative(A) -> bool:
    """True when the symmetric part of ``A`` is zero or is proved positive
    semidefinite by ``_certified_eigenvalue`` near its Lanczos ``lambda_min``;
    False, as for a singular one, sends ``A`` to the proved growth rate."""
    sym = ((A + A.T) * 0.5).tocsc()
    if abs(sym).max() == 0.0:
        return True
    try:
        lam = _lanczos_eigenvalue(sym, which="SA", maxiter=5000)
    except (spla.ArpackNoConvergence, RuntimeError):
        return False
    lower = _certified_eigenvalue(sym, lam, "min")
    return lower is not None and lower >= 0.0


class StabilityConstants:
    """The proved stability constants of one full-order submodel, from the
    free block of each operator term and, when it marches, its free mass
    block.  One memo keyed by the operator weights (the marching rule's also
    by ``dt``) serves every query against the submodel, as do the
    ``MassBlock`` and each term's dissipativity.  Threads that race on a key
    may each prove it, and each returns the value of its own key."""

    def __init__(self, terms, mass=None):
        self.terms = terms
        self.mass = None if mass is None else MassBlock(mass)
        self._proved: dict = {}

    @cached_property
    def dissipative_terms(self) -> list[bool]:
        return [_is_dissipative(A) for A in self.terms]

    def proved(self, key, prove: Callable[[], object]):
        """The memo's value at ``key``, from ``prove()`` on first use."""
        if key not in self._proved:
            self._proved[key] = prove()
        return self._proved[key]

    def sigma_min(self, weights: tuple, A) -> float:
        """``sigma_min`` of the operator ``A`` of ``weights``."""
        return self.proved(("sigma_min", weights), lambda: sigma_min(A))

    def marching(self, weights: tuple, A, dt: float) -> tuple[float, float]:
        """``semigroup_constant`` of the operator ``A`` of ``weights``: with no
        negative weight, dissipative terms sum to a dissipative ``A``."""
        def prove():
            known = all(w >= 0.0 for w in weights) and all(self.dissipative_terms)
            return semigroup_constant(self.mass, A, dt, known_dissipative=known)

        return self.proved(("marching", weights, dt), prove)


# ---------------------------------------------------------------------------
# bound reports


@dataclass
class ErrorBoundReport:
    """Three-term certified bound at one state; ``total`` is their exact sum."""

    master_term: float
    deim_term: float
    slave_term: float
    constants: dict = field(default_factory=dict)
    actual_error: float | None = None

    @property
    def total(self) -> float:
        return self.master_term + self.deim_term + self.slave_term

    @property
    def valid(self) -> bool:
        """The bound holds at ``actual_error``, up to a relative ``1e-12``
        for the rounding of the two norms."""
        return self.total >= self.actual_error * (1 - 1e-12)


def deim_projection_term(Phi: np.ndarray, inverse_norm: float, data: np.ndarray) -> float:
    """Interpolation-error term ``||Phi_I^{-1}||_2 ||(I - Phi Phi^T) w||_2``,
    with ``inverse_norm`` an upper bound of ``||Phi_I^{-1}||_2``; it bounds the
    interpolation error of ``w`` (Chaturantabut and Sorensen, SIAM J. Sci.
    Comput. 32, 2010, Lemma 3.2)."""
    w = np.asarray(data, dtype=float)
    residual = w - Phi @ (Phi.T @ w)
    return float(inverse_norm * np.linalg.norm(residual))


def error_bound_steady(
    A, F: np.ndarray, V: np.ndarray, states: np.ndarray, sigma: float
) -> np.ndarray:
    """The steady rule ``||f - A V u|| / sigma_min(A)`` of each state: each
    column of ``states`` against the same column of ``F``, or the one state.

    ``A`` is the operator on the free DoFs and ``F`` its load with the
    exact constrained values lifted; ``sigma`` bounds ``sigma_min(A)`` from
    below, and the trivial ``sigma = 0`` gives the trivial bound ``inf``.
    """
    norms = np.atleast_1d(np.linalg.norm(residual_steady(A, F, V, states), axis=0))
    return norms / sigma if sigma > 0.0 else np.full_like(norms, np.inf)


def error_bound_unsteady(
    M, A, F, V, trajectory: np.ndarray, dt: float, initial_error: float, constant: float,
    growth: float,
) -> np.ndarray:
    """The marching rule ``C b_k`` of each state ``k`` of a reduced
    ``trajectory``, with ``b_0 = e_0``, ``b_k = rho (b_{k-1} + dt ||r^k||)``,
    the residuals of ``residual_unsteady`` and ``(C, rho)`` the
    ``(constant, growth)`` of ``semigroup_constant``: the BDF1 error obeys
    ``e^k = (M + dt A)^{-1} M (e^{k-1} + dt r^k)``.  It is summed as
    ``rho^k e_0 + dt w_k``, ``w_k = rho (w_{k-1} + ||r^k||)``: at ``rho = 1``
    the right-endpoint sum of the residual norms.
    """
    norms = np.linalg.norm(residual_unsteady(M, A, F, V, trajectory, dt), axis=1)
    sums = np.fromiter(
        itertools.accumulate(norms, lambda w, r: growth * (w + r), initial=0.0), float
    )
    propagated = initial_error * growth ** np.arange(len(sums))
    return constant * (propagated + dt * sums)
