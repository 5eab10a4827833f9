"""Residual-based a-posteriori error bounds for the coupled reduction.

The steady bound sums three computable terms: the slave residual scaled by
the smallest singular value of the (eliminated) slave operator, the
interpolation-projection error of the interface data, and the master
residual scaled by its own smallest singular value times the norm of the
stored reduced-transfer operator.  The unsteady variant integrates residual
norms in time and multiplies by a boundedness constant of the underlying
semigroup; for symmetric definite pairs that constant is the sharp
``sqrt(cond(M))``, otherwise the Gronwall surrogate ``1 + c t exp(c t)``
with ``c = ||M^{-1} A||_2`` is used.  ``sqrt(cond(M))`` and the
factorization of ``M`` depend on ``M`` alone: a ``MassBlock`` computes each
once, on first use, so that a caller can keep them across queries.

``sqrt(cond(M))`` and ``sigma_min`` are proved, not estimated: an
eigenvalue estimate is moved a small margin to its safe side and one
factorization with positive pivots, whose rounding error is bounded
rigorously (S. M. Rump, "Verification of positive definiteness", BIT 46,
2006), proves the shifted bound.  The Gronwall ``c3`` stays a power-iteration
estimate.  The bounds are heuristic in tightness; effectivities are
reported, not constrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatchError, EstimatorConvergenceError
from .fem import factorized_solver

_POWER_MAX_ITER = 5000
_POWER_RTOL = 1e-9
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

    The factorization ``solve`` and ``condition_root = sqrt(cond(M))`` are
    each computed on first use and then kept, so that every query against
    one full-order model shares them.
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
    def condition_root(self) -> float:
        """A proved upper bound on ``sqrt(lambda_max / lambda_min)`` of a
        symmetric positive definite ``M``.  Lanczos estimates both ends, the
        smaller one by shift-invert through the kept factorization, and
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
        return float(_up(np.sqrt(_up(upper / lower))))


# ---------------------------------------------------------------------------
# spectral estimates


def sigma_min(A, tol: float = 1e-6, max_iter: int = _POWER_MAX_ITER, seed: int = 0) -> float:
    """A proved lower bound on the smallest singular value.

    Inverse power iteration on ``A^T A`` estimates it; a tiny diagonal shift
    is retried once if the factorization hits an exactly singular pivot.
    ``_certified_sigma`` then proves the estimate, or returns 0.0, the
    trivial lower bound.
    """
    A = A.tocsc() if sp.issparse(A) else sp.csc_matrix(np.asarray(A))
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("sigma_min requires a square matrix")
    try:
        lu = spla.splu(A)
    except RuntimeError:
        shift = 1e-14 * abs(A).max()
        try:
            lu = spla.splu((A + shift * sp.identity(A.shape[0], format="csc")).tocsc())
        except RuntimeError as exc:
            raise EstimatorConvergenceError(f"factorization failed twice: {exc}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam_old = 0.0
    for _ in range(max_iter):
        w = lu.solve(lu.solve(v, trans="T"))
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            raise EstimatorConvergenceError("inverse iteration collapsed to zero")
        v = w / norm_w
        if abs(lam - lam_old) <= min(tol * 1e-2, _POWER_RTOL) * abs(lam):
            return _certified_sigma(A, float(1.0 / np.sqrt(lam)))
        lam_old = lam
    raise EstimatorConvergenceError(
        f"sigma_min did not converge within {max_iter} iterations"
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
    """One eigenvalue of a symmetric sparse ``S`` by ``eigsh(k=1, **options)``.
    ARPACK needs ``k < N``: the one entry of a 1x1 ``S`` is its eigenvalue."""
    if S.shape[0] == 1:
        return float(S[0, 0])
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


def _certified_eigenvalue(S, estimate: float, end: str) -> float | None:
    """A proved bound on an extreme eigenvalue of the symmetric part of
    ``S``, near its ``estimate``: a lower bound on ``lambda_min`` for
    ``end == "min"``, an upper bound on ``lambda_max`` for ``"max"``.

    The shift ``s`` is the estimate moved a relative margin to the safe side;
    ``B = +-(sym(S) - s I)`` then certifies ``lambda_min >= s - eps`` or
    ``lambda_max <= s + eps`` by ``_negative_radius``, with ``eps`` raised by
    the rounding in forming ``B``.  A failed factorization widens the margin,
    up to ``_CERT_TRIES`` times; None when none succeeds.
    """
    sign = 1.0 if end == "min" else -1.0
    S = S.tocsc()
    sym = (S + S.tocsr().T) * 0.5  # CSC plus the CSC layout of S^T
    eye = sp.identity(S.shape[0], format="csc")
    margin = _CERT_MARGIN
    for _ in range(_CERT_TRIES):
        shift = estimate - sign * margin * abs(estimate)
        margin *= _CERT_GROWTH
        B = sym - shift * eye if end == "min" else shift * eye - sym
        radius = _negative_radius(B)
        if radius is None:
            continue
        # every entry of B took at most two roundings from sym(S) - s I
        radius += 4.0 * _UNIT_ROUNDOFF * float((abs(B) @ np.ones(B.shape[0])).max())
        return float(_down(shift - radius) if end == "min" else _up(shift + radius))
    return None


def operator_two_norm(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-6,
    max_iter: int = _POWER_MAX_ITER,
    seed: int = 0,
) -> float:
    """Two-norm of a linear operator by power iteration on ``B^T B``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_old = 0.0
    for _ in range(max_iter):
        w = rmatvec(matvec(v))
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(lam - lam_old) <= tol * 1e-2 * max(abs(lam), 1e-300):
            return float(np.sqrt(max(lam, 0.0)))
        lam_old = lam
    raise EstimatorConvergenceError(
        f"two-norm power iteration did not converge within {max_iter} iterations"
    )


def gronwall_constant(c3: float, t: float) -> float:
    """Time-variant boundedness surrogate ``1 + c3 t exp(c3 t)``."""
    with np.errstate(over="ignore"):
        return float(1.0 + c3 * t * np.exp(c3 * t))


def semigroup_constant(
    M, A, horizon: float, known_dissipative: bool = False
) -> tuple[float, float | None, str]:
    """Upper bound for ``sup_t ||exp(-M^{-1} A t)||_2`` on ``[0, horizon]``.

    Returns ``(constant, c3, method)``.  When ``M`` is symmetric and the
    symmetric part of ``A`` is positive semidefinite, the semigroup
    contracts in the M-norm and the sharp two-norm bound ``sqrt(cond(M))``
    applies (``method == "dissipative"``, ``c3 is None``).  Otherwise the
    Gronwall surrogate with ``c3 = ||M^{-1} A||_2`` is used; it can overflow
    to inf for stiff operators and is still a valid upper bound.

    ``M`` is a matrix or a ``MassBlock``, whose factorization and
    ``sqrt(cond(M))`` are then computed at most once across calls.
    ``known_dissipative`` skips the eigenvalue test on ``A`` for a caller
    that has already proved it.
    """
    mass = MassBlock.of(M)
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(np.asarray(A))
    if mass.symmetric and (known_dissipative or _is_dissipative(A)):
        return mass.condition_root, None, "dissipative"
    m_solve = mass.solve
    c3 = operator_two_norm(
        lambda x: m_solve(A @ x), lambda x: A.T @ m_solve(x), A.shape[0]
    )
    return gronwall_constant(c3, horizon), c3, "gronwall"


def _is_dissipative(A, rtol: float = 1e-10) -> bool:
    """True when the symmetric part of ``A`` is positive semidefinite."""
    sym = ((A + A.T) * 0.5).tocsc()
    scale = abs(sym).max()
    if scale == 0.0:
        return True
    try:
        return _lanczos_eigenvalue(sym, which="SA", maxiter=5000) >= -rtol * scale
    except (spla.ArpackNoConvergence, RuntimeError):
        # indefinite-shift factorization or no convergence: fall back to the
        # safe answer (the Gronwall surrogate remains an upper bound)
        return False


# ---------------------------------------------------------------------------
# bound reports


@dataclass
class ErrorBoundReport:
    """Three-term certified bound; ``total`` is their exact sum."""

    master_term: float
    deim_term: float
    slave_term: float
    constants: dict = field(default_factory=dict)
    actual_error: float | None = None
    detail: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.master_term + self.deim_term + self.slave_term

    @property
    def effectivity(self) -> float | None:
        if self.actual_error is None or self.actual_error == 0.0:
            return None
        return self.total / self.actual_error


def deim_projection_term(Phi: np.ndarray, sub_norm: float, data: np.ndarray) -> float:
    """Interpolation-error term ``||Phi_I||_2 ||(I - Phi Phi^T) w||_2``."""
    w = np.asarray(data, dtype=float)
    residual = w - Phi @ (Phi.T @ w)
    return float(sub_norm * np.linalg.norm(residual))


def error_bound_steady(
    master_system: tuple,
    V1: np.ndarray,
    u_n1: np.ndarray,
    slave_system: tuple,
    V2: np.ndarray,
    u_n2: np.ndarray,
    reducer,
    dirichlet_data: np.ndarray,
    sigma1: float | None = None,
    sigma2: float | None = None,
    actual_error: float | None = None,
) -> ErrorBoundReport:
    """Steady three-term bound on the slave reconstruction error.

    ``master_system``/``slave_system`` are the eliminated pairs ``(A, f)``;
    the slave load must carry the exact interface lifting.
    ``dirichlet_data`` is the transferred interface data whose distance to
    the interpolation space forms the middle term.
    """
    A1, f1 = master_system
    A2, f2 = slave_system
    s1 = sigma1 if sigma1 is not None else sigma_min(A1)
    s2 = sigma2 if sigma2 is not None else sigma_min(A2)
    r1 = np.linalg.norm(residual_steady(A1, f1, V1, u_n1))
    r2 = np.linalg.norm(residual_steady(A2, f2, V2, u_n2))
    sub_norm = reducer.deim.magic_rows_norm
    deim_term = deim_projection_term(reducer.deim.Phi, sub_norm, dirichlet_data)
    C = reducer.transfer_norm
    return ErrorBoundReport(
        master_term=C * r1 / s1,
        deim_term=deim_term,
        slave_term=r2 / s2,
        constants={
            "sigma_min_master": s1,
            "sigma_min_slave": s2,
            "transfer_norm_C": C,
            "magic_rows_norm": sub_norm,
            "certified": True,
        },
        actual_error=actual_error,
        detail={"master_residual": r1, "slave_residual": r2},
    )


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoidal integral of ``||r||`` up to each step; the value at the
    first node is extended backwards over the initial interval."""
    norms = np.concatenate([[values[0]], values])
    return np.concatenate([[0.0], np.cumsum(0.5 * dt * (norms[:-1] + norms[1:]))])


def error_bound_unsteady(
    master_residual_norms: np.ndarray,
    master_initial_error: float,
    master_constant: float,
    slave_term_per_step: np.ndarray,
    deim_term_per_step: np.ndarray,
    transfer_norm: float,
    dt: float,
    constants: dict | None = None,
    actual_errors: np.ndarray | None = None,
) -> list[ErrorBoundReport]:
    """Per-step bounds combining the integrated master contribution with the
    per-step slave and interpolation terms.

    ``slave_term_per_step`` already carries its own constant (either the
    per-step steady bound for an instantaneous slave, or the integrated
    unsteady slave contribution).
    """
    n_steps = len(master_residual_norms)
    integrals = _cumulative_trapezoid(master_residual_norms, dt)
    reports = []
    for k in range(n_steps + 1):
        master_bound = master_constant * (master_initial_error + integrals[k])
        reports.append(
            ErrorBoundReport(
                master_term=transfer_norm * master_bound,
                deim_term=float(deim_term_per_step[k]),
                slave_term=float(slave_term_per_step[k]),
                constants=dict(constants or {}),
                actual_error=None if actual_errors is None else float(actual_errors[k]),
                detail={"master_residual_integral": float(integrals[k])},
            )
        )
    return reports
