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
2006), proves the shifted bound.  On a marching submodel that separates
along every axis, ``AxisProof`` proves the upper end of the mass spectrum
and each term's dissipativity without a full-order factorization: the free
blocks are Kronecker products of 1-D factors, whose ends are proved on
their small matrices by the same certificate, and a Weyl margin from the
measured gap between each assembled block and its Kronecker form carries
the bounds to the block.  The lower end of the mass spectrum keeps its
shift-invert Lanczos through the mass block's LU for now: on the heat
workloads that LU is the only one, and the benchmark's counters of
factorizations and solves read it.  The bounds are heuristic in tightness;
effectivities are reported, not constrained.
"""

from __future__ import annotations

import functools
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
#: largest gap between a free block and its Kronecker form, relative to the
#: form's norm, that ``AxisProof`` takes for rounding; a larger one means the
#: block is not that form
_KRON_RTOL = 1e-12


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
    solve is then reused.
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

    The sparse LU ``factorized``, the proved ends of the spectrum and
    ``condition_root = sqrt(cond(M))`` are each computed on first use and
    then kept, so that every query against one full-order model shares them.
    ``solve`` applies ``M^{-1}`` to the residuals: the owner's faster solve
    when it gives one, else the LU's.  The Lanczos runs behind the proved
    constants always take the LU, so the constants do not depend on which
    solve serves the residuals.  ``upper``, when the owner gives it, is a
    proved upper end of the spectrum: ``AxisProof.upper``, the product of
    the proved 1-D mass ends plus the measured Kronecker gap.  Then no
    Lanczos run and no certificate is spent on that end; the lower end
    keeps its shift-invert Lanczos through the LU and its certificate.
    """

    def __init__(
        self, M, solve: Callable[[np.ndarray], np.ndarray] | None = None,
        upper: float | None = None,
    ):
        self.matrix = M.tocsc() if sp.issparse(M) else sp.csc_matrix(np.asarray(M))
        self.upper = upper
        if solve is not None:
            self.solve = solve

    @classmethod
    def of(cls, M) -> MassBlock:
        return M if isinstance(M, cls) else cls(M)

    @cached_property
    def factorized(self) -> Callable[[np.ndarray], np.ndarray]:
        return factorized_solver(self.matrix)

    @cached_property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.factorized

    @cached_property
    def symmetric(self) -> bool:
        return _nearly_symmetric(self.matrix)

    @cached_property
    def spectrum(self) -> tuple[float, float]:
        """A proved ``(lower, upper)`` around the eigenvalues of a symmetric
        positive definite ``M``.  Lanczos estimates each end, the smaller
        one by shift-invert through the kept LU, and
        ``_certified_eigenvalue`` proves it; the ``upper`` end given at
        construction, proved by ``AxisProof``, is taken as it is."""
        M, upper = self.matrix, self.upper
        op_inv = spla.LinearOperator(M.shape, matvec=self.factorized, dtype=float)
        try:
            lam_min = _lanczos_eigenvalue(M, sigma=0.0, OPinv=op_inv)
            lam_max = upper if upper is not None else _lanczos_eigenvalue(M, which="LA")
        except spla.ArpackNoConvergence as exc:
            raise EstimatorConvergenceError(f"Lanczos on the mass matrix: {exc}") from exc
        lower = _certified_eigenvalue(M, lam_min, "min")
        if upper is None:
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
    if known_dissipative:
        return mass.condition_root, 1.0
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(np.asarray(A))
    if _is_dissipative(A):
        return mass.condition_root, 1.0
    op_inv = spla.LinearOperator(A.shape, matvec=mass.factorized, dtype=float)
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


# ---------------------------------------------------------------------------
# proofs from the 1-D factors


def _gershgorin_end(X: np.ndarray, end: str) -> float:
    """The Gershgorin bound on the ``end`` (``"min"`` or ``"max"``) of the
    spectrum of a symmetric ``X``: ``min(d_i - r_i)`` or ``max(d_i + r_i)``,
    with ``r_i`` the off-diagonal absolute row sums raised for their
    rounding, and the result rounded outward."""
    d = np.diag(X)
    radii = _up((abs(X - np.diag(d)).sum(axis=1)) * (1.0 + _gamma(len(X))))
    return float(_down(d - radii).min() if end == "min" else _up(d + radii).max())


def _product(values, rounding) -> float:
    """The product of positive ``values``, each step rounded by ``rounding``
    (``_up`` or ``_down``)."""
    out = 1.0
    for v in values:
        out = rounding(out * v)
    return out


def _axis_end(X: np.ndarray, end: str) -> float:
    """A proved ``end`` of the spectrum of a small symmetric ``X``: its
    ``eigvalsh`` eigenvalue proved by ``_certified_eigenvalue``, or the
    Gershgorin end when ``X`` is singular at that end to working precision
    (a stiffness with no Dirichlet node) or no certificate holds."""
    lam = np.linalg.eigvalsh(X)
    estimate = float(lam[0] if end == "min" else lam[-1])
    bound = None
    if abs(estimate) > len(X) * np.finfo(float).eps * abs(lam).max():
        bound = _certified_eigenvalue(sp.csc_matrix(X), estimate, end)
    return _gershgorin_end(X, end) if bound is None else bound


class AxisProof:
    """Proved spectrum ends of the free blocks of a submodel that separates
    along every axis, from its 1-D factors.

    On such free DoFs the unit mass is ``Kron(M) = M_z ⊗ M_y ⊗ M_x`` and an
    operator term is ``q Kron(M) + p G``, with ``G`` the sum over the axes
    of ``Kron(M)`` with ``K_a`` in the place of ``M_a`` and ``(q, p)`` the
    term's 1x1 factors (``fem.FastDiagonalization``).  The eigenvalues of a
    Kronecker product are the products of its factors' (R. E. Lynch, J. R.
    Rice and D. H. Thomas, Numer. Math. 6, 1964).  So with ``lo`` and ``hi``
    the ends of each distinct ``K_a`` and ``M_a``, proved on its small matrix
    (``_axis_end``), ``lambda_max(Kron(M)) <= prod_a hi(M_a)`` and, by
    Weyl's inequality, for ``q, p >= 0``::

        lambda_min(q Kron(M) + p G) >= q prod_a lo(M_a)
                                       + p sum_a lo(K_a) prod_{b != a} m_b

    with ``m_b = lo(M_b)``, or ``hi(M_b)`` when ``lo(K_a) < 0``.  The
    assembled block ``B`` differs from its form by rounding; the gap
    ``||B - form||_2``, measured once per block by ``gap``, is the Weyl
    margin that carries each bound to ``B``.  A gap above ``_KRON_RTOL`` of
    the form's norm means that ``B`` is not that form: nothing is proved.
    Every product and sum rounds outward.
    """

    def __init__(self, axes):
        """``axes``: per grid axis, slowest first (z, y, x), the 1-D
        ``(K_a, M_a)`` on its free nodes (``FastDiagonalization.axis_pairs``)."""
        self.axes = [(np.asarray(K, dtype=float), np.asarray(M, dtype=float)) for K, M in axes]

    @cached_property
    def ends(self) -> list[tuple[float, float, float]]:
        """``(lo(K_a), lo(M_a), hi(M_a))`` per axis, each distinct matrix's
        end proved once."""
        proved: dict = {}

        def end(X, which):
            key = (X.shape, X.tobytes(), which)
            if key not in proved:
                proved[key] = _axis_end(X, which)
            return proved[key]

        return [(end(K, "min"), end(M, "min"), end(M, "max")) for K, M in self.axes]

    def _kronecker(self, q: float, p: float, take) -> np.ndarray:
        """``q Kron(M) + p G`` from what ``take(X, a)`` reads of the 1-D
        matrix ``X`` of axis ``a``: its entries at some index pairs, or a
        vector along that axis, whose products broadcast to the grid."""
        ms = [take(M, a) for a, (_, M) in enumerate(self.axes)]
        out = q * functools.reduce(np.multiply, ms)
        if p != 0.0:
            for a, (K, _) in enumerate(self.axes):
                out = out + p * functools.reduce(np.multiply, ms[:a] + [take(K, a)] + ms[a + 1:])
        return out

    def gap(self, B, q: float, p: float) -> tuple[float, bool]:
        """``(gap, fits)``: a proved upper bound on ``||B - F||_2`` for the
        exact form ``F`` of ``(q, p)``, and whether it is within
        ``_KRON_RTOL`` of that form's norm.

        ``fl(F)`` is evaluated on its pattern, the product over the axes of
        the entries of ``K_a`` or ``M_a``.  The gap is the larger of the
        largest absolute row and column sums of ``B - fl(F)``, plus
        ``gamma_k`` times those of the form of absolute values, which bound
        the rounding of ``fl(F)`` (``k`` counts the products and sums behind
        one entry, twice).  The sums of the absolute form are Kronecker
        products of the 1-D absolute row or column sums."""
        B = sp.coo_matrix(B)
        d, n = len(self.axes), B.shape[0]

        def along(v, a):  # a vector of axis a, broadcast along axis a of a product
            return np.reshape(v, [-1 if b == a else 1 for b in range(d)])

        entries = [np.nonzero((K != 0.0) | (M != 0.0)) for K, M in self.axes]
        F = self._kronecker(q, p, lambda X, a: along(X[entries[a]], a)).ravel()
        grid = [len(M) for _, M in self.axes]
        rows, cols = (
            np.ravel_multi_index(
                np.broadcast_arrays(*[along(e[i], a) for a, e in enumerate(entries)]), grid
            ).ravel()
            for i in (0, 1)
        )
        # B - fl(F), each entry rounded once where both hold it
        diff = abs(sp.csr_matrix((np.concatenate([B.data, -F]), (
            np.concatenate([B.row, rows]), np.concatenate([B.col, cols])
        )), shape=B.shape))
        ones = np.ones(n)
        measured = max((diff @ ones).max(initial=0.0), (diff.T @ ones).max(initial=0.0))

        def sums(axis):  # of the absolute form, over its rows (1) or columns (0)
            return self._kronecker(
                abs(q), abs(p), lambda X, a: along(abs(X).sum(axis=axis), a)
            ).max(initial=0.0)

        scale = max(sums(1), sums(0))
        rounding = 1.0 + _gamma(n + 4)  # of the sums and of B - fl(F)
        gap = float(_up((measured + _gamma(2 * (2 * d + 1)) * scale) * rounding))
        return gap, gap <= _KRON_RTOL * scale

    def upper(self, M) -> tuple[float | None, float]:
        """``(bound, gap)``: a proved upper bound on ``lambda_max(M)`` of the
        free mass ``M``, of the form ``(1, 0)``, or None when the gap does
        not fit, and the measured gap."""
        gap, fits = self.gap(M, 1.0, 0.0)
        if not fits or min(lo for _, lo, _ in self.ends) <= 0.0:
            return None, gap
        return float(_up(_product((hi for _, _, hi in self.ends), _up) + gap)), gap

    def lower(self, B, q: float, p: float) -> tuple[float | None, float | None]:
        """``(bound, gap)``: a proved lower bound on ``lambda_min(sym(B))``
        for the block ``B`` of the form ``(q, p)``, or None when a factor is
        negative (its gap is then not measured, None) or the gap does not
        fit, and the measured gap."""
        if not (q >= 0.0 and p >= 0.0):
            return None, None
        gap, fits = self.gap(B, q, p)
        ends = self.ends
        if not fits or min(lo for _, lo, _ in ends) <= 0.0:
            return None, gap
        stiffness = 0.0
        for a, (lo_k, _, _) in enumerate(ends):
            others = [e for b, e in enumerate(ends) if b != a]
            if lo_k >= 0.0:
                m = _product((lo for _, lo, _ in others), _down)
            else:
                m = _product((hi for _, _, hi in others), _up)
            stiffness = _down(stiffness + _down(lo_k * m))
        mass = _product((lo for _, lo, _ in ends), _down)
        bound = _down(_down(q * mass) + _down(p * stiffness))
        return float(_down(bound - gap)), gap


class StabilityConstants:
    """The proved stability constants of one full-order submodel, from the
    free block of each operator term and, when it marches, its free mass
    block (a matrix or a ``MassBlock``).  One memo keyed by the operator
    weights (the marching rule's also by ``dt``) serves every query against
    the submodel, as do the ``MassBlock`` and each term's dissipativity.

    ``known_dissipative`` marks, per term, the terms that another proof has
    shown dissipative, such as ``AxisProof.lower`` on a submodel that
    separates along every axis; ``_is_dissipative`` tests only the others.
    """

    def __init__(self, terms, mass=None, known_dissipative=None):
        self.terms = terms
        self.mass = None if mass is None else MassBlock.of(mass)
        self.known_dissipative = list(known_dissipative or [False] * len(terms))
        self._proved: dict = {}

    @cached_property
    def dissipative_terms(self) -> list[bool]:
        return [known or _is_dissipative(A) for A, known in zip(self.terms, self.known_dissipative)]

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


def deim_projection_term(Phi: np.ndarray, inverse_norm: float, data: np.ndarray):
    """Interpolation-error term ``||Phi_I^{-1}||_2 ||(I - Phi Phi^T) w||_2``,
    with ``inverse_norm`` an upper bound of ``||Phi_I^{-1}||_2``; it bounds the
    interpolation error of ``w`` (Chaturantabut and Sorensen, SIAM J. Sci.
    Comput. 32, 2010, Lemma 3.2).  ``data`` is one state ``w`` ``(m,)``, which
    gives a float, or one row per state ``(k, m)``, which gives ``k`` terms."""
    W = np.asarray(data, dtype=float)
    terms = inverse_norm * np.linalg.norm(W - (W @ Phi) @ Phi.T, axis=-1)
    return terms if W.ndim == 2 else float(terms)


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
