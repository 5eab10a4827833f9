"""Orthonormal reduced bases from snapshot matrices.

Truncation follows the relative-energy rule: the basis size ``n`` is the
smallest integer with ``sum_{i>n} s_i^2 <= tol^2 * sum_i s_i^2``.  The
factorization is the thin SVD, which resolves singular values down to
``eps * max(N, n_cols) * s_1``; the tail energies are summed from the smallest
value up, so they do not cancel against the total.  Column signs are fixed so
that the first entry of each basis vector above rounding noise, ``|u| >
sqrt(eps) * max |u|``, is positive; entries at rows that vanish in every
snapshot are noise and do not decide the sign.

A snapshot set of several trajectories, ``block`` columns each, is factorized
in two levels (the hierarchical approximate POD of Himpe, Leibner and Rave,
*SIAM J. Sci. Comput.* 40, 2018): one thin SVD ``X_i = U_i S_i W_i^T`` per
block, cut at the block's numerical rank, then one thin SVD of the stacked
factors ``Y = [U_1 S_1, U_2 S_2, ...]``.  The proof that this is the POD of
``X``: with ``E`` the dropped part of the blocks, ``X X^T = Y Y^T + E E^T``,
so ``Y`` has the left singular vectors and values of ``X`` up to ``E``.  Every
value a block drops is at most ``eps * max(N, n_cols) * s_1(X_i) <= eps *
max(N, n_cols) * s_1(X)``, below the resolution of the one SVD of ``X``
itself, which cannot tell such a value from zero.  The energy rule holds
against ``X``: the right factors ``W_i`` of the kept and dropped parts are
orthogonal, so for the projector ``P`` on the kept modes ``||(I - P) X||^2 =
||(I - P) Y||^2 + ||(I - P) E||^2 <= tol^2 ||Y||^2 + ||E||^2``, and ``||X||^2
= ||Y||^2 + ||E||^2``.

The SVDs run on one thread of numpy's OpenBLAS, whose threaded kernels round
differently at each thread count, so a basis does not depend on the count.
The count is process-global: other threads of the caller that call numpy's
BLAS while a factorization runs also run on one thread.  Where numpy's BLAS
exports no OpenBLAS thread control, the count is left as it is.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSnapshotsError, DimensionMismatchError, RomError

log = logging.getLogger(__name__)

#: the OpenBLAS thread count of every factorization
POD_BLAS_THREADS = 1
_PIN_LOCK = threading.Lock()


@functools.cache
def blas_thread_control():
    """``(get, set)`` of the thread count of the OpenBLAS behind numpy's
    LAPACK, through ctypes, looked up from the extension module whose SVD the
    factorization calls; None when that library exports neither name."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on ``POD_BLAS_THREADS`` threads of numpy's OpenBLAS and
    restore the old count after it, also when it raises; yields the pinned
    count, or None where the count cannot be set.  One body runs at a time,
    so that concurrent callers restore the count they found."""
    control = blas_thread_control()
    if control is None:
        yield None
        return
    get, put = control
    with _PIN_LOCK:
        old = get()
        put(POD_BLAS_THREADS)
        try:
            yield POD_BLAS_THREADS
        finally:
            put(old)


@dataclass(frozen=True)
class SnapshotSet:
    """Column-stacked solution vectors, ``block`` consecutive columns per
    trajectory (``None``: one column per sample)."""

    matrix: np.ndarray = field(repr=False)  # (N, n_snapshots)
    block: int | None = None


class PodFactorization:
    """Left-singular factorization of one snapshot matrix, down to its
    numerical rank.

    A blocked snapshot set is factorized in two levels, one thin SVD per block
    and one of the stacked factors ``U_i S_i``.  Every value a block drops is
    at most ``eps * max(N, n_cols) * s_1(block) <= eps * max(N, n_cols) *
    s_1(X)``, below the resolution of the one SVD of ``X``, so both give the
    same subspaces and basis sizes up to that resolution (module docstring).
    A plain array or a set of one block takes the one SVD.  ``stacked_cols``
    is the width of the matrix the last SVD factored.

    Computed once; ``truncate`` slices it for any tolerance, which makes
    tolerance sweeps cheap.
    """

    def __init__(self, snapshots: SnapshotSet | np.ndarray):
        with _one_blas_thread() as threads:
            #: the OpenBLAS thread count the SVDs ran on, None where not pinned
            self.blas_threads = threads
            X = snapshots.matrix if isinstance(snapshots, SnapshotSet) else snapshots
            X = np.asarray(X, dtype=float)
            if X.ndim != 2 or X.shape[1] < 1:
                raise DimensionMismatchError("snapshot matrix must be 2-D and nonempty")
            if not np.any(X):
                raise DegenerateSnapshotsError("snapshot matrix is identically zero")
            resolution = max(X.shape) * np.finfo(float).eps
            block = snapshots.block if isinstance(snapshots, SnapshotSet) else None
            if block is not None and block < X.shape[1]:
                X = _stacked_factors(X, block, resolution)
            self.stacked_cols = X.shape[1]
            U, sigma, _ = np.linalg.svd(X, full_matrices=False)
        rank = int(np.sum(sigma > sigma[0] * resolution))
        self.U = _fix_signs(U[:, :rank])
        self.singular_values = sigma

    def size_for(self, tolerance: float) -> int:
        """The energy rule's basis size, capped at the numerical rank of the
        snapshots (the columns of ``U``), with a warning when it caps."""
        if not 0.0 < tolerance < 1.0:
            raise RomError(f"POD tolerance must be in (0, 1), got {tolerance}")
        s2 = self.singular_values**2
        energy = np.cumsum(s2[::-1])[::-1]  # energy[k] = energy from mode k on
        total = energy[0]
        tail = np.append(energy[1:], 0.0)  # tail[k] = energy beyond k+1 modes
        n = int(np.searchsorted(-tail, -(tolerance**2) * total) + 1)
        rank = self.U.shape[1]
        if n > rank:
            log.warning(
                "POD tolerance %g asks for %d modes, above the numerical rank %d "
                "of the snapshots; the basis keeps %d", tolerance, n, rank, rank,
            )
        return min(n, rank)

    def truncate(self, tolerance: float) -> np.ndarray:
        """The ``(N, n)`` orthonormal basis of the energy rule's ``n`` modes."""
        return self.U[:, : self.size_for(tolerance)].copy()


def _stacked_factors(X: np.ndarray, block: int, resolution: float) -> np.ndarray:
    """``[U_1 S_1, U_2 S_2, ...]`` from one batched thin SVD of the column
    blocks of ``X``, each cut below ``resolution`` times its largest singular
    value; an all-zero block keeps no column."""
    n_rows, n_cols = X.shape
    if block < 1 or n_cols % block:
        raise DimensionMismatchError(
            f"snapshot block of {block} columns does not divide the {n_cols} columns"
        )
    blocks = X.reshape(n_rows, n_cols // block, block).transpose(1, 0, 2)
    U, s, _ = np.linalg.svd(blocks, full_matrices=False)
    U *= s[:, None, :]
    keep = s > s[:, :1] * resolution
    return U.transpose(1, 0, 2)[:, keep]


def _fix_signs(U: np.ndarray) -> np.ndarray:
    mag = np.abs(U)
    first = np.argmax(mag > np.sqrt(np.finfo(float).eps) * mag.max(axis=0), axis=0)
    return U * np.where(U[first, np.arange(U.shape[1])] < 0, -1.0, 1.0)


def pod(snapshots: SnapshotSet | np.ndarray, tolerance: float) -> np.ndarray:
    """The ``(N, n)`` orthonormal basis retaining all but ``tolerance**2`` of
    the snapshot energy; its singular values are ``PodFactorization``'s."""
    return PodFactorization(snapshots).truncate(tolerance)
