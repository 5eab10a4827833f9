"""Orthonormal reduced bases from snapshot matrices.

Truncation follows the relative-energy rule: the basis size ``n`` is the
smallest integer with ``sum_{i>n} s_i^2 <= tol^2 * sum_i s_i^2``.  The
factorization is the thin SVD, which resolves singular values down to
``eps * s_1``; the tail energies are summed from the smallest value up, so
they do not cancel against the total.  Column signs are fixed so that the
first entry of each basis vector above rounding noise, ``|u| > sqrt(eps) *
max |u|``, is positive; entries at rows that vanish in every snapshot are
noise and do not decide the sign.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSnapshotsError, DimensionMismatchError, RomError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnapshotSet:
    """Column-stacked solution vectors."""

    matrix: np.ndarray = field(repr=False)  # (N, n_snapshots)


@dataclass(frozen=True)
class ReducedBasis:
    """Orthonormal basis with the full singular value list kept for audits."""

    V: np.ndarray = field(repr=False)  # (N, n)
    singular_values: np.ndarray = field(repr=False)  # full, non-increasing
    tolerance: float

    @property
    def n(self) -> int:
        return self.V.shape[1]


class PodFactorization:
    """Full left-singular factorization of one snapshot matrix.

    Computed once; ``truncate`` slices it for any tolerance, which makes
    tolerance sweeps cheap.
    """

    def __init__(self, snapshots: SnapshotSet | np.ndarray):
        X = snapshots.matrix if isinstance(snapshots, SnapshotSet) else snapshots
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] < 1:
            raise DimensionMismatchError("snapshot matrix must be 2-D and nonempty")
        if not np.any(X):
            raise DegenerateSnapshotsError("snapshot matrix is identically zero")
        U, sigma, _ = np.linalg.svd(X, full_matrices=False)
        rank = int(np.sum(sigma > sigma[0] * max(X.shape) * np.finfo(float).eps))
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

    def truncate(self, tolerance: float) -> ReducedBasis:
        n = self.size_for(tolerance)
        return ReducedBasis(
            V=self.U[:, :n].copy(),
            singular_values=self.singular_values.copy(),
            tolerance=tolerance,
        )


def _fix_signs(U: np.ndarray) -> np.ndarray:
    mag = np.abs(U)
    first = np.argmax(mag > np.sqrt(np.finfo(float).eps) * mag.max(axis=0), axis=0)
    return U * np.where(U[first, np.arange(U.shape[1])] < 0, -1.0, 1.0)


def pod(snapshots: SnapshotSet | np.ndarray, tolerance: float) -> ReducedBasis:
    """Build the orthonormal basis retaining all but ``tolerance**2`` energy."""
    return PodFactorization(snapshots).truncate(tolerance)
