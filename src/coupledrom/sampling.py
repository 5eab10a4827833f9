"""Latin hypercube training/test parameter sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptySampleError


@dataclass(frozen=True)
class ParameterSpace:
    """Named closed parameter intervals."""

    names: tuple[str, ...]
    ranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.names) != len(self.ranges):
            raise ConfigError("names and ranges must align", field="parameters")
        for name, (lo, hi) in zip(self.names, self.ranges):
            if not -np.inf < lo < hi < np.inf:
                raise ConfigError(f"range for {name!r} must be finite with lower < upper")

    @property
    def dim(self) -> int:
        return len(self.names)

    def contains(self, point) -> bool:
        point = np.atleast_1d(point)
        return all(lo <= v <= hi for v, (lo, hi) in zip(point, self.ranges))

    def as_mapping(self, point) -> dict[str, float]:
        """Parameter values by name; a point with another count of values
        raises ``ConfigError``."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.dim:
            raise ConfigError(f"expected {self.dim} parameter value(s), got {point.size}")
        return {n: float(v) for n, v in zip(self.names, point)}


def lhs_sample(space: ParameterSpace, n: int, seed: int) -> np.ndarray:
    """Latin hypercube sample, one point per row of the ``(n, dim)`` result:
    one point per equal-width stratum per dimension, jittered uniformly
    inside its stratum.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise EmptySampleError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    cols = []
    for lo, hi in space.ranges:
        perm = rng.permutation(n)
        unit = (perm + rng.uniform(size=n)) / n
        cols.append(lo + (hi - lo) * unit)
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0))
