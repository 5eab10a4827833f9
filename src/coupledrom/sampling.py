"""Latin hypercube training/test parameter sets."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SampleSet:
    """Parameter vectors plus the seed that produced them."""

    points: np.ndarray = field(repr=False)  # (n, dim)
    seed: int
    kind: str  # "train" | "test"

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)


def lhs_sample(space: ParameterSpace, n: int, seed: int, kind: str = "train") -> SampleSet:
    """Latin hypercube sample: one point per equal-width stratum per dimension,
    jittered uniformly inside its stratum.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise EmptySampleError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    cols = []
    for lo, hi in space.ranges:
        perm = rng.permutation(n)
        unit = (perm + rng.uniform(size=n)) / n
        cols.append(lo + (hi - lo) * unit)
    points = np.stack(cols, axis=1) if cols else np.zeros((n, 0))
    return SampleSet(points=points, seed=seed, kind=kind)
