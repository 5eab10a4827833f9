import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledrom.errors import ConfigError, EmptySampleError
from coupledrom.sampling import ParameterSpace, lhs_sample

SPACE_2D = ParameterSpace(names=("alpha", "beta"), ranges=((0.5, 5.0), (0.5, 5.0)))


def test_single_point_in_range():
    space = ParameterSpace(names=("a",), ranges=((0.0, 1.0),))
    s = lhs_sample(space, 1, seed=0)
    assert len(s) == 1
    assert 0.0 <= s.points[0, 0] <= 1.0


def test_four_point_stratification():
    space = ParameterSpace(names=("a",), ranges=((0.0, 4.0),))
    s = lhs_sample(space, 4, seed=3)
    strata = np.floor(s.points[:, 0]).astype(int)
    assert sorted(strata) == [0, 1, 2, 3]


@given(n=st.integers(1, 40), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stratification_property(n, seed):
    s = lhs_sample(SPACE_2D, n, seed=seed)
    for d, (lo, hi) in enumerate(SPACE_2D.ranges):
        strata = np.floor((s.points[:, d] - lo) / (hi - lo) * n).astype(int)
        strata = np.clip(strata, 0, n - 1)
        assert sorted(strata) == list(range(n))


def test_determinism_bit_identical():
    a = lhs_sample(SPACE_2D, 60, seed=42)
    b = lhs_sample(SPACE_2D, 60, seed=42)
    assert np.array_equal(a.points, b.points)


def test_disjoint_seeds_differ():
    a = lhs_sample(SPACE_2D, 10, seed=1)
    b = lhs_sample(SPACE_2D, 10, seed=2)
    assert not np.array_equal(a.points, b.points)


def test_empty_sample_rejected():
    with pytest.raises(EmptySampleError):
        lhs_sample(SPACE_2D, 0, seed=0)


def test_bad_range_rejected():
    with pytest.raises(ConfigError):
        ParameterSpace(names=("a",), ranges=((1.0, 1.0),))


def test_points_inside_space():
    s = lhs_sample(SPACE_2D, 25, seed=9, kind="test")
    assert s.kind == "test"
    assert all(SPACE_2D.contains(p) for p in s)


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5], []])
def test_mapping_rejects_a_wrong_count(point):
    with pytest.raises(ConfigError, match="expected 2 parameter value"):
        SPACE_2D.as_mapping(point)
