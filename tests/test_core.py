import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentskip.core import SeededRng, relative_l2, stats


def test_stats_hand_examples():
    s = stats(np.array([1.0, 3.0]))
    assert (s.mean, s.std) == (2.0, 1.0)
    s = stats(np.array([10.0, 20.0]))
    assert (s.mean, s.std) == (15.0, 5.0)


def test_stats_constant_tensor():
    s = stats(np.full((3, 4), 7.5))
    assert s.mean == 7.5 and s.std == 0.0


def test_stats_population_divisor():
    # single element must be well-defined with std 0
    s = stats(np.array([42.0]))
    assert s.std == 0.0


def test_stats_empty_rejected():
    with pytest.raises(ValueError, match="empty input"):
        stats(np.array([]))


def test_relative_l2_examples():
    assert relative_l2(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert relative_l2(np.zeros(2), np.zeros(2)) == 0.0


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=30))
def test_relative_l2_self_is_zero(values):
    a = np.asarray(values)
    assert relative_l2(a, a) == 0.0


def test_relative_l2_shape_mismatch():
    with pytest.raises(ValueError):
        relative_l2(np.zeros(2), np.zeros(3))


def test_gaussian_deterministic_per_seed():
    a = SeededRng(7).normal([16])
    b = SeededRng(7).normal([16])
    assert np.array_equal(a, b)


def test_gaussian_moments():
    x = SeededRng(7).normal([10000])
    assert abs(x.mean()) < 0.05
    assert abs(x.std() - 1.0) < 0.05
