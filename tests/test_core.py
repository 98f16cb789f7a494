import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from latentskip.core import EPS, SeededRng, check_kinds, mean, relative_l2, stats

# Finite float64 values from subnormals to 1e300, signed zeros included.
FLOATS = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
VIEWS = {"as-is": lambda a: a, "T": lambda a: a.T, "step2": lambda a: a[::2],
         "T-step2": lambda a: a.T[::2]}


@st.composite
def reduction_inputs(draw):
    """0-d to 3-d float64 arrays (maybe a strided view) or float lists.

    Arrays are constant, drawn element by element, or seeded normals scaled by
    10**e for e in -310..300; hypothesis favours round values, whose sums are
    exact in any order, and the normals are what make a changed order show.
    """
    if draw(st.booleans()):
        return draw(st.lists(FLOATS, min_size=1, max_size=40))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=6))
    kind = draw(st.sampled_from(["constant", "elements", "scaled-normal"]))
    if kind == "constant":
        x = np.full(shape, draw(FLOATS))
    elif kind == "elements":
        x = draw(hnp.arrays(np.float64, shape, elements=FLOATS, fill=st.nothing()))
    else:
        x = SeededRng(draw(st.integers(0, 2**32))).normal(shape) * 10.0 ** draw(st.integers(-310, 300))
    view = draw(st.sampled_from(sorted(VIEWS))) if x.ndim else "as-is"
    return VIEWS[view](x)


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


@pytest.mark.parametrize("empty", [[], np.array([]), np.zeros((0, 3))])
def test_mean_empty_rejected(empty):
    with pytest.raises(ValueError, match="empty input"):
        mean(empty)


@given(reduction_inputs())
def test_reductions_bitwise_equal_numpy(x):
    # mean and stats skip NumPy's _methods wrappers; a NumPy whose ndarray.mean/std
    # reduce differently shows up here first.
    before = np.array(x, copy=True)
    with np.errstate(all="ignore"):  # squares of 1e300 overflow to inf on both sides
        got_mean, got = mean(x), stats(x)
        ref_mean = float(np.mean(x))
        arr = np.asarray(x)
        ref = (float(arr.mean()), float(arr.std()))
    assert float.hex(got_mean) == float.hex(ref_mean)
    assert (float.hex(got.mean), float.hex(got.std)) == tuple(map(float.hex, ref))
    assert np.array_equal(np.asarray(x), before)  # the input is not written to


def test_relative_l2_examples():
    assert relative_l2(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert relative_l2(np.zeros(2), np.zeros(2)) == 0.0


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=30))
def test_relative_l2_self_is_zero(values):
    a = np.asarray(values)
    assert relative_l2(a, a) == 0.0


@given(st.data(), hnp.array_shapes(max_dims=2, max_side=8))
def test_relative_l2_bitwise_where_the_norms_fit(data, shape):
    # Where both norms fit float64 (64 squares of at most 4e300) the value is the plain formula's, bit for bit.
    a, b = (data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e150, 1e150))) for _ in range(2))
    assert relative_l2(a, b) == float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), EPS)


@pytest.mark.parametrize("a, b, ratio", [(np.full(4, 1e200), np.full(4, 2e200), 0.5),
                                         (np.array([1e308]), np.array([-1e308]), 2.0),
                                         (np.array([1e308, 1.0]), np.array([1e307, -1e-300]), 9.0)])
def test_relative_l2_finite_inputs_whose_norms_overflow(a, b, ratio):
    # The norms' squares exceed float64; the ratio does not, so it is returned, with no RuntimeWarning.
    assert relative_l2(a, b) == pytest.approx(ratio, rel=1e-15)


@pytest.mark.parametrize("a, b, name", [([np.nan], [1.0], "a"), ([1.0], [np.inf], "b"),
                                        ([np.inf], [np.inf], "a"), ([1e308], [np.nan], "b")])
def test_relative_l2_rejects_nan_and_inf(a, b, name):
    with pytest.raises(ValueError, match=f"^{name} contains NaN or inf$"):
        relative_l2(np.array(a), np.array(b))


@pytest.mark.parametrize("a, b", [([1e305], [0.0]), ([1e308, 1e308], [1e-300, 0.0])],
                         ids=["norms-fit", "norms-overflow"])
def test_relative_l2_ratio_that_overflows_raises(a, b):
    # ||a - b|| / EPS exceeds float64: a ValueError, not inf.
    with pytest.raises(ValueError, match="^relative_l2 overflows float64 on these inputs$"):
        relative_l2(np.array(a), np.array(b))


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


@dataclass
class Kinds:
    count: "int"
    value: "float"


@pytest.mark.parametrize("count,value", [(3, 1.5), (3, 2), (np.int32(3), np.float32(1.5)),
                                         (np.int64(3), np.int64(2)), (np.uint8(3), Fraction(1, 2))])
def test_check_kinds_accepts_integers_and_reals(count, value):
    check_kinds(Kinds(count, value))


@pytest.mark.parametrize("count,value,message", [
    (True, 1.0, "count: expected an integer, got True"),
    (3.0, 1.0, "count: expected an integer, got 3.0"),
    (np.bool_(True), 1.0, f"count: expected an integer, got {np.bool_(True)!r}"),
    (3, False, "value: expected a number, got False"),
    (3, "1", "value: expected a number, got '1'"),
    (3, 1j, "value: expected a number, got 1j"),
])
def test_check_kinds_rejects_other_kinds(count, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_kinds(Kinds(count, value))
