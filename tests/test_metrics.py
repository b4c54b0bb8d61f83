"""Distances between change-point sets and between step intensities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppseg import (
    PiecewiseIntensity,
    alternating_intensity,
    hausdorff,
    intensity_from_breaks,
    l2_distance,
)
from ppseg.metrics import change_point_set, true_change_values

point_sets = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=5,
).map(lambda vs: np.array(sorted({0.0, 1.0, *vs})))


def test_hausdorff_hand_example():
    d1, d2, d = hausdorff([0.0, 0.4, 1.0], [0.0, 0.3, 0.7, 1.0])
    assert d1 == pytest.approx(0.1, rel=1e-12)
    assert d2 == pytest.approx(0.3, rel=1e-12)
    assert d == pytest.approx(0.3, rel=1e-12)


def test_hausdorff_boundaries_always_match():
    # both sets contain 0 and 1, so the distance never exceeds 1/2
    d1, d2, d = hausdorff([0.0, 1.0], [0.0, 0.5, 1.0])
    assert d1 == 0.0
    assert d2 == 0.5
    assert d == 0.5


@given(a=point_sets, b=point_sets)
def test_hausdorff_symmetry_and_identity(a, b):
    d1, d2, d = hausdorff(a, b)
    r1, r2, r = hausdorff(b, a)
    assert (d1, d2, d) == (r2, r1, r)
    assert d >= max(d1, d2) - 0.0
    assert hausdorff(a, a) == (0.0, 0.0, 0.0)
    if set(a.tolist()) != set(b.tolist()):
        assert d > 0.0


def test_change_point_set_validation():
    with pytest.raises(ValueError, match="at least the two boundaries"):
        change_point_set([0.5])
    with pytest.raises(ValueError, match="start at 0 and end at 1"):
        change_point_set([0.1, 1.0])
    with pytest.raises(ValueError, match="sorted"):
        change_point_set([0.0, 0.7, 0.3, 1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            change_point_set([0.0, bad, 0.5, 1.0])


def test_l2_constant_offset_hand_value():
    # cumulatives differ by g(t) = t, so the integral is exactly 1/3
    est = PiecewiseIntensity(np.array([0.0, 1.0]), np.array([2.0]))
    ref = PiecewiseIntensity(np.array([0.0, 1.0]), np.array([1.0]))
    assert l2_distance(est, ref, normalization=1.0) == 1.0 / 3.0
    assert l2_distance(est, ref, normalization=4.0) == 1.0 / 12.0
    assert l2_distance(est, est, normalization=1.0) == 0.0


def test_l2_requires_positive_normalization():
    est = PiecewiseIntensity(np.array([0.0, 1.0]), np.array([2.0]))
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="normalization must be positive and finite"):
            l2_distance(est, est, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_l2_with_a_subnormal_normalization_overflows_quietly():
    est = PiecewiseIntensity(np.array([0.0, 1.0]), np.array([2.0]))
    ref = PiecewiseIntensity(np.array([0.0, 1.0]), np.array([3.0]))
    assert l2_distance(est, ref, 1e-320) == np.inf


def _dense_l2(est, ref, normalization, m=200_001):
    ts = np.linspace(0.0, 1.0, m)
    g = est.cumulative(ts) - ref.cumulative(ts)
    return np.trapezoid(g * g, ts) / normalization


def test_l2_matches_dense_quadrature():
    rng = np.random.default_rng(99)
    for _ in range(5):
        k1, k2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        bp1 = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, k1 - 1)), [1.0]))
        bp2 = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, k2 - 1)), [1.0]))
        est = PiecewiseIntensity(bp1, rng.uniform(0.5, 30.0, k1))
        ref = PiecewiseIntensity(bp2, rng.uniform(0.5, 30.0, k2))
        exact = l2_distance(est, ref, normalization=10.0)
        dense = _dense_l2(est, ref, normalization=10.0)
        assert exact == pytest.approx(dense, rel=1e-6, abs=1e-9)


def test_true_change_values_merges_equal_neighbours():
    flat = intensity_from_breaks([0.0, 0.25, 0.5, 1.0], [2.0, 2.0, 5.0])
    assert true_change_values(flat).tolist() == [0.0, 0.5, 1.0]
    constant = intensity_from_breaks([0.0, 0.5, 1.0], [3.0, 3.0])
    assert true_change_values(constant).tolist() == [0.0, 1.0]
    stepped = alternating_intensity(100.0, 8.0)
    assert np.array_equal(true_change_values(stepped), stepped.breakpoints)
    # equal event rates but differing mark rates still mark a change
    marked = intensity_from_breaks([0.0, 0.5, 1.0], [3.0, 3.0], [0.1, 0.005])
    assert true_change_values(marked).tolist() == [0.0, 0.5, 1.0]
    marked_flat = intensity_from_breaks([0.0, 0.5, 1.0], [3.0, 3.0], [0.1, 0.1])
    assert true_change_values(marked_flat).tolist() == [0.0, 1.0]
