"""Series containers, grid arithmetic and piecewise intensities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppseg import (
    EventSeries,
    PiecewiseIntensity,
    build_grid,
    intensity_from_breaks,
    segment_stats,
)
from ppseg.model import AT, BEFORE, Segmentation, segmentation_from_indices


def _count(grid, p_lo, p_hi):
    # events in the segment (p_lo, p_hi]
    return int(grid.stats(p_lo, p_hi)[0])


def test_grid_layout():
    grid = build_grid(EventSeries(np.array([0.2, 0.5, 0.9])))
    assert grid.n == 3
    assert grid.size == 6
    assert grid.last_index == 7
    assert grid.values.tolist() == [0.0, 0.2, 0.2, 0.5, 0.5, 0.9, 0.9, 1.0]
    points = segmentation_from_indices(grid, range(1, 7)).change_points
    assert [p.side for p in points] == [BEFORE, AT, BEFORE, AT, BEFORE, AT]
    pt = points[2]
    assert (pt.index, pt.side, pt.value) == (3, BEFORE, 0.5)


def test_grid_empty_series():
    grid = build_grid(EventSeries(np.array([])))
    assert grid.size == 0
    assert grid.values.tolist() == [0.0, 1.0]
    assert _count(grid, 0, 1) == 0


def _contains(grid, p_lo, p_hi, m):
    # membership by values and sides; only valid for distinct event times.
    # Odd indices sit just before their event, even ones at it; the
    # boundaries 0 and 1 never equal an event time.
    t = grid.events.times[m]
    after_start = t > grid.values[p_lo] or (t == grid.values[p_lo] and p_lo % 2 == 1)
    before_end = t < grid.values[p_hi] or (t == grid.values[p_hi] and p_hi % 2 == 0)
    return after_start and before_end


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        max_size=7,
        unique=True,
    )
)
def test_count_between_matches_interval_semantics(times):
    grid = build_grid(EventSeries(np.array(sorted(times))))
    for p_lo in range(grid.last_index + 1):
        for p_hi in range(p_lo + 1, grid.last_index + 1):
            by_value = sum(_contains(grid, p_lo, p_hi, m) for m in range(grid.n))
            by_index = sum(p_lo < 2 * (m + 1) <= p_hi for m in range(grid.n))
            assert _count(grid, p_lo, p_hi) == by_value == by_index


def test_count_between_with_ties():
    # value-based reasoning breaks on ties; the index rule still holds
    grid = build_grid(EventSeries(np.array([0.5, 0.5])))
    assert _count(grid, 0, 5) == 2
    assert _count(grid, 1, 2) == 1
    assert _count(grid, 2, 3) == 0
    assert _count(grid, 2, 4) == 1
    for p_lo in range(6):
        for p_hi in range(p_lo + 1, 6):
            expected = sum(p_lo < 2 * m <= p_hi for m in (1, 2))
            assert _count(grid, p_lo, p_hi) == expected


def test_times_must_be_sorted():
    with pytest.raises(ValueError, match="sorted ascending"):
        EventSeries(np.array([0.5, 0.2]))


@pytest.mark.parametrize("times", [[0.0, 0.5], [0.5, 1.0], [-0.1], [1.2]])
def test_times_must_be_interior(times):
    with pytest.raises(ValueError, match="widen the observation window"):
        EventSeries(np.array(times))


def test_times_must_be_one_dimensional():
    with pytest.raises(ValueError, match="one-dimensional"):
        EventSeries(np.array([[0.5]]))


def test_window_must_be_increasing():
    with pytest.raises(ValueError, match="t_min < t_max"):
        EventSeries(np.array([0.5]), window=(2.0, 2.0))
    with pytest.raises(ValueError, match="t_min < t_max"):
        EventSeries.from_window([0.5], window=(3.0, 1.0))


@pytest.mark.parametrize("window", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                    (-1e308, 1e308)])
def test_window_bounds_and_width_must_be_finite(window):
    with pytest.raises(ValueError, match="window bounds and width must be finite"):
        EventSeries(np.array([0.5]), window=window)
    with pytest.raises(ValueError, match="window bounds and width must be finite"):
        EventSeries.from_window([0.5], window=window)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_times_must_be_finite(bad):
    with pytest.raises(ValueError, match="event times must be finite"):
        EventSeries(np.array([0.5, bad]))
    with pytest.raises(ValueError, match="event times must be finite"):
        EventSeries.from_window([bad, 2.0], window=(1.0, 3.0))


def test_marks_validation():
    with pytest.raises(ValueError, match="align one-to-one"):
        EventSeries(np.array([0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="strictly positive"):
        EventSeries(np.array([0.3, 0.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_marks_must_be_finite(bad):
    with pytest.raises(ValueError, match="marks must be finite"):
        EventSeries(np.array([0.3, 0.5]), np.array([1.0, bad]))


def test_mark_total_must_not_overflow():
    # each mark is finite, but their prefix sums overflow to inf
    times = np.linspace(0.05, 0.95, 20)
    with pytest.raises(ValueError, match="finite total"):
        EventSeries(times, np.full(20, 1e307))
    assert np.isfinite(EventSeries(times, np.full(20, 1e306)).mark_prefix[-1])


def test_has_ties_flag():
    assert not EventSeries(np.array([0.2, 0.5])).has_ties
    assert EventSeries(np.array([0.2, 0.2])).has_ties
    assert EventSeries(np.array([0.4, 0.4]), np.array([1.0, 1.0])).has_ties


def test_select_equals_a_freshly_validated_subset():
    # marks of uneven size so prefix sums of a subset round differently
    # from differences of the whole series' prefix sums
    times = np.array([0.1, 0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 0.9])
    marks = np.array([0.1, 3e5, 0.7, 1e-9, 2.5, 0.3, 1e3, 0.05])
    series = EventSeries(times, marks, window=(2.0, 10.0))
    for mask in (times > 0.2, np.arange(8) % 2 == 0, np.zeros(8, bool), np.ones(8, bool)):
        subset = series.select(mask)
        fresh = EventSeries(series.times[mask], series.marks[mask], series.window)
        for name in ("times", "marks", "mark_prefix"):
            assert getattr(subset, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert subset.window == fresh.window
        assert subset.has_ties == fresh.has_ties
    assert series.select(times > 0.2).has_ties
    assert series.mark_prefix.tobytes() == EventSeries(times, marks).mark_prefix.tobytes()
    plain = EventSeries(times).select(times < 0.6)
    assert plain.marks is None and plain.mark_prefix is None
    assert plain.times.tolist() == [0.1, 0.25, 0.25, 0.25, 0.5, 0.5]


def test_from_window_dyadic_round_trip():
    # dyadic times in a dyadic window normalize and map back exactly
    raw = np.array([3.25, 5.5, 7.125])
    series = EventSeries.from_window(raw, window=(3.0, 11.0))
    assert series.times.tolist() == [0.03125, 0.3125, 0.515625]
    assert np.array_equal(series.to_original(series.times), raw)
    assert series.width == 8.0


def test_from_window_general_round_trip():
    raw = np.array([0.13, 0.47, 0.81])
    series = EventSeries.from_window(raw, window=(0.1, 0.9))
    assert np.allclose(series.to_original(series.times), raw, rtol=1e-12, atol=0.0)
    marked = EventSeries.from_window(raw, (0.1, 0.9), marks=[1.0, 2.0, 3.0])
    assert marked.marks.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(marked.to_original(marked.times), raw, rtol=1e-12, atol=0.0)
    assert marked.to_original(0.0) == 0.1


def test_mark_prefix_is_cumulative():
    series = EventSeries(np.array([0.2, 0.5, 0.7]), np.array([1.5, 2.0, 0.25]))
    assert series.mark_prefix.tolist() == [0.0, 1.5, 3.5, 3.75]
    assert build_grid(series).mark_prefix is not None
    plain = EventSeries(series.times)
    assert plain.marks is None and plain.mark_prefix is None
    assert build_grid(plain).mark_prefix is None


def test_segmentation_from_indices_valid():
    grid = build_grid(EventSeries(np.array([0.2, 0.5, 0.9])))
    seg = segmentation_from_indices(grid, (3, 6))
    assert seg.k == 3
    assert seg.indices == (3, 6)
    assert seg.values == (0.5, 0.9)
    assert [p.side for p in seg.change_points] == [BEFORE, AT]


def test_segmentation_from_indices_rejects_bad_input():
    grid = build_grid(EventSeries(np.array([0.2, 0.5, 0.9])))
    with pytest.raises(ValueError, match="interior"):
        segmentation_from_indices(grid, (0,))
    with pytest.raises(ValueError, match="interior"):
        segmentation_from_indices(grid, (7,))
    with pytest.raises(ValueError, match="strictly increasing"):
        segmentation_from_indices(grid, (5, 3))
    with pytest.raises(ValueError, match="strictly increasing"):
        segmentation_from_indices(grid, (3, 3))
    with pytest.raises(ValueError, match="interior"):
        segmentation_from_indices(grid, (9,))


def test_segmentation_rejects_empty_zero_length_segment():
    grid = build_grid(EventSeries(np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="empty zero-length"):
        segmentation_from_indices(grid, (2, 3))
    # the two flanking segments each hold one event: fine
    assert segmentation_from_indices(grid, (2,)).k == 2


def test_segmentation_constructor_checks_k():
    with pytest.raises(ValueError, match="one more"):
        Segmentation(3, ())


def test_segment_summaries_are_consistent():
    series = EventSeries(
        np.array([0.1, 0.4, 0.6, 0.85]), np.array([2.0, 1.0, 0.5, 4.0])
    )
    grid = build_grid(series)
    seg = segmentation_from_indices(grid, (3, 6))
    counts, lengths, sums = segment_stats(grid, seg.indices)
    assert counts.tolist() == [1, 2, 1]
    assert counts.sum() == series.n
    assert lengths.sum() == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(lengths, [0.4, 0.2, 0.4], rtol=0.0, atol=1e-15)
    assert sums.tolist() == [2.0, 1.5, 4.0]
    assert sums.sum() == series.marks.sum()


def test_segment_stats():
    series = EventSeries(np.array([0.2, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
    grid = build_grid(series)
    counts, lengths, sums = segment_stats(grid, (3,))
    assert (counts.tolist(), lengths.tolist(), sums.tolist()) == ([1, 2], [0.5, 0.5], [1.0, 5.0])
    counts, lengths, sums = segment_stats(grid, ())
    assert (counts.tolist(), lengths.tolist(), sums.tolist()) == ([3], [1.0], [6.0])
    # unmarked data has no mark sums
    counts, _, sums = segment_stats(build_grid(EventSeries(series.times)), (3,))
    assert counts.tolist() == [1, 2] and sums is None
    for bad in ((3, 3), (5, 3), (0,), (7,), (-1,), (9,)):
        with pytest.raises(ValueError, match="strictly increasing interior"):
            segment_stats(grid, bad)
    # the grid itself reads any index pairs, broadcasting index arrays
    counts, lengths, sums = grid.stats(np.array([[0], [3]]), np.array([[3, 7]]))
    assert counts.tolist() == [[1, 3], [0, 2]]
    assert lengths.tolist() == [[0.5, 1.0], [0.0, 0.5]]
    assert sums.tolist() == [[1.0, 6.0], [0.0, 5.0]]


def test_intensity_segments_are_right_closed():
    intensity = PiecewiseIntensity(np.array([0.0, 0.25, 1.0]), np.array([1.0, 3.0]))
    assert intensity.k == 2
    assert intensity.segment_of(0.25) == 0
    assert intensity.segment_of(np.nextafter(0.25, 1.0)) == 1
    assert intensity.segment_of(0.0) == 0
    assert intensity.segment_of(1.0) == 1
    assert intensity.rates[intensity.segment_of([0.1, 0.25, 0.3])].tolist() == [1.0, 1.0, 3.0]


def test_intensity_cumulative_closed_form():
    intensity = PiecewiseIntensity(np.array([0.0, 0.25, 1.0]), np.array([1.0, 3.0]))
    assert intensity.cumulative(0.0) == 0.0
    assert intensity.cumulative(0.25) == pytest.approx(0.25, rel=1e-15)
    assert intensity.cumulative(0.5) == pytest.approx(0.25 + 3.0 * 0.25, rel=1e-15)
    assert intensity.total_mass == pytest.approx(2.5, rel=1e-15)
    ts = np.linspace(0.0, 1.0, 11)
    assert np.all(np.diff(intensity.cumulative(ts)) > 0.0)


def test_intensity_validation():
    with pytest.raises(ValueError, match="K \\+ 1 breakpoints"):
        PiecewiseIntensity(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="from 0 to 1"):
        PiecewiseIntensity(np.array([0.1, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseIntensity(np.array([0.0, 0.5, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="rates must be nonnegative"):
        PiecewiseIntensity(np.array([0.0, 1.0]), np.array([-1.0]))
    with pytest.raises(ValueError, match="one mark rate per segment"):
        PiecewiseIntensity(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="mark rates must be strictly positive"):
        PiecewiseIntensity(np.array([0.0, 1.0]), np.array([1.0]), np.array([-0.1]))
    with pytest.raises(ValueError, match="mark rates must be strictly positive"):
        PiecewiseIntensity(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0]))
    # an empty segment's maximum-likelihood rates are 0 / 0 = 0
    empty = PiecewiseIntensity(np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0]),
                               np.array([0.0, 1.0]))
    assert empty.total_mass == 1.0


def test_intensity_from_breaks_drops_zero_length_segments():
    intensity = intensity_from_breaks(
        [0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]
    )
    assert intensity.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert intensity.rates.tolist() == [1.0, 3.0]
    assert intensity.mark_rates.tolist() == [0.1, 0.3]
    untouched = intensity_from_breaks([0.0, 0.5, 1.0], [1.0, 2.0])
    assert untouched.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert untouched.mark_rates is None
