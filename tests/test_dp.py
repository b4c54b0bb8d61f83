"""Exact solver: worked examples, oracle equivalence, table invariants.

The solver and the exhaustive search are independent routes to the same
optimum; their agreement is asserted bit for bit, never within a
tolerance, because both accumulate costs in the same order.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ppseg import (
    ContrastSpec,
    EventSeries,
    brute_force,
    build_grid,
    contrast,
    enumerate_count_vectors,
    segment_cost,
    segment_stats,
    solve,
    upsilon_cardinality,
    upsilon_star_cardinality,
)
from ppseg.contrasts import KINDS
from ppseg.dp import TIES_WARNING, _suffix_table, build_cost_matrix, solve_bytes

from helpers import (
    dense_cost_matrix,
    dense_suffix_table,
    naive_contrast,
    random_series,
    spec_variants,
)

UNIT_PG = ContrastSpec("poisson_gamma", a=1.0, b=1.0)


def test_cost_matrix_single_event_worked_example():
    # one event at 0.5 under the unit Gamma prior
    cost = build_cost_matrix(EventSeries(np.array([0.5])), UNIT_PG)
    assert cost.shape == (4, 4)
    # (0, 0.5^-]: no event over length one half
    assert cost[1, 1] == pytest.approx(0.4054651081081644, rel=1e-13)  # log 1.5
    # (0.5^-, 0.5]: the event on a zero-length slice
    assert cost[2, 2] == 0.0
    # (0, 0.5]: one event over length one half
    assert cost[1, 2] == pytest.approx(2.0 * math.log(1.5), rel=1e-13)
    # (0, 1]: one event over the whole interval
    assert cost[1, 3] == pytest.approx(2.0 * math.log(2.0), rel=1e-13)
    assert np.all(np.isposinf(cost[0]))
    idx = np.arange(4)
    assert np.all(np.isposinf(cost[idx[:, None] > idx[None, :]]))


def test_leftmost_tie_prefers_the_before_position():
    # both cut positions around the single event score identically;
    # the reconstruction must return the smaller index
    series = EventSeries(np.array([0.5]))
    res = solve(series, UNIT_PG, 2)[1]
    assert res.feasible
    assert res.segmentation.indices == (1,)
    assert res.segmentation.change_points[0].side == "before"
    grid = build_grid(series)
    assert contrast(grid, UNIT_PG, (1,)) == contrast(grid, UNIT_PG, (2,))


def test_two_event_worked_example():
    # events at 0.25 and 0.75, plain Poisson cost, two segments: the
    # optimum isolates an empty edge, not the long middle segment
    series = EventSeries(np.array([0.25, 0.75]))
    spec = ContrastSpec("poisson")
    res = solve(series, spec, 2)[1]
    ref = brute_force(series, spec, 2)
    assert res.segmentation.indices == (1,)
    assert ref.segmentation.indices == (1,)
    assert res.contrast == ref.contrast
    assert res.contrast == pytest.approx(0.03834149397654753, rel=1e-13)
    grid = build_grid(series)
    # cutting between the events scores far worse
    middle = contrast(grid, spec, (2,))
    assert middle == pytest.approx(0.32602356642832847, rel=1e-13)
    assert middle > res.contrast
    # the mirror cut ties the optimum; lexicographic order breaks it
    assert contrast(grid, spec, (4,)) == res.contrast


def _assert_same_result(a, b):
    assert a.feasible == b.feasible
    if a.contrast is None or b.contrast is None:
        assert a.contrast is None and b.contrast is None
        return
    assert a.contrast == b.contrast  # bit-equal, no tolerance
    if a.segmentation is None or b.segmentation is None:
        assert a.segmentation is None and b.segmentation is None
    else:
        assert a.segmentation.indices == b.segmentation.indices


def test_solver_matches_brute_force():
    rng = np.random.default_rng(20260814)
    for trial in range(30):
        marked = trial % 2 == 1
        series = random_series(rng, n_max=6, marked=marked)
        for spec in spec_variants(marked):
            kmax = min(4, series.n * 2 + 1)
            results = solve(series, spec, kmax)
            for res in results:
                _assert_same_result(res, brute_force(series, spec, res.k))


# two partial rows of the reconstruction differ by an ulp at K = 6 while
# the whole right-to-left totals of (1, 4, 5, 6, 8) and (1, 4, 5, 7, 8) tie
TIED_TIMES = [0.4448291538640511, 0.6523750440975133, 0.854442125342365, 0.9106339066641004]
TIED_MARKS = [1.9680000524441001, 6.104813633895411, 0.13494748032399595, 0.4097354600010212]
TIE_SPECS = [
    ContrastSpec(kind, **hyper)
    for kind in KINDS
    for hyper in ({"a": 1.0, "b": 0.5}, {"a": 0.5, "b": 2.0, "a_rho": 3.0, "b_rho": 0.5})
]


def test_exact_ties_go_to_the_lexicographically_first_vector():
    series = EventSeries(np.array(TIED_TIMES), np.array(TIED_MARKS))
    spec = ContrastSpec("marked_pgeg", a=1.0, b=0.5)
    res = solve(series, spec, 6)[5]
    assert res.segmentation.indices == (1, 4, 5, 6, 8)
    assert contrast(series, spec, (1, 4, 5, 7, 8)) == res.contrast
    _assert_same_result(res, brute_force(series, spec, 6))


@st.composite
def _small_marked_series(draw):
    times = sorted(draw(st.lists(st.sampled_from([0.2, 0.5, 0.7]) | st.floats(0.01, 0.99),
                                 max_size=6)))
    marks = draw(st.lists(st.floats(0.01, 10.0), min_size=len(times), max_size=len(times)))
    return times, marks


@given(data=_small_marked_series(), spec=st.sampled_from(TIE_SPECS), forbid_empty=st.booleans())
@example(data=(TIED_TIMES, TIED_MARKS), spec=ContrastSpec("marked_pgeg", a=1.0, b=0.5),
         forbid_empty=False)
def test_solver_breaks_ties_like_brute_force(data, spec, forbid_empty):
    # same contrast bits and same index vector, ties included
    series = EventSeries(np.array(data[0]), np.array(data[1]))
    spec = replace(spec, forbid_empty=forbid_empty)
    for res in solve(series, spec, min(6, 2 * series.n + 1)):
        _assert_same_result(res, brute_force(series, spec, res.k))


def test_subnormal_lengths_and_mark_sums_keep_the_optimum_finite():
    # count / length and count / mark sum overflow on the first event
    cases = [(EventSeries(np.array([5e-324, 0.5])), ContrastSpec("poisson"))]
    for marks in ([1.0, 5e-324], [5e-324, 1.0]):
        cases.append((EventSeries(np.array([5e-324, 0.5]), np.array(marks)),
                      ContrastSpec("marked_poisson")))
    for series, spec in cases:
        for res in solve(series, spec, 3):
            assert np.isfinite(res.contrast)
            assert res.warnings == ()
            _assert_same_result(res, brute_force(series, spec, res.k))


def test_solver_matches_plain_python_total():
    # third route: left-to-right float summation, tolerance-based
    rng = np.random.default_rng(7)
    for trial in range(10):
        marked = trial % 2 == 1
        series = random_series(rng, n_max=6, marked=marked, allow_ties=False)
        if series.n == 0:
            continue
        for spec in spec_variants(marked):
            for res in solve(series, spec, 3):
                if not res.feasible or res.segmentation is None:
                    continue
                want = naive_contrast(series, spec, res.segmentation.indices)
                if math.isinf(want):
                    assert res.contrast == want
                else:
                    assert res.contrast == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_solutions_have_isolated_interior_zeros():
    # the candidate grid cannot host two adjacent empty segments, so
    # every reconstruction lies in the restricted count-vector family
    rng = np.random.default_rng(11)
    for trial in range(20):
        marked = trial % 3 == 0
        series = random_series(rng, n_max=6, marked=marked)
        grid = build_grid(series)
        for spec in spec_variants(marked):
            for res in solve(series, spec, 4):
                if not res.feasible or res.segmentation is None:
                    continue
                vec = segment_stats(grid, res.segmentation.indices)[0].tolist()
                k = len(vec)
                assert sum(vec) == series.n
                for i in range(1, k - 1):
                    assert not (vec[i] == 0 and (vec[i - 1] == 0 or vec[i + 1] == 0))


def test_reported_contrast_reproduces_through_the_evaluator():
    series = EventSeries(np.array([0.1, 0.35, 0.35, 0.8]))
    spec = ContrastSpec("poisson_gamma", a=1.0, b=0.25)
    grid = build_grid(series)
    for res in solve(series, spec, 4):
        if res.segmentation is None:
            continue
        indices = res.segmentation.indices
        assert contrast(grid, spec, indices) == res.contrast
        assert contrast(series, spec, indices) == res.contrast


def test_cardinalities_match_enumeration():
    for n in range(0, 9):
        for k in range(1, 6):
            plain = list(enumerate_count_vectors(n, k))
            starred = list(enumerate_count_vectors(n, k, starred=True))
            assert len(plain) == upsilon_cardinality(n, k) == math.comb(n + k - 1, k - 1)
            assert len(starred) == upsilon_star_cardinality(n, k)
            assert set(starred) <= set(plain)
            for vec in plain:
                assert len(vec) == k and sum(vec) == n and min(vec) >= 0
            assert len(set(plain)) == len(plain)


def test_cardinality_worked_example():
    # 15 unrestricted count vectors, 2 of which have touching zeros
    assert upsilon_cardinality(4, 3) == 15
    assert upsilon_star_cardinality(4, 3) == 13
    excluded = set(enumerate_count_vectors(4, 3)) - set(
        enumerate_count_vectors(4, 3, starred=True)
    )
    assert excluded == {(0, 0, 4), (4, 0, 0)}


def test_cardinality_empty_series():
    assert upsilon_star_cardinality(0, 1) == 1
    assert upsilon_star_cardinality(0, 2) == 1
    assert upsilon_star_cardinality(0, 3) == 0
    with pytest.raises(ValueError):
        upsilon_cardinality(-1, 2)
    with pytest.raises(ValueError):
        upsilon_star_cardinality(2, 0)


def test_dp_tables_invariants():
    # S[k, j] is the best cost of splitting (tp_j, 1] into k segments
    rng = np.random.default_rng(5)
    series = random_series(rng, n_max=5, marked=True, allow_ties=False)
    spec = ContrastSpec("marked_pgeg", a=1.0, b=0.5)
    cost = build_cost_matrix(series, spec)
    suffix = _suffix_table(cost, 4)
    A = cost.shape[0] - 2
    assert np.array_equal(suffix[1], cost[1:, A + 1])
    assert np.all(np.isposinf(suffix[0]))
    for k in range(2, 5):
        for j in range(A + 1):
            want = np.min(
                [cost[j + 1, l] + suffix[k - 1][l] for l in range(A + 1)]
            )
            assert suffix[k, j] == want



@pytest.mark.parametrize("n", [63, 64, 127, 128])
def test_blocked_tables_equal_the_dense_construction(n):
    # the 2n + 1 cost rows and 2n suffix rows fall just below, on or just
    # above a multiple of the 128-row block
    rng = np.random.default_rng(n)
    times = np.sort(rng.uniform(0.01, 0.99, n))
    marks = rng.exponential(1.0, n)
    tied = times.copy()
    tied[n // 2 + 1] = tied[n // 2]
    for t in (times, tied):
        for marked in (False, True):
            grid = build_grid(EventSeries(t, marks if marked else None))
            for base in spec_variants(marked):
                for forbid_empty in (False, True):
                    spec = replace(base, forbid_empty=forbid_empty)
                    cost = build_cost_matrix(grid, spec)
                    dense = dense_cost_matrix(grid, spec)
                    assert np.array_equal(cost, dense), spec
                    assert np.array_equal(_suffix_table(cost, 12), dense_suffix_table(dense, 12)), spec

def test_infeasible_segment_counts_are_flagged():
    series = EventSeries(np.array([0.5]))
    results = solve(series, UNIT_PG, 6)
    assert [r.feasible for r in results] == [True, True, True, False, False, False]
    assert results[3].contrast is None and results[3].segmentation is None
    assert results[2].segmentation.indices == (1, 2)
    assert np.isfinite(results[2].contrast)
    ref = brute_force(series, UNIT_PG, 5)
    assert not ref.feasible


def test_no_admissible_segmentation_under_ties():
    # two tied events: any three-way split needs an empty zero-length
    # piece, which the zero-length-forbidding cost prices at +inf
    series = EventSeries(np.array([0.3, 0.3]))
    spec = ContrastSpec("poisson")
    res = solve(series, spec, 3)[2]
    assert res.feasible
    assert res.segmentation is None
    assert res.contrast == np.inf
    assert "no admissible segmentation" in res.warnings
    assert TIES_WARNING in res.warnings
    assert np.isfinite(solve(series, spec, 2)[1].contrast)
    ref = brute_force(series, spec, 3)
    assert ref.contrast == np.inf and ref.segmentation is None


def test_forbidding_empty_segments_keeps_solver_exact():
    # every segment of a restricted optimum holds an event, K above n is
    # inadmissible, and the solver still equals the exhaustive search
    rng = np.random.default_rng(31)
    for trial in range(30):
        marked = trial % 2 == 1
        series = random_series(rng, n_max=6, marked=marked)
        for base in spec_variants(marked):
            spec = replace(base, forbid_empty=True)
            kmax = min(4, series.n * 2 + 1)
            grid = build_grid(series)
            for res in solve(series, spec, kmax):
                _assert_same_result(res, brute_force(series, spec, res.k))
                if res.k > series.n:
                    assert res.segmentation is None
                elif res.segmentation is not None:
                    assert segment_stats(grid, res.segmentation.indices)[0].min() >= 1
    series = EventSeries(np.array([0.1, 0.9]))
    spec = replace(UNIT_PG, forbid_empty=True)
    assert segment_cost(spec, 0, 0.5) == np.inf
    assert segment_cost(spec, 1, 0.5) == segment_cost(UNIT_PG, 1, 0.5)
    # the unrestricted optimum at K = 3 isolates the empty middle gap
    free = solve(series, UNIT_PG, 3)[2].segmentation
    assert segment_stats(build_grid(series), free.indices)[0].tolist() == [1, 0, 1]
    assert contrast(series, spec, free.indices) == np.inf


def test_degenerate_optimum_is_returned_with_warning():
    # tied events under the likelihood cost: a zero-length piece holding
    # both events costs +inf, so the optimum is finite and the only
    # warning is the ties one
    series = EventSeries(np.array([0.3, 0.3]))
    spec = ContrastSpec("poisson")
    for res in solve(series, spec, 2):
        _assert_same_result(res, brute_force(series, spec, res.k))
        assert np.isfinite(res.contrast)
        assert res.warnings == (TIES_WARNING,)


def test_ties_warning_on_every_result():
    series = EventSeries(np.array([0.4, 0.4, 0.7]))
    for res in solve(series, UNIT_PG, 3):
        assert TIES_WARNING in res.warnings
    for res in solve(EventSeries(np.array([0.4, 0.7])), UNIT_PG, 2):
        assert TIES_WARNING not in res.warnings


def test_kmax_validation():
    series = EventSeries(np.array([0.5]))
    with pytest.raises(ValueError, match="at least 1"):
        solve(series, UNIT_PG, 0)
    with pytest.raises(ValueError, match="at least 1"):
        brute_force(series, UNIT_PG, 0)


def test_brute_force_refuses_oversized_instances():
    series = EventSeries(np.linspace(0.1, 0.9, 30))
    with pytest.raises(ValueError, match="more than 100 candidates"):
        brute_force(series, UNIT_PG, 3, limit=100)


def test_marked_kinds_need_marked_data():
    series = EventSeries(np.array([0.5]))
    with pytest.raises(ValueError, match="requires marked data"):
        build_cost_matrix(series, ContrastSpec("marked_pgeg"))
    with pytest.raises(ValueError, match="requires marked data"):
        brute_force(series, ContrastSpec("marked_poisson"), 2)


def test_contrast_prices_grid_segments():
    series = EventSeries(np.array([0.5, 0.5]))
    grid = build_grid(series)
    spec = UNIT_PG
    # (0, 0.5] holds both tied events, (0.5, 1] is empty
    assert contrast(grid, spec, (4,)) == (
        segment_cost(spec, 2, 0.5) + segment_cost(spec, 0, 0.5)
    )
    assert contrast(grid, spec, (2,)) == pytest.approx(4.0 * math.log(1.5), rel=1e-13)
    assert contrast(grid, spec, (2, 3)) == np.inf  # empty, zero length
    marked = EventSeries(np.array([0.2, 0.6, 0.9]), np.array([1.0, 0.5, 2.0]))
    mgrid = build_grid(marked)
    mspec = ContrastSpec("marked_pgeg", a=1.0, b=0.5)
    for indices in ((3,), (2, 6), (1, 4)):
        counts, lengths, sums = segment_stats(mgrid, indices)
        pieces = [segment_cost(mspec, c, d, m) for c, d, m in zip(counts, lengths, sums)]
        total = pieces[-1]
        for piece in pieces[-2::-1]:
            total = piece + total
        assert contrast(mgrid, mspec, indices) == total
    with pytest.raises(ValueError, match="strictly increasing interior"):
        contrast(mgrid, mspec, (4, 4))


def test_solve_refuses_series_beyond_physical_memory():
    # the estimate is hundreds of terabytes; the guard fires before any
    # dense table is allocated
    series = EventSeries(np.linspace(0.1, 0.9, 10**6))
    with pytest.raises(ValueError, match=r"n = 1000000 events needs about \d+\.\d GiB"):
        solve(series, UNIT_PG, 2)


@pytest.mark.parametrize("marked", [False, True])
def test_memory_estimate_bounds_the_traced_peak(marked):
    rng = np.random.default_rng(2)
    n, kmax = 300, 12
    times = np.sort(rng.uniform(0.01, 0.99, n))
    series = EventSeries(times, rng.exponential(1.0, n) if marked else None)
    for spec in spec_variants(marked):
        tracemalloc.start()
        try:
            solve(series, spec, kmax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= solve_bytes(n, kmax), (spec.kind, peak)
