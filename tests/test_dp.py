"""Exact solver: worked examples, oracle equivalence, table invariants.

The solver and the exhaustive search are independent routes to the same
optimum; their agreement is asserted bit for bit, never within a
tolerance, because both accumulate costs in the same order.
"""

import dataclasses
import math
import os
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
    default_spec,
    enumerate_count_vectors,
    segment_cost,
    segment_stats,
    solve,
    upsilon_cardinality,
    upsilon_star_cardinality,
)
from ppseg import dp
from ppseg.contrasts import KINDS
from ppseg.dp import (
    TIES_WARNING,
    _cost_rows,
    _reconstruct,
    _sweep,
    build_cost_matrix,
    solve_bytes,
)
from ppseg.simulate import alternating_intensity, simulate_marked
from ppseg.special import gammaln

from helpers import (
    dense_cost_matrix,
    dense_suffix_table,
    naive_contrast,
    random_series,
    reconstruct_one,
    spec_variants,
)

UNIT_PG = ContrastSpec("poisson_gamma", a=1.0, b=1.0)


def test_cost_matrix_single_event_worked_example():
    # one event at 0.5 under the unit Gamma prior; cost[i, j] prices (tp_i, tp_j],
    # with column 0, left of every row, put back at +inf
    idx = np.arange(4)
    cost = build_cost_matrix(build_grid(EventSeries(np.array([0.5]))), UNIT_PG, range(3))
    cost = np.hstack((np.full((3, 1), np.inf), cost))
    assert cost.shape == (3, 4)
    # (0, 0.5^-]: no event over length one half
    assert cost[0, 1] == pytest.approx(0.4054651081081644, rel=1e-13)  # log 1.5
    # (0.5^-, 0.5]: the event on a zero-length slice
    assert cost[1, 2] == 0.0
    # (0, 0.5]: one event over length one half
    assert cost[0, 2] == pytest.approx(2.0 * math.log(1.5), rel=1e-13)
    # (0, 1]: one event over the whole interval
    assert cost[0, 3] == pytest.approx(2.0 * math.log(2.0), rel=1e-13)
    assert np.all(np.isposinf(cost[idx[:3, None] >= idx[None, :]]))
    assert np.all(np.isfinite(cost[idx[:3, None] < idx[None, :]]))


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


@st.composite
def _tied_marked_series(draw):
    # up to 14 events, drawn from three values often enough to tie
    times = sorted(draw(st.lists(st.sampled_from([0.2, 0.5, 0.7]) | st.floats(0.01, 0.99),
                                 min_size=1, max_size=14)))
    marks = draw(st.lists(st.floats(0.01, 10.0), min_size=len(times), max_size=len(times)))
    return times, marks


@given(data=_tied_marked_series(), spec=st.sampled_from(TIE_SPECS), forbid_empty=st.booleans(),
       kmax=st.integers(1, 12))
@example(data=(TIED_TIMES, TIED_MARKS), spec=ContrastSpec("marked_pgeg", a=1.0, b=0.5),
         forbid_empty=False, kmax=6)
def test_all_k_reconstruction_equals_one_k_at_a_time(data, spec, forbid_empty, kmax):
    grid = build_grid(EventSeries(np.array(data[0]), np.array(data[1])))
    spec = replace(spec, forbid_empty=forbid_empty)
    suffix, keep = _sweep(grid, spec, kmax)
    cost = dense_cost_matrix(grid, spec)
    ks = [k for k in range(1, min(kmax, grid.size + 1) + 1) if suffix[k, 0] < np.inf]
    assert _reconstruct(grid, spec, keep, suffix, ks) == {
        k: tuple(reconstruct_one(cost, suffix, k)) for k in ks}


def test_all_k_reconstruction_across_the_row_block():
    # 2n + 1 = 601 cost rows, too many to fit the kept bytes: none is
    # kept, so the reconstruction prices every candidate row again
    rng = np.random.default_rng(4)
    times = np.sort(np.concatenate([rng.uniform(0.01, 0.5, 100), rng.uniform(0.7, 0.99, 200)]))
    times[41] = times[40]
    grid = build_grid(EventSeries(times, rng.exponential(1.0, 300)))
    for kind in KINDS:
        for forbid_empty in (False, True):
            spec = ContrastSpec(kind, forbid_empty=forbid_empty)
            suffix, keep = _sweep(grid, spec, 12)
            cost = dense_cost_matrix(grid, spec)
            ks = [k for k in range(1, 13) if suffix[k, 0] < np.inf]
            assert len(ks) == 12
            cuts = _reconstruct(grid, spec, keep, suffix, ks)
            assert cuts == {k: tuple(reconstruct_one(cost, suffix, k)) for k in ks}, spec
            assert keep.shape == (0, grid.size + 1), spec


def test_segmentation_is_built_on_first_read_from_the_indices():
    series = EventSeries(np.array([0.2, 0.5, 0.5, 0.8]))
    results = solve(series, UNIT_PG, 12)
    for res in results:
        if res.indices is None:
            assert res.segmentation is None
            continue
        seg = res.segmentation
        assert seg is res.segmentation  # cached
        assert seg.indices == res.indices
        assert seg.values == tuple(float(series.times[(p - 1) // 2]) for p in res.indices)
    ref = brute_force(series, UNIT_PG, 3)
    assert ref.indices == results[2].indices == ref.segmentation.indices
    # a segmentation passed in is kept, and replace() keeps a built one
    other = results[1].segmentation
    assert dataclasses.replace(results[2], segmentation=other).segmentation is other
    assert dataclasses.replace(results[2], contrast=0.0).segmentation is results[2].segmentation


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
    grid = build_grid(random_series(rng, n_max=5, marked=True, allow_ties=False))
    spec = ContrastSpec("marked_pgeg", a=1.0, b=0.5)
    A = grid.size
    cost = build_cost_matrix(grid, spec, range(A + 1))
    cost = np.hstack((np.full((A + 1, 1), np.inf), cost))  # cost[i, j] prices (tp_i, tp_j]
    suffix, keep = _sweep(grid, spec, 4)
    assert np.array_equal(keep, cost[:, :A + 1])
    assert np.array_equal(suffix[1], cost[:, A + 1])
    assert np.all(np.isposinf(suffix[0]))
    for k in range(2, 5):
        # S[4], the top row, is filled at row 0 only
        for j in range(A + 1 if k < 4 else 1):
            want = np.min(
                [cost[j, l] + suffix[k - 1][l] for l in range(A + 1)]
            )
            assert suffix[k, j] == want
    assert np.all(np.isposinf(suffix[4, 1:]))


@pytest.mark.parametrize("n", [63, 64, 127, 128, 255, 256])
def test_blocked_tables_equal_the_dense_construction(n):
    # up to n = 255 the grid keeps its 2n + 1 cost rows, priced in one
    # call; n = 256 keeps none of its 513 and sweeps 32-row blocks, the
    # top one of row 2n alone; n = 63, 64, 127, 128 fell just below or
    # above a multiple of such a block when kept grids were priced in
    # blocks too
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
                    suffix, keep = _sweep(grid, spec, 12)
                    dense = dense_cost_matrix(grid, spec)
                    assert keep.shape == (2 * n + 1 if n <= 255 else 0, 2 * n + 1)
                    assert np.array_equal(keep, dense[1:keep.shape[0] + 1, :-1]), spec
                    # S[1 .. 11] on every row, and the top row S[12] at row 0 only
                    want = dense_suffix_table(dense, 12)
                    assert np.array_equal(suffix[:12], want[:12]), spec
                    assert suffix[12, 0] == want[12, 0], spec
                    assert np.all(np.isposinf(suffix[12, 1:])), spec


@pytest.mark.parametrize("n", [1, 2, 3])
def test_folded_layers_equal_the_dense_construction(n):
    # a kept grid sweeps S[2 .. kmax - 1] over its upper triangle folded
    # into n rows of 2n + 3 entries: row i, then row 2n - 1 - i reversed,
    # each with its segment to 1, which the reduceat takes as runs of 2 to
    # 7 entries here, and which the priced rows hold up to their diagonal
    # until the layers are done; at kmax 2 no layer is folded
    rng = np.random.default_rng(40 + n)
    times = np.sort(rng.uniform(0.01, 0.99, n))
    marks = rng.exponential(1.0, n)
    tied = np.full(n, times[0])
    for t in (times, tied)[:1 if n == 1 else 2]:
        for marked in (False, True):
            grid = build_grid(EventSeries(t, marks if marked else None))
            for base in spec_variants(marked):
                for forbid_empty in (False, True):
                    spec = replace(base, forbid_empty=forbid_empty)
                    dense = dense_cost_matrix(grid, spec)
                    want = dense_suffix_table(dense, 12).view(np.int64)
                    for kmax in (2, 3, 12):
                        suffix, keep = _sweep(grid, spec, kmax)
                        assert np.array_equal(keep.view(np.int64), dense[1:, :-1].view(np.int64))
                        got = suffix.view(np.int64)
                        assert np.array_equal(got[:kmax], want[:kmax]), spec
                        assert got[kmax, 0] == want[kmax, 0], spec
                        assert np.all(np.isposinf(suffix[kmax, 1:])), spec


@pytest.mark.parametrize("kind", KINDS)
def test_rows_priced_again_equal_the_block_built_rows(kind):
    # one row at a time, all 511 rows at once (both a row pair at a time)
    # and the sweep's one call over every row read different windows of
    # the count tables and take their logs on arrays of different sizes;
    # at n = 255 the sweep keeps every row, so each row priced again meets
    # its block-built one
    rng = np.random.default_rng(9)
    n = 255
    times = np.sort(rng.uniform(0.01, 0.99, n))
    grid = build_grid(EventSeries(times, rng.exponential(1.0, n)))
    spec = ContrastSpec(kind, a=0.5, b=2.0, a_rho=3.0, b_rho=0.5)
    rows = np.arange(grid.size + 1)
    _, keep = _sweep(grid, spec, 2)
    one_by_one = np.vstack([_cost_rows(grid, spec, rows[i:i + 1]) for i in rows])
    together = _cost_rows(grid, spec, rows)
    assert np.array_equal(one_by_one, together)
    assert len(keep) == grid.size + 1 == 511
    assert np.array_equal(together, keep)
    assert np.array_equal(together, dense_cost_matrix(grid, spec)[1:, :-1])
    # rows in any order and with repeats equal the kept rows on tied and
    # untied data, with and without forbid_empty, at Kmax 2 and 12
    rng = np.random.default_rng(31)
    n = 100
    times = np.sort(rng.uniform(0.01, 0.99, n))
    tied = times.copy()
    tied[40:43] = tied[40]
    marks = rng.exponential(1.0, n)
    rows = np.array([200, 0, 7, 7, 64, 199, 1, 136])
    for t in (times, tied):
        grid = build_grid(EventSeries(t, marks))
        for forbid_empty in (False, True):
            spec = replace(default_spec(grid.events, kind), forbid_empty=forbid_empty)
            for kmax in (2, 12):
                _, keep = _sweep(grid, spec, kmax)
                assert np.array_equal(_cost_rows(grid, spec, rows), keep[rows]), (spec, kmax)


def _assert_block_is_dense(grid, spec, rows, work=None):
    # the rows of a run on every column right of its first row
    got = build_cost_matrix(grid, spec, rows, work)
    want = dense_cost_matrix(grid, spec)[rows.start + 1:rows.stop + 1, rows.start + 1:]
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (spec, rows)


def _assert_rows_are_dense(grid, spec, rows):
    # rows in any order and with repeats, as the reconstruction passes them
    rows = np.asarray(rows, dtype=np.intp)
    got = _cost_rows(grid, spec, rows)
    assert np.array_equal(got, dense_cost_matrix(grid, spec)[rows + 1, :-1]), (spec, rows)


def _pricer_cases():
    rng = np.random.default_rng(13)
    for n, tied in ((1, False), (2, True), (9, True), (40, False), (40, True)):
        times = np.sort(rng.uniform(0.01, 0.99, n))
        if tied:
            times[n // 2 - 1:n // 2 + 1] = times[n // 2 - 1]
        yield EventSeries(times, rng.exponential(1.0, n))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("forbid_empty", [False, True])
def test_pricer_blocks_equal_the_dense_matrix(kind, forbid_empty):
    # runs from both parities, so blocks whose first row is the "at"
    # half of a before/at pair, up to and including row 2n alone; n = 1
    # and tied times; and rows in any order and with repeats, priced
    # again as row pairs
    spec = ContrastSpec(kind, a=0.5, b=2.0, a_rho=3.0, b_rho=0.5, forbid_empty=forbid_empty)
    for series in _pricer_cases():
        grid = build_grid(series)
        last = grid.last_index
        _assert_block_is_dense(grid, spec, range(last))
        for lo in {0, 1, 2, 3, last // 2, last - 2, last - 1} & set(range(last)):
            _assert_block_is_dense(grid, spec, range(lo, min(lo + 5, last)))
            _assert_block_is_dense(grid, spec, range(lo, last))
        _assert_rows_are_dense(grid, spec, [min(r, last - 1) for r in
                                            (last - 1, 0, 3, 3, last // 2, 1, 2, last - 1)])


@given(data=_tied_marked_series(), spec=st.sampled_from(TIE_SPECS), forbid_empty=st.booleans(),
       rows=st.lists(st.integers(0, 28), min_size=1, max_size=8))
def test_pricer_contract_on_drawn_blocks(data, spec, forbid_empty, rows):
    # the run from the first drawn row to the largest, and the drawn rows
    # priced again
    grid = build_grid(EventSeries(np.array(data[0]), np.array(data[1])))
    spec = replace(spec, forbid_empty=forbid_empty)
    rows = [min(r, grid.size) for r in rows]
    _assert_block_is_dense(grid, spec, range(rows[0], max(rows) + 1))
    _assert_rows_are_dense(grid, spec, rows)


@st.composite
def _priced_runs(draw):
    # up to 40 events, drawn often enough from three values to tie, with
    # or without marks, and a run of rows
    times = sorted(draw(st.lists(st.sampled_from([0.2, 0.5, 0.7]) | st.floats(0.01, 0.99),
                                 min_size=1, max_size=40)))
    marks = draw(st.none() | st.lists(st.floats(0.01, 10.0), min_size=len(times),
                                      max_size=len(times)))
    size = 2 * len(times) + 1  # rows 0 .. 2n
    lo = draw(st.integers(0, size - 1))
    hi = draw(st.integers(lo + 1, size))
    return times, marks, lo, hi


@given(run=_priced_runs(), spec=st.sampled_from(TIE_SPECS), forbid_empty=st.booleans())
@example(run=([0.1, 0.3, 0.3, 0.6, 0.9], [1.0, 2.0, 0.5, 3.0, 1.0], 3, 11),
         spec=ContrastSpec("marked_pgeg", a=1.0, b=0.5), forbid_empty=False)
@example(run=([0.2, 0.5, 0.5, 0.7], None, 2, 9),
         spec=ContrastSpec("poisson_gamma", a=0.5, b=2.0), forbid_empty=True)
# a subnormal first mark: 1 / 5e-324 overflows, so the pricer takes
# log c - log s for the segments holding event 0 alone, in its mark rows
@example(run=([0.2, 0.5, 0.7], [5e-324, 1.0, 2.0], 0, 7),
         spec=ContrastSpec("marked_poisson"), forbid_empty=False)
def test_view_priced_runs_equal_the_dense_matrix(run, spec, forbid_empty):
    # a run of rows from an even or an odd row, up to an odd-length last
    # block ending at row 2n, priced from views into a work area full of
    # nan equals the same rows of the dense matrix, bit for bit; so do the
    # cost rows the sweep keeps
    times, marks, lo, hi = run
    if spec.requires_marks and marks is None:
        marks = [1.0] * len(times)
    grid = build_grid(EventSeries(np.array(times), None if marks is None else np.array(marks)))
    spec = replace(spec, forbid_empty=forbid_empty)
    work = np.full(dp._work_entries(hi - lo, grid.size + 1), np.nan)
    _assert_block_is_dense(grid, spec, range(lo, hi), work)
    _, keep = _sweep(grid, spec, 12)
    want = dense_cost_matrix(grid, spec)[1:, :-1]
    assert np.array_equal(keep.view(np.int64), want.view(np.int64))


def test_kmax_one_prices_one_row(monkeypatch):
    # S[1] is read at row 0 only: the whole series as one segment, the
    # last of the 2n + 1 entries of row 0
    priced = []

    def counting(grid, spec, rows, work=None):
        prices = build_cost_matrix(grid, spec, rows, work)
        priced.append(prices.size)
        return prices

    monkeypatch.setattr(dp, "build_cost_matrix", counting)
    rng = np.random.default_rng(17)
    for trial in range(12):
        marked = trial % 2 == 1
        series = random_series(rng, n_max=6, marked=marked)
        for base in spec_variants(marked):
            for forbid_empty in (False, True):
                spec = replace(base, forbid_empty=forbid_empty)
                priced.clear()
                (res,) = solve(series, spec, 1)
                assert priced == [2 * series.n + 1]
                _assert_same_result(res, brute_force(series, spec, 1))
                assert res.contrast == solve(series, spec, 3)[0].contrast
    series = EventSeries(np.sort(rng.uniform(0.01, 0.99, 1500)))
    priced.clear()
    assert solve(series, UNIT_PG, 1)[0].indices == ()
    assert priced == [3001]


def test_a_kept_grid_is_priced_in_one_call(monkeypatch):
    # at Kmax 12 a grid that keeps its cost rows is priced in one call over
    # rows 0 .. 2n, and its reconstruction prices nothing again; at
    # n = 256 the sweep prices 17 blocks of 32 rows from the top, the
    # first of them row 512 alone
    priced = []

    def counting(grid, spec, rows, work=None):
        priced.append(rows)
        return build_cost_matrix(grid, spec, rows, work)

    monkeypatch.setattr(dp, "build_cost_matrix", counting)
    rng = np.random.default_rng(23)
    for n in (100, 255):
        priced.clear()
        solve(EventSeries(np.sort(rng.uniform(0.01, 0.99, n))), UNIT_PG, 12)
        assert priced == [range(2 * n + 1)], n
    priced.clear()
    _sweep(build_grid(EventSeries(np.sort(rng.uniform(0.01, 0.99, 256)))), UNIT_PG, 12)
    assert priced == [range(lo, min(lo + 32, 513)) for lo in range(512, -1, -32)]


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



def test_no_admissible_segmentation_without_ties():
    # under forbid_empty every segment must hold one of the three events,
    # so K = 4 to 7 are feasible on the 7-position grid but admit none
    series = EventSeries(np.array([0.2, 0.5, 0.8]))
    assert not series.has_ties
    for kind in ("poisson", "poisson_gamma"):
        spec = replace(default_spec(series, kind), forbid_empty=True)
        results = solve(series, spec, 7)
        for res in results[:3]:
            assert np.isfinite(res.contrast) and res.warnings == ()
        for res in results[3:]:
            assert res.feasible and res.indices is None and res.contrast == np.inf
            assert res.warnings == ("no admissible segmentation",)
            ref = brute_force(series, spec, res.k)
            assert ref.contrast == np.inf and ref.indices is None


def test_solve_sweeps_no_layer_past_the_grid(monkeypatch):
    # three events give a 7-position grid and so at most K = 7: at kmax 40
    # the sweep stops at layer 7, K = 1 to 7 equal a solve at kmax 7, and
    # K = 8 to 40 are infeasible
    sweep, swept = dp._sweep, []

    def counting(grid, spec, kmax):
        swept.append(kmax)
        return sweep(grid, spec, kmax)

    monkeypatch.setattr(dp, "_sweep", counting)
    series = EventSeries(np.array([0.2, 0.5, 0.8]))
    for spec in (UNIT_PG, replace(UNIT_PG, forbid_empty=True)):
        many, few = solve(series, spec, 40), solve(series, spec, 7)
        assert swept == [7, 7]
        swept.clear()
        fields = [(r.k, r.feasible, r.indices, r.contrast, r.warnings) for r in many]
        assert fields[:7] == [(r.k, r.feasible, r.indices, r.contrast, r.warnings) for r in few]
        assert fields[7:] == [(k, False, None, None, ()) for k in range(8, 41)]


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
        solve(series, ContrastSpec("marked_pgeg"), 2)
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


def test_solve_refuses_series_beyond_physical_memory(monkeypatch):
    # the estimate is about 3.0 GiB, more than the 64 MiB this host is
    # made to report; the guard fires before any table is allocated
    pages = {"SC_PHYS_PAGES": 2**14, "SC_PAGE_SIZE": 2**12}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    series = EventSeries(np.linspace(0.1, 0.9, 10**6))
    with pytest.raises(ValueError, match=r"n = 1000000 events needs about \d+\.\d GiB"):
        solve(series, UNIT_PG, 2)


@pytest.mark.parametrize("marked", [False, True])
def test_memory_estimate_bounds_the_traced_peak(marked):
    # n = 255 is the largest grid that keeps its cost rows and folds its
    # upper triangle for the layer sweep; at n = 300 and n = 1100 the grid
    # keeps no cost row; at n = 1100 each block is priced across 2,201
    # columns, wider than any grid of the benchmark, and the traced peak
    # must stay below the estimate
    rng = np.random.default_rng(2)
    kmax = 12
    for n in (255, 300, 1100):
        times = np.sort(rng.uniform(0.01, 0.99, n))
        series = EventSeries(times, rng.exponential(1.0, n) if marked else None)
        for spec in spec_variants(marked):
            tracemalloc.start()
            try:
                solve(series, spec, kmax)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= solve_bytes(n, kmax), (n, spec.kind, peak)


def test_solve_sizes_its_tables_by_the_feasible_layers(monkeypatch):
    # 20 events sweep at most 41 layers whatever kmax is; on a host made to
    # report 64 MiB, kmax = 10^5 solves, as its tables hold 41 layers and its
    # results about 18 MiB, and the results of kmax = 10^6 are refused, by
    # name, before any table is allocated
    pages = {"SC_PHYS_PAGES": 2**14, "SC_PAGE_SIZE": 2**12}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    series = EventSeries(np.linspace(0.1, 0.9, 20))
    results = solve(series, UNIT_PG, 10**5)
    assert len(results) == 10**5
    assert results[40].feasible and not results[41].feasible
    with pytest.raises(ValueError, match=r"^solve up to kmax = 1000000 needs about 0\.2 GiB "
                                         r"for its 1000000 results"):
        solve(series, UNIT_PG, 10**6)


def test_likelihood_kinds_peak_near_the_marginal_kinds():
    # n = 255 is the largest grid priced whole in one call; both families
    # price it in place in the work area, so on the same series each
    # likelihood kind's traced solve peak stays within 15% of its marginal
    # counterpart's
    rng = np.random.default_rng(2)
    n = 255
    series = EventSeries(np.sort(rng.uniform(0.01, 0.99, n)), rng.exponential(1.0, n))
    peaks = {}
    for kind in KINDS:
        tracemalloc.start()
        try:
            solve(series, ContrastSpec(kind, a=1.0, b=0.5), 12)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["poisson"] <= 1.15 * peaks["poisson_gamma"], peaks
    assert peaks["marked_poisson"] <= 1.15 * peaks["marked_pgeg"], peaks


@pytest.mark.parametrize("seed", range(4))
def test_time_reversal_mirrors_the_optimum(seed):
    # t -> 1 - t keeps every K's optimal contrast and mirrors its
    # change-points, "at m" <-> "before n + 1 - m", i.e. index p <-> 2n + 1 - p.
    # At n = 300 to 600 the grid keeps no cost row. Segments are
    # left-open, so a tie between two optima can resolve differently in the
    # mirror; then the mirrored vector must price within the tolerance.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 601))
    times = np.sort(rng.uniform(0.0, 1.0, n))
    forward, mirror = EventSeries(times), EventSeries(np.sort(1.0 - times))
    assert not forward.has_ties and not mirror.has_ties
    grid = build_grid(forward)
    eps = np.finfo(float).eps
    mirrored = ties = 0
    for spec in (ContrastSpec("poisson"), ContrastSpec("poisson_gamma", a=1.0, b=0.5)):
        for res, rev in zip(solve(forward, spec, 12), solve(mirror, spec, 12)):
            counts, lengths, _ = segment_stats(grid, res.indices)
            tol = 4 * res.k * eps * float(np.sum(np.abs(segment_cost(spec, counts, lengths))))
            assert abs(res.contrast - rev.contrast) <= tol, (spec.kind, res.k)
            flipped = tuple(sorted(2 * n + 1 - p for p in rev.indices))
            if flipped == res.indices:
                mirrored += 1
            else:
                assert abs(contrast(grid, spec, flipped) - res.contrast) <= tol, (spec.kind, res.k)
                ties += 1
    assert mirrored >= 3 * ties


@pytest.mark.parametrize("seed", range(4))
def test_mark_scale_shifts_every_contrast_by_n_log_c(seed):
    # Marks x 1024 scale b_rho = mean mark x (a_rho - 1) exactly, so under
    # default_spec each segment's cost moves by its count x log 1024 and
    # every K keeps its change-points. At n = 430 to 490 the grid keeps no
    # cost row, so the reconstruction prices every row it reads again. The
    # logs of the scaled sums round differently: contrasts agree within
    # 4 ulps per segment of the summed magnitudes of the formula's terms,
    # and a draw whose optimum ties within that tolerance may move.
    series = simulate_marked(alternating_intensity(450.0, 3.0, 0.1, 0.005), seed=seed)
    scaled = EventSeries(series.times, series.marks * 1024.0)
    base, scaled_base = default_spec(series), default_spec(scaled)
    assert scaled_base.b_rho == 1024.0 * base.b_rho
    grid = build_grid(series)
    shift = series.n * math.log(1024.0)
    eps = np.finfo(float).eps
    assert len(_sweep(grid, base, 2)[1]) == 0
    same = moved = 0
    for forbid_empty in (False, True):
        spec = replace(base, forbid_empty=forbid_empty)
        scaled_spec = replace(scaled_base, forbid_empty=forbid_empty)
        for res, big in zip(solve(grid, spec, 12), solve(scaled, scaled_spec, 12)):
            c, d, s = segment_stats(grid, res.indices)
            terms = ((c + spec.a) * np.abs(np.log(d + spec.b)) + gammaln(c + spec.a)
                     + (c + spec.a_rho) * np.abs(np.log(1024.0 * s + scaled_spec.b_rho))
                     + gammaln(c + spec.a_rho))
            tol = 4 * res.k * eps * float(np.sum(terms))
            assert abs(big.contrast - shift - res.contrast) <= tol, (forbid_empty, res.k)
            if big.indices == res.indices:
                same += 1
            else:
                assert abs(contrast(grid, spec, big.indices) - res.contrast) <= tol
                moved += 1
    assert same >= 3 * moved


@pytest.mark.parametrize("kind, tables", [("poisson_gamma", 1), ("marked_pgeg", 2)])
def test_one_solve_builds_each_count_table_once(monkeypatch, kind, tables):
    # the sweep prices 19 blocks of the 601 rows, yet c + a and
    # lgamma(c + a) come from one table per prior shift, cached for the
    # grid's capacity 512, the power of two above n: lgamma is evaluated
    # once per shift, over 512 counts, for this grid and every other grid
    # of that capacity
    evaluated, priced = [], []

    def counting_gammaln(x):
        evaluated.append(x.size)
        return gammaln(x)

    def counting_pricer(grid, spec, rows, work=None):
        priced.append(len(rows))
        return build_cost_matrix(grid, spec, rows, work)

    dp._count_tables.cache_clear()
    monkeypatch.setattr(dp, "gammaln", counting_gammaln)
    monkeypatch.setattr(dp, "build_cost_matrix", counting_pricer)
    rng = np.random.default_rng(21)
    n = 300
    series = EventSeries(np.sort(rng.uniform(0.01, 0.99, n)), rng.exponential(1.0, n))
    grid = build_grid(series)
    spec = replace(default_spec(series, kind), forbid_empty=True)
    solve(grid, spec, 12)
    assert len(priced) >= 19
    assert evaluated == [512] * tables
    evaluated.clear()
    solve(grid, spec, 12)
    assert evaluated == []
    # grids of 256 and 511 events share the capacity and evaluate
    # nothing; 100 and 512 events take capacities 128 and 1,024
    for m, built in ((256, []), (511, []), (100, [128] * tables), (512, [1024] * tables)):
        other = EventSeries(np.sort(rng.uniform(0.01, 0.99, m)), rng.exponential(1.0, m))
        solve(other, replace(spec, forbid_empty=False), 2)
        assert evaluated == built, m
        evaluated.clear()


@pytest.mark.parametrize("kind", ["poisson", "marked_poisson"])
def test_likelihood_solves_evaluate_no_lgamma(monkeypatch, kind):
    # the likelihood kinds read the unshifted count table alone, in the
    # sweep and in the rows the reconstruction prices again, as the grid
    # keeps none, so the cache holds that one table after the solve
    def refuse(x):
        raise AssertionError(f"lgamma over {x.size} counts")

    dp._count_tables.cache_clear()
    monkeypatch.setattr(dp, "gammaln", refuse)
    rng = np.random.default_rng(23)
    n = 300
    series = EventSeries(np.sort(rng.uniform(0.01, 0.99, n)), rng.exponential(1.0, n))
    grid = build_grid(series)
    assert len(_sweep(grid, ContrastSpec(kind), 2)[1]) == 0
    solve(grid, ContrastSpec(kind), 12)
    dp._count_tables(512, None)  # a hit: the one table is the unshifted one of capacity 512
    info = dp._count_tables.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
