"""Cost families, their edge conventions and hyper-parameter handling.

Reference values were computed independently at 50-digit precision and
are asserted at 1e-13 relative tolerance, which leaves a couple of ulps
of slack for the library's different evaluation order.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppseg import (
    ContrastSpec,
    EventSeries,
    build_grid,
    contrast,
    default_spec,
    segment_cost,
    segmentation_from_indices,
)
from ppseg.contrasts import (
    KINDS,
    MARKED_KINDS,
    log_ratio,
    mle_rate,
    poisson_gamma_cost,
    posterior_mean_rate,
)
from ppseg.dp import _count_tables
from ppseg.special import gammaln

from helpers import marked_loglik, naive_cost, poisson_loglik, spec_variants

INF = float("inf")
POISSON = ContrastSpec("poisson")
MARKED_POISSON = ContrastSpec("marked_poisson")


def pgeg(a, b, a_rho, b_rho):
    return ContrastSpec("marked_pgeg", a=a, b=b, a_rho=a_rho, b_rho=b_rho)


FROZEN = [
    (lambda: segment_cost(POISSON, 3, 0.5), -2.375278407684165),
    (lambda: segment_cost(POISSON, 7, 1.0), -6.621371043387193),
    (lambda: poisson_gamma_cost(0, 0.5, 1, 1), 0.4054651081081644),
    (lambda: poisson_gamma_cost(5, 0.3, 2, 0.7), -5.865901324132636),
    (lambda: poisson_gamma_cost(1, 0, 1, 0.01), -4.605170185988092),
    (lambda: segment_cost(MARKED_POISSON, 4, 0.5, 2.0), -3.090354888959125),
    (lambda: segment_cost(MARKED_POISSON, 2, 0.5, 4.0), 2.613705638880109),
    (lambda: segment_cost(pgeg(1, 1, 2.01, 1.0), 2, 0.3, 1.4), 1.804500448799898),
    (lambda: segment_cost(pgeg(1, 0.5, 2.5, 2.0), 0, 0.25, 0.0), 0.4054651081081644),
]

# high-precision loggamma reference, spot values across eight decades
GAMMALN_TABLE = (
    (0.001, 6.907178885383853),
    (0.01, 4.599479878042022),
    (0.1, 2.252712651734206),
    (0.5, 0.5723649429247001),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (2.01, 0.004260022907098438),
    (3.0, 0.6931471805599453),
    (4.5, 2.4537365708424423),
    (10.0, 12.801827480081469),
    (25.0, 54.78472939811232),
    (100.5, 361.4355404677776),
    (1000.0, 5905.220423209181),
    (5000.0, 37582.62631568535),
    (10000.5, 82104.32265412837),
    (100000.0, 1051287.7089736569),
    (1000000.0, 12815504.569147611),
    (3000000.5, 41742369.45883567),
    (10000000.0, 151180949.3694739),
)


@pytest.mark.parametrize("compute,expected", FROZEN)
def test_frozen_cost_values(compute, expected):
    got = compute()
    assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_gammaln_against_reference_table():
    for x, expected in GAMMALN_TABLE:
        assert gammaln(x) == pytest.approx(expected, rel=1e-13, abs=1e-15)


def _assert_scipy_bits(x):
    """The port's scalar and array paths give scipy.special.gammaln's bits at x."""
    scipy_special = pytest.importorskip("scipy.special")
    x = np.asarray(x, dtype=np.float64)
    want = scipy_special.gammaln(x).view(np.int64)
    got = gammaln(x)
    assert got.shape == x.shape
    bad = got.view(np.int64) != want
    assert not bad.any(), x[bad][:5].tolist()
    scalars = np.array([gammaln(v) for v in x.ravel().tolist()]).reshape(x.shape)
    bad = scalars.view(np.int64) != want
    assert not bad.any(), x[bad][:5].tolist()


# where the routine changes branch or loop count, and the extremes
BRANCH_EDGES = (*map(float, range(15)), 1000.0, 1e8, 2.556348e305, 5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308,
                -1.0, -0.5, -33.5, -34.0, -35.0, -100.25)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gammaln_keeps_scipy_bits_at_branch_edges():
    # 1 - 2**-53 divides once, since fl(x + 1) = 2, though it lies below 1
    near = [-0.0, math.inf, -math.inf, math.nan]
    for edge in BRANCH_EDGES:
        down = up = edge
        for _ in range(16):
            down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
            near += [down, up]
    _assert_scipy_bits(np.array([*BRANCH_EDGES, *near]))
    _assert_scipy_bits(np.array(BRANCH_EDGES).reshape(-1, 1))
    assert 1.0 - 2.0**-53 in near


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shift", [1.0, 2.01, 0.1, 10.0])
def test_gammaln_keeps_scipy_bits_on_the_count_tables(shift):
    # the tables of grids of 300 and 3,000 events, capacities 512 and
    # 4,096: lgamma(c + shift) on every entry, padding included
    scipy_special = pytest.importorskip("scipy.special")
    _count_tables.cache_clear()
    for n, cap in ((300, 512), (3000, 4096)):
        assert 1 << n.bit_length() == cap
        ca, lg = _count_tables(cap, shift)
        assert ca.size == lg.size == 4 * cap
        assert np.array_equal(lg.view(np.int64), scipy_special.gammaln(ca).view(np.int64))


def test_count_memo_is_whole_under_threads():
    # run_bench's threads share the count-table cache. Twelve shifts at
    # three capacities overflow its eight entries, so tables are evicted
    # and built again throughout, and each reader must get whole tables.
    _count_tables.cache_clear()
    shifts = [1.0 + 0.25 * i for i in range(12)]
    caps = (64, 512, 2048)
    want = {(cap, shift): gammaln(np.arange(cap) + shift) for cap in caps for shift in shifts}

    def reader(seed):
        rng = np.random.default_rng(seed)
        for i, j in zip(rng.integers(0, 12, 150).tolist(), rng.integers(0, 3, 150).tolist()):
            cap, shift = caps[j], shifts[i]
            ca, lg = _count_tables(cap, shift)
            assert ca.size == lg.size == 4 * cap
            assert np.array_equal(ca[2 * cap::2], np.arange(cap) + shift)
            assert np.array_equal(lg[2 * cap::2].view(np.int64), want[cap, shift].view(np.int64))
            assert np.all(lg[:2 * cap] == want[cap, shift][0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(reader, seed) for seed in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert _count_tables.cache_info().currsize == 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.floats(min_value=0.0, max_value=1.8e308, exclude_min=True)
                | st.floats(max_value=1e-300, min_value=0.0, allow_subnormal=True)
                | st.floats(), min_size=1, max_size=40))
def test_gammaln_keeps_scipy_bits_on_any_float(xs):
    _assert_scipy_bits(np.array(xs))


def test_poisson_cost_edges():
    assert segment_cost(POISSON, 0, 0.7) == 0.0
    # an empty zero-length segment is excluded, as for every kind
    assert segment_cost(POISSON, 0, 0.0) == INF
    assert segment_cost(POISSON, 2, 0.0) == INF


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("forbid_empty", [False, True])
def test_empty_zero_length_segment_costs_inf(kind, forbid_empty):
    spec = ContrastSpec(kind, a=0.8, b=0.4, a_rho=2.5, b_rho=1.5, forbid_empty=forbid_empty)
    marks = spec.requires_marks
    assert segment_cost(spec, 0, 0.0, 0.0 if marks else None) == INF
    counts, lengths = np.array([0, 0, 1, 0]), np.array([0.0, 0.5, 0.0, 0.0])
    sums = np.array([0.0, 0.0, 1.0, 0.0]) if marks else None
    got = segment_cost(spec, counts, lengths, sums)
    assert got[0] == got[3] == INF
    # only forbid_empty prices a positive-length empty segment at +inf
    assert (got[1] == INF) == forbid_empty
    # one event on zero length: unbounded likelihood, finite marginal cost
    assert (got[2] == INF) == (kind not in ("poisson_gamma", "marked_pgeg"))


def test_poisson_gamma_cost_edges():
    # an empty zero-length segment costs exactly the prior constant, 0
    assert poisson_gamma_cost(0, 0.0, 2.0, 0.5) == 0.0
    # unit prior, single event on a zero-length segment: exact zero too
    assert poisson_gamma_cost(1, 0.0, 1.0, 1.0) == 0.0
    for c in (0, 1, 5):
        for d in (0.0, 1e-12, 0.5):
            assert np.isfinite(poisson_gamma_cost(c, d, 1.0, 0.25))


def test_marked_cost_edges():
    assert segment_cost(MARKED_POISSON, 0, 0.5, 0.0) == 0.0
    assert segment_cost(MARKED_POISSON, 3, 0.0, 1.0) == INF
    assert segment_cost(MARKED_POISSON, 3, 0.5, 0.0) == INF
    # with no events the mark factor drops out entirely
    assert segment_cost(pgeg(1.0, 0.5, 2.5, 2.0), 0, 0.4, 0.0) == pytest.approx(
        poisson_gamma_cost(0, 0.4, 1.0, 0.5), rel=1e-13
    )


@pytest.mark.parametrize("kind", KINDS)
def test_costs_are_never_minus_infinity(kind):
    spec = ContrastSpec(kind, a=0.8, b=0.4, a_rho=2.5, b_rho=1.5)
    for c in (0, 1, 5):
        for d in (0.0, 5e-324, 1e-308, 0.5):
            for s in (0.0, 5e-324, 1.0):
                got = segment_cost(spec, c, d, s if spec.requires_marks else None)
                assert not (math.isnan(got) or got == -INF), (c, d, s, got)
                got = segment_cost(spec, np.array([c]), np.array([d]),
                                   np.array([s]) if spec.requires_marks else None)
                assert not (np.isnan(got[0]) or got[0] == -INF), (c, d, s, got)


def test_overflowing_ratio_takes_the_difference_of_logs():
    # count / length overflows to inf although the length is positive
    assert segment_cost(POISSON, 3, 1e-308) == pytest.approx(
        3.0 * (1.0 - (math.log(3.0) - math.log(1e-308))), rel=1e-13
    )
    assert segment_cost(MARKED_POISSON, 1, 0.5, 5e-324) == pytest.approx(
        2.0 - math.log(2.0) - (math.log(1.0) - math.log(5e-324)), rel=1e-13
    )
    assert segment_cost(MARKED_POISSON, 2, 5e-324, 5e-324) == pytest.approx(
        2.0 * (2.0 - 2.0 * (math.log(2.0) - math.log(5e-324))), rel=1e-13
    )
    # a quotient just short of overflow keeps the plain log
    assert segment_cost(POISSON, 1, 1e-300) == 1.0 - np.log(1.0 / 1e-300)


def test_log_ratio_in_place_equals_a_fresh_array():
    # out may be x itself: the logs of the x whose quotient overflows are
    # taken before the quotient overwrites them
    c = np.array([0.0, 1.0, 2.0, 3.0, 1.0, 2.0])
    x = np.array([0.5, 5e-324, 1e-308, 0.0, 1e-300, 0.25])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = log_ratio(c, x)
        got = log_ratio(c, x, out=x)
    assert got is x
    assert np.array_equal(got, want)
    assert want[1] == pytest.approx(-math.log(5e-324), rel=1e-15)
    assert want[2] == pytest.approx(math.log(2.0) - math.log(1e-308), rel=1e-15)
    assert want[0] == -INF and want[3] == INF


def test_vectorized_costs_match_scalar_reference():
    rng = np.random.default_rng(42)
    counts = rng.integers(0, 6, size=40).astype(np.float64)
    lengths = np.where(rng.random(40) < 0.2, 0.0, rng.uniform(0.01, 1.0, 40))
    sums = np.where(counts == 0, 0.0, rng.uniform(0.1, 5.0, 40))
    for spec in spec_variants(marked=True):
        got = segment_cost(spec, counts, lengths, sums if spec.requires_marks else None)
        for i in range(counts.size):
            want = naive_cost(spec, counts[i], lengths[i],
                              sums[i] if spec.requires_marks else None)
            if math.isinf(want):
                assert got[i] == want
            else:
                assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@given(count=st.integers(min_value=0, max_value=50))
def test_costs_are_concave_in_length(kind, count):
    spec = ContrastSpec(kind, a=0.8, b=0.4, a_rho=2.5, b_rho=1.5)
    lengths = np.linspace(0.01, 2.0, 41)
    mark_sum = 3.7 if spec.requires_marks else None
    vals = segment_cost(spec, np.full(41, float(count)), lengths,
                        None if mark_sum is None else np.full(41, mark_sum))
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.all(second <= 1e-8)


@given(
    c1=st.integers(min_value=0, max_value=30),
    c2=st.integers(min_value=0, max_value=30),
    d1=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    d2=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
)
def test_poisson_cost_never_rewards_merging(c1, c2, d1, d2):
    # log-sum inequality: one segment never beats its own refinement
    merged = segment_cost(POISSON, c1 + c2, d1 + d2)
    split = segment_cost(POISSON, c1, d1) + segment_cost(POISSON, c2, d2)
    assert merged >= split - 1e-9


def test_posterior_means_approach_mles():
    assert posterior_mean_rate(6, 0.5, 1e-12, 1e-12) == pytest.approx(12.0, rel=1e-9)
    assert posterior_mean_rate(4, 8.0, 2.0 + 1e-12, 2e-12) == pytest.approx(
        (4 + 2.0) / 8.0, rel=1e-9
    )
    assert posterior_mean_rate(3, 0.4, 1.0, 0.5) == pytest.approx(4.0 / 0.9, rel=1e-15)


def test_mle_rate_conventions():
    assert mle_rate(4, 0.5) == 8.0
    assert mle_rate(0, 0.0) == 0.0
    assert mle_rate(2, 0.0) == INF
    assert mle_rate(3, 6.0) == 0.5


def test_negated_contrast_equals_loglik_at_mles():
    series = EventSeries(np.array([0.25, 0.6, 0.8]))
    grid = build_grid(series)
    seg = segmentation_from_indices(grid, (3,))
    value = contrast(grid, ContrastSpec("poisson"), seg.indices)
    counts = np.array([1.0, 2.0])
    lengths = np.array([0.6, 0.4])
    assert -value == pytest.approx(
        poisson_loglik(counts, lengths, mle_rate(counts, lengths)), rel=1e-12
    )

    marked = EventSeries(np.array([0.3, 0.6]), np.array([1.5, 2.5]))
    mgrid = build_grid(marked)
    mseg = segmentation_from_indices(mgrid, (3,))
    mvalue = contrast(mgrid, ContrastSpec("marked_poisson"), mseg.indices)
    mcounts = np.array([1.0, 1.0])
    mlengths = np.array([0.6, 0.4])
    msums = np.array([1.5, 2.5])
    assert -mvalue == pytest.approx(
        marked_loglik(mcounts, mlengths, msums,
                      mle_rate(mcounts, mlengths), mle_rate(mcounts, msums)),
        rel=1e-12,
    )


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown contrast kind"):
        ContrastSpec("gaussian")
    with pytest.raises(ValueError, match="must be positive"):
        ContrastSpec("poisson_gamma", a=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        ContrastSpec("marked_pgeg", b=-1.0)
    with pytest.raises(ValueError, match="a_rho must exceed 2"):
        ContrastSpec("marked_pgeg", a_rho=2.0)
    with pytest.raises(ValueError, match="b_rho must be positive"):
        ContrastSpec("marked_pgeg", b_rho=0.0)


NON_FINITE_PRIORS = [
    ("poisson_gamma", {"a": math.inf}, "a = inf"),
    ("poisson_gamma", {"a": 1e308}, "a = 1e+308"),
    ("poisson_gamma", {"b": math.inf}, "b = inf"),
    ("poisson_gamma", {"a": 1e-310}, "a = 1e-310"),
    ("marked_pgeg", {"a": math.inf}, "a = inf"),
    ("marked_pgeg", {"a_rho": math.inf}, "a_rho = inf"),
    ("marked_pgeg", {"b_rho": math.inf}, "b_rho = inf"),
    ("marked_pgeg", {"a_rho": 1e308}, "a_rho = 1e+308"),
]


@pytest.mark.parametrize("kind, params, named", NON_FINITE_PRIORS,
                         ids=[f"{k}-{n.replace(' ', '')}" for k, _, n in NON_FINITE_PRIORS])
def test_spec_rejects_a_non_finite_prior_constant(kind, params, named):
    # these used to give NaN costs, and solve then failed with the
    # misleading "change-points must be interior grid positions"
    with pytest.raises(ValueError, match="non-finite prior constant") as err:
        ContrastSpec(kind, **params)
    assert named in str(err.value)


def test_spec_keeps_extreme_but_finite_priors():
    for a, b in ((1e-300, 1e-300), (1e300, 1e300), (1e-300, 1e300)):
        ContrastSpec("poisson_gamma", a=a, b=b)
        ContrastSpec("marked_pgeg", a=a, b=b, a_rho=max(a, 2.01), b_rho=b)


def test_spec_zero_length_defaults():
    # the likelihood kinds forbid zero-length segments holding events,
    # the marginal kinds keep them finite
    assert segment_cost(ContrastSpec("poisson"), 2, 0.0) == INF
    assert segment_cost(ContrastSpec("marked_poisson"), 2, 0.0, 1.0) == INF
    assert np.isfinite(segment_cost(ContrastSpec("poisson_gamma"), 2, 0.0))
    assert np.isfinite(segment_cost(ContrastSpec("marked_pgeg"), 2, 0.0, 1.0))
    assert ContrastSpec("marked_pgeg").requires_marks
    assert not ContrastSpec("poisson_gamma").requires_marks
    assert set(MARKED_KINDS) < set(KINDS)


def test_segment_cost_requires_marks_for_marked_kinds():
    with pytest.raises(ValueError, match="requires marked data"):
        segment_cost(ContrastSpec("marked_pgeg"), 2, 0.5)


def test_default_spec_rules():
    plain = EventSeries(np.array([0.2, 0.4, 0.6, 0.8]))
    spec = default_spec(plain)
    assert spec.kind == "poisson_gamma"
    assert spec.b == 0.25
    assert default_spec(plain, a=2.5).b == 0.625

    marked = EventSeries(np.array([0.3, 0.7]), np.array([2.0, 4.0]))
    mspec = default_spec(marked)
    assert mspec.kind == "marked_pgeg"
    assert mspec.a_rho == 2.01
    assert mspec.b_rho == pytest.approx(3.0 * 1.01, rel=1e-14)
    # marked data may still be scored by an unmarked kind
    assert default_spec(marked, kind="poisson").kind == "poisson"

    with pytest.raises(ValueError, match="requires marked data"):
        default_spec(plain, kind="marked_pgeg")
    with pytest.raises(ValueError, match="empty series"):
        default_spec(EventSeries(np.array([])))


def test_contrast_requires_marks_for_marked_kind():
    series = EventSeries(np.array([0.5]))
    grid = build_grid(series)
    seg = segmentation_from_indices(grid, (1,))
    with pytest.raises(ValueError, match="requires marked data"):
        contrast(grid, ContrastSpec("marked_poisson"), seg.indices)
