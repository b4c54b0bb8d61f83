"""Acceptance gate: ten end-to-end checks at fixed seeds.

Each test prints one PASS line with the measured quantities; a failure
carries the measured values in its assertion message. The benchmark
checks (4 through 8) replay the reference study at desk scale, 20
samples per cell and 100 cross-validation replicates, and take a few
minutes each on one core.
"""

import csv
import io
import time
from math import comb, fsum

import numpy as np
import pytest
from scipy import stats

from ppseg import (
    alternating_intensity,
    brute_force,
    build_grid,
    default_spec,
    enumerate_count_vectors,
    intensity_from_breaks,
    l2_distance,
    simulate_events,
    simulate_marked,
    solve,
    upsilon_cardinality,
    upsilon_star_cardinality,
)
from ppseg.bench import BenchConfig, run_bench
from ppseg.contrasts import ContrastSpec, contrast, segment_cost
from ppseg.selection import thin

from helpers import ACCEPTANCE_LINES, random_series

FOUR_KINDS = (
    ContrastSpec("poisson"),
    ContrastSpec("poisson_gamma", a=1.0, b=1.0),
    ContrastSpec("marked_poisson"),
    ContrastSpec("marked_pgeg", a=1.0, b=1.0, a_rho=2.01, b_rho=1.0),
)


def _report(number, text):
    line = f"PASS criterion {number}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _bench_rows(**kwargs):
    text = run_bench(BenchConfig(**kwargs))
    return list(csv.DictReader(io.StringIO(text)))


def test_criterion_01_solver_matches_exhaustive_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    comparisons = 0
    for trial in range(200):
        marked = trial % 2 == 1
        series = random_series(rng, n_max=6, marked=marked)
        specs = FOUR_KINDS if marked else FOUR_KINDS[:2]
        for spec in specs:
            kmax = min(4, series.n * 2 + 1)
            for res in solve(series, spec, kmax):
                ref = brute_force(series, spec, res.k)
                tag = (series.times.tolist(), spec.kind, res.k)
                assert res.feasible == ref.feasible, tag
                assert (res.contrast is None) == (ref.contrast is None), tag
                if res.contrast is not None:
                    assert res.contrast == ref.contrast, tag
                if res.segmentation is None:
                    assert ref.segmentation is None, tag
                else:
                    assert res.segmentation.indices == ref.segmentation.indices, tag
                comparisons += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"
    _report(1, f"solver equals exhaustive search bit for bit on 200 instances, "
               f"{comparisons} comparisons ({elapsed:.1f} s)")


def test_criterion_02_concavity_and_cell_corner_dominance():
    t0 = time.perf_counter()
    # per-segment costs are concave in the segment length at fixed counts
    lengths = np.linspace(0.01, 2.0, 41)
    for spec in FOUR_KINDS:
        for c in (0, 1, 3, 10):
            s = None
            if spec.requires_marks:
                s = 0.7 * c if c else 0.0
            f = np.asarray(segment_cost(spec, c, lengths, s), dtype=float)
            second = f[:-2] - 2.0 * f[1:-1] + f[2:]
            assert second.max() <= 1e-8, (spec.kind, c, second.max())

    # a change-point moved continuously inside a grid cell never beats
    # the better of the two cell corners
    rng = np.random.default_rng(11)
    checked = 0
    worst = np.inf
    while checked < 100:
        spec = FOUR_KINDS[checked % 4]
        series = random_series(rng, n_max=6, marked=spec.requires_marks,
                               allow_ties=False)
        if series.n == 0:
            continue
        n = series.n
        grid = build_grid(series)
        m = int(rng.integers(0, n + 1))
        lo = grid.values[2 * m] if m > 0 else 0.0
        hi = grid.values[2 * m + 1] if m < n else 1.0
        tau = float(rng.uniform(lo, hi))
        if tau == lo or tau == hi:
            continue
        s_left = s_right = None
        if grid.mark_prefix is not None:
            s_left = float(grid.mark_prefix[m])
            s_right = float(grid.mark_prefix[n] - grid.mark_prefix[m])
        continuous = (float(segment_cost(spec, m, tau, s_left))
                      + float(segment_cost(spec, n - m, 1.0 - tau, s_right)))
        # a corner on the boundary 0 or 2n + 1 leaves a single segment
        corners = [
            contrast(grid, spec, (p,) if 0 < p < grid.last_index else ())
            for p in (2 * m, min(2 * m + 1, grid.last_index))
        ]
        margin = continuous - min(corners)
        assert margin >= -1e-9, (series.times.tolist(), spec.kind, m, tau, margin)
        worst = min(worst, margin)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"
    _report(2, f"cost concavity within 1e-8 and corner dominance on 100 instances, "
               f"worst margin {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_03_count_vector_cardinalities():
    t0 = time.perf_counter()
    for n in range(0, 9):
        for k in range(1, 6):
            plain = list(enumerate_count_vectors(n, k))
            starred = list(enumerate_count_vectors(n, k, starred=True))
            assert len(plain) == upsilon_cardinality(n, k) == comb(n + k - 1, k - 1)
            assert len(starred) == upsilon_star_cardinality(n, k), (n, k)
    assert upsilon_cardinality(4, 3) == 15
    assert upsilon_star_cardinality(4, 3) == 13
    excluded = set(enumerate_count_vectors(4, 3)) - set(
        enumerate_count_vectors(4, 3, starred=True))
    assert excluded == {(0, 0, 4), (4, 0, 0)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"
    _report(3, f"count-vector families agree with closed forms for n <= 8, K <= 5; "
               f"(4, 3) gives 15 and 13 ({elapsed:.2f} s)")


def test_criterion_04_selection_recovers_six_segments():
    t0 = time.perf_counter()
    rows = _bench_rows(preset="k-selection", samples=20, cv_replicates=100,
                       kmax=12, fraction=0.8, seed=0,
                       means=(1000.0,), ratios=(3.0,))
    k_mean = float(rows[0]["k_hat_mean"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"took {elapsed:.0f} s, budget 30 min"
    assert 5.6 <= k_mean <= 6.2, (
        f"mean selected K {k_mean} outside [5.6, 6.2] at mean intensity 1000, "
        f"ratio 3, 20 samples, 100 replicates")
    _report(4, f"mean selected K {k_mean} in [5.6, 6.2] at mean intensity 1000, "
               f"ratio 3 ({elapsed:.0f} s)")


def test_criterion_05_flat_intensity_selects_one_segment():
    t0 = time.perf_counter()
    rows = _bench_rows(preset="k-selection", samples=20, cv_replicates=100,
                       kmax=12, fraction=0.8, seed=0,
                       means=(100.0,), ratios=(1.0,))
    match = float(rows[0]["k_match_rate"])
    elapsed = time.perf_counter() - t0
    assert match >= 0.8, f"K = 1 selected in only {match:.0%} of 20 flat samples"
    _report(5, f"K = 1 selected in {match:.0%} of flat samples ({elapsed:.0f} s)")


def test_criterion_06_marked_scenarios_match_reference_table():
    t0 = time.perf_counter()
    rows = _bench_rows(preset="marked-table", samples=20, cv_replicates=100,
                       kmax=12, fraction=0.8, seed=0)
    k_targets = (1.132, 5.79, 5.41, 5.99)
    d_targets = (0.41, 0.12, 0.11, 0.05)
    k_means = [float(r["k_hat_mean"]) for r in rows]
    d_means = [float(r["d_mean"]) for r in rows]
    elapsed = time.perf_counter() - t0
    for i, (row, kt, dt) in enumerate(zip(rows, k_targets, d_targets)):
        label = (f"scenario {i + 1} (ratio {row['ratio']}, marks "
                 f"{row['rho_odd']}/{row['rho_even']})")
        assert abs(k_means[i] - kt) <= 0.6, (
            f"{label}: mean K {k_means[i]} vs target {kt} (band 0.6)")
        assert abs(d_means[i] - dt) <= 0.07, (
            f"{label}: mean d {d_means[i]} vs target {dt} (band 0.07)")
    _report(6, f"marked scenarios: mean K {[round(v, 2) for v in k_means]} within "
               f"0.6 of {k_targets}, mean d {[round(v, 3) for v in d_means]} within "
               f"0.07 of {d_targets} ({elapsed:.0f} s)")


def test_criterion_07_hausdorff_error_shrinks_with_contrast():
    t0 = time.perf_counter()
    rows = _bench_rows(preset="hausdorff-l2", samples=20, cv_replicates=100,
                       kmax=12, fraction=0.8, seed=0,
                       means=(100.0,), ratios=(2.0, 4.0, 8.0, 16.0))
    d = [float(r["d_mean"]) for r in rows]
    se = [float(r["d_se"]) for r in rows]
    elapsed = time.perf_counter() - t0
    for i in range(3):
        pooled = (se[i] ** 2 + se[i + 1] ** 2) ** 0.5
        assert d[i + 1] <= d[i] + pooled, (
            f"mean d rose from {d[i]} (ratio {rows[i]['ratio']}) to {d[i + 1]} "
            f"(ratio {rows[i + 1]['ratio']}), beyond one pooled stderr {pooled:.3f}")
    assert 0.02 <= d[2] <= 0.15, f"mean d at ratio 8 is {d[2]}, outside [0.02, 0.15]"
    _report(7, f"mean d {[round(v, 3) for v in d]} non-increasing over ratios "
               f"2, 4, 8, 16; value at ratio 8 in [0.02, 0.15] ({elapsed:.0f} s)")


def test_criterion_08_selection_robust_to_prior_and_fraction():
    t0 = time.perf_counter()
    cells = []
    rows = _bench_rows(preset="robust-a", samples=20, cv_replicates=100,
                       kmax=12, fraction=0.8, seed=0)
    cells += [(f"prior shape a={r['prior_shape']}", float(r["k_hat_mean"])) for r in rows]
    rows = _bench_rows(preset="robust-f", samples=20, cv_replicates=100,
                       kmax=12, seed=0)
    cells += [(f"learning fraction f={r['fraction']}", float(r["k_hat_mean"])) for r in rows]
    elapsed = time.perf_counter() - t0
    for label, k_mean in cells:
        print(f"  {label}: mean selected K {k_mean}")
    offenders = [f"{label} gives {k_mean}" for label, k_mean in cells
                 if not 5.0 <= k_mean <= 7.0]
    assert not offenders, (
        "mean selected K outside [5, 7] for: " + "; ".join(offenders) + ". "
        "All cells: " + "; ".join(f"{label} gives {k_mean}" for label, k_mean in cells)
        + ". The selected K drifts with the prior shape or the learning "
        "fraction; the cross-validation rules that prevent this are described "
        "in src/ppseg/selection.py and README.md.")
    _report(8, f"mean selected K within [5, 7] across prior shapes and learning "
               f"fractions ({elapsed:.0f} s)")


def test_criterion_09_thinning_and_simulation_laws():
    t0 = time.perf_counter()

    # thinned subset counts follow the thinned Poisson law
    flat = intensity_from_breaks([0.0, 1.0], [200.0])
    sim_ss, thin_ss = np.random.SeedSequence(0).spawn(2)
    sim_seeds = sim_ss.spawn(500)
    thin_seeds = thin_ss.spawn(500)
    learn_counts = np.empty(500)
    test_counts = np.empty(500)
    for i in range(500):
        series = simulate_events(flat, seed=sim_seeds[i])
        learn, test = thin(series, 0.8, np.random.default_rng(thin_seeds[i]))
        learn_counts[i] = learn.n
        test_counts[i] = test.n

    def poisson_chi2(counts, mu, min_expected=8.0):
        lo = int(stats.poisson.ppf(1e-6, mu))
        hi = int(stats.poisson.ppf(1 - 1e-6, mu))
        acc, start, bins = 0.0, lo, []
        for k in range(lo, hi + 1):
            acc += stats.poisson.pmf(k, mu) * len(counts)
            if acc >= min_expected:
                bins.append((start, k, acc))
                acc, start = 0.0, k + 1
        s, e, a = bins[-1]
        bins[-1] = (s, hi, a + acc)
        obs = np.array([((counts >= s) & (counts <= e)).sum() for s, e, _ in bins],
                       dtype=float)
        obs[0] += (counts < bins[0][0]).sum()
        obs[-1] += (counts > bins[-1][1]).sum()
        exp = np.array([a for _, _, a in bins])
        exp *= obs.sum() / exp.sum()
        stat = float(((obs - exp) ** 2 / exp).sum())
        return float(stats.chi2.sf(stat, len(bins) - 1))

    p_learn = poisson_chi2(learn_counts, 160.0)
    p_test = poisson_chi2(test_counts, 40.0)
    assert p_learn > 0.001, f"learning-count chi-square p = {p_learn}"
    assert p_test > 0.001, f"test-count chi-square p = {p_test}"

    # simulator per-segment counts and mark sums match their moments
    design = alternating_intensity(120.0, 4.0, 0.1, 0.005)
    reps = 400
    bp = np.asarray(design.breakpoints)
    counts = np.zeros((reps, 6))
    mark_sums = np.zeros((reps, 6))
    for i, seed in enumerate(np.random.SeedSequence(1).spawn(reps)):
        sample = simulate_marked(design, seed=seed)
        seg = np.clip(np.searchsorted(bp, sample.times, side="left") - 1, 0, 5)
        for j in range(6):
            sel = seg == j
            counts[i, j] = sel.sum()
            mark_sums[i, j] = sample.marks[sel].sum()
    mus = np.asarray(design.rates) * np.diff(bp)
    rhos = np.asarray(design.mark_rates)
    z_crit = stats.norm.isf(0.0005)  # two-sided 0.001
    z_counts = (counts.mean(axis=0) - mus) / np.sqrt(mus / reps)
    # mark sums are compound Poisson with exponential summands
    z_marks = (mark_sums.mean(axis=0) - mus / rhos) / np.sqrt(2.0 * mus / rhos**2 / reps)
    assert np.abs(z_counts).max() <= z_crit, f"count z scores {z_counts}"
    assert np.abs(z_marks).max() <= z_crit, f"mark-sum z scores {z_marks}"

    # closed-form l2 equals dense Simpson quadrature of the cumulatives
    def cumulative_direct(intensity, x):
        b = np.asarray(intensity.breakpoints)
        return fsum(r * max(0.0, min(x, hi) - lo)
                    for r, lo, hi in zip(intensity.rates, b[:-1], b[1:]))

    rng = np.random.default_rng(3)

    def random_intensity():
        k = int(rng.integers(1, 7))
        cuts = np.sort(rng.uniform(0.05, 0.95, k - 1))
        return intensity_from_breaks(np.concatenate([[0.0], cuts, [1.0]]),
                                     rng.uniform(0.2, 12.0, k))

    worst = 0.0
    for _ in range(50):
        f, g = random_intensity(), random_intensity()
        exact = l2_distance(f, g, 1.0)
        merged = np.union1d(np.asarray(f.breakpoints), np.asarray(g.breakpoints))
        pieces = []
        for lo, hi in zip(merged[:-1], merged[1:]):
            xs = np.linspace(lo, hi, 21)
            q = np.array([(cumulative_direct(f, x) - cumulative_direct(g, x)) ** 2
                          for x in xs])
            h = (hi - lo) / 10
            pieces.append(h / 6.0 * fsum((q[0:-1:2] + 4.0 * q[1::2] + q[2::2]).tolist()))
        worst = max(worst, abs(exact - fsum(pieces)))
    assert worst <= 1e-9, f"l2 vs quadrature differs by {worst}"

    elapsed = time.perf_counter() - t0
    _report(9, f"thinning chi-square p {p_learn:.3f}/{p_test:.3f}, simulator "
               f"moments within the 0.001 band, l2 vs quadrature within "
               f"{worst:.1e} ({elapsed:.0f} s)")


def test_criterion_10_determinism_and_solver_speed():
    texts = [
        run_bench(BenchConfig(preset="hausdorff-l2", samples=3, cv_replicates=12,
                              kmax=8, seed=0, threads=threads,
                              means=(40.0,), ratios=(2.0, 4.0)))
        for threads in (1, 2, 4)
    ]
    assert texts[0] == texts[1] == texts[2], "bench output depends on thread count"

    series = simulate_events(alternating_intensity(2000.0, 3.0), seed=123)
    spec = default_spec(series)
    t0 = time.perf_counter()
    results = solve(series, spec, 12)
    elapsed = time.perf_counter() - t0
    assert all(r.feasible for r in results)
    assert elapsed < 5.0, f"solve at n = {series.n} took {elapsed:.2f} s, budget 5 s"
    _report(10, f"bench output byte-identical across 1, 2 and 4 threads; solve at "
                f"n = {series.n}, Kmax = 12 in {elapsed:.2f} s")
