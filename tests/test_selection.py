"""Thinning-based cross-validation and the full fit pipeline."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given

from ppseg import (
    KINDS,
    ContrastSpec,
    CvConfig,
    CvCurve,
    EventSeries,
    brute_force,
    cross_validate,
    default_spec,
    fit,
    intensity_from_breaks,
    parse_result,
    refit,
    render_result,
    solve,
)
from ppseg import bench
from ppseg.bench import BenchConfig
from ppseg.cli import _make_document, main
from ppseg.contrasts import MARKED_KINDS
from ppseg.dp import TIES_WARNING
from ppseg.selection import _run_sums, _test_pieces, thin
from ppseg.simulate import alternating_intensity, simulate_events, simulate_marked

from helpers import edge_events, per_k_cross_validate


def test_config_validation():
    with pytest.raises(ValueError, match="between 0 and 1"):
        CvConfig(fraction=1.0)
    with pytest.raises(ValueError, match="between 0 and 1"):
        CvConfig(fraction=0.0)
    with pytest.raises(ValueError, match="at least one replicate"):
        CvConfig(replicates=0)
    with pytest.raises(ValueError, match="kmax"):
        CvConfig(kmax=0)
    with pytest.raises(ValueError, match="prior_shape"):
        CvConfig(prior_shape=0.0)


def test_config_rejects_non_integer_counts():
    with pytest.raises(ValueError, match="replicates must be an integer"):
        CvConfig(replicates=2.5)
    with pytest.raises(ValueError, match="kmax must be an integer"):
        CvConfig(kmax=3.0)
    with pytest.raises(ValueError, match="replicates must be an integer"):
        CvConfig(replicates=True)
    assert CvConfig(replicates=np.int64(3), kmax=np.int32(2)).replicates == 3


_PG = ContrastSpec("poisson_gamma")
_TWO = EventSeries(np.array([0.3, 0.6]))


@pytest.mark.parametrize("name, call", [
    ("kmax", lambda: solve(_TWO, _PG, 2.5)),
    ("kmax", lambda: solve(_TWO, _PG, True)),
    ("k", lambda: brute_force(_TWO, _PG, 2.5)),
    ("k", lambda: brute_force(_TWO, _PG, True)),
    ("k", lambda: refit(_TWO, _PG, 3, 2.0)),
    ("kmax", lambda: refit(_TWO, _PG, 3.0, 2)),
    ("kmax", lambda: CvConfig(kmax=np.float64(3.0))),
    ("samples", lambda: BenchConfig(preset="marked-table", samples=2.5)),
    ("samples", lambda: BenchConfig(preset="marked-table", samples=True)),
    ("threads", lambda: BenchConfig(preset="marked-table", samples=2, threads=1.5)),
    ("cv_replicates", lambda: BenchConfig(preset="marked-table", cv_replicates="3")),
    ("kmax", lambda: BenchConfig(preset="marked-table", kmax=12.0)),
], ids=["solve-float", "solve-bool", "brute-float", "brute-bool", "refit-k", "refit-kmax",
        "cv-numpy-float", "bench-samples-float", "bench-samples-bool", "bench-threads",
        "bench-replicates", "bench-kmax"])
def test_integer_arguments_reject_other_types(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("changes, message", [
    ({"samples": 0}, "samples must be at least 1"),
    ({"cv_replicates": 0}, "cv_replicates must be at least 1"),
    ({"kmax": 0}, "kmax must be at least 1"),
    ({"threads": 0}, "threads must be at least 1"),
    ({"fraction": 1.0}, "fraction must lie strictly between 0 and 1"),
    ({"fraction": 0.0}, "fraction must lie strictly between 0 and 1"),
    ({"fraction": np.nan}, "fraction must lie strictly between 0 and 1"),
])
def test_bench_config_validates_at_construction(changes, message):
    with pytest.raises(ValueError, match=message):
        BenchConfig(preset="marked-table", **changes)
    assert BenchConfig(preset="marked-table", samples=np.int64(2), threads=2).samples == 2


@pytest.mark.parametrize("preset, field, value, message", [
    ("marked-table", "ratios", (2.0,), "does not use ratios"),
    ("marked-table", "means", (50.0, 400.0), "takes one value of means, got 2"),
    ("robust-a", "means", (50.0, 400.0), "takes one value of means, got 2"),
    ("robust-a", "ratios", (2.0, 16.0), "takes one value of ratios, got 2"),
    ("robust-f", "means", (50.0, 400.0), "takes one value of means, got 2"),
    ("robust-f", "ratios", (2.0, 16.0), "takes one value of ratios, got 2"),
    ("robust-f", "fraction", 0.5, "does not use fraction"),
])
def test_bench_config_refuses_overrides_its_preset_would_drop(preset, field, value, message):
    with pytest.raises(ValueError, match=f"^preset {preset} {message}$"):
        BenchConfig(preset=preset, **{field: value})


def test_bench_config_takes_the_overrides_its_preset_reads():
    for preset in ("marked-table", "robust-a", "robust-f"):
        assert BenchConfig(preset=preset, means=(50.0,)).means == (50.0,)
    for preset in ("robust-a", "robust-f"):
        assert BenchConfig(preset=preset, ratios=(2.0,)).ratios == (2.0,)
    for preset in ("k-selection", "hausdorff-l2"):
        assert BenchConfig(preset=preset, means=(50.0, 400.0), ratios=(2.0, 16.0)).means


@pytest.mark.parametrize("field", ["means", "ratios"])
def test_bench_refuses_a_bad_grid_value_before_any_fit(field, monkeypatch):
    # the bad value sits in the last cell; no earlier cell may be fitted first
    def fit(*args):
        raise AssertionError("a cell was fitted before the bad value was refused")

    monkeypatch.setattr(bench, "fit", fit)
    grid = {"means": (100.0, np.inf), "ratios": (3.0, np.inf)}
    cfg = BenchConfig(preset="k-selection", samples=1, cv_replicates=2, kmax=2,
                      **{field: grid[field]})
    name = {"means": "mean_rate", "ratios": "ratio"}[field]
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        bench.run_bench(cfg)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_config_rejects_non_finite_fraction_and_shape(value):
    with pytest.raises(ValueError, match="fraction"):
        CvConfig(fraction=value)
    with pytest.raises(ValueError, match="prior_shape must be finite"):
        CvConfig(prior_shape=value)


def test_fit_rejects_a_prior_shape_whose_prior_constant_overflows():
    # the costs used to be NaN and the error blamed the change-points
    data = EventSeries(np.array([0.3, 0.6]))
    with pytest.raises(ValueError, match="non-finite prior constant"):
        fit(data, CvConfig(replicates=5, kmax=2, prior_shape=1e308))


def test_thin_partitions_the_series():
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0.01, 0.99, 500))
    marks = rng.exponential(2.0, 500)
    data = EventSeries(times, marks, window=(0.0, 2.0))
    learn, test = thin(data, 0.8, np.random.default_rng(1))
    assert learn.n + test.n == data.n
    assert learn.window == test.window == (0.0, 2.0)
    merged = np.sort(np.concatenate((learn.times, test.times)))
    assert np.array_equal(merged, times)
    # marks stay attached to their event times
    by_time = dict(zip(times.tolist(), marks.tolist()))
    for part in (learn, test):
        for t, m in zip(part.times.tolist(), part.marks.tolist()):
            assert by_time[t] == m
    # keep probability 0.8 over 500 events: crude binomial band
    assert 330 <= learn.n <= 460


def test_thin_is_seed_deterministic():
    data = EventSeries(np.sort(np.random.default_rng(4).uniform(0.01, 0.99, 100)))
    a_learn, a_test = thin(data, 0.5, np.random.default_rng(7))
    b_learn, b_test = thin(data, 0.5, np.random.default_rng(7))
    assert np.array_equal(a_learn.times, b_learn.times)
    assert np.array_equal(a_test.times, b_test.times)
    with pytest.raises(ValueError, match="between 0 and 1"):
        thin(data, 1.0, np.random.default_rng(0))


def test_best_k_takes_the_smallest_minimizer():
    curve = CvCurve(ks=(1, 2, 3), means=(5.0, 4.0, 4.0), stderrs=(0.0, 0.0, 0.0),
                    counts=(10, 10, 10), replicates=10)
    assert curve.best_k() == 2


def test_best_k_skips_rarely_defined_candidates():
    curve = CvCurve(ks=(1, 2, 3), means=(5.0, 3.0, 4.0), stderrs=(0.0, 0.0, 0.0),
                    counts=(10, 4, 10), replicates=10)
    # K = 2 is scored in 4 of 10 replicates, under the 0.5 share
    assert curve.best_k() == 3


def test_best_k_ignores_undefined_and_may_fail():
    curve = CvCurve(ks=(1, 2), means=(float("nan"), 2.0), stderrs=(0.0, 0.0),
                    counts=(0, 10), replicates=10)
    assert curve.best_k() == 2
    empty = CvCurve(ks=(1,), means=(float("nan"),), stderrs=(0.0,),
                    counts=(0,), replicates=10)
    with pytest.raises(ValueError, match="no candidate K"):
        empty.best_k()


def test_best_k_skips_an_infinite_mean(tmp_path, capsys):
    # a +inf mean carries no information about K, like a nan one
    curve = CvCurve(ks=(1, 2, 3), means=(math.inf, 4.0, 3.0), stderrs=(math.nan, 0.0, 0.0),
                    counts=(10, 10, 4), replicates=10)
    assert curve.best_k() == 2
    only_inf = CvCurve(ks=(1, 2), means=(math.inf, 0.5), stderrs=(math.nan, 0.0),
                       counts=(3, 1), replicates=3)
    with pytest.raises(ValueError, match="no candidate K"):
        only_inf.best_k()
    # marks 309 decades apart: K = 1 is scored in all 3 replicates with a
    # +inf mean, and K = 2 in 1, under the half MIN_DEFINED_FRACTION asks
    events = tmp_path / "events.csv"
    events.write_text("time,mark\n1e-300,1.447411717787145e+295\n1e-300,8.051494939362949e-14\n")
    argv = ["segment", str(events), "--window", "0", "1", "--replicates", "3", "-o", "-"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no candidate K was defined in enough replicates" in captured.err


def test_grouped_run_sums_equal_per_slice_sums():
    # runs of lengths 0 to 40 in shuffled order, over values spanning many
    # decades and both signs, where the order of the adds shows in the bits
    rng = np.random.default_rng(8)
    lengths = rng.permutation(np.repeat(np.arange(41), 25))
    values = rng.standard_normal(lengths.sum()) * 10.0 ** rng.integers(-8, 9, lengths.sum())
    ends = np.cumsum(lengths)
    want = [float(np.sum(values[a:b])) for a, b in zip([0, *ends[:-1]], ends)]
    got = _run_sums(values, ends)
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert all(type(v) is float for v in got)


def test_cross_validate_is_seed_deterministic():
    data = simulate_events(intensity_from_breaks([0.0, 1.0], [60.0]), seed=5)
    a = cross_validate(data, CvConfig(replicates=10, kmax=5, seed=9))
    b = cross_validate(data, CvConfig(replicates=10, kmax=5, seed=9))
    c = cross_validate(data, CvConfig(replicates=10, kmax=5, seed=10))
    assert a.means == b.means and a.stderrs == b.stderrs and a.counts == b.counts
    assert a.means != c.means
    assert a.ks == (1, 2, 3, 4, 5)


def test_cross_validate_needs_events():
    with pytest.raises(ValueError, match="at least one event"):
        cross_validate(EventSeries(np.array([])), CvConfig(replicates=2, kmax=2))


def test_cross_validate_reports_dropped_replicates():
    tiny = EventSeries(np.array([0.4]))
    curve = cross_validate(tiny, CvConfig(fraction=0.5, replicates=30, kmax=2, seed=0))
    # a single learning event admits no two-segment fit without an
    # empty segment, so K = 2 is never scored
    assert curve.counts == (15, 0)
    assert curve.warnings == ("15 replicate(s) dropped: empty learning set",)
    assert curve.replicates == 30


def _cv_oracle_cases():
    design = alternating_intensity(60.0, 4.0, 0.1, 0.005)
    marked = simulate_marked(design, seed=3)
    tied = EventSeries(np.round(marked.times, 2), marked.marks)
    return {"unmarked": simulate_events(alternating_intensity(60.0, 4.0), seed=3),
            "marked": marked, "tied": tied}


@pytest.mark.parametrize("case", ["unmarked", "marked", "tied"])
def test_cross_validate_equals_the_per_k_oracle(case):
    # every K of a replicate is scored in one pass; each K's score must
    # keep the bits of scoring it alone
    data = _cv_oracle_cases()[case]
    cfg = CvConfig(replicates=20, kmax=12, seed=4)
    curve = cross_validate(data, cfg)
    means, stderrs, counts, zero_length = per_k_cross_validate(data, cfg)
    assert curve.means == means
    assert curve.stderrs == stderrs
    assert curve.counts == counts
    if case == "tied":
        assert data.has_ties
        assert zero_length > 0  # the skip of zero-length segments was exercised


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cross_validate_stderr_survives_scores_beyond_1e154():
    # marks 300 decades apart give K = 1 scores near 1e300, whose
    # squared deviations overflow
    data = EventSeries([1e-300, 1e-300], [1.0, 1e-300])
    curve = cross_validate(data, CvConfig(replicates=3, kmax=4))
    assert curve.counts[0] == 3
    assert curve.means[0] > 1e299
    assert 0.0 < curve.stderrs[0] < math.inf

def test_cross_validate_flags_ties():
    data = EventSeries(np.array([0.3, 0.3, 0.8]))
    curve = cross_validate(data, CvConfig(replicates=5, kmax=2, seed=0))
    assert TIES_WARNING in curve.warnings


def test_test_score_is_the_length_share_predictive():
    # a segment of length L updates Gamma(a L, b L) by its learning count,
    # and the test rate is ratio times the learning rate
    spec = ContrastSpec("poisson_gamma", a=2.0, b=0.5)
    counts, lengths, test = np.array([3, 1]), np.array([0.25, 0.75]), np.array([1, 2])
    ratio = 0.25
    want = 0.0
    for c, d, t in zip(counts.tolist(), lengths.tolist(), test.tolist()):
        shape, rate = 2.0 * d + c, d * 1.5 / ratio
        want += ((t + shape) * math.log(d + rate) - math.lgamma(t + shape)
                 + math.lgamma(shape) - shape * math.log(rate))
    pieces = _test_pieces(spec.a, spec.b, ratio, counts, lengths, test)
    assert float(np.sum(pieces)) == pytest.approx(want, rel=1e-12)
    # a zero-length segment holds no test event and gets no piece
    padded = _test_pieces(spec.a, spec.b, ratio, np.array([3, 1, 2]), np.array([0.25, 0.75, 0.0]),
                          np.array([1, 2, 0]))
    assert np.array_equal(padded, pieces)


def test_selected_k_does_not_drift_with_the_prior_shape():
    # eight draws of the six-segment design at mean 100 and ratio 8; with
    # empty learning segments allowed and the test scored by posterior-mean
    # rates, the mean selected K on these draws went from 3.5 at a = 0.1
    # to 7.5 at a = 10
    design = alternating_intensity(100.0, 8.0)
    draws = [simulate_events(design, seed=s) for s in range(8)]
    means = {}
    for a in (0.1, 1.0, 10.0):
        ks = [fit(d, CvConfig(replicates=40, seed=s, prior_shape=a)).k_hat
              for s, d in enumerate(draws)]
        means[a] = float(np.mean(ks))
    assert max(means.values()) - min(means.values()) <= 1.5, means


def test_fit_constant_rate_selects_one_segment():
    data = simulate_events(intensity_from_breaks([0.0, 1.0], [60.0]), seed=5)
    assert data.n == 60
    result = fit(data, CvConfig(replicates=40, kmax=8, seed=0))
    assert result.k_hat == 1
    assert result.indices == ()
    assert result.change_point_values == ()
    # posterior mean with a = 1, b = 1/n over the whole interval
    assert result.rates == ((data.n + 1.0) / (1.0 + 1.0 / data.n),)
    assert result.mark_rates is None
    assert sorted(result.contrast_by_k) == list(range(1, 9))
    assert result.contrast == result.contrast_by_k[1]
    assert result.warnings == ()
    assert result.breakpoints().tolist() == [0.0, 1.0]
    assert result.intensity().rates.tolist() == [60.0]


def test_fit_recovers_the_alternating_design():
    # marked draw at a mean high enough for reliable recovery
    truth = alternating_intensity(120.0, 8.0, 0.1, 0.005)
    data = simulate_marked(truth, seed=3)
    result = fit(data, CvConfig(replicates=60, kmax=10, seed=1))
    assert result.k_hat == 6
    expected = truth.breakpoints[1:-1]
    assert np.all(np.abs(np.asarray(result.change_point_values) - expected) < 0.05)
    assert len(result.rates) == 6
    assert len(result.mark_rates) == 6
    # mark-rate estimates separate the two regimes by an order of size
    odd = result.mark_rates[0::2]
    even = result.mark_rates[1::2]
    assert min(odd) > max(even)
    assert result.window == (0.0, 1.0)


def test_fit_respects_window_scaling():
    rng = np.random.default_rng(12)
    raw = np.sort(rng.uniform(2.0, 10.0, 80))
    data = EventSeries.from_window(raw, window=(2.0, 10.0))
    result = fit(data, CvConfig(replicates=20, kmax=4, seed=2))
    assert result.window == (2.0, 10.0)
    for u, t in zip(result.change_point_values, result.change_point_times):
        assert t == pytest.approx(2.0 + 8.0 * u, rel=1e-12)


def test_fit_is_a_refit_at_the_selected_k():
    # three repeated times, so both the curve and the solve warn of ties
    times = simulate_events(alternating_intensity(60.0, 8.0), seed=2).times
    data = EventSeries(np.sort(np.concatenate((times, times[:3]))))
    cfg = CvConfig(replicates=20, kmax=8, seed=3)
    fitted = fit(data, cfg)
    direct = refit(data, default_spec(data), cfg.kmax, fitted.k_hat)
    assert fitted.k_hat > 1
    assert fitted.curve is not None and direct.curve is None
    for field in dataclasses.fields(fitted):
        if field.name not in ("curve", "warnings"):
            assert getattr(fitted, field.name) == getattr(direct, field.name), field.name
    assert TIES_WARNING in direct.warnings
    cv_warnings = fitted.curve.warnings
    assert fitted.warnings == cv_warnings + tuple(
        w for w in direct.warnings if w not in cv_warnings)


REFIT_ERRORS = """
from ppseg import EventSeries, default_spec, refit
# K far beyond the grid is refused before a solve sizes its tables
for times, k, message in (([0.5], 5, "exceeds the candidate grid"),
                          ([0.5], 100_000_000, "exceeds the candidate grid"),
                          ([0.5, 0.5], 5, "no admissible segmentation")):
    data = EventSeries(times)
    try:
        refit(data, default_spec(data), k, k)
    except ValueError as exc:
        # no assert: python -O strips it
        if message not in str(exc):
            raise SystemExit(f"K = {k}: {exc}")
    else:
        raise SystemExit(f"refit accepted K = {k}")
"""


def test_refit_raises_clear_errors_without_asserts():
    # under python -O, where assert statements are stripped
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-O", "-c", REFIT_ERRORS], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    with pytest.raises(ValueError, match="between 1 and kmax"):
        refit(EventSeries(np.array([0.5])), ContrastSpec("poisson"), 2, 3)


def _edge_series():
    return edge_events().map(lambda times_marks: EventSeries(*times_marks))


def _check_fit(data, result, kmax, cfg):
    result.intensity()
    text = render_result(_make_document("events.csv", data, result, kmax, cfg))
    assert render_result(parse_result(text)) == text


@given(data=_edge_series())
@example(data=EventSeries([0.1, 0.2, 0.8]))
def test_every_fit_gives_an_intensity_and_a_document(data):
    # a fit either raises ValueError or is usable downstream; the example
    # has an empty segment at K = 3, whose likelihood rates are 0
    for kind in KINDS:
        if kind in MARKED_KINDS and data.marks is None:
            continue
        spec = default_spec(data, kind=kind)
        for k in range(1, 5):
            try:
                result = refit(data, spec, 4, k)
            except ValueError:
                continue
            _check_fit(data, result, 4, None)
    cfg = CvConfig(replicates=3, kmax=4)
    try:
        result = fit(data, cfg)
    except ValueError:
        return
    _check_fit(data, result, cfg.kmax, cfg)
