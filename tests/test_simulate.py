"""Sampling of the benchmark design and of general step intensities."""

import os

import numpy as np
import pytest

from ppseg import PiecewiseIntensity, alternating_intensity, simulate_events, simulate_marked
from ppseg.simulate import ALTERNATING_BREAKPOINTS, derive_rates


def test_derive_rates_closed_forms():
    low, high = derive_rates(100.0, 8.0)
    assert low == pytest.approx(2400.0 / 73.0, rel=1e-12)
    assert high == pytest.approx(19200.0 / 73.0, rel=1e-12)
    low, high = derive_rates(1000.0, 3.0)
    assert low == pytest.approx(12000.0 / 19.0, rel=1e-12)
    assert high == pytest.approx(36000.0 / 19.0, rel=1e-12)
    low, high = derive_rates(50.0, 1.0)
    assert low == pytest.approx(50.0, rel=1e-12)
    assert high == pytest.approx(50.0, rel=1e-12)


def test_derive_rates_hits_the_requested_mean():
    for mean, ratio in ((10.0, 1.0), (100.0, 8.0), (32.0, 2.5)):
        intensity = alternating_intensity(mean, ratio)
        assert intensity.total_mass == pytest.approx(mean, rel=1e-12)


def test_derive_rates_validation():
    with pytest.raises(ValueError, match="mean_rate"):
        derive_rates(0.0, 2.0)
    with pytest.raises(ValueError, match="ratio"):
        derive_rates(10.0, -1.0)
    with pytest.raises(ValueError, match="^mean_rate must be finite and positive$"):
        derive_rates(np.inf, 2.0)
    with pytest.raises(ValueError, match="^ratio must be finite and positive$"):
        derive_rates(10.0, np.inf)


def test_alternating_design_layout():
    intensity = alternating_intensity(100.0, 8.0)
    assert np.array_equal(intensity.breakpoints, ALTERNATING_BREAKPOINTS)
    low, high = derive_rates(100.0, 8.0)
    assert intensity.rates.tolist() == [low, high, low, high, low, high]
    assert intensity.mark_rates is None
    # segment durations in hours of a 24-hour day
    hours = np.diff(ALTERNATING_BREAKPOINTS) * 24.0
    assert np.allclose(hours, [7.0, 1.0, 6.0, 2.0, 4.0, 4.0], rtol=0.0, atol=1e-12)


def test_alternating_design_mark_rates():
    both = alternating_intensity(100.0, 8.0, rho_odd=0.1, rho_even=0.005)
    assert both.mark_rates.tolist() == [0.1, 0.005, 0.1, 0.005, 0.1, 0.005]
    constant = alternating_intensity(100.0, 8.0, rho_odd=0.1)
    assert constant.mark_rates.tolist() == [0.1] * 6
    with pytest.raises(ValueError, match="rho_even given without rho_odd"):
        alternating_intensity(100.0, 8.0, rho_even=0.005)


def test_simulated_times_are_sorted_and_interior():
    intensity = alternating_intensity(2000.0, 4.0)
    series = simulate_events(intensity, seed=0)
    assert series.n > 1600  # Poisson(2000), wildly improbable to miss
    assert np.all(np.diff(series.times) >= 0.0)
    assert series.times[0] > 0.0 and series.times[-1] < 1.0
    assert series.window == (0.0, 1.0)


def test_simulated_marks_align_and_are_positive():
    intensity = alternating_intensity(300.0, 2.0, rho_odd=0.1, rho_even=0.005)
    series = simulate_marked(intensity, seed=1)
    assert series.marks.shape == series.times.shape
    assert np.all(series.marks > 0.0)
    assert np.all(np.diff(series.times) >= 0.0)
    # marks from the 0.005-rate segments should dwarf the 0.1-rate ones
    odd = series.marks[intensity.segment_of(series.times) % 2 == 0]
    even = series.marks[intensity.segment_of(series.times) % 2 == 1]
    assert even.mean() > odd.mean()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_silent_segment_needs_no_mark_rate():
    intensity = PiecewiseIntensity(np.array([0.0, 0.5, 1.0]), np.array([0.0, 50.0]),
                                   np.array([0.0, 0.5]))
    series = simulate_marked(intensity, seed=3)
    assert series.n > 0
    assert np.all(series.times > 0.5)
    assert np.all(np.isfinite(series.marks))

def test_simulate_requires_mark_rates_for_marked_draws():
    with pytest.raises(ValueError, match="no mark rates"):
        simulate_marked(alternating_intensity(100.0, 2.0), seed=0)


def test_a_draw_beyond_physical_memory_is_refused(monkeypatch):
    # 10^15 expected events, some 22 million GiB of times, are refused
    # before any draw, not left to fail an allocation or to fill the host
    for draw, rho, held in ((simulate_events, None, "event times"),
                            (simulate_marked, 0.1, "event times and marks")):
        with pytest.raises(ValueError, match=rf"^a draw of 1e\+15 expected events needs "
                                             rf"about [0-9.]+ GiB for its {held}, more than"):
            draw(alternating_intensity(1e15, 8.0, rho), seed=1)
    # the host is made to report 1 MiB: 10^4 expected events, at 24 or 72
    # bytes each and 8 standard deviations more, fit, and 5 x 10^4 do not
    pages = {"SC_PHYS_PAGES": 2**8, "SC_PAGE_SIZE": 2**12}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert simulate_marked(alternating_intensity(1e4, 8.0, 0.1), seed=1).n > 9000
    with pytest.raises(ValueError, match="a draw of 5e\\+04 expected events needs"):
        simulate_events(alternating_intensity(5e4, 8.0), seed=1)


def test_same_seed_reproduces_the_draw():
    intensity = alternating_intensity(150.0, 3.0, rho_odd=0.2)
    a = simulate_marked(intensity, seed=11)
    b = simulate_marked(intensity, seed=11)
    c = simulate_marked(intensity, seed=12)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.marks, b.marks)
    assert not np.array_equal(a.times, c.times)


def test_seed_forms_are_equivalent():
    intensity = alternating_intensity(80.0, 2.0)
    via_int = simulate_events(intensity, seed=7)
    via_seq = simulate_events(intensity, seed=np.random.SeedSequence(7))
    via_gen = simulate_events(intensity, seed=np.random.default_rng(7))
    assert np.array_equal(via_int.times, via_seq.times)
    assert np.array_equal(via_int.times, via_gen.times)


def test_empty_realization():
    tiny = PiecewiseIntensity(np.array([0.0, 1.0]), np.array([1e-9]))
    series = simulate_events(tiny, seed=0)
    assert series.n == 0
    assert series.window == (0.0, 1.0)


def test_per_segment_count_moments():
    # 400 draws; per-segment counts should track each segment's mass
    intensity = alternating_intensity(60.0, 4.0)
    masses = intensity.rates * np.diff(intensity.breakpoints)
    rng = np.random.default_rng(123)
    totals = np.zeros(intensity.k)
    reps = 400
    for _ in range(reps):
        series = simulate_events(intensity, seed=rng)
        seg = intensity.segment_of(series.times)
        totals += np.bincount(seg, minlength=intensity.k)
    means = totals / reps
    # five-sigma band on the Monte Carlo average of a Poisson count
    sigma = np.sqrt(masses / reps)
    assert np.all(np.abs(means - masses) < 5.0 * sigma)
