"""Sampling of piecewise-constant Poisson processes on the unit interval.

Simulation is segment-wise conditional-uniform: draw a Poisson count
for each segment's mass, then place that many points uniformly inside
the segment. Draws that land exactly on a segment boundary (possible at
the left edge of a half-open uniform draw) are nudged one ulp into the
open segment so event times stay strictly inside (0, 1) and off the
breakpoints.

The module also carries the standard benchmark design used throughout
the test-bed: six segments whose durations in hours are 7, 1, 6, 2, 4
and 4 out of a 24-hour day, with the intensity alternating between a
low and a high level. ``derive_rates`` picks the two levels so that
their time average hits a requested mean intensity.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EventSeries, PiecewiseIntensity, require_memory

ALTERNATING_BREAKPOINTS = np.array([0.0, 7.0, 8.0, 14.0, 16.0, 20.0, 24.0]) / 24.0

# Peak bytes per event of ``simulate_events`` and ``simulate_marked``,
# traced with tracemalloc at 10^5 and 10^6 expected events: the times and
# their sort, and with marks also the marks, the argsort and the
# reordered times and marks
EVENT_BYTES = 24
MARKED_EVENT_BYTES = 72


def derive_rates(mean_rate: float, ratio: float) -> tuple[float, float]:
    """Low and high alternating levels with time average ``mean_rate``.

    The low level occupies the odd segments (17/24 of the interval) and
    the high level, ``ratio`` times larger, the even ones (7/24).
    """
    for name, value in (("mean_rate", mean_rate), ("ratio", ratio)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive")
    d = np.diff(ALTERNATING_BREAKPOINTS)
    low_time = float(np.sum(d[0::2]))
    high_time = float(np.sum(d[1::2]))
    low = mean_rate / (low_time + ratio * high_time)
    return low, ratio * low


def alternating_intensity(
    mean_rate: float,
    ratio: float,
    rho_odd: float | None = None,
    rho_even: float | None = None,
) -> PiecewiseIntensity:
    """The six-segment benchmark design at a given mean and level ratio.

    ``rho_odd``/``rho_even`` attach exponential mark rates to the odd
    (low-intensity) and even (high-intensity) segments; passing only
    ``rho_odd`` gives constant mark rates.
    """
    low, high = derive_rates(mean_rate, ratio)
    rates = np.array([low, high, low, high, low, high])
    mark_rates = None
    if rho_odd is not None:
        if rho_even is None:
            rho_even = rho_odd
        mark_rates = np.array([rho_odd, rho_even] * 3, dtype=np.float64)
    elif rho_even is not None:
        raise ValueError("rho_even given without rho_odd")
    return PiecewiseIntensity(ALTERNATING_BREAKPOINTS.copy(), rates, mark_rates)


def require_draw_memory(intensity: PiecewiseIntensity, per_event: int, held: str) -> None:
    """ValueError, before any draw, when ``per_event`` bytes for each
    event of a draw from ``intensity`` exceed physical memory. The count
    is sized 8 standard deviations above its mean, the total mass: by the
    Chernoff bound a Poisson count of mean 10^4 or more passes that with
    probability below 1e-13."""
    mass = intensity.total_mass
    require_memory(f"a draw of {mass:.3g} expected events",
                   per_event * (mass + 8.0 * math.sqrt(mass)), held)


def _segment_draws(intensity: PiecewiseIntensity, rng: np.random.Generator):
    bp = intensity.breakpoints
    for k in range(intensity.k):
        lo, hi = bp[k], bp[k + 1]
        count = rng.poisson(intensity.rates[k] * (hi - lo))
        t = rng.uniform(lo, hi, size=count)
        # keep draws strictly inside the open segment
        t[t == lo] = np.nextafter(lo, hi)
        t[t >= hi] = np.nextafter(hi, lo)
        yield k, t


def simulate_events(intensity: PiecewiseIntensity, seed=None) -> EventSeries:
    """One realization of the process; `seed` may be an int or Generator."""
    require_draw_memory(intensity, EVENT_BYTES, "its event times")
    rng = np.random.default_rng(seed)
    parts = [t for _, t in _segment_draws(intensity, rng)]
    times = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    return EventSeries(times)


def simulate_marked(intensity: PiecewiseIntensity, seed=None) -> EventSeries:
    """One realization with exponential marks drawn per segment."""
    if intensity.mark_rates is None:
        raise ValueError("intensity carries no mark rates")
    require_draw_memory(intensity, MARKED_EVENT_BYTES, "its event times and marks")
    rng = np.random.default_rng(seed)
    time_parts = []
    mark_parts = []
    for k, t in _segment_draws(intensity, rng):
        time_parts.append(t)
        # a segment without events draws no marks, so its mark rate may be 0
        mark_parts.append(
            rng.exponential(scale=1.0 / intensity.mark_rates[k], size=t.size) if t.size else t
        )
    times = np.concatenate(time_parts)
    marks = np.concatenate(mark_parts)
    order = np.argsort(times, kind="stable")
    return EventSeries(times[order], marks[order])
