"""Distances for comparing segmentations and fitted intensities."""

from __future__ import annotations

import numpy as np

from .model import PiecewiseIntensity


def change_point_set(values) -> np.ndarray:
    """Validate a change-point set: finite, sorted, spanning exactly [0, 1].

    The interval boundaries count as change-points here, so even a
    single-segment model contributes the two endpoints.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("a change-point set needs at least the two boundaries")
    if not np.all(np.isfinite(v)):
        raise ValueError("change-points must be finite")
    if v[0] != 0.0 or v[-1] != 1.0:
        raise ValueError("change-point sets must start at 0 and end at 1")
    if np.any(v[1:] < v[:-1]):
        raise ValueError("change-points must be sorted ascending")
    return v


def hausdorff(first, second) -> tuple[float, float, float]:
    """Directed and symmetric Hausdorff distances between two sets.

    Returns (d1, d2, d) where d1 is the largest distance from a point
    of ``first`` to the set ``second``, d2 the reverse, and
    d = max(d1, d2).
    """
    a = change_point_set(first)
    b = change_point_set(second)
    gaps = np.abs(a[:, None] - b[None, :])
    d1 = float(gaps.min(axis=1).max())
    d2 = float(gaps.min(axis=0).max())
    return d1, d2, max(d1, d2)


def true_change_values(intensity: PiecewiseIntensity) -> np.ndarray:
    """Breakpoints of an intensity where something actually changes.

    Nominal breakpoints between segments with equal rate (and equal
    mark rate, when present) are not change-points and are dropped; the
    domain endpoints are always kept.
    """
    bp = intensity.breakpoints
    rates = intensity.rates
    differs = rates[:-1] != rates[1:]
    if intensity.mark_rates is not None:
        mr = intensity.mark_rates
        differs = differs | (mr[:-1] != mr[1:])
    return np.concatenate((bp[:1], bp[1:-1][differs], bp[-1:]))


def l2_distance(estimate: PiecewiseIntensity, reference: PiecewiseIntensity,
                normalization: float) -> float:
    """Exact squared L2 distance between cumulative intensities.

    Both cumulatives are piecewise linear, so their squared difference
    integrates in closed form segment by segment on the merged
    breakpoint grid: for g linear on (u, v),
    int g^2 = (g(u)^2 + g(u) g(v) + g(v)^2) (v - u) / 3.
    The result is divided by ``normalization`` (conventionally the mean
    intensity) to make scales comparable.
    """
    if not 0.0 < normalization < np.inf:
        raise ValueError("normalization must be positive and finite")
    pts = np.union1d(estimate.breakpoints, reference.breakpoints)
    g = estimate.cumulative(pts) - reference.cumulative(pts)
    u = g[:-1]
    v = g[1:]
    # a subnormal normalization may overflow the quotient to +inf
    with np.errstate(over="ignore"):
        return float(np.sum((u * u + u * v + v * v) * np.diff(pts)) / 3.0 / normalization)
