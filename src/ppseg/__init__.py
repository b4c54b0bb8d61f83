"""Exact change-point detection for event series with step intensities.

The model is an inhomogeneous Poisson process (optionally with positive
marks) whose rate is constant between change-points. Candidate
change-points live on a finite grid built from the observed events, the
optimal segmentation for every segment count is found by dynamic
programming, and the number of segments is selected by thinning-based
cross-validation.

Typical use::

    from ppseg import EventSeries, fit

    data = EventSeries.from_window(times, window=(t0, t1))
    result = fit(data)
    result.k_hat, result.change_point_times, result.rates
"""

from .contrasts import KINDS, ContrastSpec, contrast, default_spec, segment_cost
from .dp import (
    SolveResult,
    brute_force,
    enumerate_count_vectors,
    solve,
    upsilon_cardinality,
    upsilon_star_cardinality,
)
from .io import ResultDocument, load_series, parse_result, render_result
from .metrics import hausdorff, l2_distance
from .model import (
    EventSeries,
    PiecewiseIntensity,
    build_grid,
    intensity_from_breaks,
    segment_stats,
    segmentation_from_indices,  # importable from here, but not public
)
from .selection import CvConfig, CvCurve, FitResult, cross_validate, fit, refit
from .simulate import alternating_intensity, simulate_events, simulate_marked

__version__ = "0.1.0"

__all__ = [
    "ContrastSpec",
    "CvConfig",
    "CvCurve",
    "EventSeries",
    "FitResult",
    "KINDS",
    "PiecewiseIntensity",
    "ResultDocument",
    "SolveResult",
    "alternating_intensity",
    "brute_force",
    "build_grid",
    "contrast",
    "cross_validate",
    "default_spec",
    "enumerate_count_vectors",
    "fit",
    "hausdorff",
    "intensity_from_breaks",
    "l2_distance",
    "load_series",
    "parse_result",
    "refit",
    "render_result",
    "segment_cost",
    "segment_stats",
    "simulate_events",
    "simulate_marked",
    "solve",
    "upsilon_cardinality",
    "upsilon_star_cardinality",
]
