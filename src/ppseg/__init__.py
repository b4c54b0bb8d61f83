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

from .contrasts import (
    KINDS,
    ContrastSpec,
    contrast,
    default_spec,
    marked_loglik,
    marked_pgeg_cost,
    marked_poisson_cost,
    mle_rate,
    poisson_cost,
    poisson_gamma_cost,
    poisson_loglik,
    posterior_mean_rate,
    segment_cost,
)
from .dp import (
    SolveResult,
    brute_force,
    build_cost_matrix,
    enumerate_count_vectors,
    solve,
    upsilon_cardinality,
    upsilon_star_cardinality,
)
from .io import (
    ResultDocument,
    default_window,
    load_series,
    parse_result,
    read_events_file,
    read_intensity_file,
    render_metrics,
    render_result,
    write_events_file,
    write_intensity_file,
)
from .metrics import change_point_set, hausdorff, l2_distance, true_change_values
from .model import (
    CandidateGrid,
    EventSeries,
    PiecewiseIntensity,
    Segmentation,
    build_grid,
    intensity_from_breaks,
    segment_stats,
    segmentation_from_indices,
)
from .selection import CvConfig, CvCurve, FitResult, cross_validate, fit, refit, thin
from .simulate import (
    ALTERNATING_BREAKPOINTS,
    alternating_intensity,
    derive_rates,
    simulate_events,
    simulate_marked,
)

__version__ = "0.1.0"

__all__ = [
    "ALTERNATING_BREAKPOINTS",
    "CandidateGrid",
    "ContrastSpec",
    "CvConfig",
    "CvCurve",
    "EventSeries",
    "FitResult",
    "KINDS",
    "PiecewiseIntensity",
    "ResultDocument",
    "Segmentation",
    "SolveResult",
    "alternating_intensity",
    "brute_force",
    "build_cost_matrix",
    "build_grid",
    "change_point_set",
    "contrast",
    "cross_validate",
    "default_spec",
    "default_window",
    "derive_rates",
    "enumerate_count_vectors",
    "fit",
    "hausdorff",
    "intensity_from_breaks",
    "l2_distance",
    "load_series",
    "marked_loglik",
    "marked_pgeg_cost",
    "marked_poisson_cost",
    "mle_rate",
    "parse_result",
    "poisson_cost",
    "poisson_gamma_cost",
    "poisson_loglik",
    "posterior_mean_rate",
    "read_events_file",
    "read_intensity_file",
    "refit",
    "render_metrics",
    "render_result",
    "segment_cost",
    "segment_stats",
    "segmentation_from_indices",
    "simulate_events",
    "simulate_marked",
    "solve",
    "thin",
    "true_change_values",
    "upsilon_cardinality",
    "upsilon_star_cardinality",
    "write_events_file",
    "write_intensity_file",
]
