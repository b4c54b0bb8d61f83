"""Event-series containers and the change-point candidate grid.

All computations run on the unit interval: an observed series is
normalized so that every event time falls strictly inside (0, 1).
Candidate change-points live on a grid of 2n positions, two per event:
index 2m - 1 sits "just before" event m and index 2m sits at the event
time itself. Indices 0 and 2n + 1 are the fixed boundaries of the
interval. Segments are left-open, right-closed: an event whose time
equals a segment's right endpoint belongs to that segment only when the
endpoint is the "at" variant, otherwise it falls in the next segment.

The parity encoding makes event counting O(1): index p lies right of
exactly the first floor(p / 2) events and sits at the time of slot
floor((p + 1) / 2), where slot 0 is time 0, slot m the m-th event and
slot n + 1 time 1. ``CandidateGrid.stats`` reads counts, lengths and
mark sums off grid indices; the solver's block pricer reads them off
the slots (``slot_times`` and ``mark_prefix``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

BEFORE = "before"
AT = "at"


def _validated_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("event times must be a one-dimensional sequence")
    if t.size:
        if not np.all(np.isfinite(t)):
            raise ValueError("event times must be finite")
        if np.any(t[1:] < t[:-1]):
            raise ValueError("event times must be sorted ascending")
        if t[0] <= 0.0 or t[-1] >= 1.0:
            raise ValueError(
                "event times must lie strictly inside (0, 1) after "
                "normalization; widen the observation window"
            )
    return t


def require_integer(name: str, value) -> None:
    """ValueError unless ``value`` is a Python or numpy integer; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _validated_window(window) -> tuple[float, float]:
    w0, w1 = float(window[0]), float(window[1])
    if not np.isfinite(w1 - w0):
        raise ValueError("window bounds and width must be finite")
    if not w1 > w0:
        raise ValueError("window must satisfy t_min < t_max")
    return w0, w1


@dataclass(eq=False)
class EventSeries:
    """Sorted event times on (0, 1), optional marks, and the original window.

    Parameters
    ----------
    times:
        Event times, sorted ascending, finite and each strictly inside
        (0, 1). Tied times are legal but flagged through ``has_ties``.
    marks:
        One finite, strictly positive mark per event, or None for
        unmarked data. Marks ride along with their events through
        thinning and segmentation; per-segment mark sums come from the
        prefix sums in ``mark_prefix`` (None when unmarked), so repeated
        queries stay O(1).
    window:
        The original observation window (t_min, t_max) that was mapped
        onto (0, 1). Kept so results can be reported on the original
        scale.
    """

    times: np.ndarray
    marks: np.ndarray | None = None
    window: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        self.times = _validated_times(self.times)
        self.window = _validated_window(self.window)
        self.mark_prefix = None
        if self.marks is None:
            return
        m = np.asarray(self.marks, dtype=np.float64)
        if m.shape != self.times.shape:
            raise ValueError("marks must align one-to-one with event times")
        if not np.all(np.isfinite(m)):
            raise ValueError("marks must be finite")
        if m.size and np.any(m <= 0.0):
            raise ValueError("marks must be strictly positive")
        with np.errstate(over="ignore"):
            prefix = np.concatenate(([0.0], np.cumsum(m)))
        if not np.isfinite(prefix[-1]):
            raise ValueError("marks must have a finite total; their sum overflows")
        self.marks = m
        # entry m is the sum of the first m marks
        self.mark_prefix = prefix

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def has_ties(self) -> bool:
        return bool(self.times.size > 1 and np.any(np.diff(self.times) == 0.0))

    @property
    def width(self) -> float:
        return self.window[1] - self.window[0]

    def to_original(self, u):
        """Map normalized positions back to the original time scale."""
        return self.window[0] + np.asarray(u, dtype=np.float64) * self.width

    def select(self, mask) -> "EventSeries":
        """The events where ``mask`` is true, marks included, same window.

        A subset of a valid series is valid, so the checks are not re-run.
        """
        subset = copy.copy(self)
        subset.times = self.times[mask]
        if self.marks is not None:
            subset.marks = self.marks[mask]
            subset.mark_prefix = np.concatenate(([0.0], np.cumsum(subset.marks)))
        return subset

    @classmethod
    def from_window(cls, raw_times, window, marks=None) -> "EventSeries":
        """Normalize raw times living in ``window`` onto (0, 1)."""
        w0, w1 = _validated_window(window)
        raw = np.asarray(raw_times, dtype=np.float64)
        if np.any(np.isfinite(raw) & ((raw <= w0) | (raw >= w1))):  # raw - w0 may overflow
            raise ValueError(f"event times must lie strictly inside the window ({w0!r}, {w1!r})")
        return cls((raw - w0) / (w1 - w0), marks, window=(w0, w1))


def side_of(index: int) -> str:
    """Where grid index ``index`` sits: "before" its event when odd, "at" it when even."""
    return BEFORE if index % 2 else AT


@dataclass(frozen=True)
class GridPoint:
    """One candidate change-point position.

    ``side`` is ``side_of(index)``.
    """

    index: int
    side: str
    value: float


class CandidateGrid:
    """The 2n + 2 grid positions induced by an event series."""

    def __init__(self, events) -> None:
        self.events = events
        n = events.n
        # the time of each slot: 0, the event times, 1
        self.slot_times = np.concatenate(([0.0], events.times, [1.0]))
        self.values = self.slot_times[(np.arange(2 * n + 2) + 1) // 2]
        self.n = n
        # number of interior candidate positions, indices 1 .. size
        self.size = 2 * n
        self.mark_prefix = events.mark_prefix

    @property
    def last_index(self) -> int:
        return self.size + 1

    def stats(self, lo, hi):
        """Counts, lengths and mark sums (None when unmarked) of the
        segments (tp_lo, tp_hi], for grid indices or broadcastable index
        arrays ``lo`` and ``hi``."""
        ev_lo, ev_hi = lo // 2, hi // 2
        counts = ev_hi - ev_lo
        lengths = self.values[hi] - self.values[lo]
        if self.mark_prefix is None:
            return counts, lengths, None
        return counts, lengths, self.mark_prefix[ev_hi] - self.mark_prefix[ev_lo]


def build_grid(events) -> CandidateGrid:
    return CandidateGrid(events)


def as_grid(data) -> CandidateGrid:
    return data if isinstance(data, CandidateGrid) else build_grid(data)


def segment_stats(grid: CandidateGrid, indices):
    """Counts, lengths and mark sums of the segments cut by ``indices``.

    ``indices`` are strictly increasing interior grid indices, else
    ValueError; the boundaries 0 and 2n + 1 are implied. Returns one
    entry per segment; the mark sums are None for unmarked data.
    """
    path = np.array([0, *indices, grid.last_index])
    if np.any(path[1:] <= path[:-1]):
        raise ValueError("change-points must be strictly increasing interior grid indices")
    return grid.stats(path[:-1], path[1:])


@dataclass(frozen=True)
class Segmentation:
    """K segments described by K - 1 interior grid points."""

    k: int
    change_points: tuple[GridPoint, ...]

    def __post_init__(self) -> None:
        if self.k != len(self.change_points) + 1:
            raise ValueError("segment count must be one more than the change-point count")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.change_points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.change_points)


def segmentation_from_indices(grid: CandidateGrid, indices) -> Segmentation:
    """Build and validate a segmentation from interior grid indices.

    Rejects, with ValueError, indices that ``segment_stats`` rejects and
    segments with no event and zero length (possible only with tied
    times). Sides follow from the parity of the indices.
    """
    cuts = tuple(indices)
    counts, lengths, _ = segment_stats(grid, cuts)
    if np.any((counts == 0) & (lengths == 0.0)):
        raise ValueError("segmentation contains an empty zero-length segment")
    points = tuple(GridPoint(int(p), side_of(p), float(grid.values[p])) for p in cuts)
    return Segmentation(len(points) + 1, points)


@dataclass(eq=False)
class PiecewiseIntensity:
    """Piecewise-constant intensity on (0, 1].

    breakpoints has K + 1 strictly increasing entries running from 0 to
    1; rates holds the K nonnegative segment intensities. mark_rates,
    when present, holds the exponential rate of the marks on each
    segment, positive except on a segment of rate 0, where it may be 0
    (the maximum-likelihood convention 0 / 0 = 0 of an empty segment).
    """

    breakpoints: np.ndarray
    rates: np.ndarray
    mark_rates: np.ndarray | None = None

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        r = np.asarray(self.rates, dtype=np.float64)
        if bp.ndim != 1 or r.ndim != 1 or bp.size != r.size + 1:
            raise ValueError("need K + 1 breakpoints for K rates")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if not np.all(bp[1:] > bp[:-1]):  # a nan breakpoint fails this too
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all((r >= 0.0) & (r < np.inf)):
            raise ValueError("rates must be nonnegative and finite")
        self.breakpoints = bp
        self.rates = r
        if self.mark_rates is not None:
            mr = np.asarray(self.mark_rates, dtype=np.float64)
            if mr.shape != r.shape:
                raise ValueError("need one mark rate per segment")
            if not np.all((mr > 0.0) | ((mr == 0.0) & (r == 0.0))):
                raise ValueError(
                    "mark rates must be strictly positive, or 0 on a segment of rate 0"
                )
            self.mark_rates = mr
        self._cum = np.concatenate(([0.0], np.cumsum(r * np.diff(bp))))

    @property
    def k(self) -> int:
        return int(self.rates.size)

    def segment_of(self, t):
        """Index of the segment containing t, segments right-closed."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.breakpoints, t, side="left") - 1
        return np.clip(idx, 0, self.k - 1)

    def cumulative(self, t):
        """Integral of the intensity from 0 to t, evaluated exactly."""
        t = np.asarray(t, dtype=np.float64)
        idx = self.segment_of(t)
        return self._cum[idx] + self.rates[idx] * (t - self.breakpoints[idx])

    @property
    def total_mass(self) -> float:
        """Expected number of events on the whole interval."""
        return float(self._cum[-1])


def intensity_from_breaks(breakpoints, rates, mark_rates=None) -> PiecewiseIntensity:
    """PiecewiseIntensity that tolerates zero-length segments by dropping them.

    Fitted segmentations may contain a zero-length segment pinned to a
    single event; such segments carry no intensity mass and are removed
    before constructing the step function.
    """
    bp = np.asarray(breakpoints, dtype=np.float64)
    r = np.asarray(rates, dtype=np.float64)
    mr = None if mark_rates is None else np.asarray(mark_rates, dtype=np.float64)
    keep = bp[1:] != bp[:-1]  # a nan or decreasing breakpoint is left to be refused
    if not np.all(keep):
        r = r[keep]
        if mr is not None:
            mr = mr[keep]
        bp = np.concatenate((bp[:1], bp[1:][keep]))
    return PiecewiseIntensity(bp, r, mr)
