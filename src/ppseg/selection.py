"""Segment-count selection by thinning cross-validation.

Thinning a Poisson process with keep-probability f yields two
independent Poisson processes whose intensities are f and 1 - f times
the original. Each replicate therefore splits the data into a learning
and a test set, segments the learning set at every candidate K with the
marginal-likelihood contrast, and scores the learned model on the test
set. The selected K minimizes the replicate-averaged test score; ties go
to the smaller K.

The prior shape a enters twice, and both places are built to keep the
selected K from drifting with it:

- The learning-set segmentation forbids segments holding no learning
  event. Under the Gamma(a, a / n) prior an empty segment of length L
  costs a log(1 + n L / a), which vanishes as a -> 0, so small shapes
  otherwise spend segments on empty gaps instead of on the regimes.
- The test score is the negated log posterior predictive of the test
  events, that is the Poisson-Gamma contrast of the test counts under
  the hyper-parameters updated by the learning counts, with the test
  rate (1 - f) / f times the learning rate. The update uses the
  length share Gamma(a L, b L) of the prior for a segment of length L.
  These shares add up to Gamma(a, b) over any segmentation, so every K
  carries the same prior weight; a whole Gamma(a, b) per segment would
  give K segments K times the prior, shrink short segments hardest and,
  at large a, let short edge segments buy back that shrinkage.

Marks are scored with the exponential law whose mean is the posterior
mean of the segment's mean mark, (b_rho + S) / (a_rho + c - 1); the
mark prior is set on that scale (see ``default_spec``). Thinning does
not touch the marks, so their estimates transfer unscaled.

Replicate randomness comes from independent child streams of one seed
sequence, so results are reproducible and independent of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contrasts import (
    ContrastSpec,
    default_spec,
    poisson_gamma_cost,
    posterior_mean_rate,
    segment_rates,
)
from .dp import TIES_WARNING, solve
from .model import EventSeries, build_grid, intensity_from_breaks, require_integer, segment_stats

MIN_DEFINED_FRACTION = 0.5  # share of replicates in which a K must be scored


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings.

    fraction is the learning-set keep probability, replicates the
    number of thinning rounds, kmax the largest segment count tried.
    prior_shape is the Gamma shape a used when refreshing
    hyper-parameters from each learning set (the rate is always
    a / n so the prior mean matches the observed count); it sets both
    the contrast that segments the learning set and the posterior that
    scores the test set. On the robust-a and robust-f benchmark presets
    (20 samples, 100 replicates) the mean selected K is 5.4, 5.1, 5.6,
    5.85 and 6.25 for a = 0.1, 0.5, 1, 2 and 10, and 5.8, 5.0, 5.6 and
    5.85 for f = 0.5, 2/3, 0.8 and 0.9.
    """

    fraction: float = 0.8
    replicates: int = 500
    kmax: int = 12
    seed: int = 0
    prior_shape: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must lie strictly between 0 and 1")
        require_integer("replicates", self.replicates)
        require_integer("kmax", self.kmax)
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.kmax < 1:
            raise ValueError("kmax must be at least 1")
        if not (math.isfinite(self.prior_shape) and self.prior_shape > 0.0):
            raise ValueError("prior_shape must be finite and positive")


def thin(data, fraction: float, rng: np.random.Generator):
    """Split a series into independent learning and test subsets.

    Each event joins the learning set with probability ``fraction``;
    marks travel with their events.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    keep = rng.random(data.n) < fraction
    return data.select(keep), data.select(~keep)


def _test_pieces(a, b, ratio: float, counts, lengths, test_counts):
    """Negated log predictive of the test counts given the learned fit,
    one entry per segment of positive length.

    Each segment of length L updates the prior share Gamma(a L, b L) by
    its learning count; the test rate is ``ratio`` times the learning
    rate. ``b`` is one rate or one per segment. Zero-length segments hold
    no test event and get no entry.
    """
    keep = lengths > 0.0
    d = lengths[keep]
    shape = a * d + counts[keep]
    rate = d * (1.0 + np.broadcast_to(b, lengths.shape)[keep]) / ratio
    return poisson_gamma_cost(test_counts[keep], d, shape, rate)


def _mark_pieces(a_rho, b_rho, counts, mark_sums, test_counts, test_sums):
    """Negated exponential log-likelihood of the test marks, per segment.

    The mark rate is the reciprocal of the posterior mean of the mean
    mark under the Gamma(a_rho, b_rho) rate prior; ``b_rho`` is one rate
    or one per segment. Marks hundreds of decades apart can overflow the
    product to +inf, which makes that K's mean score +inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho = posterior_mean_rate(counts, mark_sums, a_rho - 1.0, b_rho)
        return rho * test_sums - test_counts * np.log(rho)


def _run_sums(values: np.ndarray, ends) -> list[float]:
    """np.sum of each run values[ends[i - 1]:ends[i]], the first from 0.

    The runs of one length are gathered as the rows of one array and
    summed along them, which adds each row's elements as np.sum adds a
    slice of them, bit for bit.
    """
    ends = np.asarray(ends, dtype=np.intp)
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    sums = np.empty(ends.size)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        at = np.flatnonzero(lengths == length)
        sums[at] = values[starts[at, None] + np.arange(length)].sum(axis=1)
    return sums.tolist()


def _segments(spec, grid, test: EventSeries, cuts):
    """Per-segment inputs of the test score of the segmentation of
    ``grid`` at each change-point index tuple in ``cuts``, the tuples'
    segments one after another: learning counts, lengths and mark sums,
    test counts and mark sums, and the replicate's b and b_rho."""
    lo = np.array([p for c in cuts for p in (0, *c)], dtype=np.intp)
    hi = np.array([p for c in cuts for p in (*c, grid.last_index)], dtype=np.intp)
    counts, lengths, sums = grid.stats(lo, hi)
    # test events at or before each grid position, counted per segment like grid.stats
    pos = np.searchsorted(test.times, grid.values, side="right")
    test_sums = None
    if test.mark_prefix is not None:
        pref = test.mark_prefix[pos]
        test_sums = pref[hi] - pref[lo]
    return (counts, lengths, sums, pos[hi] - pos[lo], test_sums,
            np.full(lo.size, spec.b), np.full(lo.size, spec.b_rho))


def _scores(a: float, a_rho: float, ratio: float, segments, sizes) -> list[float]:
    """Test score of each segmentation whose ``sizes[i]`` segments are
    the next ones of ``segments`` (``_segments``' arrays, joined), all
    priced in one pass.

    A segmentation's score sums its own pieces only, the same elements in
    the same order as when it is scored alone, so no score depends on the
    others of the pass.
    """
    counts, lengths, sums, test_counts, test_sums, b, b_rho = segments
    ends = np.cumsum(sizes, dtype=np.intp)  # segments through each segmentation
    gamma = _test_pieces(a, b, ratio, counts, lengths, test_counts)
    scores = _run_sums(gamma, np.cumsum(lengths > 0.0)[ends - 1])
    if test_sums is not None:
        marks = _mark_pieces(a_rho, b_rho, counts, sums, test_counts, test_sums)
        scores = [score + mark for score, mark in zip(scores, _run_sums(marks, ends))]
    return scores


@dataclass(frozen=True)
class CvCurve:
    """Replicate-averaged test contrasts per candidate segment count."""

    ks: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    counts: tuple[int, ...]
    replicates: int
    warnings: tuple[str, ...] = ()

    def best_k(self) -> int:
        """Smallest K attaining the minimal average test contrast among
        those scored in at least MIN_DEFINED_FRACTION of the replicates
        whose mean is below +inf."""
        threshold = MIN_DEFINED_FRACTION * self.replicates
        best = None
        best_mean = None
        for k, mean, count in zip(self.ks, self.means, self.counts):
            # a nan or +inf mean carries no information about K
            if count < threshold or count == 0 or not mean < math.inf:
                continue
            if best_mean is None or mean < best_mean:
                best = k
                best_mean = mean
        if best is None:
            raise ValueError("no candidate K was defined in enough replicates")
        return best


def _stderr(col: np.ndarray) -> float:
    """Standard error of the mean of ``col``.

    Scores of marks spanning hundreds of decades can differ by more than
    1e154, where squaring the deviations overflows; only then is the
    deviation taken on the scores divided by their largest magnitude.
    """
    with np.errstate(over="ignore"):
        sd = np.std(col, ddof=1)
    if sd == np.inf:
        scale = np.max(np.abs(col))
        sd = scale * np.std(col / scale, ddof=1)
    return sd / np.sqrt(col.size)


def cross_validate(data, config: CvConfig | None = None) -> CvCurve:
    """Average test contrasts over thinning replicates for K = 1..kmax.

    Each replicate solves the learning set once for every K, reading
    only each optimum's change-point indices. Every K of every replicate
    is then scored in one pass over the concatenated segments; a K's
    score sums its own pieces in the order it would alone, so the curve
    does not depend on the batching. A K with no admissible learning-set
    segmentation is not scored in that replicate.
    """
    cfg = config if config is not None else CvConfig()
    if data.n == 0:
        raise ValueError("cross-validation needs at least one event")
    m_total, kmax = cfg.replicates, cfg.kmax
    gammas = np.full((m_total, kmax), np.nan)
    streams = np.random.SeedSequence(cfg.seed).spawn(m_total)
    empty_learning = 0
    at, segments, sizes = [], [], []  # (replicate, K - 1), inputs and size of each score
    for m in range(m_total):
        rng = np.random.default_rng(streams[m])
        learn, test = thin(data, cfg.fraction, rng)
        if learn.n == 0:
            empty_learning += 1
            continue
        spec = replace(default_spec(learn, a=cfg.prior_shape), forbid_empty=True)
        grid = build_grid(learn)
        scored = [res for res in solve(grid, spec, kmax) if res.indices is not None]
        at += [(m, res.k - 1) for res in scored]
        sizes += [len(res.indices) + 1 for res in scored]
        segments.append(_segments(spec, grid, test, [res.indices for res in scored]))
    if at:
        # a and a_rho are the same in every replicate; b and b_rho go per segment
        joined = [None if parts[0] is None else np.concatenate(parts)
                  for parts in zip(*segments)]
        ratio = (1.0 - cfg.fraction) / cfg.fraction
        gammas[tuple(np.array(at).T)] = _scores(spec.a, spec.a_rho, ratio, joined, sizes)
    defined = ~np.isnan(gammas)
    counts_k = defined.sum(axis=0)
    means = np.full(kmax, np.nan)
    stderrs = np.zeros(kmax)
    # scores near 1e308 overflow a mean to +inf, and a +inf score leaves
    # its stderr nan
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(kmax):
            col = gammas[defined[:, j], j]
            if col.size:
                means[j] = np.mean(col)
            if col.size >= 2:
                stderrs[j] = _stderr(col)
    warnings = ()
    if data.has_ties:
        warnings += (TIES_WARNING,)
    if empty_learning:
        warnings += (f"{empty_learning} replicate(s) dropped: empty learning set",)
    return CvCurve(
        ks=tuple(range(1, kmax + 1)),
        means=tuple(float(v) for v in means),
        stderrs=tuple(float(v) for v in stderrs),
        counts=tuple(int(c) for c in counts_k),
        replicates=m_total,
        warnings=warnings,
    )


@dataclass(eq=False)
class FitResult:
    """Fitted model with rate estimates, posterior means for marginal kinds.

    ``spec`` is the contrast of the full-data fit, ``indices`` the
    change-points' interior grid indices and ``counts`` the events per
    segment. Rates are per unit normalized time; divide by the window
    width for original-scale rates. Under ``marked_pgeg`` ``mark_rates``
    are the posterior means (a_rho + c) / (b_rho + S) of segments with c
    events and mark sum S, while cross-validation scores test marks with
    the rate (a_rho + c - 1) / (b_rho + S), the inverse posterior mean of
    the mean mark. ``contrast_by_k`` maps each feasible K to its optimal
    full-data contrast. ``curve`` is the cross-validation curve that
    chose K, or None when K was fixed.
    """

    k_hat: int
    spec: ContrastSpec
    indices: tuple[int, ...]
    counts: tuple[int, ...]
    change_point_values: tuple[float, ...]
    change_point_times: tuple[float, ...]
    rates: tuple[float, ...]
    mark_rates: tuple[float, ...] | None
    contrast: float
    contrast_by_k: dict[int, float]
    curve: CvCurve | None
    window: tuple[float, float]
    warnings: tuple[str, ...]

    def breakpoints(self) -> np.ndarray:
        """Normalized change-points including both boundaries."""
        return np.concatenate(([0.0], self.change_point_values, [1.0]))

    def intensity(self):
        """Fitted step intensity; zero-length segments are dropped."""
        return intensity_from_breaks(self.breakpoints(), self.rates, self.mark_rates)


def refit(data, spec: ContrastSpec, kmax: int, k: int, curve: CvCurve | None = None) -> FitResult:
    """The optimal segmentation of the full data at K = k under ``spec``.

    Solves K = 1..kmax for ``contrast_by_k`` and estimates the rates with
    ``segment_rates``. ``curve`` is the curve that chose k, or None when
    k is fixed. Raises ValueError when k lies outside 1..kmax, exceeds
    the candidate grid or admits no segmentation, or when a segment's
    rate estimate overflows the float range.
    """
    require_integer("k", k)
    require_integer("kmax", kmax)
    if not 1 <= k <= kmax:
        raise ValueError(f"K = {k} must lie between 1 and kmax = {kmax}")
    grid = build_grid(data)
    if k - 1 > grid.size:
        raise ValueError(f"K = {k} exceeds the candidate grid of this series")
    results = solve(grid, spec, kmax)
    final = results[k - 1]
    if final.indices is None:
        raise ValueError(f"no admissible segmentation with K = {k}")
    # a finite optimum holds no empty zero-length segment: every kind prices one +inf
    counts, lengths, sums = segment_stats(grid, final.indices)
    values = grid.values[np.array(final.indices, dtype=np.intp)]
    rates, mark_rates = segment_rates(spec, counts, lengths, sums)
    # a segment of subnormal normalized length can fit a rate past the
    # float range, which ``evaluate`` refuses to read back
    over = np.flatnonzero(~np.isfinite(rates))
    if over.size:
        i = int(over[0])
        raise ValueError(f"the rate of segment {i + 1} of {k} overflows the float range: "
                         f"{int(counts[i])} events over a normalized length of "
                         f"{float(lengths[i])!r}")
    contrast_by_k = {res.k: float(res.contrast) for res in results if res.feasible}
    cv_warnings = () if curve is None else curve.warnings
    return FitResult(
        k_hat=k,
        spec=spec,
        indices=final.indices,
        counts=tuple(int(c) for c in counts),
        change_point_values=tuple(float(v) for v in values),
        change_point_times=tuple(float(v) for v in data.to_original(values)),
        rates=tuple(float(r) for r in rates),
        mark_rates=None if mark_rates is None else tuple(float(r) for r in mark_rates),
        contrast=float(final.contrast),
        contrast_by_k=contrast_by_k,
        curve=curve,
        window=data.window,
        warnings=cv_warnings + tuple(w for w in final.warnings if w not in cv_warnings),
    )


def fit(data, config: CvConfig | None = None) -> FitResult:
    """Select K by cross-validation, then refit on the full data.

    ``cross_validate`` chooses K; ``refit`` then optimizes the marginal
    contrast of ``default_spec`` on the whole series, with
    hyper-parameters refreshed from it, and reports posterior-mean
    rates under that segmentation.
    """
    cfg = config if config is not None else CvConfig()
    curve = cross_validate(data, cfg)
    return refit(data, default_spec(data, a=cfg.prior_shape), cfg.kmax, curve.best_k(), curve)
