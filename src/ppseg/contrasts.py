"""Per-segment costs for piecewise-constant event-rate models.

Four cost families are supported, all written so that the total over a
segmentation is the quantity to minimize:

- "poisson": the negated maximized Poisson log-likelihood,
  nu * (1 - log(nu / dt)).
- "poisson_gamma": the negated log marginal likelihood under a
  Gamma(a, b) prior on each segment rate,
  (nu + a) log(dt + b) - lgamma(nu + a) + (lgamma(a) - a log b).
- "marked_poisson": the Poisson cost plus the negated maximized
  exponential-mark log-likelihood, nu * (2 - log(nu/dt) - log(nu/S)).
- "marked_pgeg": the marginal cost with Gamma priors on both the event
  rate and the exponential mark rate.

Every cost lies in (-inf, +inf]. A zero-length segment holding events
has an unbounded maximized likelihood: the likelihood optimum would be
-inf as soon as K can isolate one event, a degenerate maximum and not
an estimate. The likelihood kinds therefore price such a segment at
+inf; the marginal costs are finite there. A positive length or mark
sum so small that count / length overflows keeps a finite cost through
log count - log length. +inf marks forbidden configurations and absorbs
under IEEE addition, so totals need no special arithmetic.

Every function accepts scalars or numpy arrays of matching shape, which
keeps the dynamic-programming cost matrices and scalar evaluations on a
single code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import CandidateGrid, build_grid, segment_stats

KINDS = ("poisson", "poisson_gamma", "marked_poisson", "marked_pgeg")
MARKED_KINDS = ("marked_poisson", "marked_pgeg")
MARGINAL_KINDS = ("poisson_gamma", "marked_pgeg")


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _lgamma_shifted(count, shift):
    # Large integer-count arrays go through a lookup table: gammaln is
    # by far the most expensive piece of a cost matrix and counts only
    # take n + 1 distinct values. Bit-identical to the direct call.
    arr = np.asarray(count, dtype=np.float64)
    if arr.ndim >= 2 and arr.size > 4096:
        top = int(arr.max())
        table = gammaln(np.arange(top + 1, dtype=np.float64) + shift)
        return table[arr.astype(np.intp)]
    return gammaln(arr + shift)


def _log_ratio(c, x):
    """log(c / x), taken as log c - log x where c / x overflows for x > 0.

    The quotient overflows once x is below about c * 5.6e-309 although
    its logarithm is finite; every other entry keeps the plain log of
    the quotient.
    """
    out = np.log(c / x)
    over = np.isposinf(out) & (x > 0.0)
    if over.any():
        out = np.where(over, np.log(c) - np.log(x), out)
    return out


def poisson_cost(count, length):
    """Negated maximized Poisson log-likelihood of one segment.

    Zero counts cost exactly 0 whatever the length. A positive count on
    a zero-length segment costs +inf: its likelihood is unbounded.
    """
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = c * (1.0 - _log_ratio(c, d))
    out = np.where(c == 0.0, 0.0, out)
    out = np.where((c > 0.0) & (d == 0.0), np.inf, out)
    return _scalar_or_array(out)


def poisson_gamma_cost(count, length, a, b):
    """Negated log marginal likelihood of one segment, Gamma(a, b) prior.

    Finite for every nonnegative (count, length); the per-model prior
    constant is charged one share per segment so that totals of
    different segment counts remain comparable.
    """
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (c + a) * np.log(d + b) - _lgamma_shifted(c, a) + (gammaln(a) - a * np.log(b))
    return _scalar_or_array(out)


def marked_poisson_cost(count, length, mark_sum):
    """Negated maximized log-likelihood with exponential marks.

    As for ``poisson_cost``, a positive count on a zero length or a zero
    mark sum costs +inf.
    """
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    s = np.asarray(mark_sum, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = c * (2.0 - _log_ratio(c, d) - _log_ratio(c, s))
    out = np.where(c == 0.0, 0.0, out)
    out = np.where((c > 0.0) & ((d == 0.0) | (s == 0.0)), np.inf, out)
    return _scalar_or_array(out)


def marked_pgeg_cost(count, length, mark_sum, a, b, a_rho, b_rho):
    """Negated log marginal likelihood with Gamma priors on both rates.

    The event rate gets a Gamma(a, b) prior and the exponential mark
    rate a Gamma(a_rho, b_rho) prior; conjugacy gives the closed form
    below. Finite for all valid inputs.
    """
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    s = np.asarray(mark_sum, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            (c + a) * np.log(d + b)
            - _lgamma_shifted(c, a)
            + (c + a_rho) * np.log(s + b_rho)
            - _lgamma_shifted(c, a_rho)
            + (gammaln(a) - a * np.log(b))
            + (gammaln(a_rho) - a_rho * np.log(b_rho))
        )
    return _scalar_or_array(out)


def _check_prior_constant(a_name, a, b_name, b) -> None:
    # every marginal cost adds lgamma(a) - a log b; were it not finite, costs would be NaN
    with np.errstate(all="ignore"):
        finite = np.isfinite(gammaln(a) - a * np.log(b))
    if not finite:
        raise ValueError(f"hyper-parameters {a_name} = {a!r} and {b_name} = {b!r} give a "
                         f"non-finite prior constant lgamma({a_name}) - {a_name} log {b_name}")


@dataclass(frozen=True)
class ContrastSpec:
    """Cost family plus hyper-parameters.

    ``forbid_empty`` prices every segment holding no event at +inf, so
    each segment of an optimum holds at least one event and K above n is
    inadmissible. Counts are constant inside a grid cell, so the
    restricted optimum still lies on the candidate grid.
    """

    kind: str
    a: float = 1.0
    b: float = 1.0
    a_rho: float = 2.01
    b_rho: float = 1.0
    forbid_empty: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown contrast kind {self.kind!r}; choose from {KINDS}")
        if self.kind in MARGINAL_KINDS:
            if not (self.a > 0.0 and self.b > 0.0):
                raise ValueError("hyper-parameters a and b must be positive")
            _check_prior_constant("a", self.a, "b", self.b)
        if self.kind == "marked_pgeg":
            if not self.a_rho > 2.0:
                raise ValueError("a_rho must exceed 2 so the mark-rate prior has a variance")
            if not self.b_rho > 0.0:
                raise ValueError("b_rho must be positive")
            _check_prior_constant("a_rho", self.a_rho, "b_rho", self.b_rho)

    @property
    def requires_marks(self) -> bool:
        return self.kind in MARKED_KINDS


def segment_cost(spec: ContrastSpec, count, length, mark_sum=None):
    """Cost of one segment (or an array of segments) under ``spec``."""
    if spec.requires_marks:
        if mark_sum is None:
            raise ValueError(f"contrast kind {spec.kind!r} requires marked data")
        if spec.kind == "marked_poisson":
            out = marked_poisson_cost(count, length, mark_sum)
        else:
            out = marked_pgeg_cost(
                count, length, mark_sum, spec.a, spec.b, spec.a_rho, spec.b_rho
            )
    elif spec.kind == "poisson":
        out = poisson_cost(count, length)
    else:
        out = poisson_gamma_cost(count, length, spec.a, spec.b)
    if spec.forbid_empty:
        out = _scalar_or_array(np.where(np.asarray(count) == 0, np.inf, out))
    return out


def default_spec(data, kind: str | None = None, a: float = 1.0) -> ContrastSpec:
    """Data-driven hyper-parameters: prior mean rate equal to n.

    Uses b = a / n so the prior rate expectation a / b equals the
    observed event count n, the event rate per unit of normalized time.
    For marked data a_rho = 2.01 with b_rho = mean(marks) * (a_rho - 1),
    so the prior mean of the mean mark 1 / rho is the average mark and,
    with a_rho > 2, has a finite variance.
    """
    if data.n == 0:
        raise ValueError("cannot derive hyper-parameters from an empty series")
    marked = data.marks is not None
    if kind is None:
        kind = "marked_pgeg" if marked else "poisson_gamma"
    if kind in MARKED_KINDS and not marked:
        raise ValueError(f"contrast kind {kind!r} requires marked data")
    b = a / data.n
    if kind == "marked_pgeg":
        a_rho = 2.01
        b_rho = float(np.mean(data.marks)) * (a_rho - 1.0)
        return ContrastSpec(kind, a=a, b=b, a_rho=a_rho, b_rho=b_rho)
    return ContrastSpec(kind, a=a, b=b)


def contrast(data, spec: ContrastSpec, indices) -> float:
    """Total cost of the segmentation with change-points at ``indices``.

    ``data`` is a series or its candidate grid and ``indices`` the
    interior grid indices of the change-points (``seg.indices`` for a
    Segmentation). Empty zero-length segments, possible only with tied
    event times, are priced at +inf as in the solver's cost matrix. The
    pieces are summed right to left, matching the dynamic program, so
    an optimal value reported by the solver reproduces bit for bit here.
    """
    grid = data if isinstance(data, CandidateGrid) else build_grid(data)
    counts, lengths, sums = segment_stats(grid, indices)
    pieces = np.asarray(segment_cost(spec, counts, lengths, sums), dtype=np.float64)
    pieces[(counts == 0) & (lengths == 0.0)] = np.inf
    pieces = pieces.tolist()
    total = pieces[-1]
    for piece in reversed(pieces[:-1]):
        total = piece + total
    return total


def posterior_mean_rate(count, length, a, b):
    """Posterior expectation of a segment rate under a Gamma(a, b) prior.

    With the segment's mark sum as ``length`` this is the posterior mean
    of its exponential mark rate.
    """
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    return _scalar_or_array((c + a) / (d + b))


def mle_rate(count, length):
    """count / length with the empty-segment convention 0 / 0 = 0."""
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c / d
    out = np.where((c == 0.0) & (d == 0.0), 0.0, out)
    return _scalar_or_array(out)


def segment_rates(spec: ContrastSpec, counts, lengths, mark_sums=None):
    """Per-segment rate and mark-rate estimates under ``spec``.

    The marginal kinds report posterior means under their Gamma priors,
    the likelihood kinds the maximum-likelihood rates. Mark rates are
    None unless the kind models marks.
    """
    marked = spec.requires_marks
    if spec.kind in MARGINAL_KINDS:
        rates = posterior_mean_rate(counts, lengths, spec.a, spec.b)
        mark_rates = (posterior_mean_rate(counts, mark_sums, spec.a_rho, spec.b_rho)
                      if marked else None)
    else:
        rates = mle_rate(counts, lengths)
        mark_rates = mle_rate(counts, mark_sums) if marked else None
    return rates, mark_rates


def poisson_loglik(counts, lengths, rates) -> float:
    """Log-likelihood of per-segment counts under given rates.

    Terms with a zero count contribute only the exposure -rate * length;
    a positive count on a zero rate yields -inf.
    """
    c = np.asarray(counts, dtype=np.float64)
    d = np.asarray(lengths, dtype=np.float64)
    r = np.asarray(rates, dtype=np.float64)
    if not (c.shape == d.shape == r.shape):
        raise ValueError("counts, lengths and rates must have matching shapes")
    with np.errstate(divide="ignore", invalid="ignore"):
        occ = c * np.log(r)
    occ = np.where(c == 0.0, 0.0, occ)
    return float(np.sum(occ - r * d))


def marked_loglik(counts, lengths, mark_sums, rates, mark_rates) -> float:
    """Joint log-likelihood of counts and exponential marks."""
    c = np.asarray(counts, dtype=np.float64)
    s = np.asarray(mark_sums, dtype=np.float64)
    rho = np.asarray(mark_rates, dtype=np.float64)
    if not (c.shape == s.shape == rho.shape):
        raise ValueError("counts, mark sums and mark rates must have matching shapes")
    base = poisson_loglik(counts, lengths, rates)
    with np.errstate(divide="ignore", invalid="ignore"):
        occ = c * np.log(rho)
    occ = np.where(c == 0.0, 0.0, occ)
    return base + float(np.sum(occ - rho * s))
