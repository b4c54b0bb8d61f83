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

Every cost lies in (-inf, +inf]. Events on a zero length or mark sum
have an unbounded maximized likelihood, a degenerate maximum and not an
estimate, priced +inf by ``likelihood_cost``; the marginal costs are
finite there. An empty segment of zero length (only tied times give
one), or any under ``forbid_empty``, is +inf for every kind, set by
``segment_cost`` and by the solver's block pricer. A positive length or
mark sum so small that count / length overflows keeps a finite cost
through log count - log length. +inf absorbs under IEEE addition, so
totals need no special arithmetic.

Every function accepts scalars or numpy arrays of matching shape. Each
family's formula is written once, in ``marginal_cost`` over its parts (c
+ a, log(d + b), lgamma(c + a) and the prior constant) and in
``likelihood_cost``: scalar evaluations and the solver's cost blocks,
priced in place from tables, both go through them and get the same bits.
lgamma is ``special.gammaln``, a port of scipy's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import as_grid, segment_stats
from .special import gammaln

KINDS = ("poisson", "poisson_gamma", "marked_poisson", "marked_pgeg")
MARKED_KINDS = ("marked_poisson", "marked_pgeg")
MARGINAL_KINDS = ("poisson_gamma", "marked_pgeg")


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def prior_constant(a, b):
    """lgamma(a) - a log b, the share of the prior each marginal segment pays."""
    return gammaln(a) - a * np.log(b)


def marginal_cost(ca, log_db, lg_ca, prior, marks=None, out=None):
    """The marginal cost from its parts, in one order of operations.

    (c + a) log(d + b) - lgamma(c + a) + prior, from ``ca`` = c + a,
    ``log_db`` = log(d + b), ``lg_ca`` = lgamma(c + a) and ``prior`` =
    ``prior_constant(a, b)``. For ``marked_pgeg``, ``marks`` holds the
    mark term (c + a_rho) log(s + b_rho), lgamma(c + a_rho) and
    ``prior_constant(a_rho, b_rho)``, with the mark sum s; its terms come
    before the prior constants. ``segment_cost`` and the solver's block
    pricer both call it, each with the parts as defined here, so both
    give the same bits. The parts are of matching shape or broadcast to
    that of ``ca * log_db``, which holds the sum, in ``out`` when given:
    a block-sized temporary per term costs more than its arithmetic.
    """
    out = np.multiply(ca, log_db, out=out)
    out -= lg_ca
    if marks is not None:
        mark_term, lg_car, prior_rho = marks
        out += mark_term
        out -= lg_car
        out += prior
        out += prior_rho
        return out
    out += prior
    return out


def log_ratio(c, x, out=None):
    """log(c / x) in ``out`` when given, which may be ``x``; log c - log x
    only where c / x overflows for x > 0, as its log is still finite. Such
    an x lies below max(c) 2^-1000, and its log is taken before ``out``
    overwrites it."""
    c, x = np.broadcast_arrays(c, x)
    tiny = (x > 0.0) & (x < np.max(c, initial=0.0) * 2.0**-1000)
    fallback = np.log(c[tiny]) - np.log(x[tiny])
    out = np.empty(c.shape) if out is None else out
    np.log(np.divide(c, x, out=out), out=out)
    out[tiny] = np.where(np.isposinf(out[tiny]), fallback, out[tiny])
    return out


def likelihood_cost(c, d, log_cs=None, out=None):
    """c (1 - log(c / d)), or c ((2 - log(c / d)) - log(c / s)) with
    ``log_cs`` = log(c / s), in this order of operations and in ``out`` when
    given; 0 for c = 0. Events on a zero length or mark sum make it -inf, as
    log(c / 0) = +inf, and only they: an unbounded likelihood, priced +inf."""
    out = log_ratio(c, d, out)
    np.subtract(1.0 if log_cs is None else 2.0, out, out=out)
    if log_cs is not None:
        out -= log_cs
    out *= c
    np.copyto(out, 0.0, where=c == 0.0)  # 0 (1 - log 0) is NaN, as is 0 / 0
    np.copyto(out, np.inf, where=np.isneginf(out))
    return out


def poisson_gamma_cost(count, length, a, b):
    """Negated log marginal likelihood of one segment, Gamma(a, b) prior.

    Finite for every nonnegative (count, length); the per-model prior
    constant is charged one share per segment so that totals of
    different segment counts remain comparable.
    """
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ca = c + a
        out = marginal_cost(ca, np.log(d + b), gammaln(ca), prior_constant(a, b))
    return _scalar_or_array(out)


def _check_prior_constant(a_name, a, b_name, b) -> None:
    # every marginal cost adds lgamma(a) - a log b; were it not finite, costs would be NaN
    with np.errstate(all="ignore"):
        finite = np.isfinite(prior_constant(a, b))
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


def require_marks(spec: ContrastSpec, marked: bool) -> None:
    """ValueError when ``spec`` models marks and the data have none."""
    if spec.requires_marks and not marked:
        raise ValueError(f"contrast kind {spec.kind!r} requires marked data")


def segment_cost(spec: ContrastSpec, count, length, mark_sum=None):
    """Cost of one segment (or an array of segments) under ``spec``: one
    formula per family, then +inf for an empty segment at zero length or
    under ``forbid_empty``. Unmarked kinds ignore ``mark_sum``."""
    require_marks(spec, mark_sum is not None)
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    s = np.asarray(mark_sum, dtype=np.float64) if spec.requires_marks else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind in MARGINAL_KINDS:
            ca, marks = c + spec.a, None
            if s is not None:
                car = c + spec.a_rho
                marks = (car * np.log(s + spec.b_rho), gammaln(car),
                         prior_constant(spec.a_rho, spec.b_rho))
            out = marginal_cost(ca, np.log(d + spec.b), gammaln(ca), prior_constant(spec.a, spec.b),
                                marks)
        else:
            out = likelihood_cost(c, d, None if s is None else log_ratio(c, s))
    out = np.asarray(out)
    out[(c == 0.0) & (spec.forbid_empty | (d == 0.0))] = np.inf
    return _scalar_or_array(out)


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
    Segmentation). The ``segment_cost`` pieces are summed right to left,
    matching the dynamic program, so an optimal value reported by the
    solver reproduces bit for bit here.
    """
    counts, lengths, sums = segment_stats(as_grid(data), indices)
    pieces = segment_cost(spec, counts, lengths, sums).tolist()
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
    """count / length, 0 / 0 = 0 for an empty segment and +inf past the float range."""
    c = np.asarray(count, dtype=np.float64)
    d = np.asarray(length, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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

