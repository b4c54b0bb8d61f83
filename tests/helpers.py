"""Scalar pure-python reference implementations for cross-checks.

Everything here deliberately avoids numpy vectorization and scipy so
that agreement with the library is evidence, not tautology. math.lgamma
is an independent code path from scipy's gammaln.
"""

import math

import numpy as np

from ppseg import ContrastSpec, EventSeries

INF = float("inf")

# one line per passed acceptance criterion; the conftest terminal hook
# replays these after the run summary
ACCEPTANCE_LINES: list[str] = []


def naive_cost(spec: ContrastSpec, count, length, mark_sum=None) -> float:
    c, d = float(count), float(length)
    if spec.kind == "poisson":
        if c == 0.0:
            return 0.0
        if d == 0.0:
            return INF
        return c * (1.0 - math.log(c / d))
    if spec.kind == "poisson_gamma":
        a, b = spec.a, spec.b
        return (
            (c + a) * math.log(d + b)
            - math.lgamma(c + a)
            + (math.lgamma(a) - a * math.log(b))
        )
    s = float(mark_sum)
    if spec.kind == "marked_poisson":
        if c == 0.0:
            return 0.0
        if d == 0.0 or s == 0.0:
            return INF
        return c * (2.0 - math.log(c / d) - math.log(c / s))
    a, b, ar, br = spec.a, spec.b, spec.a_rho, spec.b_rho
    return (
        (c + a) * math.log(d + b)
        - math.lgamma(c + a)
        + (c + ar) * math.log(s + br)
        - math.lgamma(c + ar)
        + (math.lgamma(a) - a * math.log(b))
        + (math.lgamma(ar) - ar * math.log(br))
    )


def naive_contrast(series, spec: ContrastSpec, indices) -> float:
    """Total cost of a change-point index tuple, summed left to right."""
    times = series.times
    n = times.size
    vals = np.concatenate(([0.0], np.repeat(times, 2), [1.0]))
    pref = None
    if series.marks is not None:
        pref = np.concatenate(([0.0], np.cumsum(series.marks)))
    path = [0, *indices, 2 * n + 1]
    total = 0.0
    for lo, hi in zip(path[:-1], path[1:]):
        c = hi // 2 - lo // 2
        d = float(vals[hi] - vals[lo])
        if c == 0 and d == 0.0:
            piece = INF  # empty zero-length segments are never admissible
        else:
            s = None if pref is None else float(pref[hi // 2] - pref[lo // 2])
            piece = naive_cost(spec, c, d, s)
        total += piece  # no piece is -inf, so +inf absorbs
    return total


def random_series(rng: np.random.Generator, n_max=6, marked=False, allow_ties=True):
    n = int(rng.integers(0, n_max + 1))
    times = np.sort(rng.uniform(0.02, 0.98, size=n))
    if allow_ties and n >= 2 and rng.random() < 0.3:
        i = int(rng.integers(0, n - 1))
        times[i + 1] = times[i]
    if marked:
        return EventSeries(times, rng.exponential(2.0, size=n) + 1e-9)
    return EventSeries(times)


def spec_variants(marked=False):
    specs = [
        ContrastSpec("poisson"),
        ContrastSpec("poisson_gamma", a=1.0, b=0.5),
        ContrastSpec("poisson_gamma", a=2.0, b=0.25),
    ]
    if marked:
        specs += [
            ContrastSpec("marked_poisson"),
            ContrastSpec("marked_pgeg", a=1.0, b=0.5),
            ContrastSpec("marked_pgeg", a=0.5, b=1.0, a_rho=3.0, b_rho=2.0),
        ]
    return specs


def poisson_loglik(counts, lengths, rates) -> float:
    """Log-likelihood of per-segment counts under given rates.

    Terms with a zero count contribute only the exposure -rate * length.
    """
    total = 0.0
    for c, d, r in zip(counts, lengths, rates):
        total += (c * math.log(r) if c else 0.0) - r * d
    return total


def marked_loglik(counts, lengths, mark_sums, rates, mark_rates) -> float:
    """Joint log-likelihood of counts and exponential marks."""
    total = poisson_loglik(counts, lengths, rates)
    for c, s, rho in zip(counts, mark_sums, mark_rates):
        total += (c * math.log(rho) if c else 0.0) - rho * s
    return total
