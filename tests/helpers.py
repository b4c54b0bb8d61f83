"""Scalar pure-python reference implementations for cross-checks.

Everything here deliberately avoids numpy vectorization and scipy so
that agreement with the library is evidence, not tautology. math.lgamma
is an independent code path from scipy's gammaln. The oracles at the
end are the exception: they check how the library batches its work, not
its formulas. The dense cost matrix and suffix table check the solver's
row blocking, and call the library's vectorized ``segment_cost`` on the
whole grid at once; ``reconstruct_one`` and ``per_k_cross_validate``
reconstruct and score one K at a time, which the library does for all K
in one pass. ``edge_events`` is a hypothesis strategy for the inputs
that break naive code.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from ppseg import ContrastSpec, EventSeries, build_grid, default_spec, segment_cost, segment_stats
from ppseg.contrasts import poisson_gamma_cost, posterior_mean_rate
from ppseg.dp import solve
from ppseg.selection import _stderr, thin

INF = float("inf")

# one line per passed acceptance criterion; the conftest terminal hook
# replays these after the run summary
ACCEPTANCE_LINES: list[str] = []


def naive_cost(spec: ContrastSpec, count, length, mark_sum=None) -> float:
    c, d = float(count), float(length)
    if c == 0.0 and d == 0.0:
        return INF  # empty zero-length segments are never admissible
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
        s = None if pref is None else float(pref[hi // 2] - pref[lo // 2])
        total += naive_cost(spec, c, d, s)  # no piece is -inf, so +inf absorbs
    return total


_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1
_EDGE_TIMES = (st.integers(1, 4).map(lambda i: i * 1e-300)
               | st.integers(0, 3).map(lambda i: _BELOW_ONE - i * 2.0 ** -53)
               | st.sampled_from([0.25, 0.5])
               | st.floats(0.001, 0.999))


@st.composite
def edge_events(draw):
    """Times with ties, a single event, or events near 0 or 1, and marks
    from 1e-300 to 1e300 or None."""
    times = sorted(draw(st.lists(_EDGE_TIMES, min_size=1, max_size=5)))
    if not draw(st.booleans()):
        return times, None
    return times, draw(st.lists(st.floats(1e-300, 1e300), min_size=len(times),
                                max_size=len(times)))


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


def dense_cost_matrix(grid, spec: ContrastSpec) -> np.ndarray:
    """One-shot (2n + 2)^2 construction of the prices the solver's sweep
    builds a block of rows at a time; cost[i + 1, j] prices (tp_i, tp_j].

    Evaluates every entry, lower triangle included, then masks; every row
    the sweep builds, keeps or prices again must equal it bit for bit.
    """
    A = grid.size
    idx = np.arange(A + 2)
    ev = idx // 2
    nu = ev[None, :] - ev[:, None]
    dt = grid.values[None, :] - grid.values[:, None]
    degenerate = (nu == 0) & (dt == 0.0)
    np.maximum(nu, 0, out=nu)
    sm = None
    if grid.mark_prefix is not None:
        pref = grid.mark_prefix[ev]
        sm = pref[None, :] - pref[:, None]
    f = segment_cost(spec, nu, dt, sm)
    f[degenerate] = np.inf
    cost = np.full((A + 2, A + 2), np.inf)
    cost[1:, :] = f[:-1, :]
    cost[idx[:, None] > idx[None, :]] = np.inf
    return cost


def dense_suffix_table(cost: np.ndarray, kmax: int) -> np.ndarray:
    """Suffix table over the whole cost matrix, +inf half included."""
    A = cost.shape[0] - 2
    S = np.full((kmax + 1, A + 1), np.inf)
    S[1] = cost[1:, A + 1]
    m = cost[1:, : A + 1]
    for r in range(2, kmax + 1):
        S[r] = (m + S[r - 1][None, :]).min(axis=1)
    return S


def reconstruct_one(cost: np.ndarray, suffix: np.ndarray, k: int) -> list[int]:
    """Change-point indices of the optimum at one K, from the tables.

    Each step takes the first grid index whose candidate row, with the
    pieces already chosen folded on right to left, equals the optimum.
    """
    A = suffix.shape[1] - 1
    best = suffix[k, 0]
    indices: list[int] = []
    pieces: list[float] = []
    prev = 0
    for r in range(k - 1, 0, -1):
        total = cost[prev + 1, : A + 1] + suffix[r]
        for piece in reversed(pieces):
            total = piece + total
        j = int(np.argmax(total == best))
        pieces.append(cost[prev + 1, j])
        indices.append(j)
        prev = j
    return indices


def per_k_cross_validate(data, cfg):
    """``cross_validate`` scoring each K of a replicate on its own.

    Returns the means, standard errors and counts per K, and how many
    zero-length segments of the learned segmentations were scored.
    """
    ratio = (1.0 - cfg.fraction) / cfg.fraction
    gammas = np.full((cfg.replicates, cfg.kmax), np.nan)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    zero_length = 0
    for m in range(cfg.replicates):
        learn, test = thin(data, cfg.fraction, np.random.default_rng(streams[m]))
        if learn.n == 0:
            continue
        spec = replace(default_spec(learn, a=cfg.prior_shape), forbid_empty=True)
        grid = build_grid(learn)
        for res in solve(grid, spec, cfg.kmax):
            seg = res.segmentation
            if seg is None:
                continue
            counts, lengths, sums = segment_stats(grid, seg.indices)
            zero_length += int(np.count_nonzero(lengths == 0.0))
            pos = np.searchsorted(test.times, np.concatenate(([0.0], seg.values, [1.0])),
                                  side="right")
            test_counts = pos[1:] - pos[:-1]
            keep = lengths > 0.0
            d = lengths[keep]
            score = float(np.sum(poisson_gamma_cost(test_counts[keep], d, spec.a * d + counts[keep],
                                                     d * (1.0 + spec.b) / ratio)))
            if test.mark_prefix is not None:
                pref = test.mark_prefix[pos]
                rho = posterior_mean_rate(counts, sums, spec.a_rho - 1.0, spec.b_rho)
                score += float(np.sum(rho * (pref[1:] - pref[:-1]) - test_counts * np.log(rho)))
            gammas[m, res.k - 1] = score
    means, stderrs, counts_k = [], [], []
    for col in gammas.T:
        col = col[~np.isnan(col)]
        means.append(float(np.mean(col)) if col.size else math.nan)
        stderrs.append(float(_stderr(col)) if col.size >= 2 else 0.0)
        counts_k.append(col.size)
    return tuple(means), tuple(stderrs), tuple(counts_k), zero_length
