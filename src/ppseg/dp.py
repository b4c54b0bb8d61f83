"""Exact segmentation search over the candidate grid.

Optimal change-points of a concave per-segment cost always sit on the
2n-point candidate grid, so minimizing over continuous change-point
vectors reduces to a discrete shortest-path problem. ``solve`` prices
every segment in one cost matrix, evaluating only its upper triangle,
a block of rows at a time, and fills one dynamic-programming suffix
table over it in the same blocks. That takes O((2n)^2 Kmax) time; past
the 8 (2n + 2)^2 bytes of the matrix, memory is O(n (Kmax + block
rows)). It returns, for every segment count K up to Kmax, the optimal
segmentation and its contrast. ``brute_force`` enumerates every
candidate subset and is the independent oracle for small instances.

Ties are broken toward the lexicographically smallest change-point
index vector. The solver achieves this with a suffix table: the first
change-point is chosen as the smallest grid index attaining the optimum
of (first segment cost) + (optimal remaining cost), then the argument
repeats on the remainder. Two partial sums can differ by an ulp while
the whole right-to-left totals tie exactly, so each step folds the
pieces already chosen onto the candidate row, in the order ``contrast``
sums them, and takes the first index whose total equals the optimum.
Rounding is monotone, so this is the lexicographically first optimum.

Every segment cost lies in (-inf, +inf] (see ``contrasts``), so plain
IEEE addition accumulates the tables and +inf absorbs.

Configurations with zero events and zero length (possible only with
tied event times) carry no information and are excluded from the search
by pricing them at +inf.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb

import numpy as np

from .contrasts import ContrastSpec, contrast, segment_cost
from .model import (
    CandidateGrid,
    Segmentation,
    build_grid,
    segmentation_from_indices,
)

TIES_WARNING = "event times contain ties"

# Rows per block of the cost matrix build and the suffix DP. A block
# touches only the columns right of its first row, so the +inf lower
# triangle is never evaluated and work arrays hold _BLOCK rows at a time.
_BLOCK = 128

# Peak bytes per entry of one block (_BLOCK rows by up to 2n + 1
# columns) that ``solve`` allocates besides the cost matrix and the
# suffix table: the count, length and mark-sum arrays and the
# temporaries of the cost formulas. The tracemalloc peak beyond those
# two tables is 64 to 72 bytes per block entry for ``marked_pgeg`` at
# n = 64 to 3000, and less for the other kinds.
_BYTES_PER_BLOCK_ENTRY = 80


def _as_grid(data) -> CandidateGrid:
    return data if isinstance(data, CandidateGrid) else build_grid(data)


def build_cost_matrix(data, spec: ContrastSpec) -> np.ndarray:
    """Dense matrix C with C[i, j] = cost of segment (tp_{i-1}, tp_j].

    Valid for 1 <= i <= j <= A + 1 where A = 2n; every other entry is
    +inf. Row 0 is padding so that indices match the usual recurrence
    C[K, h] = min_j C[K-1, j] + C(j+1 : h).
    """
    grid = _as_grid(data)
    A = grid.size
    ev = np.arange(A + 2) // 2
    vals = grid.values
    pref = None if grid.mark_prefix is None else grid.mark_prefix[ev]
    cost = np.empty((A + 2, A + 2))
    cost[0] = np.inf
    # cost[i + 1, j] prices (tp_i, tp_j]; a block of rows i in [lo, hi)
    # is evaluated only on the columns j > lo, the rest is +inf
    for lo in range(0, A + 1, _BLOCK):
        hi = min(lo + _BLOCK, A + 1)
        nu = ev[None, lo + 1:] - ev[lo:hi, None]
        dt = vals[None, lo + 1:] - vals[lo:hi, None]
        degenerate = (nu == 0) & (dt == 0.0)
        np.maximum(nu, 0, out=nu)  # left of the diagonal, masked below
        sm = None if pref is None else pref[None, lo + 1:] - pref[lo:hi, None]
        f = segment_cost(spec, nu, dt, sm)
        f[degenerate] = np.inf
        f[np.tri(*f.shape, -1, dtype=bool)] = np.inf  # j <= i
        cost[lo + 1:hi + 1, :lo + 1] = np.inf
        cost[lo + 1:hi + 1, lo + 1:] = f
    return cost


def _suffix_table(cost: np.ndarray, kmax: int) -> np.ndarray:
    """S[r, j] = optimal cost of splitting (tp_j, 1] into r segments."""
    A = cost.shape[0] - 2
    S = np.full((kmax + 1, A + 1), np.inf)
    S[1] = cost[1:, A + 1]
    if kmax >= 2:
        w = np.empty((min(_BLOCK, A), A))
        # Row j reads S[r - 1] only right of j, so blocks run bottom-up and
        # each block finishes every r before the block above it starts.
        # Row A has no segment left to split and stays +inf.
        for lo in reversed(range(0, A, _BLOCK)):
            hi = min(lo + _BLOCK, A)
            m = cost[lo + 1:hi + 1, lo + 1:A + 1]  # m[j - lo, l - lo - 1] prices (tp_j, tp_l]
            wb = w[:hi - lo, :A - lo]
            for r in range(2, kmax + 1):
                np.add(m, S[r - 1, lo + 1:], out=wb)
                S[r, lo:hi] = wb.min(axis=1)
    return S


@dataclass(eq=False)
class SolveResult:
    k: int
    feasible: bool
    segmentation: Segmentation | None
    contrast: float | None
    warnings: tuple[str, ...] = ()


def _reconstruct(cost: np.ndarray, suffix: np.ndarray, k: int) -> list[int]:
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


def solve_bytes(n: int, kmax: int) -> int:
    """Upper estimate of the memory ``solve`` allocates for n events."""
    side = 2 * n + 2
    return 8 * side * side + _BYTES_PER_BLOCK_ENTRY * _BLOCK * side + 8 * (kmax + 1) * side


def solve(data, spec: ContrastSpec, kmax: int) -> list[SolveResult]:
    """Optimal segmentations for every segment count 1..kmax.

    A segment count K is infeasible when K - 1 exceeds the number of
    interior grid positions; such entries are flagged rather than given
    a sentinel cost. Series whose cost matrix would not fit in physical
    memory are refused.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    grid = _as_grid(data)
    need = solve_bytes(grid.n, kmax)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"solve at n = {grid.n} events needs about {need / 2**30:.1f} GiB for its "
            f"cost matrix and suffix table, more than the {have / 2**30:.1f} GiB of physical memory"
        )
    cost = build_cost_matrix(grid, spec)
    suffix = _suffix_table(cost, kmax)
    base_warn = (TIES_WARNING,) if grid.events.has_ties else ()
    results: list[SolveResult] = []
    for k in range(1, kmax + 1):
        if k - 1 > grid.size:
            results.append(SolveResult(k, False, None, None, base_warn))
            continue
        value = float(suffix[k, 0])
        if value == np.inf:
            # only reachable when ties make every candidate degenerate
            results.append(
                SolveResult(k, True, None, np.inf, base_warn + ("no admissible segmentation",))
            )
            continue
        seg = segmentation_from_indices(grid, _reconstruct(cost, suffix, k))
        results.append(SolveResult(k, True, seg, value, base_warn))
    return results


def brute_force(data, spec: ContrastSpec, k: int, limit: int = 1_000_000) -> SolveResult:
    """Exhaustive search over all change-point subsets at segment count k.

    Keeps the first optimum in lexicographic enumeration order, which is
    the same tie rule as ``solve``. Only intended for small instances;
    instances beyond ``limit`` candidates are refused.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    grid = _as_grid(data)
    A = grid.size
    if k - 1 > A:
        return SolveResult(k, False, None, None)
    if comb(A, k - 1) > limit:
        raise ValueError(f"brute force would enumerate more than {limit} candidates")
    best_value: float | None = None
    best: tuple[int, ...] | None = None
    for combo in itertools.combinations(range(1, A + 1), k - 1):
        value = contrast(grid, spec, combo)
        if best_value is None or value < best_value:
            best_value = value
            best = combo
    assert best_value is not None
    if best_value == np.inf:
        return SolveResult(k, True, None, np.inf, ("no admissible segmentation",))
    return SolveResult(k, True, segmentation_from_indices(grid, best), best_value)


def upsilon_cardinality(n: int, k: int) -> int:
    """Number of count vectors: k nonnegative integers summing to n."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return comb(n + k - 1, k - 1)


def upsilon_star_cardinality(n: int, k: int) -> int:
    """Count vectors whose interior zeros are isolated.

    A zero count in an interior position must have nonzero counts on
    both sides; such vectors are exactly the ones a grid segmentation
    can induce. Closed form for n >= 1; n = 0 is handled directly (the
    all-zero vector is admissible only for k <= 2).
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 1 if k <= 2 else 0
    total = 0
    for h in range(1, k + 1):
        if k - h <= h + 1:
            total += comb(n - 1, h - 1) * comb(h + 1, k - h)
    return total


def enumerate_count_vectors(n: int, k: int, starred: bool = False):
    """Yield every count vector of n events in k segments exactly once.

    With ``starred`` the enumeration skips vectors containing an
    interior zero adjacent to another zero. Exponential in k; meant for
    verification at small sizes.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    for dividers in itertools.combinations(range(n + k - 1), k - 1):
        bounds = (-1, *dividers, n + k - 1)
        vec = tuple(hi - lo - 1 for lo, hi in zip(bounds[:-1], bounds[1:]))
        if starred and any(
            vec[i] == 0 and (vec[i - 1] == 0 or vec[i + 1] == 0) for i in range(1, k - 1)
        ):
            continue
        yield vec
