"""Exact segmentation search over the candidate grid.

Optimal change-points of a concave per-segment cost always sit on the
2n-point candidate grid, so minimizing over continuous change-point
vectors reduces to a discrete shortest-path problem. ``solve`` fills
one dynamic-programming suffix table in a single bottom-up sweep over
blocks of rows of the segment prices: each block is priced where the
sweep uses it, on its upper triangle only and in column chunks of a
fixed width, and then dropped. Only the rows of the first grid
positions that fit a fixed byte budget are kept for the
reconstruction, which prices any other row it needs again, bit for
bit. The sweep fills S[1 .. Kmax - 1] and, from row 0 of the top
block, row 0 of S[Kmax], the one entry of it anything reads. That
takes O((2n)^2 Kmax) time and O(n Kmax) memory beyond two constants,
the kept rows and one chunk's work arrays; no (2n + 2)^2 matrix is
ever held. It returns, for every segment count K up to Kmax, the
optimum's change-point indices and its contrast. ``brute_force``
enumerates every candidate subset and is the independent oracle for
small instances.

Ties are broken toward the lexicographically smallest change-point
index vector. The solver achieves this with a suffix table: the first
change-point is chosen as the smallest grid index attaining the optimum
of (first segment cost) + (optimal remaining cost), then the argument
repeats on the remainder. Two partial sums can differ by an ulp while
the whole right-to-left totals tie exactly, so each step folds the
pieces already chosen onto the candidate row, in the order ``contrast``
sums them, and takes the first index whose total equals the optimum.
Rounding is monotone, so this is the lexicographically first optimum.
The reconstruction runs for every K in one pass: step s stacks the
candidate rows of all K that still need an s-th change-point, and each
row sees the same additions, in the same order, as it would alone.

A block is priced from event-level tables, not entry by entry, which
``build_cost_matrix`` reads off the grid's slots. Grid indices 2q and
2q + 1 lie right of the same q events, and 2m - 1 and 2m sit at the
same time, so it prices a block as its even and its odd columns, takes
log(d + b) once per distinct pair of times (about a quarter of the
entries) and log(s + b_rho) once per pair of events, and reads c + a
and lgamma(c + a) off count tables kept on the grid per prior shift.
The parts go through the formula ``segment_cost`` uses, in the same
order, so every price keeps its bits.

Every segment cost lies in (-inf, +inf] (see ``contrasts``), so plain
IEEE addition accumulates the tables and +inf absorbs. The block pricer
sets +inf only where it can occur: left of the diagonal, and for the
marginal kinds the one empty segment right of each even row, under
``forbid_empty`` or where it has zero length, which only tied event
times produce. ``segment_cost`` sets the likelihood kinds' +inf prices.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import InitVar, dataclass, field
from math import comb

import numpy as np
from scipy.special import gammaln

from .contrasts import (
    MARGINAL_KINDS,
    ContrastSpec,
    contrast,
    marginal_cost,
    prior_constant,
    require_marks,
    segment_cost,
)
from .model import (
    CandidateGrid,
    Segmentation,
    as_grid,
    require_integer,
    segmentation_from_indices,
)

TIES_WARNING = "event times contain ties"

# Rows per block of the bottom-up sweep. A block prices only the columns
# right of its first row, so the +inf lower triangle is never evaluated
# and work arrays hold _BLOCK rows at a time. With 128-row blocks malloc
# hands each block's temporaries back to the system and faults them in
# again for the next one: about 3,500 minor page faults per solve at
# n = 788 and Kmax = 12, against none once warm with 32 rows.
_BLOCK = 32

# Bytes of cost rows kept for the reconstruction: the rows of the first
# grid positions, in whole blocks, up to 2 MiB, which is 512 rows of 512
# entries. A grid of up to 511 positions (n <= 255) keeps every row and
# never prices one again; at n = 985 the first 128 rows are kept. Rows
# further right are priced again when a reconstruction step needs them.
_KEPT_BYTES = 2 * 2**20

# Columns per priced chunk of a block. The sweep prices a block in chunks
# of up to _CHUNK columns, right to left, so its work arrays stop growing
# with n once 2n + 1 exceeds it. It must be at least _BLOCK: the leftmost
# chunk then holds every column inside the block, whose suffix entries
# the block itself finishes before the next layer reads them. Wider
# chunks outgrow what glibc's malloc keeps between them once the kept
# rows are small: at 4,096 columns a solve at n = 2933 took 61,000 page
# faults, against 900 at 2,048.
_CHUNK = 2048

# Peak bytes per entry of one priced chunk (_BLOCK rows by up to _CHUNK
# columns) that ``solve`` allocates besides its tables: the chunk, the
# rows of the count tables and logs, the formula's temporaries for one
# half of the columns and the work array of the suffix DP. A
# reconstruction step prices up to Kmax rows the same way. The
# tracemalloc peak beyond the tables, at Kmax 12 and n = 80 to 2933, is
# 61 to 62 bytes per chunk entry for ``marked_pgeg``, 52 to 54 for
# ``marked_poisson`` and 43 to 47 for the unmarked kinds.
_BYTES_PER_BLOCK_ENTRY = 72

# Peak bytes per entry of the up to Kmax - 1 full cost rows a
# reconstruction step gathers: the rows, their sum with the suffix
# table, one more while the chosen pieces are folded on, and the mask of
# the entries equal to the optimum.
_BYTES_PER_ROW_ENTRY = 32


def _kept_rows(size: int) -> int:
    """How many of a grid's ``size`` cost rows, each ``size`` entries
    long, fit _KEPT_BYTES in whole blocks."""
    return min(size, _KEPT_BYTES // (8 * size) // _BLOCK * _BLOCK)


def _distinct(slots):
    """The distinct values of ``slots`` and where each entry sits among them.

    Slots that fill their span, as a run of consecutive rows gives, skip
    the sort of ``np.unique``.
    """
    lo, hi = int(slots.min()), int(slots.max())
    if hi - lo < slots.size:
        return np.arange(lo, hi + 1), slots - lo
    return np.unique(slots, return_inverse=True)


def _count_rows(grid: CandidateGrid, shift: float, first: np.ndarray, width: int):
    """c + shift and lgamma(c + shift) at the counts c = first[r] + k,
    k < width: row windows of two tables over the counts -n .. 2n (a
    negative count, left of the diagonal, read as 0) built once per grid
    and shift."""
    tables = grid.count_tables.get(shift)
    if tables is None:
        n = grid.n
        cs = np.maximum(np.arange(-n, 2 * n + 1), 0).astype(np.float64) + shift
        # window w holds counts w - n .. w; np.ndarray on the buffer costs
        # less than sliding_window_view on a small series
        tables = grid.count_tables[shift] = [
            np.ndarray((2 * n + 1, n + 1), t.dtype, t, 0, 2 * t.strides)
            for t in (cs, gammaln(cs))]
    at = grid.n + first
    return [t[:, :width][at] for t in tables]


def build_cost_matrix(grid: CandidateGrid, spec: ContrastSpec, rows, cols) -> np.ndarray:
    """Prices of the segments (tp_i, tp_j] for i in ``rows`` and j in ``cols``.

    ``rows`` is a 1-d grid index array, in any order and with repeats;
    ``cols`` is a contiguous ascending run of grid indices. Entries with
    j <= i are +inf. Each part of a price is the one ``segment_cost``
    computes, read off the grid's slots and count tables, and goes
    through the same formula, so a row priced again equals the same row
    priced in a block, bit for bit.
    """
    require_marks(spec, grid.mark_prefix is not None)
    if rows.size == 0 or cols.size == 0:
        return np.empty((rows.size, cols.size))
    # Columns 2q and 2q + 1 lie right of the same q events and sit at the
    # times of slots q and q + 1. The block is widened to whole column
    # pairs q0 .. q1 - 1 and priced as its even and its odd columns, each
    # a (rows, width) half whose entry [r, k] has count first[r] + k.
    c0 = int(cols[0])
    q0, q1 = c0 // 2, (c0 + cols.size + 1) // 2
    width = q1 - q0
    events = rows // 2
    first = q0 - events
    out = np.empty((rows.size, 2 * width))
    # a length per distinct (row time, column time) pair and a mark sum
    # per distinct (row event, column event) pair
    row_times, time_row = _distinct((rows + 1) // 2)
    lengths = grid.slot_times[q0:q1 + 1] - grid.slot_times[row_times][:, None]
    if spec.requires_marks:
        row_events, event_row = _distinct(events)
        sums = grid.mark_prefix[q0:q1] - grid.mark_prefix[row_events][:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind in MARGINAL_KINDS:
            ca, lg_ca = _count_rows(grid, spec.a, first, width)
            prior, marks = prior_constant(spec.a, spec.b), None
            if spec.requires_marks:
                car, lg_car = _count_rows(grid, spec.a_rho, first, width)
                marks = (car, np.log(sums + spec.b_rho)[event_row], lg_car,
                         prior_constant(spec.a_rho, spec.b_rho))
            log_d = np.log(lengths + spec.b)[time_row]
            out[:, 0::2] = marginal_cost(ca, log_d[:, :-1], lg_ca, prior, marks)
            out[:, 1::2] = marginal_cost(ca, log_d[:, 1:], lg_ca, prior, marks)
        else:
            counts = (first[:, None] + np.arange(width)).astype(np.float64)
            row_sums = sums[event_row] if spec.requires_marks else None
            d = lengths[time_row]
            out[:, 0::2] = segment_cost(spec, counts, d[:, :-1], row_sums)
            out[:, 1::2] = segment_cost(spec, counts, d[:, 1:], row_sums)
    f = out[:, c0 - 2 * q0:c0 - 2 * q0 + cols.size]
    # +inf where it can occur: each row is +inf up to its own column, and
    # for the marginal kinds one column further when its empty gap is
    # +inf, under forbid_empty or at zero length (segment_cost sets the
    # likelihood kinds' +inf prices). Right of row i only the gap
    # (tp_i, tp_{i+1}] can be empty, and only for even i.
    last = rows
    if spec.kind in MARGINAL_KINDS:
        inf_gap = rows % 2 == 0
        if not spec.forbid_empty:
            inf_gap &= grid.values[rows + 1] == grid.values[rows]
        last = rows + inf_gap
    left = min(max(int(last.max()) - c0 + 1, 0), cols.size)
    f[:, :left][cols[:left] <= last[:, None]] = np.inf
    return f


def _sweep(grid: CandidateGrid, spec: ContrastSpec, kmax: int):
    """Suffix table and kept cost rows, in one bottom-up pass over row blocks.

    S[r, i] is the optimal cost of splitting (tp_i, 1] into r segments.
    Row i reads S[r - 1] only right of i, so each block of rows is
    priced, finishes every r < kmax and is dropped before the block
    above it starts. A block is priced in chunks of columns, right to
    left; each chunk lowers the block's entries of S[r] to its row
    minima, and the last column, the segment to 1, gives S[1]. Only the
    leftmost chunk reads entries of S[r - 1] inside the block, and it
    does so after they are finished. ``keep[i, j]`` holds the price of
    (tp_i, tp_j] for the first ``_kept_rows`` positions i and every
    j <= 2n. Row 2n has no segment left to split, so S stays +inf there
    from r = 2 on. Of S[kmax] only row 0, the optimum over the whole
    series, is read; the top block sums it, and the rest stays +inf. At
    kmax = 1 only (tp_0, 1] is priced and no row is kept.
    """
    A = grid.size
    S = np.full((kmax + 1, A + 1), np.inf)
    if kmax == 1:
        S[1, 0] = build_cost_matrix(grid, spec, np.zeros(1, dtype=np.intp),
                                    np.array([grid.last_index]))[0, 0]
        return S, np.empty((0, A + 1))
    idx = np.arange(A + 2)
    keep = np.empty((_kept_rows(A + 1), A + 1))
    w = np.empty((_BLOCK, min(_CHUNK, A)))
    for lo in reversed(range(0, A + 1, _BLOCK)):
        hi = min(lo + _BLOCK, A + 1)
        kept = lo < keep.shape[0]
        if kept:
            keep[lo:hi, :lo + 1] = np.inf
        for c0 in reversed(range(lo + 1, A + 2, _CHUNK)):
            c1 = min(c0 + _CHUNK, A + 2)
            m = build_cost_matrix(grid, spec, idx[lo:hi], idx[c0:c1])
            first = c1 == A + 2  # the chunk priced first sets the minima
            if first:
                S[1, lo:hi] = m[:, -1]
                m, c1 = m[:, :-1], A + 1  # m[i - lo, l - c0] prices (tp_i, tp_l]
                if c1 == c0:
                    continue  # a chunk of the last column alone has none to reduce
            if kept:
                keep[lo:hi, c0:c1] = m
            wb = w[:hi - lo, :c1 - c0]
            for r in range(2, kmax):
                np.add(m, S[r - 1, c0:c1], out=wb)
                low = wb.min(axis=1)
                S[r, lo:hi] = low if first else np.minimum(S[r, lo:hi], low)
            if lo == 0:
                low = np.min(m[0] + S[kmax - 1, c0:c1])
                S[kmax, 0] = low if first else min(S[kmax, 0], low)
            # dropped before the next chunk is priced: with two chunks alive,
            # glibc's malloc gave the heap top back to the system and faulted
            # it in again, about 970 page faults per solve at n = 772 against
            # 80 without
            del m
    return S, keep


@dataclass(eq=False)
class SolveResult:
    """The optimum at one segment count K.

    ``indices`` are the interior grid indices of its change-points, None
    when there is no segmentation (K infeasible or no admissible one).
    ``segmentation`` is built from them and ``grid`` on first read,
    through ``segmentation_from_indices``, and cached; one passed in is
    kept as given.
    """

    k: int
    feasible: bool
    indices: tuple[int, ...] | None
    contrast: float | None
    warnings: tuple[str, ...] = ()
    grid: CandidateGrid | None = field(default=None, repr=False)
    segmentation: InitVar[Segmentation | None] = None

    def __post_init__(self, segmentation: Segmentation | None) -> None:
        self._segmentation = segmentation


def _segmentation(self: SolveResult) -> Segmentation | None:
    if self._segmentation is None and self.indices is not None:
        self._segmentation = segmentation_from_indices(self.grid, self.indices)
    return self._segmentation


# attached after the class is made: in the class body the property would
# become the default of the ``segmentation`` init argument
SolveResult.segmentation = property(_segmentation)


def _cost_rows(grid: CandidateGrid, spec: ContrastSpec, keep: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Prices of (tp_i, tp_j] for i in ``rows`` and every j <= 2n: kept rows
    are read, the others priced again in column chunks."""
    far = rows >= keep.shape[0]
    if not far.any():
        return keep[rows]
    m = np.empty((rows.size, keep.shape[1]))
    m[~far] = keep[rows[~far]]
    # the K of a step often share a candidate row: each is priced once
    again, at = np.unique(rows[far], return_inverse=True)
    lo = int(again[0])  # every column up to lo is left of the diagonal
    m[far, :lo + 1] = np.inf
    for c0 in range(lo + 1, keep.shape[1], _CHUNK):
        cols = np.arange(c0, min(c0 + _CHUNK, keep.shape[1]))
        m[far, c0:c0 + cols.size] = build_cost_matrix(grid, spec, again, cols)[at]
    return m


def _reconstruct(grid: CandidateGrid, spec: ContrastSpec, keep: np.ndarray,
                 suffix: np.ndarray, ks) -> dict[int, tuple[int, ...]]:
    """Change-point indices of the optimum at each K in ``ks``, in one pass.

    Every K must be feasible with a finite optimum. With the K sorted in
    descending order, those still choosing at step s (K - 1 > s) are a
    prefix; their candidate rows are gathered at once, and the pieces
    already chosen are folded on right to left, as for one K alone.
    """
    kd = np.sort(np.asarray(ks, dtype=np.intp))[::-1]
    steps = int(kd[0]) - 1 if kd.size else 0
    best = suffix[kd, 0][:, None]
    prev = np.zeros(kd.size, dtype=np.intp)
    pieces = np.empty((kd.size, steps))
    cuts = np.empty((kd.size, steps), dtype=np.intp)
    for s in range(steps):
        na = int(np.count_nonzero(kd > s + 1))
        m = _cost_rows(grid, spec, keep, prev[:na])
        total = m + suffix[kd[:na] - 1 - s]
        for i in range(s - 1, -1, -1):
            total = pieces[:na, i, None] + total
        j = np.argmax(total == best[:na], axis=1)
        pieces[:na, s] = m[np.arange(na), j]
        cuts[:na, s] = j
        prev[:na] = j
    return {k: tuple(cuts[row, : k - 1].tolist()) for row, k in enumerate(kd.tolist())}


def solve_bytes(n: int, kmax: int) -> int:
    """Upper estimate of the memory ``solve`` allocates for n events.

    The suffix table, the kept cost rows, the rows a reconstruction step
    gathers, and one priced chunk's working set: a block's during the
    sweep, or a reconstruction step's.
    """
    side = 2 * n + 2
    tables = 8 * (kmax + 1) * side + _KEPT_BYTES + _BYTES_PER_ROW_ENTRY * kmax * side
    return tables + _BYTES_PER_BLOCK_ENTRY * max(_BLOCK, kmax) * min(_CHUNK, side)


def solve(data, spec: ContrastSpec, kmax: int) -> list[SolveResult]:
    """Optimal segmentations for every segment count 1..kmax.

    A segment count K is infeasible when K - 1 exceeds the number of
    interior grid positions; such entries are flagged rather than given
    a sentinel cost. Series whose tables would not fit in physical
    memory are refused.
    """
    require_integer("kmax", kmax)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    grid = as_grid(data)
    need = solve_bytes(grid.n, kmax)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"solve at n = {grid.n} events needs about {need / 2**30:.1f} GiB for its "
            f"suffix table and cost rows, more than the {have / 2**30:.1f} GiB of physical memory"
        )
    suffix, keep = _sweep(grid, spec, kmax)
    base_warn = (TIES_WARNING,) if grid.events.has_ties else ()
    feasible = range(1, min(kmax, grid.size + 1) + 1)
    finite = [k for k in feasible if suffix[k, 0] < np.inf]
    cuts = _reconstruct(grid, spec, keep, suffix, finite)
    results: list[SolveResult] = []
    for k in range(1, kmax + 1):
        if k not in feasible:
            results.append(SolveResult(k, False, None, None, base_warn))
        elif k not in cuts:
            # every candidate prices +inf: under forbid_empty once K exceeds
            # the event count, as three untied events at K = 4 to 7 show, or
            # where ties leave each candidate a zero-length segment at +inf
            results.append(SolveResult(k, True, None, np.inf,
                                       base_warn + ("no admissible segmentation",)))
        else:
            results.append(SolveResult(k, True, cuts[k], float(suffix[k, 0]), base_warn, grid))
    return results


def brute_force(data, spec: ContrastSpec, k: int, limit: int = 1_000_000) -> SolveResult:
    """Exhaustive search over all change-point subsets at segment count k.

    Keeps the first optimum in lexicographic enumeration order, which is
    the same tie rule as ``solve``. Only intended for small instances;
    instances beyond ``limit`` candidates are refused.
    """
    require_integer("k", k)
    if k < 1:
        raise ValueError("k must be at least 1")
    grid = as_grid(data)
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
    return SolveResult(k, True, best, best_value, grid=grid)


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
