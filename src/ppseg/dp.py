"""Exact segmentation search over the candidate grid.

Optimal change-points of a concave per-segment cost always sit on the
2n-point candidate grid, so minimizing over continuous change-point
vectors reduces to a discrete shortest-path problem. ``solve`` fills
one dynamic-programming suffix table in a single bottom-up sweep over
blocks of rows of the segment prices, sized by entries: each block is
priced where the sweep uses it, on its upper triangle only and in
column chunks of a fixed width, and then dropped. A grid whose cost
rows all fit a fixed byte budget keeps every one of them for the
reconstruction; a larger grid keeps none, and the reconstruction prices
each row it needs again, bit for bit. The sweep fills S[1 .. Kmax - 1]
and, from row 0 of the top block, row 0 of S[Kmax], the one entry of it
anything reads. That takes O((2n)^2 Kmax) time and O(n Kmax) memory
beyond two constants, the kept rows and one work area that holds a
priced chunk; no (2n + 2)^2 matrix is ever held. It returns, for every
segment count K up to Kmax, the optimum's change-point indices and its
contrast.
``brute_force`` enumerates every candidate subset and is the
independent oracle for small instances.

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
same time, so it takes each length once per pair of a row time and a
column (about half of the entries) and each mark sum once per pair of a
row event and a column, and reads the counts, c + a and lgamma(c + a)
off count tables kept on the grid, each count twice, whose lgamma
values ``special.gammaln_counts`` memoises across grids; the likelihood
kinds read the counts alone and evaluate no lgamma. Every block, the
sweep's and the reconstruction's, is a run of consecutive rows widened
to whole row pairs, and the one pricer reads every part of it through
strided views of these tables, with no gather, and writes the prices
into a work area. The parts go through the formula ``segment_cost``
uses, in the same order, so every price keeps its bits.

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
from .special import gammaln_counts

TIES_WARNING = "event times contain ties"

# Rows per block of the bottom-up sweep: _BLOCK_ENTRIES entries of a
# priced chunk divided by its width, rounded down to even, and at least
# _BLOCK. Every numpy call of the sweep pays a fixed overhead, which at
# n = 75 cost more than its arithmetic: a grid of about 150 positions
# takes one or two blocks, where 32-row blocks took five. From 512
# columns on, blocks keep 32 rows, which bound the work area. The height
# is even, so every block starts at an even row and is priced from views
# of whole row pairs (see ``build_cost_matrix``).
_BLOCK = 32
_BLOCK_ENTRIES = 16384

# Bytes of cost rows kept for the reconstruction: 2 MiB, which is 512 rows
# of 512 entries. A grid of up to 511 positions (n <= 255) keeps every row
# and never prices one again; a larger grid keeps none, and each
# reconstruction step prices the rows it needs again. The rows it needs
# sit at the change-points of the optima, all over the grid, so the rows
# of the first positions alone would answer few of them: at n = 985,
# 128 kept rows answered 136 of 726, 121 of them row 0.
_KEPT_BYTES = 2 * 2**20

# Columns per priced chunk of a block. The sweep prices a block in chunks
# of up to _CHUNK columns, right to left, so its work area stops growing
# with n once 2n + 1 exceeds it. A block has at most _CHUNK rows: the
# leftmost chunk then holds every column inside the block, whose suffix
# entries the block itself finishes before the next layer reads them.
# Wider chunks outgrow what glibc's malloc keeps between them once few
# or no rows are kept: at 4,096 columns a solve at n = 2933 took 61,000
# page faults, against 900 at 2,048. Every chunk is priced into one work
# area, which the sweep allocates once per solve and which also holds
# its min-plus work array (see ``_work_entries``): block-sized
# temporaries freed after every block let malloc give the heap top back
# to the system and fault it in again. The area lives as long as the
# solve and no longer: ``run_bench`` starts a fresh worker thread per
# call, so a buffer kept per thread is never reused and only adds to the
# peak memory.
_CHUNK = 2048

# Peak bytes per entry of one priced chunk (a block's rows by up to _CHUNK
# columns) that ``solve`` allocates besides its tables: the work area,
# which also holds the min-plus work array, and for the likelihood kinds
# the temporaries of ``segment_cost``. A reconstruction step prices one
# row pair at a time, in a work area of its own and far less. The
# tracemalloc peak of the sweep beyond the suffix table and the kept
# rows, at Kmax 12 and n = 40 to 2933, is 10 to 28 bytes per chunk entry
# for the marginal kinds and 11 to 44 for the likelihood kinds.
_BYTES_PER_BLOCK_ENTRY = 48

# Peak bytes per entry of the up to Kmax - 1 full cost rows a
# reconstruction step reads off the kept rows or prices again: the rows,
# their sum with the suffix table, and the mask of the entries equal to
# the optimum.
_BYTES_PER_ROW_ENTRY = 32


def _block_rows(width: int) -> int:
    """Rows per sweep block on a grid whose cost rows are ``width`` long."""
    chunk = min(_CHUNK, width)
    return max(_BLOCK, min(_BLOCK_ENTRIES // chunk, _CHUNK) // 2 * 2)


def _count_tables(grid: CandidateGrid, shift: float | None = None):
    """Tables over the counts c = -n .. 2n, a negative count, left of the
    diagonal, read as 0: 1-d tables that hold each count twice, entries
    2k and 2k + 1 at count k - n, as the grid's columns 2q and 2q + 1 lie
    right of the same q events. Without a ``shift`` the counts alone;
    with one, c + shift, the counts plus the shift, and lgamma(c +
    shift), from the memo of the 2n + 1 distinct counts. Each is built
    once per grid and kept on it."""
    tables = grid.count_tables.get(shift)
    if tables is None:
        n = grid.n
        if shift is None:
            tables = (np.repeat(np.maximum(np.arange(-n, 2 * n + 1), 0).astype(np.float64), 2),)
        else:
            lg = gammaln_counts(shift, 2 * n + 1)
            lgs = np.concatenate((np.full(n, lg[0]), lg))
            tables = (_count_tables(grid)[0] + shift, np.repeat(lgs, 2))
        grid.count_tables[shift] = tables
    return tables


def _count_run(grid: CandidateGrid, shift: float | None, first: int, pairs: int, width: int):
    """The count tables on the column pairs k < width of the row pairs of
    a run, as (pairs, 2, 2 width) views: pair e counts first - e + k
    events at column pair k, on both of its rows, so its window starts
    one count left of pair e - 1's."""
    return [np.ndarray((pairs, 2, 2 * width), t.dtype, t, 16 * (grid.n + first), (-16, 0, 8))
            for t in _count_tables(grid, shift)]


def _work_entries(rows: int, cols: int) -> int:
    """Float entries of the work area that prices any run of up to
    ``rows`` rows on up to ``cols`` columns (see ``build_cost_matrix``):
    the prices of up to rows // 2 + 1 row pairs, then the pricer's
    scratch, free once the call returns. The sweep keeps its min-plus
    work array in the last ``rows`` by ``cols`` entries, which the
    prices of a block from an even row never reach."""
    pairs, width = rows // 2 + 1, 2 * (cols // 2 + 1)
    return width * (4 * pairs + 1)


def _price_run(grid: CandidateGrid, spec: ContrastSpec, lo: int, hi: int,
               q0: int, q1: int, work) -> np.ndarray:
    """The prices of rows lo .. hi - 1 on the columns 2 q0 .. 2 q1 - 1,
    from views, in ``work``.

    The run is widened to whole row pairs from r0 = lo - lo % 2: row
    r0 + 2e + p, p = 0 or 1, lies right of event r0 / 2 + e and sits at
    the time of slot r0 / 2 + e + p. Its counts are a window of the count
    tables that slides one count left per pair, its length (or log(d +
    b)) row e + p of an array over (slot, column) and its mark sum (or
    mark term) row e of one over (event, column), each read through a
    stride-0 or overlapping pair axis. The work area holds the priced
    pairs, the length array and the mark array, one after another. Left
    of the diagonal, where the prices are set to +inf, lengths and mark
    sums are negative; they are read as 0, which spares np.log its slow
    path for negative input.
    """
    r0 = lo - lo % 2
    pairs, width = (hi - r0 + 1) // 2, 2 * (q1 - q0)
    t0 = r0 // 2  # the event of row r0 and the slot of its time
    if work is None:
        work = np.empty(_work_entries(2 * pairs, width))
    size = 2 * pairs * width
    block = work[:size].reshape(pairs, 2, width)
    d = work[size:size + (pairs + 1) * width].reshape(pairs + 1, width)
    size += d.size
    np.subtract(grid.values[2 * q0:2 * q1], grid.slot_times[t0:t0 + pairs + 1, None], out=d)
    np.maximum(d, 0.0, out=d)
    pair_d = np.ndarray((pairs, 2, width), d.dtype, d, 0, (d.strides[0], *d.strides))
    s = None
    if spec.requires_marks:
        s = work[size:size + pairs * width].reshape(pairs, width)
        prefix = grid.mark_prefix
        np.subtract(np.repeat(prefix[q0:q1], 2), prefix[t0:t0 + pairs, None], out=s)
        np.maximum(s, 0.0, out=s)
    first = q0 - t0
    if spec.kind not in MARGINAL_KINDS:
        (c,) = _count_run(grid, None, first, pairs, width // 2)
        block[...] = segment_cost(spec, c, pair_d, None if s is None else s[:, None])
    else:
        d += spec.b
        np.log(d, out=d)  # pair_d now reads log(d + b)
        ca, lg_ca = _count_run(grid, spec.a, first, pairs, width // 2)
        marks = None
        if s is not None:
            car, lg_car = _count_run(grid, spec.a_rho, first, pairs, width // 2)
            s += spec.b_rho
            np.log(s, out=s)
            s *= car[:, 0]
            marks = (s[:, None], lg_car, prior_constant(spec.a_rho, spec.b_rho))
        marginal_cost(ca, pair_d, lg_ca, prior_constant(spec.a, spec.b), marks, out=block)
    return block.reshape(2 * pairs, width)[lo - r0:hi - r0]


def build_cost_matrix(grid: CandidateGrid, spec: ContrastSpec, rows: range, cols,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Prices of the segments (tp_i, tp_j] for i in ``rows`` and j in ``cols``.

    ``rows`` is a ``range`` of consecutive grid indices and ``cols`` a
    contiguous ascending run of them. Entries with j <= i are +inf. Each
    part of a price is the one ``segment_cost`` computes, read off
    strided views of the grid's slots and count tables, and goes through
    the same formula, so a row priced again equals the same row priced
    in a block, bit for bit. The prices are a view of ``work`` when
    given, a float array of at least ``_work_entries(len(rows),
    len(cols))`` entries, overwritten by the next call that uses it.
    """
    require_marks(spec, grid.mark_prefix is not None)
    if len(rows) == 0 or cols.size == 0:
        return np.empty((len(rows), cols.size))
    # Columns 2q and 2q + 1 lie right of the same q events and sit at the
    # times of slots q and q + 1. The block is widened to whole column
    # pairs q0 .. q1 - 1, where row r counts q0 - r // 2 + k events at
    # pair k.
    c0 = int(cols[0])
    q0, q1 = c0 // 2, (c0 + cols.size + 1) // 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _price_run(grid, spec, rows.start, rows.stop, q0, q1, work)
    f = out[:, c0 - 2 * q0:c0 - 2 * q0 + cols.size]
    # +inf where it can occur: each row is +inf up to its own column, and
    # for the marginal kinds one column further when its empty gap is
    # +inf, under forbid_empty or at zero length (segment_cost sets the
    # likelihood kinds' +inf prices). Right of row i only the gap
    # (tp_i, tp_{i+1}] can be empty, and only for even i.
    last = np.arange(rows.start, rows.stop)
    if spec.kind in MARGINAL_KINDS:
        inf_gap = last % 2 == 0
        if not spec.forbid_empty:
            inf_gap &= grid.values[last + 1] == grid.values[last]
        last = last + inf_gap
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
    (tp_i, tp_j] for every i, j <= 2n when these rows fit _KEPT_BYTES;
    otherwise ``keep`` has no row. Row 2n has no segment left to split,
    so S stays +inf there from r = 2 on. Of S[kmax] only row 0, the
    optimum over the whole series, is read; the top block sums it, and
    the rest stays +inf. At kmax = 1 only (tp_0, 1] is priced and no row
    is kept.
    """
    A = grid.size
    S = np.full((kmax + 1, A + 1), np.inf)
    if kmax == 1:
        S[1, 0] = build_cost_matrix(grid, spec, range(1), np.array([grid.last_index]))[0, 0]
        return S, np.empty((0, A + 1))
    idx = np.arange(A + 2)
    block, width = _block_rows(A + 1), min(_CHUNK, A + 1)
    kept = (A + 1) ** 2 if 8 * (A + 1) ** 2 <= _KEPT_BYTES else 0  # every row or none
    # the kept rows and the work area are one allocation, which malloc
    # hands out again to the next solve. As two, both freed at the end of
    # the solve, malloc gave the heap top back to the system and faulted
    # it in again, about 60 page faults per solve at n = 71.
    area = np.empty(kept + _work_entries(block, width))
    keep, work = area[:kept].reshape(-1, A + 1), area[kept:]
    w = work[-block * width:].reshape(block, width)
    for lo in reversed(range(0, A + 1, block)):
        hi = min(lo + block, A + 1)
        if kept:
            keep[lo:hi, :lo + 1] = np.inf
        for c0 in reversed(range(lo + 1, A + 2, _CHUNK)):
            c1 = min(c0 + _CHUNK, A + 2)
            m = build_cost_matrix(grid, spec, range(lo, hi), idx[c0:c1], work)
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
                if first:
                    np.minimum.reduce(wb, axis=1, out=S[r, lo:hi])
                else:
                    np.minimum(S[r, lo:hi], wb.min(axis=1), out=S[r, lo:hi])
            if lo == 0:
                low = np.min(m[0] + S[kmax - 1, c0:c1])
                S[kmax, 0] = low if first else min(S[kmax, 0], low)
    # a view of no row would keep the work area alive through the
    # reconstruction
    return S, keep if kept else np.empty((0, A + 1))


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


def _cost_rows(grid: CandidateGrid, spec: ContrastSpec, rows: np.ndarray) -> np.ndarray:
    """Prices of (tp_i, tp_j] for i in ``rows`` and every j <= 2n, priced
    again a row pair at a time, in column chunks, into one work area."""
    size = grid.size + 1
    m = np.full((rows.size, size), np.inf)  # +inf stays left of the diagonal
    idx = np.arange(size)
    work = np.empty(_work_entries(2, min(_CHUNK, size)))
    # the K of a step often share a candidate row: each pair holding one of
    # the rows is priced once
    pair = rows // 2
    for e in set(pair.tolist()):
        at, lo = np.flatnonzero(pair == e), 2 * e
        for c0 in range(lo + 1, size, _CHUNK):
            cols = idx[c0:c0 + _CHUNK]
            f = build_cost_matrix(grid, spec, range(lo, min(lo + 2, size)), cols, work)
            m[at, c0:c0 + cols.size] = f[rows[at] - lo]
    return m


def _reconstruct(grid: CandidateGrid, spec: ContrastSpec, keep: np.ndarray,
                 suffix: np.ndarray, ks) -> dict[int, tuple[int, ...]]:
    """Change-point indices of the optimum at each K in ``ks``, in one pass.

    Every K must be feasible with a finite optimum. With the K sorted in
    descending order, those still choosing at step s (K - 1 > s) are a
    prefix; their candidate rows are gathered at once, and the pieces
    already chosen are folded on right to left, as for one K alone.
    """
    kd = sorted(ks, reverse=True)
    steps = kd[0] - 1 if kd else 0
    # the K - 1 - s of each K, whose suffix rows step s adds
    layer = np.array(kd, dtype=np.intp) - 1
    best = suffix[layer + 1, 0][:, None]
    pieces = np.empty((len(kd), steps))
    cuts = np.empty((len(kd), steps), dtype=np.intp)
    at = np.arange(len(kd))
    prev = np.zeros(len(kd), dtype=np.intp)  # each K's last change-point, first 0
    na = len(kd)
    for s in range(steps):
        while kd[na - 1] <= s + 1:
            na -= 1
        m = keep[prev[:na]] if len(keep) else _cost_rows(grid, spec, prev[:na])
        total = suffix[layer[:na]]
        total += m
        for i in range(s - 1, -1, -1):
            total += pieces[:na, i, None]
        prev = (total == best[:na]).argmax(axis=1)
        pieces[:na, s] = m[at[:na], prev]
        cuts[:na, s] = prev
        layer -= 1
    rows = cuts.tolist()
    return {k: tuple(row[:k - 1]) for row, k in zip(rows, kd)}


def solve_bytes(n: int, kmax: int) -> int:
    """Upper estimate of the memory ``solve`` allocates for n events.

    The suffix table, the kept cost rows, the rows a reconstruction step
    gathers, and the working set of one of the sweep's priced chunks,
    which bounds that of a reconstruction step's row pair.
    """
    side = 2 * n + 2
    tables = 8 * (kmax + 1) * side + _KEPT_BYTES + _BYTES_PER_ROW_ENTRY * kmax * side
    return tables + _BYTES_PER_BLOCK_ENTRY * _block_rows(side - 1) * min(_CHUNK, side)


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
    feasible = range(1, min(kmax, grid.size + 1) + 1)
    suffix, keep = _sweep(grid, spec, len(feasible))  # no layer past the last feasible K
    base_warn = (TIES_WARNING,) if grid.events.has_ties else ()
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
