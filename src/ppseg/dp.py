"""Exact segmentation search over the candidate grid.

Optimal change-points of a concave per-segment cost always sit on the
2n-point candidate grid, so minimizing over continuous change-point
vectors reduces to a discrete shortest-path problem. ``solve`` fills
one dynamic-programming suffix table from a bottom-up sweep over
blocks of rows of the segment prices, sized by entries, each priced on
its upper triangle only and across its whole rows. A grid whose cost
rows all fit a fixed byte budget keeps every one of them for the
reconstruction, and then fills the table layer by layer over all rows
at once, on its upper triangle folded into a rectangle, so that no add
falls left of the diagonal and every reduction runs over long rows. A
larger grid keeps none: the sweep fills every layer of a 32-row block
where it is priced, then drops it, and the reconstruction prices each
row it needs again, bit for bit. Either way the table holds
S[1 .. Kmax - 1] and, from row 0's prices, row 0 of S[Kmax], the one
entry of it anything reads. That takes O((2n)^2 Kmax) time and
O(n Kmax) memory beyond a constant: the suffix table, the kept rows and
one work area that holds a priced block or the fold's sums; no
(2n + 2)^2 matrix is ever held. It returns, for every segment count K
up to Kmax, the optimum's change-point indices and its contrast.
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
off count tables that hold each count twice, cached by the power of
two above n, not by n, and the prior shift, so the learning sets of a
fit, whose n differ, share them; the likelihood kinds read the counts
alone and evaluate no lgamma. Every block, the
sweep's and the reconstruction's, is a run of consecutive rows priced
on whole rows: widened to whole row pairs and priced on every column
from its first even row to 2n + 1, so the one pricer reads every part
of it through strided views of these tables, with no gather, and writes
the prices into a work area. The parts go through the formula
``segment_cost`` uses, in the same order, so every price keeps its
bits.

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
from functools import lru_cache
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
from .special import gammaln

TIES_WARNING = "event times contain ties"

# Rows per block of the bottom-up sweep: _BLOCK_ENTRIES entries of a
# priced block divided by its width, rounded down to even, and at least
# _BLOCK. On a grid that keeps its rows (below 512 columns) a block is
# only priced, and every pricing call pays a fixed overhead, which at
# n = 75 cost more than its arithmetic: a grid of about 150 positions
# takes one or two blocks, where 32-row blocks took five; its min-plus
# layers run over the folded triangle (``_fold_layers``). From 512
# columns on, blocks keep 32 rows and run the min-plus layers too. The
# height is even, so every block starts at an even row and is priced
# from views of whole row pairs (see ``build_cost_matrix``).
_BLOCK = 32
_BLOCK_ENTRIES = 16384

# Bytes of cost rows kept for the reconstruction: 2 MiB, which is 512 rows
# of 512 entries. A grid of up to 511 positions (n <= 255) keeps every row,
# sweeps its layers over them, folded, and never prices one again; a
# larger grid keeps none, and each reconstruction step prices the rows it
# needs again. The rows it needs sit at the change-points of the optima,
# all over the grid, so the rows of the first positions alone would
# answer few of them: at n = 985, 128 kept rows answered 136 of 726, 121
# of them row 0.
_KEPT_BYTES = 2 * 2**20

# Peak bytes per entry of one priced block (its rows by the grid's 2n + 1
# columns) that ``solve`` allocates besides its tables: the work area,
# which also holds the min-plus work array, and for the likelihood kinds
# the temporaries of ``segment_cost``. A reconstruction step prices one
# row pair at a time, in a work area of its own and far less. The
# tracemalloc peak of the sweep beyond the suffix table and the kept
# rows, at Kmax 12 and n = 40 to 10,358, is 18 to 29 bytes per block
# entry for the marginal kinds and 27 to 44 for the likelihood kinds.
_BYTES_PER_BLOCK_ENTRY = 48

# Peak bytes per entry of the up to Kmax - 1 full cost rows a
# reconstruction step reads off the kept rows or prices again: the rows,
# their sum with the suffix table, and the mask of the entries equal to
# the optimum.
_BYTES_PER_ROW_ENTRY = 32


def _block_rows(width: int) -> int:
    """Rows per sweep block on a grid whose cost rows are ``width`` long."""
    return max(_BLOCK, _BLOCK_ENTRIES // width // 2 * 2)


def _kept_entries(A: int) -> int:
    """Entries of the cost rows a grid of A + 1 positions keeps: every
    row, when they fit _KEPT_BYTES, or none."""
    return (A + 1) ** 2 if 8 * (A + 1) ** 2 <= _KEPT_BYTES else 0


@lru_cache(maxsize=8)
def _count_tables(cap: int, shift: float | None):
    """Read-only tables over the counts of every grid of n < ``cap``
    events: cap entries of count 0, which the negative counts left of the
    diagonal read, then the counts 0 .. cap - 1, each twice, as columns
    2q and 2q + 1 lie right of the same q events. Without a ``shift`` the
    counts alone; with one, c + shift and lgamma(c + shift)."""
    if shift is None:
        tables = (np.repeat(np.maximum(np.arange(-cap, cap), 0.0), 2),)
    else:
        c = _count_tables(cap, None)[0]
        tables = (c + shift, gammaln(np.arange(cap) + shift)[c.astype(np.intp)])
    for t in tables:
        t.flags.writeable = False
    return tables


def _count_run(grid: CandidateGrid, shift: float | None, pairs: int, width: int):
    """The count tables of a run priced from an even row r0 on the
    ``width`` columns from r0, as (pairs, 2, width) views: entry 2 cap -
    2e + col holds count col // 2 - e of row pair e, and pairs <= n + 1
    <= cap and width <= 2n + 2 <= 2 cap keep every read inside."""
    cap = 1 << grid.n.bit_length()
    return [np.ndarray((pairs, 2, width), t.dtype, t, 16 * cap, (-16, 0, 8))
            for t in _count_tables(cap, shift)]


def _work_entries(rows: int, cols: int) -> int:
    """Float entries of the work area that prices any run of up to
    ``rows`` rows on up to ``cols`` columns (see ``build_cost_matrix``):
    the prices of up to rows // 2 + 1 row pairs, then the pricer's
    scratch, free once the call returns. The sweep keeps its min-plus
    work array in the last ``rows`` by ``cols`` entries, which the
    prices of a block from an even row never reach."""
    pairs, width = rows // 2 + 1, 2 * (cols // 2 + 1)
    return width * (4 * pairs + 1)


def build_cost_matrix(grid: CandidateGrid, spec: ContrastSpec, rows: range,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Prices of the segments (tp_i, tp_j] for i in ``rows``, a ``range``
    of consecutive grid indices, and every j from rows.start + 1 to
    2n + 1; entries with j <= i are +inf.

    Each part of a price is the one ``segment_cost`` computes, read off
    strided views of the grid's slots and the count tables, and goes through
    the same formula, so a row priced again equals the same row priced
    in a block, bit for bit. The prices are a view of ``work`` when
    given, a float array of at least ``_work_entries(len(rows), 2n +
    1)`` entries, overwritten by the next call that uses it.

    The run is widened to whole row pairs and priced on the columns from
    r0 = rows.start - rows.start % 2: row r0 + 2e + p, p = 0 or 1, lies
    right of event r0 / 2 + e and sits at the time of slot r0 / 2 + e +
    p, and columns 2q and 2q + 1 lie right of the same q events. Its
    counts are a window of the count tables that slides one count left
    per pair, its length (or log(d + b)) row e + p of an array over
    (slot, column) and its mark sum (or mark term) row e of one over
    (event, column), each read through a stride-0 or overlapping pair
    axis. The work area holds the priced pairs, the length array and the
    mark array, one after another. Left of the diagonal, where the
    prices are set to +inf, lengths and mark sums are negative; they are
    read as 0, which spares np.log its slow path for negative input.
    """
    require_marks(spec, grid.mark_prefix is not None)
    lo, hi = rows.start, rows.stop
    r0 = lo - lo % 2
    pairs, width = (hi - r0 + 1) // 2, grid.size + 2 - r0
    t0 = r0 // 2  # the event of row r0 and the slot of its time
    if work is None:
        work = np.empty(_work_entries(2 * pairs, width))
    size = 2 * pairs * width
    block = work[:size].reshape(pairs, 2, width)
    d = work[size:size + (pairs + 1) * width].reshape(pairs + 1, width)
    size += d.size
    np.subtract(grid.values[r0:], grid.slot_times[t0:t0 + pairs + 1, None], out=d)
    np.maximum(d, 0.0, out=d)
    pair_d = np.ndarray((pairs, 2, width), d.dtype, d, 0, (d.strides[0], *d.strides))
    s = None
    if spec.requires_marks:
        s = work[size:size + pairs * width].reshape(pairs, width)
        prefix = grid.mark_prefix
        np.subtract(np.repeat(prefix[t0:], 2), prefix[t0:t0 + pairs, None], out=s)
        np.maximum(s, 0.0, out=s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind not in MARGINAL_KINDS:
            (c,) = _count_run(grid, None, pairs, width)
            block[...] = segment_cost(spec, c, pair_d, None if s is None else s[:, None])
        else:
            d += spec.b
            np.log(d, out=d)  # pair_d now reads log(d + b)
            ca, lg_ca = _count_run(grid, spec.a, pairs, width)
            marks = None
            if s is not None:
                car, lg_car = _count_run(grid, spec.a_rho, pairs, width)
                s += spec.b_rho
                np.log(s, out=s)
                s *= car[:, 0]
                marks = (s[:, None], lg_car, prior_constant(spec.a_rho, spec.b_rho))
            marginal_cost(ca, pair_d, lg_ca, prior_constant(spec.a, spec.b), marks, out=block)
    f = block.reshape(2 * pairs, width)[lo - r0:hi - r0]
    # +inf where it can occur: each row is +inf up to its own column, and
    # for the marginal kinds one column further when its empty gap is
    # +inf, under forbid_empty or at zero length (segment_cost sets the
    # likelihood kinds' +inf prices). Right of row i only the gap
    # (tp_i, tp_{i+1}] can be empty, and only for even i.
    last = np.arange(lo, hi)
    if spec.kind in MARGINAL_KINDS:
        inf_gap = last % 2 == 0
        if not spec.forbid_empty:
            inf_gap &= grid.values[last + 1] == grid.values[last]
        last = last + inf_gap
    left = int(last.max()) - r0 + 1
    f[:, :left][np.arange(r0, r0 + left) <= last[:, None]] = np.inf
    return f[:, lo + 1 - r0:]


def _fold_layers(keep: np.ndarray, S: np.ndarray, work: np.ndarray) -> None:
    """S[2 .. len(S) - 2] from S[1] and the kept rows, one layer at a time
    over every row at once, on the upper triangle folded into a rectangle.

    With A = 2n, row i < n of the fold holds the A - i prices (tp_i, tp_j],
    j = i + 1 .. A, then the i + 1 of row A - 1 - i reversed, so every
    fold row has A + 1 entries and row 2n, which splits nothing, is left
    out. The fold is a strided view of ``keep``: row i's prices run on
    into the i + 1 entries left of the diagonal of row i + 1, which hold
    row A - 1 - i reversed while the layers run and +inf again after.
    The S operand of fold row i is a window of V, S[r - 1, 1:] followed
    by S[r - 1] reversed, and one reduceat takes each row's two minima.
    Every S entry is the minimum of the same sums as in a block. The
    fold's sum with V, and V, fill the first A (A + 5) / 2 entries of
    ``work``.
    """
    A = len(keep) - 1
    n, width, item = A // 2, A + 1, keep.itemsize
    total = work[:n * width].reshape(n, width)
    v = work[n * width:n * width + 2 * A]
    fold = np.ndarray((n, width), keep.dtype, keep, item, ((A + 2) * item, item))
    # fold[i, k] is left of the diagonal where k >= A - i, that is where
    # left[i + k]; there it takes keep[A - 1 - i, 2A - i - k], staged
    # through ``total``: a copy between two views that span ``keep`` would
    # go through a temporary outside the work area
    left = np.arange(A + n) >= A
    left = np.ndarray((n, width), left.dtype, left, 0, (1, 1))
    np.copyto(total, np.ndarray((n, width), keep.dtype, keep, (A * A + 2 * A - 1) * item,
                                (-(A + 2) * item, -item)))
    np.copyto(fold, total, where=left)
    h = np.ndarray((n, width), v.dtype, v, 0, (item, item))  # h[i, k] = v[i + k]
    # fold row i holds row i on [i (A + 1), (i + 1) A) and row A - 1 - i
    # from there to the next fold row
    idx = np.column_stack((np.arange(n) * width, np.arange(1, n + 1) * A)).ravel()
    for r in range(2, len(S) - 1):
        v[:A] = S[r - 1, 1:]
        v[A:] = S[r - 1, A:0:-1]
        np.add(fold, h, out=total)
        np.minimum.reduceat(total.ravel(), idx, out=v[:A])
        S[r, :n] = v[:A:2]
        S[r, n:A] = v[A - 1::-2]
    np.copyto(fold, np.inf, where=left)


def _sweep(grid: CandidateGrid, spec: ContrastSpec, kmax: int):
    """Suffix table and kept cost rows, in one bottom-up pass over row blocks.

    S[r, i] is the optimal cost of splitting (tp_i, 1] into r segments.
    Each block of rows is priced across its whole rows; its last column,
    the segment to 1, gives S[1]. ``keep[i, j]`` holds the price of
    (tp_i, tp_j] for every i, j <= 2n when these rows fit _KEPT_BYTES;
    then the blocks only fill ``keep``, and S[2 .. kmax - 1] are swept
    layer by layer over the folded upper triangle (``_fold_layers``).
    Otherwise ``keep`` has no row, and row i reads S[r - 1] only right of
    i, so each block finishes every r < kmax and is dropped before the
    block above it starts. Row 2n has no segment left to split, so S
    stays +inf there from r = 2 on. Of S[kmax] only row 0, the optimum
    over the whole series, is read; it is summed from row 0's prices, and
    the rest stays +inf. At kmax = 1 only row 0 is priced, for its last
    entry (tp_0, 1], and no row is kept.
    """
    A = grid.size
    S = np.full((kmax + 1, A + 1), np.inf)
    if kmax == 1:
        S[1, 0] = build_cost_matrix(grid, spec, range(1))[0, -1]
        return S, np.empty((0, A + 1))
    block = _block_rows(A + 1)
    kept = _kept_entries(A)
    # one allocation per solve holds the kept rows and the work area that
    # every block is priced into, min-plus work array or the fold's sums
    # included.
    # Temporaries freed after every block, or two allocations freed at the
    # end, let malloc give the heap top back to the system and fault it in
    # again, about 60 page faults per solve at n = 71. The area lives no
    # longer than the solve: ``run_bench`` starts a fresh worker thread per
    # call, so a buffer kept per thread would never be reused.
    size = _work_entries(block, A + 1)
    area = np.empty(kept + (max(size, A * (A + 5) // 2) if kept else size))
    keep, work = area[:kept].reshape(-1, A + 1), area[kept:]
    w = work[-block * (A + 1):].reshape(block, A + 1)
    for lo in reversed(range(0, A + 1, block)):
        hi = min(lo + block, A + 1)
        m = build_cost_matrix(grid, spec, range(lo, hi), work)
        S[1, lo:hi] = m[:, -1]
        m = m[:, :-1]  # m[i - lo, j - lo - 1] prices (tp_i, tp_j]
        if kept:
            keep[lo:hi, :lo + 1] = np.inf
            keep[lo:hi, lo + 1:] = m
            continue
        if lo == A:
            continue  # a block of row 2n alone has no segment left to split
        wb = w[:hi - lo, :A - lo]
        for r in range(2, kmax):
            np.add(m, S[r - 1, lo + 1:], out=wb)
            np.minimum.reduce(wb, axis=1, out=S[r, lo:hi])
        if lo == 0:
            S[kmax, 0] = np.min(m[0] + S[kmax - 1, 1:])
    if not kept:
        # a view of no row would keep the work area alive through the
        # reconstruction
        return S, np.empty((0, A + 1))
    _fold_layers(keep, S, work)
    S[kmax, 0] = np.min(keep[0, 1:] + S[kmax - 1, 1:])
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


def _cost_rows(grid: CandidateGrid, spec: ContrastSpec, rows: np.ndarray) -> np.ndarray:
    """Prices of (tp_i, tp_j] for i in ``rows`` and every j <= 2n, priced
    again a row pair at a time, into one work area."""
    size = grid.size + 1
    m = np.full((rows.size, size), np.inf)  # +inf stays left of the diagonal
    work = np.empty(_work_entries(2, size))
    # the K of a step often share a candidate row: each pair holding one of
    # the rows is priced once
    pair = rows // 2
    for e in set(pair.tolist()):
        at, lo = np.flatnonzero(pair == e), 2 * e
        f = build_cost_matrix(grid, spec, range(lo, min(lo + 2, size)), work)
        m[at, lo + 1:] = f[rows[at] - lo, :-1]
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
    gathers, and the working set of one of the sweep's priced blocks,
    which bounds that of a reconstruction step's row pair. Blocks span
    whole rows, so this term grows linearly with n. A grid that keeps
    its rows also holds, for its layer sweep, the folded triangle's sum
    with a layer and that layer's window: A (A + 5) / 2 floats, A = 2n,
    about 1 MiB at n = 255.
    """
    side, A = 2 * n + 2, 2 * n
    tables = 8 * (kmax + 1) * side + _KEPT_BYTES + _BYTES_PER_ROW_ENTRY * kmax * side
    fold = 4 * A * (A + 5) if _kept_entries(A) else 0
    return tables + fold + _BYTES_PER_BLOCK_ENTRY * _block_rows(side - 1) * side


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
