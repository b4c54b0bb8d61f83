"""Simulation benchmarks over the alternating-intensity design.

Each preset expands into a grid of cells (one per parameter setting).
A cell draws ``samples`` independent event series, runs the full
cross-validated fit on each, and reports summary statistics of the
selected segment count, the Hausdorff distance between estimated and
true change-points, and the normalized L2 distance between estimated
and true intensity.

Presets
-------
k-selection
    Segment-count recovery across mean intensities and high/low ratios.
hausdorff-l2
    Estimation accuracy across a mean/ratio grid.
marked-table
    Marked series where the event rate, the mark rate, both, or
    neither alternate. Distances are scored against the full design
    breakpoints in every scenario, so a constant-process cell reports
    the distance of the trivial estimate to the design grid rather
    than zero.
robust-a
    Sensitivity to the prior shape used by the marginal contrast.
robust-f
    Sensitivity to the thinning fraction used by cross-validation; it
    sweeps its own fractions, so it takes no ``fraction``.

``means`` and ``ratios`` override a preset's grid (see ``_GRIDS``);
``BenchConfig`` refuses a value its preset would not read. Its
cross-validation settings default to ``CvConfig``'s: ``fraction``,
``kmax`` and the prior shape of every cell but robust-a's.

Every random draw is seeded from a root seed up front, per cell and per
sample, and a pool of ``threads`` workers runs the samples, so output
is byte-identical for any ``threads`` setting.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .io import render_table
from .metrics import hausdorff, l2_distance, true_change_values
from .model import intensity_from_breaks, require_integer
from .selection import CvConfig, fit
from .simulate import alternating_intensity, derive_rates, simulate_events, simulate_marked

PRESETS = ("k-selection", "hausdorff-l2", "marked-table", "robust-a", "robust-f")

# each preset's default (means, ratios); a one-value default takes one-value
# overrides, and None takes none
_GRIDS = {
    "k-selection": ((100.0, 1000.0), (1.0, 3.0)),
    "hausdorff-l2": ((32.0, 100.0), (1.0, 2.0, 4.0, 8.0)),
    "marked-table": ((100.0,), None),
    "robust-a": ((100.0,), (8.0,)),
    "robust-f": ((100.0,), (8.0,)),
}


@dataclass(frozen=True)
class BenchConfig:
    preset: str
    samples: int = 20
    cv_replicates: int = 100
    # None means CvConfig.fraction; robust-f sweeps its own and refuses one
    fraction: float | None = None
    kmax: int = CvConfig.kmax
    seed: int = 0
    threads: int = 1
    # grid overrides; None keeps the preset default
    means: tuple[float, ...] | None = None
    ratios: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {', '.join(PRESETS)}")
        for name in ("samples", "cv_replicates", "kmax", "threads"):
            require_integer(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.fraction is not None:
            if self.preset == "robust-f":
                raise ValueError("preset robust-f does not use fraction")
            if not 0.0 < self.fraction < 1.0:
                raise ValueError("fraction must lie strictly between 0 and 1")
        for name, default in zip(("means", "ratios"), _GRIDS[self.preset]):
            given = getattr(self, name)
            if given and default is None:
                raise ValueError(f"preset {self.preset} does not use {name}")
            if given and len(default) == 1 < len(given):
                raise ValueError(f"preset {self.preset} takes one value of {name}, "
                                 f"got {len(given)}")


@dataclass(frozen=True)
class _Cell:
    preset: str
    mean_intensity: float
    ratio: float
    rho_odd: float | None
    rho_even: float | None
    prior_shape: float
    fraction: float


CSV_COLUMNS = (*(f.name for f in fields(_Cell)), "cv_replicates", "samples", "k_true",
               "k_hat_mean", "k_hat_se", "k_hat_median", "k_match_rate",
               "d_mean", "d_se", "d_median", "l2_mean", "l2_se", "l2_median")


def _build_cells(cfg: BenchConfig) -> list[_Cell]:
    fraction = CvConfig.fraction if cfg.fraction is None else cfg.fraction

    def cell(mean, ratio, rho_odd=None, rho_even=None, a=CvConfig.prior_shape, f=fraction):
        return _Cell(cfg.preset, float(mean), float(ratio), rho_odd, rho_even, float(a), f)

    default_means, default_ratios = _GRIDS[cfg.preset]
    means = cfg.means or default_means
    ratios = cfg.ratios or default_ratios
    if cfg.preset in ("k-selection", "hausdorff-l2"):
        return [cell(m, r) for m in means for r in ratios]
    (mean,) = means
    if cfg.preset == "marked-table":
        scenarios = [(1.0, 0.1, 0.1), (1.0, 0.1, 0.005), (8.0, 0.1, 0.1), (8.0, 0.1, 0.005)]
        return [cell(mean, r, rho_odd=ro, rho_even=re) for r, ro, re in scenarios]
    (ratio,) = ratios
    if cfg.preset == "robust-a":
        return [cell(mean, ratio, a=a) for a in (0.1, 0.5, 1.0, 2.0, 10.0)]
    return [cell(mean, ratio, f=f) for f in (0.5, 2.0 / 3.0, 0.8, 0.9)]


def _cell_truth(c: _Cell):
    """The cell's true intensity (distances are scored against its breakpoints) and K."""
    if c.rho_odd is None and c.ratio == 1.0:
        derive_rates(c.mean_intensity, 1.0)  # refuses a bad mean as the other cells do
        intensity = intensity_from_breaks([0.0, 1.0], [c.mean_intensity])
    else:
        intensity = alternating_intensity(c.mean_intensity, c.ratio, c.rho_odd, c.rho_even)
    return intensity, true_change_values(intensity).size - 1


def _run_sample(cfg: BenchConfig, c: _Cell, intensity, sim_seed, cv_seed):
    simulate = simulate_events if intensity.mark_rates is None else simulate_marked
    data = simulate(intensity, seed=sim_seed)
    if data.n == 0:
        return None
    cv = CvConfig(fraction=c.fraction, replicates=cfg.cv_replicates, kmax=cfg.kmax,
                  seed=int(cv_seed), prior_shape=c.prior_shape)
    result = fit(data, cv)
    d = hausdorff(result.breakpoints(), intensity.breakpoints)[2]
    l2 = l2_distance(result.intensity(), intensity, normalization=c.mean_intensity)
    return result.k_hat, d, l2


def _stats(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se, float(np.median(arr))


def run_bench(cfg: BenchConfig) -> str:
    """Run a preset and return its summary table as CSV text."""
    cells = _build_cells(cfg)
    # built before any fit, so a bad mean or ratio fails at once
    truths = [_cell_truth(c) for c in cells]
    roots = np.random.SeedSequence(cfg.seed).generate_state(2 * len(cells), np.uint64)
    tasks = []
    for j, c in enumerate(cells):
        sim_seeds = np.random.SeedSequence(int(roots[2 * j])).spawn(cfg.samples)
        cv_seeds = np.random.SeedSequence(int(roots[2 * j + 1])).generate_state(cfg.samples, np.uint64)
        for b in range(cfg.samples):
            tasks.append((j, sim_seeds[b], cv_seeds[b]))

    def work(task):
        j, sim_seed, cv_seed = task
        return _run_sample(cfg, cells[j], truths[j][0], sim_seed, cv_seed)

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        outcomes = list(pool.map(work, tasks))

    per_cell: list[list[tuple[int, float, float]]] = [[] for _ in cells]
    for (j, _, _), outcome in zip(tasks, outcomes):
        if outcome is not None:
            per_cell[j].append(outcome)

    rows = []
    for c, (_, k_true), outcomes in zip(cells, truths, per_cell):
        if not outcomes:
            raise ValueError(f"no sample has any events in the cell at mean intensity "
                             f"{c.mean_intensity} and ratio {c.ratio}; raise the mean intensity")
        k_hats = [o[0] for o in outcomes]
        match = sum(1 for k in k_hats if k == k_true) / len(k_hats)
        rows.append((*astuple(c), cfg.cv_replicates, len(outcomes), k_true,
                     *_stats(k_hats), match, *_stats([o[1] for o in outcomes]),
                     *_stats([o[2] for o in outcomes])))
    return render_table(CSV_COLUMNS, rows)
