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
    Sensitivity to the thinning fraction used by cross-validation.

Every random draw is seeded from a root seed up front, per cell and per
sample, so output is byte-identical for any ``threads`` setting.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import hausdorff, l2_distance
from .model import intensity_from_breaks, require_integer
from .selection import CvConfig, fit
from .simulate import ALTERNATING_BREAKPOINTS, alternating_intensity, simulate_events, simulate_marked

PRESETS = ("k-selection", "hausdorff-l2", "marked-table", "robust-a", "robust-f")

CSV_COLUMNS = (
    "preset",
    "mean_intensity",
    "ratio",
    "rho_odd",
    "rho_even",
    "prior_shape",
    "fraction",
    "cv_replicates",
    "samples",
    "k_true",
    "k_hat_mean",
    "k_hat_se",
    "k_hat_median",
    "k_match_rate",
    "d_mean",
    "d_se",
    "d_median",
    "l2_mean",
    "l2_se",
    "l2_median",
)


@dataclass(frozen=True)
class BenchConfig:
    preset: str
    samples: int = 20
    cv_replicates: int = 100
    fraction: float = 0.8
    kmax: int = 12
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
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class _Cell:
    preset: str
    mean_intensity: float
    ratio: float
    rho_odd: float | None
    rho_even: float | None
    prior_shape: float
    fraction: float


def _build_cells(cfg: BenchConfig) -> list[_Cell]:
    def cell(mean, ratio, rho_odd=None, rho_even=None, a=1.0, f=None):
        return _Cell(cfg.preset, float(mean), float(ratio), rho_odd, rho_even,
                     float(a), cfg.fraction if f is None else float(f))

    if cfg.preset == "k-selection":
        means = cfg.means or (100.0, 1000.0)
        ratios = cfg.ratios or (1.0, 3.0)
        return [cell(m, r) for m in means for r in ratios]
    if cfg.preset == "hausdorff-l2":
        means = cfg.means or (32.0, 100.0)
        ratios = cfg.ratios or (1.0, 2.0, 4.0, 8.0)
        return [cell(m, r) for m in means for r in ratios]
    if cfg.preset == "marked-table":
        mean = (cfg.means or (100.0,))[0]
        scenarios = [(1.0, 0.1, 0.1), (1.0, 0.1, 0.005), (8.0, 0.1, 0.1), (8.0, 0.1, 0.005)]
        return [cell(mean, r, rho_odd=ro, rho_even=re) for r, ro, re in scenarios]
    if cfg.preset == "robust-a":
        mean = (cfg.means or (100.0,))[0]
        ratio = (cfg.ratios or (8.0,))[0]
        return [cell(mean, ratio, a=a) for a in (0.1, 0.5, 1.0, 2.0, 10.0)]
    # robust-f
    mean = (cfg.means or (100.0,))[0]
    ratio = (cfg.ratios or (8.0,))[0]
    return [cell(mean, ratio, f=f) for f in (0.5, 2.0 / 3.0, 0.8, 0.9)]


def _cell_truth(c: _Cell):
    """True intensity, true change-point set, and true segment count."""
    if c.rho_odd is not None:
        intensity = alternating_intensity(c.mean_intensity, c.ratio, c.rho_odd, c.rho_even)
        truth = ALTERNATING_BREAKPOINTS
        k_true = 1 if (c.ratio == 1.0 and c.rho_odd == c.rho_even) else 6
    elif c.ratio == 1.0:
        intensity = intensity_from_breaks([0.0, 1.0], [c.mean_intensity])
        truth = np.array([0.0, 1.0])
        k_true = 1
    else:
        intensity = alternating_intensity(c.mean_intensity, c.ratio)
        truth = ALTERNATING_BREAKPOINTS
        k_true = 6
    return intensity, truth, k_true


def _run_sample(cfg: BenchConfig, c: _Cell, sim_seed, cv_seed):
    intensity, truth, _ = _cell_truth(c)
    if c.rho_odd is not None:
        data = simulate_marked(intensity, seed=sim_seed)
    else:
        data = simulate_events(intensity, seed=sim_seed)
    if data.n == 0:
        return None
    cv = CvConfig(fraction=c.fraction, replicates=cfg.cv_replicates, kmax=cfg.kmax,
                  seed=int(cv_seed), prior_shape=c.prior_shape)
    result = fit(data, cv)
    d = hausdorff(result.breakpoints(), truth)[2]
    l2 = l2_distance(result.intensity(), intensity, normalization=c.mean_intensity)
    return result.k_hat, d, l2


def _stats(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se, float(np.median(arr))


def _opt(x) -> str:
    return "-" if x is None else repr(float(x))


def run_bench(cfg: BenchConfig) -> str:
    """Run a preset and return its summary table as CSV text."""
    cells = _build_cells(cfg)
    roots = np.random.SeedSequence(cfg.seed).generate_state(2 * len(cells), np.uint64)
    tasks = []
    for j, c in enumerate(cells):
        sim_seeds = np.random.SeedSequence(int(roots[2 * j])).spawn(cfg.samples)
        cv_seeds = np.random.SeedSequence(int(roots[2 * j + 1])).generate_state(cfg.samples, np.uint64)
        for b in range(cfg.samples):
            tasks.append((j, sim_seeds[b], cv_seeds[b]))

    def work(task):
        j, sim_seed, cv_seed = task
        return _run_sample(cfg, cells[j], sim_seed, cv_seed)

    if cfg.threads == 1:
        outcomes = [work(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(work, tasks))

    per_cell: list[list[tuple[int, float, float]]] = [[] for _ in cells]
    for (j, _, _), outcome in zip(tasks, outcomes):
        if outcome is not None:
            per_cell[j].append(outcome)

    lines = [",".join(CSV_COLUMNS)]
    for c, outcomes in zip(cells, per_cell):
        if not outcomes:
            raise RuntimeError(f"no usable samples for cell {c}")
        _, _, k_true = _cell_truth(c)
        k_hats = [o[0] for o in outcomes]
        k_mean, k_se, k_med = _stats(k_hats)
        match = sum(1 for k in k_hats if k == k_true) / len(k_hats)
        d_mean, d_se, d_med = _stats([o[1] for o in outcomes])
        l_mean, l_se, l_med = _stats([o[2] for o in outcomes])
        lines.append(",".join((
            c.preset,
            repr(c.mean_intensity),
            repr(c.ratio),
            _opt(c.rho_odd),
            _opt(c.rho_even),
            repr(c.prior_shape),
            repr(c.fraction),
            str(cfg.cv_replicates),
            str(len(outcomes)),
            str(k_true),
            repr(k_mean),
            repr(k_se),
            repr(k_med),
            repr(match),
            repr(d_mean),
            repr(d_se),
            repr(d_med),
            repr(l_mean),
            repr(l_se),
            repr(l_med),
        )))
    return "\n".join(lines) + "\n"
