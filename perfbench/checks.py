"""Output checks for the benchmark's workloads.

Each check recomputes what it compares against from the workload's
inputs, with the standard library only, or tests a property the method
must have. None compares against a stored copy of an earlier output.
Every check returns a list of ``(check, message)`` pairs; an empty list
means the output passed.
"""

from __future__ import annotations

import bisect
import math

# The alternating six-segment design of the simulation study: segment
# durations 7, 1, 6, 2, 4 and 4 hours of a day, rescaled to (0, 1).
DESIGN_BREAKS = tuple(h / 24.0 for h in (0, 7, 8, 14, 16, 20, 24))

# Relative tolerance between the program's contrast and the sum below.
# The two differ only in summation order and in the lgamma routine, by
# about 1e-13; a contrast off by a relative 1e-6 must fail.
CONTRAST_RTOL = 1e-9
# Printed rates are rendered with repr and recomputed here from the
# same printed floats, so they agree to rounding.
RATE_RTOL = 1e-12

STUDY_COLUMNS = (
    "preset", "mean_intensity", "ratio", "rho_odd", "rho_even", "prior_shape",
    "fraction", "cv_replicates", "samples", "k_true", "k_hat_mean", "k_hat_se",
    "k_hat_median", "k_match_rate", "d_mean", "d_se", "d_median", "l2_mean",
    "l2_se", "l2_median",
)
# marked-table scenarios as (ratio, rho_odd, rho_even): neither rate
# alternates, the mark rate alone, the event rate alone, or both.
FLAT = (1.0, 0.1, 0.1)
BOTH = (8.0, 0.1, 0.005)
STUDY_SCENARIOS = (FLAT, (1.0, 0.1, 0.005), (8.0, 0.1, 0.1), BOTH)


def pg_cost(count: int, length: float, a: float, b: float) -> float:
    """Negated log marginal likelihood of one segment, Gamma(a, b) rate prior."""
    return (
        (count + a) * math.log(length + b)
        - math.lgamma(count + a)
        + math.lgamma(a)
        - a * math.log(b)
    )


def grid_point(p: int, times) -> tuple[float, str]:
    """Value and side of position p on the candidate grid of sorted times.

    Position 2m - 1 lies just before event m and position 2m at it;
    positions 0 and 2n + 1 are the boundaries 0 and 1.
    """
    n = len(times)
    if p == 0:
        return 0.0, "boundary"
    if p == 2 * n + 1:
        return 1.0, "boundary"
    return times[(p + 1) // 2 - 1], ("before" if p % 2 else "at")


def events_left_of(value: float, side: str, times) -> int:
    """Events left of a change-point; one placed "at" an event keeps it."""
    if side == "before":
        return bisect.bisect_left(times, value)
    return bisect.bisect_right(times, value)


def path_cost(positions, times, a: float, b: float) -> tuple[list[int], float]:
    """Segment counts and total cost of interior grid positions."""
    n = len(times)
    points = [grid_point(p, times) for p in (0, *positions, 2 * n + 1)]
    left = [events_left_of(v, side, times) for v, side in points]
    counts = [hi - lo for lo, hi in zip(left, left[1:])]
    lengths = [hi[0] - lo[0] for lo, hi in zip(points, points[1:])]
    return counts, math.fsum(pg_cost(c, d, a, b) for c, d in zip(counts, lengths))


def hausdorff(first, second) -> float:
    def directed(xs, ys):
        return max(min(abs(x - y) for y in ys) for x in xs)

    return max(directed(first, second), directed(second, first))


def check_solve(results, times, kmax: int, a: float = 1.0) -> list[tuple[str, str]]:
    """Optimal segmentations of ``times`` for K = 1..kmax.

    The contrast is the Poisson-Gamma cost with shape a and rate a / n.
    """
    n = len(times)
    b = a / n
    if [r.k for r in results] != list(range(1, kmax + 1)):
        return [("solve.order", f"results are not K = 1..{kmax}")]
    errors = []
    for r in results:
        if not r.feasible or r.segmentation is None or r.contrast is None:
            errors.append(("solve.order", f"K = {r.k}: no segmentation"))
            continue
        cps = r.segmentation.change_points
        positions = [cp.index for cp in cps]
        bounds = [0, *positions, 2 * n + 1]
        if len(positions) != r.k - 1 or any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            errors.append(("solve.order", f"K = {r.k}: positions {positions} do not increase"))
            continue
        if any((cp.value, cp.side) != grid_point(cp.index, times) for cp in cps):
            errors.append(("solve.order", f"K = {r.k}: a change-point is off its grid position"))
            continue
        counts = path_cost(positions, times, a, b)[0]
        if min(counts) < 0 or sum(counts) != n:
            errors.append(("solve.order", f"K = {r.k}: segment counts {counts} do not sum to {n}"))
        errors += optimum_errors("solve", r.k, positions, r.contrast, times, a, b)
    return errors


def optimum_errors(prefix: str, k: int, positions, contrast: float, times,
                   a: float, b: float) -> list[tuple[str, str]]:
    """The reported contrast of an optimal K-segmentation at increasing
    interior grid positions equals its Poisson-Gamma cost, and moving any
    one change-point to a neighbouring position never lowers that cost."""
    errors = []
    total = path_cost(positions, times, a, b)[1]
    if not math.isclose(contrast, total, rel_tol=CONTRAST_RTOL):
        errors.append((f"{prefix}.contrast",
                       f"K = {k}: contrast {contrast!r}, segment costs sum to {total!r}"))
    bounds = [0, *positions, 2 * len(times) + 1]
    for j, p in enumerate(positions):
        for q in (p - 1, p + 1):
            if not bounds[j] < q < bounds[j + 2]:
                continue
            moved = path_cost(positions[:j] + [q] + positions[j + 1:], times, a, b)[1]
            if moved < total - CONTRAST_RTOL * abs(total):
                errors.append((f"{prefix}.local",
                               f"K = {k}: moving position {p} to {q} lowers the cost "
                               f"from {total!r} to {moved!r}"))
    return errors


def parse_document(text: str) -> tuple[dict[str, str], dict[str, list[list[str]]]]:
    """Header fields and section rows (column-name row dropped) of a result document."""
    lines = text.splitlines()
    if not lines or lines[0] != "ppseg-result v1":
        raise ValueError("not a ppseg result document")
    header: dict[str, str] = {}
    sections: dict[str, list[list[str]]] = {}
    rows = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            rows = sections.setdefault(line[1:-1], [])
        elif rows is None:
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
        else:
            rows.append(line.split())
    return header, {name: body[1:] for name, body in sections.items()}


def check_segment(text: str, times, replicates: int, hausdorff_bound: float,
                  min_defined_fraction: float = 0.5) -> list[tuple[str, str]]:
    """Result document of ``ppseg segment`` on the events ``times``."""
    try:
        header, sections = parse_document(text)
        a, b = float(header["a"]), float(header["b"])
        w0, w1 = (float(v) for v in header["window"].split())
        k_hat = int(header["k_hat"])
        n_events = int(header["n_events"])
        cv_replicates = int(header["cv_replicates"])
        cps = [(int(i), side, float(u), float(x)) for i, side, u, x in sections["change_points"]]
        segs = [(int(k), int(c), float(r), float(ro)) for k, c, r, ro in sections["segments"]]
        cv = [(int(k), float(m), int(c)) for k, m, _, c in sections["cv_curve"]]
        contrasts = {int(k): v for k, v in sections["contrast_by_k"]}
        contrast = float(contrasts[k_hat])
    except (KeyError, ValueError) as exc:
        return [("segment.document", f"unreadable document: {exc!r}")]
    n = len(times)
    errors = []
    if n_events != n or cv_replicates != replicates:
        errors.append(("segment.document",
                       f"n_events {n_events}, cv_replicates {cv_replicates}; "
                       f"expected {n} and {replicates}"))
    if len(segs) != k_hat or len(cps) != k_hat - 1:
        return errors + [("segment.document",
                          f"k_hat {k_hat} with {len(cps)} change-points and {len(segs)} segments")]

    left = [0]
    for index, side, u, x in cps:
        if not 1 <= index <= 2 * n:
            return errors + [("segment.counts", f"index {index} is off the grid")]
        value, grid_side = grid_point(index, times)
        if side != grid_side:
            errors.append(("segment.counts", f"index {index} is {grid_side!r}, printed {side!r}"))
        left.append(events_left_of(value, side, times))
        if not (math.isclose(x, value, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(u, (value - w0) / (w1 - w0), rel_tol=1e-9, abs_tol=1e-12)):
            errors.append(("segment.positions",
                           f"index {index}: printed {u!r} / {x!r}, event time {value!r}"))
    left.append(n)
    recount = [hi - lo for lo, hi in zip(left, left[1:])]
    if recount != [c for _, c, _, _ in segs]:
        errors.append(("segment.counts",
                       f"printed counts {[c for _, c, _, _ in segs]}, recounted {recount}"))

    bounds = [0.0] + [u for _, _, u, _ in cps] + [1.0]
    for (k, count, rate, rate_orig), lo, hi in zip(segs, bounds, bounds[1:]):
        expected = (count + a) / (hi - lo + b)
        if not (math.isclose(rate, expected, rel_tol=RATE_RTOL)
                and math.isclose(rate_orig, expected / (w1 - w0), rel_tol=RATE_RTOL)):
            errors.append(("segment.rates",
                           f"segment {k}: rate {rate!r} / {rate_orig!r}, "
                           f"(count + a) / (length + b) = {expected!r}"))

    eligible = [(mean, k) for k, mean, count in cv
                if count > 0 and count >= min_defined_fraction * replicates
                and not math.isnan(mean)]
    if not eligible or min(eligible)[1] != k_hat:
        errors.append(("segment.k_hat",
                       f"k_hat {k_hat}, smallest K of least CV mean "
                       f"{min(eligible)[1] if eligible else None}"))

    # The fit segments the events normalized onto the window; the same
    # float arithmetic reproduces its times exactly.
    normalized = [(t - w0) / (w1 - w0) for t in times]
    errors += optimum_errors("segment", k_hat, [index for index, _, _, _ in cps],
                             contrast, normalized, a, b)

    estimate = [0.0] + [x for _, _, _, x in cps] + [1.0]
    d = hausdorff(estimate, DESIGN_BREAKS)
    if not d <= hausdorff_bound:
        errors.append(("segment.hausdorff",
                       f"Hausdorff distance {d!r} to the design exceeds {hausdorff_bound}"))
    return errors


def check_study(text: str, samples: int, kmax: int) -> list[tuple[str, str]]:
    """CSV table of ``run_bench`` on the marked-table preset."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != STUDY_COLUMNS:
        return [("study.rows", "unexpected CSV header")]
    rows = [dict(zip(STUDY_COLUMNS, line.split(","))) for line in lines[1:]]
    try:
        by_scenario = {
            (float(r["ratio"]), float(r["rho_odd"]), float(r["rho_even"])): r for r in rows
        }
    except ValueError as exc:
        return [("study.rows", f"unreadable row: {exc!r}")]
    if len(rows) != len(STUDY_SCENARIOS) or set(by_scenario) != set(STUDY_SCENARIOS):
        return [("study.rows", f"scenarios {sorted(by_scenario)}, expected one row each "
                               f"of {sorted(STUDY_SCENARIOS)}")]
    errors = []
    for scenario, r in by_scenario.items():
        if r["samples"] != str(samples):
            errors.append(("study.rows", f"{scenario}: {r['samples']} samples, asked {samples}"))
        ratio, rho_odd, rho_even = scenario
        k_true = 1 if ratio == 1.0 and rho_odd == rho_even else 6
        if r["k_true"] != str(k_true):
            errors.append(("study.k_true", f"{scenario}: k_true {r['k_true']}, design has {k_true}"))
        k_mean = float(r["k_hat_mean"])
        if not 1.0 <= k_mean <= kmax:
            errors.append(("study.ranges", f"{scenario}: k_hat_mean {k_mean} outside [1, {kmax}]"))
        for col in ("d_mean", "d_se", "d_median", "l2_mean", "l2_se", "l2_median"):
            if not float(r[col]) >= 0.0:
                errors.append(("study.ranges", f"{scenario}: {col} {r[col]} is negative"))
    if not float(by_scenario[BOTH]["k_hat_mean"]) > float(by_scenario[FLAT]["k_hat_mean"]):
        errors.append(("study.contrast",
                       "the scenario where both rates alternate does not select more "
                       "segments on average than the flat one"))
    return errors
