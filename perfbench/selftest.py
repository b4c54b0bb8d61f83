"""Self-test of the benchmark's output checks.

Runs one operation of each workload, confirms that every check passes
on its output, then corrupts the output once per check and confirms
that the check reports it. It also feeds the span check a trace whose
self times do not add up, and compares BENCHMARK.json with the metrics
the runner prints. Run from the root of a checkout:

    python3 perfbench/selftest.py

It exits with status 1 if any check misses its corruption.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import checks
import run
import tracing

SEED = 7
failures = 0


def expect(label: str, errors, wanted: str | None) -> None:
    """wanted None: no errors; otherwise the check named wanted must fire."""
    global failures
    names = sorted({name for name, _ in errors})
    ok = not errors if wanted is None else wanted in names
    failures += not ok
    target = "passes" if wanted is None else f"{wanted} fires"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {target} (reported: {names or 'nothing'})")


def solve_cases(workdir) -> None:
    from ppseg.model import Segmentation, build_grid, segmentation_from_indices

    wl = run.SolveN3000(SEED, workdir)
    results = wl.op()
    times, kmax = wl.times, run.KMAX
    expect("solve output", checks.check_solve(results, times, kmax), None)

    off = list(results)
    off[5] = dataclasses.replace(off[5], contrast=off[5].contrast * (1 + 1e-6))
    expect("contrast off by a relative 1e-6", checks.check_solve(off, times, kmax),
           "solve.contrast")

    # Move one change-point of K = 6 one grid step, to the neighbour that
    # raises the cost most, and report the moved segmentation's own cost,
    # so that only the local-optimality check can tell.
    r = results[5]
    positions = list(r.segmentation.indices)
    candidates = [positions[:j] + [q] + positions[j + 1:]
                  for j, p in enumerate(positions) for q in (p - 1, p + 1)]
    cost, moved = max((checks.path_cost(m, times, 1.0, 1.0 / len(times))[1], m)
                      for m in candidates if all(lo < hi for lo, hi in zip(m, m[1:])))
    worse = list(results)
    worse[5] = dataclasses.replace(
        r, segmentation=segmentation_from_indices(build_grid(wl.series), moved), contrast=cost)
    errors = checks.check_solve(worse, times, kmax)
    expect("change-point moved one grid step to a worse position", errors, "solve.local")
    expect("  ... with its contrast consistent", [e for e in errors if e[0] == "solve.contrast"],
           None)

    swapped = list(results)
    cps = r.segmentation.change_points
    swapped[5] = dataclasses.replace(
        r, segmentation=Segmentation(r.k, (cps[1], cps[0], *cps[2:])))
    expect("change-points out of order", checks.check_solve(swapped, times, kmax), "solve.order")


def _edit(text: str, section: str, row: int, col: int, new) -> str:
    """Replace one field of one row of a result-document section."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]") + 2
    fields = lines[start + row].split()
    fields[col] = new(fields[col])
    lines[start + row] = " ".join(fields)
    return "\n".join(lines) + "\n"


def segment_cases(workdir) -> None:
    wl = run.SegmentN1000(SEED, workdir)
    text = wl.op().decode("utf-8")

    def check(doc):
        return checks.check_segment(doc, wl.times, wl.REPLICATES, wl.HAUSDORFF_BOUND)

    expect("segment document", check(text), None)
    k_hat = int(checks.parse_document(text)[0]["k_hat"])
    expect("the selected K's contrast off by a relative 1e-6",
           check(_edit(text, "contrast_by_k", k_hat - 1, 1,
                       lambda v: repr(float(v) * (1 + 1e-6)))),
           "segment.contrast")
    expect("a rate changed",
           check(_edit(text, "segments", 1, 2, lambda v: repr(float(v) * (1 + 1e-6)))),
           "segment.rates")
    expect("a segment count changed",
           check(_edit(_edit(text, "segments", 0, 1, lambda v: str(int(v) + 1)),
                       "segments", 1, 1, lambda v: str(int(v) - 1))),
           "segment.counts")

    sections = checks.parse_document(text)[1]
    lowest = min(float(row[1]) for row in sections["cv_curve"])
    other = 0 if k_hat != 1 else 1  # row of a K other than k_hat
    expect("a CV row whose mean is altered",
           check(_edit(text, "cv_curve", other, 1, lambda v: repr(lowest - 1.0))),
           "segment.k_hat")

    moved = text
    for row in range(len(sections["change_points"])):
        moved = _edit(moved, "change_points", row, 3, lambda v: repr(0.999))
    expect("change-points far from the design", check(moved), "segment.hausdorff")


def study_cases(workdir) -> None:
    wl = run.StudyMarked(SEED, workdir)
    text = wl.op()
    lines = text.splitlines()

    def check(rows):
        return checks.check_study("\n".join(rows) + "\n", wl.SAMPLES, run.KMAX)

    def edit(row: int, column: str, value: str):
        col = checks.STUDY_COLUMNS.index(column)
        fields = lines[row].split(",")
        fields[col] = value
        return lines[:row] + [",".join(fields)] + lines[row + 1:]

    expect("study table", check(lines), None)
    expect("a scenario row dropped", check(lines[:-1]), "study.rows")
    expect("a sample count changed", check(edit(2, "samples", str(wl.SAMPLES + 1))),
           "study.rows")
    expect("k_true changed", check(edit(4, "k_true", "1")), "study.k_true")
    expect("k_hat_mean above kmax", check(edit(3, "k_hat_mean", repr(run.KMAX + 1.0))),
           "study.ranges")
    expect("a negative distance", check(edit(2, "d_mean", "-0.01")), "study.ranges")
    # row 1 is the flat scenario; give it more segments than row 4 selects
    both = float(lines[4].split(",")[checks.STUDY_COLUMNS.index("k_hat_mean")])
    expect("flat scenario above the alternating one",
           check(edit(1, "k_hat_mean", repr(min(both + 1.0, run.KMAX)))), "study.contrast")


def trace_cases() -> None:
    rec = tracing.Recorder()
    root = rec.open(tracing.ROOT)
    child = rec.open("dp.solve")
    rec.close(child)
    rec.close(root)
    wall = rec.spans[root][tracing.END] - rec.spans[root][tracing.START]

    def check(spans, walls):
        return [("trace", p) for p in tracing.layer_metrics(spans, [root], walls, -1)[1]]

    expect("trace", check(rec.spans, [wall]), None)
    expect("self times that do not add up to the wall time",
           check(rec.spans, [wall + 0.01]), "trace")
    late = [list(s) for s in rec.spans]
    late[child][tracing.END] = late[root][tracing.END] + 0.01
    expect("a child span that outlasts its parent", check(late, [wall]), "trace")


def benchmark_file_cases() -> None:
    global failures
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    pairs = [
        ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]],
         list(run.END_TO_END.items())),
        ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]],
         list(tracing.PER_LAYER)),
    ]
    for key, listed, printed in pairs:
        ok = listed == printed
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json {key} match the runner")
    ok = {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json workloads are the runner's")


def main() -> int:
    run.use_source_tree()
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        solve_cases(workdir)
        segment_cases(workdir)
        study_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    trace_cases()
    benchmark_file_cases()
    print("all checks caught their corruptions" if not failures
          else f"{failures} case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
