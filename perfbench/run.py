"""Benchmark of ppseg: one workload per process.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload segment-n1000 --seed 1 --seconds 35 --trace 0

The benchmark imports ppseg from the checkout's ``src`` directory, makes
the workload's inputs from the seed, sets up (import, inputs, one
untimed warm-up operation), then repeats whole operations until
``--seconds`` have passed and checks every output. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans recorded around calls into ppseg (see
tracing.py). README.md in this directory describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and ppseg are imported inside functions, never here, so that
# set_up times their import.
import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

KMAX = 12
# The main process sets up once; SETUP_TRIALS - 1 fresh processes set
# up before it, and setup_s is the median of all of them.
SETUP_TRIALS = 3
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def design_events(n: int, ratio: float, seed: int) -> list[float]:
    """n sorted event times from the alternating design at a level ratio.

    The design's Poisson process conditioned on n events: the segment
    counts are multinomial with weights rate x duration, and the times
    are uniform inside each segment. Fixing n keeps the work of an
    operation the same for every seed.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    bp = np.asarray(checks.DESIGN_BREAKS)
    weights = np.diff(bp) * np.array([1.0, ratio] * 3)
    counts = rng.multinomial(n, weights / weights.sum())
    parts = [rng.uniform(lo, hi, c) for lo, hi, c in zip(bp[:-1], bp[1:], counts)]
    return [float(t) for t in np.sort(np.concatenate(parts))]


class StudyMarked:
    """``run_bench`` on the marked-table preset: four scenarios at mean
    intensity 100, SAMPLES series each, every one fitted with
    REPLICATES-fold thinning cross-validation on one thread."""

    SAMPLES = 2
    REPLICATES = 100

    def __init__(self, seed: int, workdir: Path) -> None:
        from ppseg import bench

        self.bench = bench
        self.cfg = bench.BenchConfig(preset="marked-table", samples=self.SAMPLES,
                                     cv_replicates=self.REPLICATES, kmax=KMAX,
                                     seed=seed, threads=1)

    def op(self):
        return self.bench.run_bench(self.cfg)

    def check(self, out):
        return checks.check_study(out, self.SAMPLES, KMAX)

    def fingerprint(self, out):
        return out


class SegmentN1000:
    """``ppseg segment`` through ``ppseg.cli.main`` on an events file of N
    events from the alternating design at ratio 3 (mean intensity 1000),
    default contrast and window, REPLICATES thinning replicates."""

    N = 985
    RATIO = 3.0
    REPLICATES = 10
    # The one-segment estimate lies 10/24 from the design's breakpoints
    # and no change-point can lie further than 7/48 from them, so only a
    # missed breakpoint exceeds the bound. Over seeds 0-199 the largest
    # distance was 0.141.
    HAUSDORFF_BOUND = 0.2

    def __init__(self, seed: int, workdir: Path) -> None:
        from ppseg import cli

        self.cli = cli
        self.times = design_events(self.N, self.RATIO, seed)
        events = workdir / "events.csv"
        with open(events, "w", encoding="utf-8") as fh:
            fh.write("time\n" + "".join(f"{t!r}\n" for t in self.times))
        self.result = workdir / "result.txt"
        self.argv = ["segment", str(events), "--replicates", str(self.REPLICATES),
                     "--seed", str(seed), "-o", str(self.result)]

    def op(self):
        code = self.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"ppseg segment exited with status {code}")
        return self.result.read_bytes()

    def check(self, out):
        return checks.check_segment(out.decode("utf-8"), self.times, self.REPLICATES,
                                    self.HAUSDORFF_BOUND)

    def fingerprint(self, out):
        return out


class SolveN3000:
    """One exact ``solve`` for K = 1..KMAX with ``default_spec`` on N events
    from the alternating design at ratio 3 (mean intensity 3000).

    Not listed in BENCHMARK.json (README.md says why); run by hand for
    the memory ceiling, and by the self-test."""

    N = 2933
    RATIO = 3.0

    def __init__(self, seed: int, workdir: Path) -> None:
        from ppseg import contrasts, dp, model

        self.contrasts, self.dp = contrasts, dp
        self.times = design_events(self.N, self.RATIO, seed)
        self.series = model.EventSeries(self.times)

    def op(self):
        return self.dp.solve(self.series, self.contrasts.default_spec(self.series), KMAX)

    def check(self, out):
        return checks.check_solve(out, self.times, KMAX)

    def fingerprint(self, out):
        return [(r.k, r.contrast, r.segmentation and r.segmentation.indices) for r in out]


WORKLOADS = {
    "study-marked": StudyMarked,
    "segment-n1000": SegmentN1000,
    "solve-n3000": SolveN3000,
}


def use_source_tree() -> None:
    """Import ppseg from the checkout's src directory and nowhere else."""
    if not (SRC / "ppseg" / "__init__.py").is_file():
        raise SystemExit(f"error: no ppseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for var in THREAD_VARS:
        os.environ[var] = "1"


def set_up(name: str, seed: int, workdir: Path):
    """Import, make the inputs and run the warm-up operation; timed."""
    start = time.perf_counter()
    import ppseg

    if not Path(ppseg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: ppseg was imported from {ppseg.__file__}, not {SRC}")
    workload = WORKLOADS[name](seed, workdir)
    warm = workload.op()
    return workload, warm, time.perf_counter() - start


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def measure(args, workdir: Path) -> dict:
    setups = [] if args.trace else [setup_in_fresh_process(args)
                                    for _ in range(SETUP_TRIALS - 1)]
    workload, warm, setup_s = set_up(args.workload, args.seed, workdir)
    setups.append(setup_s)
    wrong = [f"warm-up: {msg}" for _, msg in workload.check(warm)]
    reference = workload.fingerprint(warm)

    recorder = tracing.Recorder() if args.trace else None
    undo = tracing.install(recorder) if args.trace else []
    walls, roots = [], []
    attempted = failed = 0
    try:
        start = time.perf_counter()
        while True:
            attempted += 1
            try:
                t0 = time.perf_counter()
                if recorder is None:
                    out = workload.op()
                else:
                    root = recorder.open(tracing.ROOT)
                    try:
                        out = workload.op()
                    finally:
                        recorder.close(root)
                wall = time.perf_counter() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation {attempted} failed: {exc!r}", file=sys.stderr)
            else:
                problems = [msg for _, msg in workload.check(out)]
                if workload.fingerprint(out) != reference:
                    problems.append("output differs from the warm-up operation's")
                if problems:
                    failed += 1
                    wrong += [f"operation {attempted}: {msg}" for msg in problems]
                else:
                    walls.append(wall)
                    if recorder is not None:
                        roots.append(root)
            if time.perf_counter() - start >= args.seconds:
                break
        if recorder is not None:
            recorder.measure_memory = True
            memory_root = recorder.open(tracing.ROOT)
            try:
                workload.op()
            finally:
                recorder.close(memory_root)
    finally:
        tracing.uninstall(undo)
    for msg in wrong:
        print(f"wrong output: {msg}", file=sys.stderr)
    if not walls:
        raise SystemExit("error: no operation succeeded")

    if recorder is None:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(walls),
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        values, problems = tracing.layer_metrics(recorder.spans, roots, walls, memory_root)
        for msg in problems:
            print(f"inconsistent trace: {msg}", file=sys.stderr)
        wrong += problems
        recorder.write(OUT / f"trace-{args.workload}.json")
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in tracing.PER_LAYER}
    print(f"{args.workload} seed {args.seed}: {len(walls)} operations, median "
          f"{statistics.median(walls):.4f} s, set-up {setups}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, _, setup_s = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
        else:
            print(json.dumps(measure(args, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
