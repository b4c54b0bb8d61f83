"""Time one benchmark workload on two checkouts, interleaved in one process.

    python3 tools/ab_interleave.py PARENT_DIR CHANGE_DIR --workload study-marked --seed 1 --reps 10

Each checkout's ``src/ppseg`` is imported into this one process: after a
side is imported its modules are set aside, and they are swapped back
into ``sys.modules`` before each of its operations. The workload is the
class of that name in CHANGE_DIR's ``perfbench/run.py``, imported and
used as it is, with its inputs made from ``--seed``. Each side runs one
untimed warm-up operation; then every rep runs one operation on each
side, the parent first on even reps and the change first on odd ones,
checks both outputs with the workload's checks and asserts that they
are equal. It prints, per side, the median and quartiles of the
operation times, the reps it won and its minor page faults
(``ru_minflt``) per operation, then the ratio of the medians.

Two processes on a shared machine can differ by more than a change is
worth; operations taken in turns in one process see the same load, so a
few reps resolve gains that separate benchmark runs leave inside their
spread.
"""

from __future__ import annotations

import argparse
import importlib
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def _drop_ppseg() -> None:
    for name in [m for m in sys.modules if m == "ppseg" or m.startswith("ppseg.")]:
        del sys.modules[name]


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Side:
    """One checkout's ppseg and the workload built on it."""

    def __init__(self, root: Path, run, workload: str, seed: int, workdir: Path) -> None:
        src = root.resolve() / "src"
        _drop_ppseg()
        sys.path.insert(0, str(src))
        try:
            ppseg = importlib.import_module("ppseg")
            if not Path(ppseg.__file__).resolve().is_relative_to(src):
                raise SystemExit(f"error: ppseg was imported from {ppseg.__file__}, not {src}")
            self.workload = run.WORKLOADS[workload](seed, workdir)
        finally:
            sys.path.remove(str(src))
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "ppseg" or name.startswith("ppseg.")}
        self.walls: list[float] = []
        self.faults: list[int] = []

    def op(self):
        """One operation on this side's modules: its output, wall time and page faults."""
        _drop_ppseg()
        sys.modules.update(self.modules)
        f0, t0 = _minflt(), time.perf_counter()
        out = self.workload.op()
        return out, time.perf_counter() - t0, _minflt() - f0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, metavar="PARENT_DIR")
    p.add_argument("change", type=Path, metavar="CHANGE_DIR")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=10)
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be at least 1")

    sys.dont_write_bytecode = True  # leave both checkouts as they are
    sys.path.insert(0, str(args.change.resolve() / "perfbench"))
    run = importlib.import_module("run")
    if args.workload not in run.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(run.WORKLOADS)}")
    for var in run.THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"

    with tempfile.TemporaryDirectory() as tmp:
        # one directory for both: the inputs are made from the same seed,
        # and a result document names the events file it was made from
        sides = {name: Side(root, run, args.workload, args.seed, Path(tmp))
                 for name, root in zip(SIDES, (args.parent, args.change))}
        for side in sides.values():
            side.op()  # warm-up
        for rep in range(args.reps):
            order = SIDES if rep % 2 == 0 else SIDES[::-1]
            prints = {}
            for name in order:
                side = sides[name]
                out, wall, faults = side.op()
                problems = [msg for _, msg in side.workload.check(out)]
                if problems:
                    raise SystemExit(f"error: {name} rep {rep}: {problems}")
                prints[name] = side.workload.fingerprint(out)
                side.walls.append(wall)
                side.faults.append(faults)
            if prints["parent"] != prints["change"]:
                raise SystemExit(f"error: rep {rep}: the two sides' outputs differ")

    parent, change = sides["parent"], sides["change"]
    wins = {"parent": sum(a < b for a, b in zip(parent.walls, change.walls)),
            "change": sum(b < a for a, b in zip(parent.walls, change.walls))}
    print(f"{args.workload} seed {args.seed}, {args.reps} reps, outputs equal")
    print(f"{'side':8} {'median_s':>9} {'q1_s':>9} {'q3_s':>9} {'wins':>5} {'minflt/op':>10}")
    for name, side in sides.items():
        q1, med, q3 = _quartiles(side.walls)
        print(f"{name:8} {med:9.4f} {q1:9.4f} {q3:9.4f} {wins[name]:5d} "
              f"{statistics.mean(side.faults):10.1f}")
    ratio = statistics.median(change.walls) / statistics.median(parent.walls)
    print(f"change / parent median: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
