"""Hash the outputs that every change to ppseg must leave byte-identical.

Runs twenty-nine ``ppseg`` commands against the ``src/`` of this checkout, in a
temporary directory, and prints one ``label sha256`` line per output, then
one ``solver-corpus sha256`` line for the solver-bits corpus: one line per
``SolveResult`` of 1,296 library-level solves (n = 1 to 600, and 2,100,
whose grid of 4,201 columns is wider than any benchmark grid; all four kinds,
``forbid_empty`` on and off, Kmax 1, 2 and 12, untied, tied and marked
series) and the means of two ``cross_validate`` curves, every float
written as hex:

    python3 tools/pinned_outputs.py

With ``--against REV`` it runs the same commands and the same corpus on
``git archive REV``, prints every label whose hash differs and every corpus
line that differs, and exits 1 if any does:

    python3 tools/pinned_outputs.py --against main

``--corpus`` prints the corpus lines of the ppseg on ``PYTHONPATH`` and
exits. No hashes are committed: numpy may pick a different SIMD ``log`` on
another CPU, so the two sides are always computed on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SIMULATE_PLAIN = ["simulate", "--design", "100,8", "--seed", "1"]
SIMULATE_MARKED = ["simulate", "--design", "100,8", "--marks", "0.1,0.005", "--seed", "1"]
# about 1,000 events, unmarked and marked: the only pinned series whose
# solves keep no cost row, so their reconstructions price rows again,
# and refit on many cost blocks
SIMULATE_N1000 = ["simulate", "--design", "1000,3", "--seed", "1"]
SIMULATE_N1000_MARKED = ["simulate", "--design", "1000,3", "--marks", "0.1,0.005",
                         "--seed", "1"]
K6_MARKED = ["segment", "marked.txt", "--window", "0", "1", "--k", "6"]
# 323 events: of ten learning sets, three have n <= 255 and keep their cost
# rows, seven keep none
SIMULATE_STRADDLE = ["simulate", "--design", "320,3", "--seed", "2"]

# the input files the pinned commands read, made in this order by the
# checkout under test
INPUTS = (
    ("plain.txt", SIMULATE_PLAIN),
    ("marked.txt", SIMULATE_MARKED),
    ("k6.txt", K6_MARKED),
    ("n1000.txt", SIMULATE_N1000),
    ("n1000-marked.txt", SIMULATE_N1000_MARKED),
    ("straddle.txt", SIMULATE_STRADDLE),
)

# A marked events table on (0, 10) with 13 tied neighbours, written as is.
# Only tied times give segments with no event and zero length, and no
# simulated series has ties.
TIED = "time,mark\n" + "\n".join("""
0.35,0.36 0.38,0.84 1.14,0.91 1.47,0.48 1.47,0.01 1.47,0.49 1.47,0.22 2.87,1.66 2.87,0.35
2.87,0.42 3.69,10.37 4.18,5.12 4.2,5.31 4.31,0.52 4.68,3.32 4.68,1.57 4.98,0.49 5.17,5.99
5.46,8.62 5.46,3.67 5.54,9.84 5.54,0.49 5.54,3.56 6.14,8.73 6.19,0.82 6.19,11.66 6.42,2.49
6.5,0.01 6.5,0.15 6.56,0.24 6.56,2.74 7.57,0.75 7.94,0.45 8.16,0.84 8.83,0.36 8.83,0.87
""".split()) + "\n"
TIED_WINDOW = ["--window", "0", "10"]

CV = ["--seed", "0", "--replicates", "50"]
SMALL = ["--samples", "2", "--replicates", "20"]
COMMANDS = (
    ("simulate-plain", SIMULATE_PLAIN),
    ("simulate-marked", SIMULATE_MARKED),
    ("evaluate-k6-marked", ["evaluate", "k6.txt", "--truth", "design:100,8,0.1,0.005"]),
    ("segment-plain", ["segment", "plain.txt", *CV]),
    ("segment-plain-unit", ["segment", "plain.txt", "--window", "0", "1", *CV]),
    ("segment-marked", ["segment", "marked.txt", *CV]),
    ("segment-marked-unit", ["segment", "marked.txt", "--window", "0", "1", *CV]),
    *((f"segment-k6-{kind}",
       ["segment", "marked.txt", "--window", "0", "1", "--k", "6", "--contrast", kind])
      for kind in ("poisson", "poisson_gamma", "marked_poisson", "marked_pgeg")),
    ("cv-curve-marked-unit", ["cv-curve", "marked.txt", "--window", "0", "1", *CV]),
    *((f"bench-{preset}", ["bench", "--preset", preset, *SMALL])
      for preset in ("marked-table", "k-selection", "hausdorff-l2", "robust-a", "robust-f")),
    ("bench-hausdorff-l2-override",
     ["bench", "--preset", "hausdorff-l2", "--means", "50", "--ratios", "2,16", *SMALL]),
    # flags that reach BenchConfig only when given
    ("bench-k-selection-explicit",
     ["bench", "--preset", "k-selection", "--kmax", "8", "--fraction", "0.6",
      "--threads", "2", *SMALL]),
    ("segment-tied", ["segment", "tied.txt", *TIED_WINDOW, *CV]),
    ("cv-curve-tied", ["cv-curve", "tied.txt", *TIED_WINDOW, *CV]),
    ("cv-curve-plain-unit", ["cv-curve", "plain.txt", "--window", "0", "1", *CV]),
    ("cv-curve-straddle-unit",
     ["cv-curve", "straddle.txt", "--window", "0", "1", "--seed", "0", "--replicates", "10"]),
    *((f"segment-tied-k6-{kind}",
       ["segment", "tied.txt", *TIED_WINDOW, "--k", "6", "--contrast", kind])
      for kind in ("poisson", "marked_pgeg")),
    *((f"segment-{name}-unit", ["segment", f"{name}.txt", "--window", "0", "1",
                                "--seed", "0", "--replicates", "3"])
      for name in ("n1000", "n1000-marked")),
    # the solver's two special sizes: at Kmax 1 it prices one segment, and
    # at Kmax 2 its sweep fills S[1] alone and sums S[2, 0] from its top block
    *((f"segment-n1000-marked-k{k}",
       ["segment", "n1000-marked.txt", "--window", "0", "1", "--k", str(k)])
      for k in (1, 2)),
)


# (n, tied, marked, Kmax values) of the corpus series. Around 63/64 and
# 127/128 the top row block is full or holds row 2n alone; up to n = 255
# every cost row is kept, from 256 on the reconstruction prices rows
# again; n = 2100 has 4,201 grid columns, each block priced across all.
CORPUS_SERIES = (
    *((n, tied, marked, (1, 2, 12))
      for n in (1, 2, 3, 4, 7, 16, 31, 63, 64, 127, 128, 255, 256, 300, 400, 500, 600)
      for tied in (False, True) for marked in (False, True)),
    *((2100, tied, marked, (1, 2, 12)) for tied in (False, True) for marked in (False, True)),
)
# (n, marked) of the two cross-validated series
CORPUS_CURVES = ((60, False), (80, True))


def corpus_lines() -> list[str]:
    """The solver-bits corpus of the ppseg that ``import ppseg`` finds."""
    from dataclasses import replace

    import numpy as np
    from ppseg import KINDS, CvConfig, EventSeries, cross_validate, default_spec, solve

    def draw(n, tied, marked):
        rng = np.random.default_rng(n)
        times = np.sort(rng.uniform(0.01, 0.99, n))
        marks = rng.exponential(1.0, n)
        if tied:
            times = np.round(times, 2)
            times[n // 2] = times[n // 2 - 1]  # one tie even at n = 2
        return EventSeries(times, marks if marked else None)

    def hexed(x):
        return "None" if x is None else float(x).hex()

    lines = []
    for n, tied, marked, kmaxes in CORPUS_SERIES:
        series = draw(n, tied, marked)
        for kind in KINDS if marked else KINDS[:2]:
            base = default_spec(series, kind)
            for forbid_empty in (False, True):
                spec = replace(base, forbid_empty=forbid_empty)
                for kmax in kmaxes:
                    for res in solve(series, spec, kmax):
                        lines.append(
                            f"solve {kind} forbid_empty={forbid_empty} n={n} seed={n} "
                            f"tied={tied} marked={marked} kmax={kmax} K={res.k} | {res.feasible} "
                            f"{res.indices} {hexed(res.contrast)} {res.warnings}")
    for n, marked in CORPUS_CURVES:
        curve = cross_validate(draw(n, False, marked), CvConfig(replicates=20, kmax=8))
        means = " ".join(hexed(m) for m in curve.means)
        lines.append(f"cross_validate n={n} seed={n} marked={marked} | {means} "
                     f"{curve.counts} {curve.warnings}")
    return lines


def _environment(src: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "CPT_SEED"}
    env["PYTHONPATH"] = str(src)
    return env


def corpus(src: Path) -> list[str]:
    """The corpus lines, with ppseg imported from ``src``."""
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--corpus"],
                         env=_environment(src), capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"the solver corpus failed under {src}:\n{run.stderr}")
    return run.stdout.splitlines()


def corpus_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pinned_hashes(src: Path) -> dict[str, str]:
    """sha256 of each command's output, with ppseg imported from ``src``."""
    env = _environment(src)
    with tempfile.TemporaryDirectory() as work:

        def ppseg(argv) -> bytes:
            run = subprocess.run([sys.executable, "-m", "ppseg.cli", *argv],
                                 cwd=work, env=env, capture_output=True)
            if run.returncode != 0:
                raise SystemExit(f"ppseg {' '.join(argv)} failed under {src}:\n"
                                 + run.stderr.decode(errors="replace"))
            return run.stdout

        for name, argv in INPUTS:
            ppseg([*argv, "-o", name])
        Path(work, "tied.txt").write_text(TIED, encoding="utf-8")
        return {label: hashlib.sha256(ppseg([*argv, "-o", "-"])).hexdigest()
                for label, argv in COMMANDS}


def archived_src(rev: str, dest: Path) -> Path:
    """Unpack ``git archive rev`` into ``dest`` and return its src directory."""
    tar_path = dest / "rev.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(tar_path), rev],
                   check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest / "tree", filter="data")
    return dest / "tree" / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also hash the outputs of this git revision and compare")
    parser.add_argument("--corpus", action="store_true",
                        help="print the solver corpus of the ppseg on PYTHONPATH and exit")
    args = parser.parse_args(argv)
    if args.corpus:
        print(*corpus_lines(), sep="\n")
        return 0
    ours = pinned_hashes(ROOT / "src")
    our_lines = corpus(ROOT / "src")
    ours["solver-corpus"] = corpus_digest(our_lines)
    for label, digest in ours.items():
        print(label, digest)
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        src = archived_src(args.against, Path(tmp))
        theirs = pinned_hashes(src)
        their_lines = corpus(src)
    theirs["solver-corpus"] = corpus_digest(their_lines)
    differ = [label for label in ours if ours[label] != theirs[label]]
    for label in differ:
        print(f"differs from {args.against}: {label} {theirs[label]} -> {ours[label]}")
    if len(our_lines) != len(their_lines):
        print(f"corpus lines: {len(their_lines)} -> {len(our_lines)}")
    for theirs_line, ours_line in zip(their_lines, our_lines):
        if theirs_line != ours_line:
            print(f"- {theirs_line}\n+ {ours_line}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
