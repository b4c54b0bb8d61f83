"""Hash the outputs that every change to ppseg must leave byte-identical.

Runs twenty-three ``ppseg`` commands against the ``src/`` of this checkout, in a
temporary directory, and prints one ``label sha256`` line per output:

    python3 tools/pinned_outputs.py

With ``--against REV`` it runs the same commands on ``git archive REV``,
prints every label whose hash differs and exits 1 if any does:

    python3 tools/pinned_outputs.py --against main

No hashes are committed: numpy may pick a different SIMD ``log`` on
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
K6_MARKED = ["segment", "marked.txt", "--window", "0", "1", "--k", "6"]

# the input files the pinned commands read, made in this order by the
# checkout under test
INPUTS = (
    ("plain.txt", SIMULATE_PLAIN),
    ("marked.txt", SIMULATE_MARKED),
    ("k6.txt", K6_MARKED),
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
    ("segment-tied", ["segment", "tied.txt", *TIED_WINDOW, *CV]),
    ("cv-curve-tied", ["cv-curve", "tied.txt", *TIED_WINDOW, *CV]),
    ("cv-curve-plain-unit", ["cv-curve", "plain.txt", "--window", "0", "1", *CV]),
    *((f"segment-tied-k6-{kind}",
       ["segment", "tied.txt", *TIED_WINDOW, "--k", "6", "--contrast", kind])
      for kind in ("poisson", "marked_pgeg")),
)


def pinned_hashes(src: Path) -> dict[str, str]:
    """sha256 of each command's output, with ppseg imported from ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "CPT_SEED"}
    env["PYTHONPATH"] = str(src)
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
    args = parser.parse_args(argv)
    ours = pinned_hashes(ROOT / "src")
    for label, digest in ours.items():
        print(label, digest)
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        theirs = pinned_hashes(archived_src(args.against, Path(tmp)))
    differ = [label for label in ours if ours[label] != theirs[label]]
    for label in differ:
        print(f"differs from {args.against}: {label} {theirs[label]} -> {ours[label]}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
