"""Hash the outputs that every change to ppseg must leave byte-identical.

Runs eleven ``ppseg`` commands against the ``src/`` of this checkout, in a
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

# the input files every pinned command reads, from the paths given here
EVENTS = (
    ("plain.txt", ["simulate", "--design", "100,8", "--seed", "1"]),
    ("marked.txt", ["simulate", "--design", "100,8", "--marks", "0.1,0.005", "--seed", "1"]),
)

CV = ["--seed", "0", "--replicates", "50"]
COMMANDS = (
    ("segment-plain", ["segment", "plain.txt", *CV]),
    ("segment-plain-unit", ["segment", "plain.txt", "--window", "0", "1", *CV]),
    ("segment-marked", ["segment", "marked.txt", *CV]),
    ("segment-marked-unit", ["segment", "marked.txt", "--window", "0", "1", *CV]),
    *((f"segment-k6-{kind}",
       ["segment", "marked.txt", "--window", "0", "1", "--k", "6", "--contrast", kind])
      for kind in ("poisson", "poisson_gamma", "marked_poisson", "marked_pgeg")),
    ("cv-curve-marked-unit", ["cv-curve", "marked.txt", "--window", "0", "1", *CV]),
    ("bench-marked-table",
     ["bench", "--preset", "marked-table", "--samples", "2", "--replicates", "20"]),
    ("bench-k-selection",
     ["bench", "--preset", "k-selection", "--samples", "2", "--replicates", "20"]),
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

        for name, argv in EVENTS:
            ppseg([*argv, "-o", name])
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
