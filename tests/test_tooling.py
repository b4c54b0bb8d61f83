"""The tools around ppseg: the benchmark and the output gate.

``perfbench/tracing.py`` wraps the functions listed in ``TRACED`` at
their module paths, and the workloads and self-test call a few more.
A renamed or deleted name would otherwise only surface as an
AttributeError in a traced benchmark run. ``tools/pinned_outputs.py``
is the one list of commands whose outputs must stay byte-identical,
and CI runs it where scipy is not installed.
"""

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", _load("perfbench_tracing", PERFBENCH / "tracing.py").TRACED,
                         ids=lambda e: f"{e[0]}.{e[1]}")
def test_traced_names_resolve(entry):
    module, attr, _, scope = entry
    assert callable(getattr(importlib.import_module(module), attr))
    if scope is not None:
        # a scoped span patches the name inside that module's namespace
        assert attr in vars(importlib.import_module(scope))


def test_workload_names_resolve():
    from ppseg import bench, cli, contrasts, dp, model

    for module, attr in ((bench, "BenchConfig"), (bench, "run_bench"), (cli, "main"),
                         (contrasts, "default_spec"), (dp, "solve"),
                         (model, "EventSeries"), (model, "Segmentation"),
                         (model, "build_grid"), (model, "segmentation_from_indices")):
        assert callable(getattr(module, attr)), (module.__name__, attr)
    assert dataclasses.is_dataclass(dp.SolveResult)


def test_ab_interleave_runs_one_rep():
    # this checkout against itself: both sides import their own copy of
    # ppseg into the one process, and the outputs must be equal
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_interleave.py"), str(ROOT), str(ROOT),
         "--workload", "segment-n1000", "--seed", "1", "--reps", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "segment-n1000 seed 1, 1 reps, outputs equal"
    assert [line.split()[0] for line in lines[2:4]] == ["parent", "change"]
    assert lines[-1].startswith("change / parent median: ")


def test_pinned_commands_are_labelled_once_and_read_made_inputs():
    pinned = _load("pinned_outputs", ROOT / "tools" / "pinned_outputs.py")
    labels = [label for label, _ in pinned.COMMANDS]
    # the hashes go into a dict by label, so a repeated label would drop one
    assert len(set(labels)) == len(labels)
    assert "cv-curve-straddle-unit" in labels
    made = set()
    for name, argv in pinned.INPUTS:
        assert {arg for arg in argv if arg.endswith(".txt")} <= made, name
        made.add(name)
    made.add("tied.txt")  # written after the inputs
    for label, argv in pinned.COMMANDS:
        assert {arg for arg in argv if arg.endswith(".txt")} <= made, label


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the library and the command line
    # run on numpy alone
    code = ("import sys, ppseg, ppseg.cli, ppseg.bench, ppseg.selection; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
