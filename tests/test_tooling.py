"""The benchmark under perfbench/ reaches into ppseg by name.

``perfbench/tracing.py`` wraps the functions listed in ``TRACED`` at
their module paths, and the workloads and self-test call a few more.
A renamed or deleted name would otherwise only surface as an
AttributeError in a traced benchmark run.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", _tracing().TRACED, ids=lambda e: f"{e[0]}.{e[1]}")
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
