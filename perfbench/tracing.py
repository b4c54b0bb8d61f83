"""Spans around calls into ppseg's public functions.

``install`` replaces each traced function, in every ppseg module that
holds it, by a wrapper that records a span: name, parent span, start
and end. The program itself is not changed. Spans stay in memory and
are written out when the run ends. A span's self time is its duration
minus the durations of its child spans, so the self times of one
operation add up to its wall time.

When ``Recorder.measure_memory`` is set, ``dp.solve`` spans also record
the peak of memory allocated inside the call, from tracemalloc, which
then runs only while a solve does. It slows allocation, so the runner
sets it for one extra operation after the timed ones.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc

# (module, function, span name, scope). A scope limits the patch to the
# one module whose calls the span is meant to time: test scoring calls
# poisson_gamma_cost from selection, the cost matrix calls it through
# segment_cost.
TRACED = (
    ("ppseg.cli", "main", "cli.main", None),
    ("ppseg.io", "load_series", "io.load_series", None),
    ("ppseg.io", "render_result", "io.render_result", None),
    ("ppseg.bench", "run_bench", "bench.run_bench", None),
    ("ppseg.simulate", "simulate_events", "simulate", None),
    ("ppseg.simulate", "simulate_marked", "simulate", None),
    ("ppseg.metrics", "hausdorff", "metrics", None),
    ("ppseg.metrics", "l2_distance", "metrics", None),
    ("ppseg.selection", "fit", "selection.fit", None),
    ("ppseg.selection", "cross_validate", "selection.cross_validate", None),
    ("ppseg.selection", "thin", "selection.thin", None),
    ("ppseg.selection", "poisson_gamma_cost", "selection.score", "ppseg.selection"),
    ("ppseg.model", "build_grid", "model.build_grid", None),
    ("ppseg.contrasts", "default_spec", "contrasts.default_spec", None),
    ("ppseg.contrasts", "segment_cost", "contrasts.segment_cost", None),
    ("ppseg.dp", "build_cost_matrix", "dp.build_cost_matrix", None),
    ("ppseg.dp", "solve", "dp.solve", None),
)
ROOT = "op"  # the span around one whole operation

# Per-layer metrics in output order. Calls and self times are per
# operation, medians over the operations of the run.
PER_LAYER = (
    ("traced.op_s", "s"),
    ("dp.solve.calls", "count"),
    ("dp.solve.self_s", "s"),
    ("dp.solve.peak_mb", "MB"),
    ("dp.build_cost_matrix.self_s", "s"),
    ("contrasts.segment_cost.calls", "count"),
    ("contrasts.segment_cost.self_s", "s"),
    ("contrasts.default_spec.self_s", "s"),
    ("selection.fit.calls", "count"),
    ("selection.fit.self_s", "s"),
    ("selection.cross_validate.self_s", "s"),
    ("selection.replicate_s", "s"),
    ("selection.thin.calls", "count"),
    ("selection.thin.self_s", "s"),
    ("selection.score.self_s", "s"),
    ("selection.scored_fraction", "fraction"),
    ("model.build_grid.calls", "count"),
    ("model.build_grid.self_s", "s"),
    ("simulate.self_s", "s"),
    ("metrics.self_s", "s"),
    ("bench.run_bench.self_s", "s"),
    ("io.load_series.self_s", "s"),
    ("io.render_result.self_s", "s"),
    ("cli.main.self_s", "s"),
)

NAME, PARENT, START, END, INFO = range(5)


class Recorder:
    """Spans of one run as [name, parent index, start, end, info] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.measure_memory = False

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _wrap(fn, name: str, rec: Recorder):
    if name == "dp.solve":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            memory = rec.measure_memory
            if memory:
                tracemalloc.start()
            sid = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(sid)
                if memory:
                    rec.spans[sid][INFO] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
    elif name == "selection.cross_validate":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec.open(name)
            try:
                curve = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            rec.spans[sid][INFO] = [curve.replicates, sum(curve.counts), len(curve.ks)]
            return curve
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(sid)
    return traced


def install(rec: Recorder) -> list[tuple]:
    """Patch the traced functions; returns what ``uninstall`` restores."""
    modules = [m for key, m in sys.modules.items() if key == "ppseg" or key.startswith("ppseg.")]
    undo = []
    for module, attr, name, scope in TRACED:
        if module not in sys.modules:  # never imported, so never called
            continue
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(original, name, rec)
        for m in modules:
            if scope is not None and m.__name__ != scope:
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))
    return undo


def uninstall(undo) -> None:
    for m, key, original in reversed(undo):
        setattr(m, key, original)


def layer_metrics(spans, op_roots, op_walls, memory_root) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, and span inconsistencies found.

    ``op_roots`` holds the index of each timed operation's root span and
    ``op_walls`` its wall time measured around the call; ``memory_root``
    is the root span of the operation run with ``measure_memory`` set.
    """
    problems = []
    self_s = [None if s[END] is None else s[END] - s[START] for s in spans]
    for sid, s in enumerate(spans):
        if self_s[sid] is None:
            problems.append(f"span {sid} ({s[NAME]}) never closed")
            continue
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if not (parent[START] <= s[START] and parent[END] is not None
                    and s[END] <= parent[END]):
                problems.append(f"span {sid} ({s[NAME]}) lies outside its parent")
            elif self_s[s[PARENT]] is not None:
                self_s[s[PARENT]] -= s[END] - s[START]
    if problems:
        return {}, problems

    owner = [-1] * len(spans)  # root span of each span's operation
    for sid, s in enumerate(spans):
        owner[sid] = sid if s[PARENT] < 0 else owner[s[PARENT]]
    per_op = {root: {"self": {}, "calls": {}, "cv": [0.0, 0, 0, 0]} for root in op_roots}
    peak = max((s[INFO] for sid, s in enumerate(spans)
                if owner[sid] == memory_root and s[NAME] == "dp.solve"), default=0)
    for sid, s in enumerate(spans):
        op = per_op.get(owner[sid])
        if op is None:
            continue
        name = s[NAME]
        op["self"][name] = op["self"].get(name, 0.0) + self_s[sid]
        op["calls"][name] = op["calls"].get(name, 0) + 1
        if name == "selection.cross_validate":
            replicates, scored, kmax = s[INFO]
            op["cv"][0] += s[END] - s[START]
            op["cv"][1] += replicates
            op["cv"][2] += scored
            op["cv"][3] += replicates * kmax

    for root, wall in zip(op_roots, op_walls):
        total = sum(per_op[root]["self"].values())
        if abs(total - wall) > 1e-3 * wall + 1e-4:
            problems.append(f"operation at span {root}: self times add up to {total!r} s, "
                            f"its traced wall time is {wall!r} s")

    ops = [per_op[root] for root in op_roots]

    def median(values):
        return statistics.median(values) if values else 0.0

    out = {"traced.op_s": median(op_walls)}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "self_s":
            out[metric] = median([op["self"].get(layer, 0.0) for op in ops])
        elif stat == "calls":
            out[metric] = median([op["calls"].get(layer, 0) for op in ops])
    out["dp.solve.peak_mb"] = peak / 2**20
    out["selection.replicate_s"] = median(
        [op["cv"][0] / op["cv"][1] for op in ops if op["cv"][1]])
    cells = sum(op["cv"][3] for op in ops)
    out["selection.scored_fraction"] = sum(op["cv"][2] for op in ops) / cells if cells else 0.0
    return out, problems
