"""File formats: event tables, intensity tables, result documents.

Events travel as UTF-8 comma-separated text with a header row, column
``time`` plus an optional ``mark``. Floats are always written with
``repr``, whose shortest round-trip representation guarantees that a
write/read cycle reproduces every value bit for bit, and that re-running
a command with identical inputs reproduces output files byte for byte
(documents carry no timestamps).

Intensity tables describe a step function, one segment per row with
columns ``start``, ``end``, ``rate`` and optional ``mark_rate``;
segments must tile their domain contiguously.

A result document is a small structured text file: a header of
``key: value`` lines followed by named ``[section]`` tables. It echoes
the configuration that produced it, the selected segment count, the
change-points (grid index, side, normalized and original-scale value),
per-segment rate estimates on both scales, the per-K contrasts and the
cross-validation curve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import EventSeries

FORMAT_LINE = "ppseg-result v1"


def _fmt(x) -> str:
    return repr(float(x))


def _read_columns(path, what: str, headers) -> np.ndarray:
    """The columns of a comma-separated table, as the rows of a float array.

    The header row, stripped and lower-cased, must equal one of
    ``headers``. Blank rows are skipped; every other row must hold one
    number per header field.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty {what} file") from None
        if header not in headers:
            wanted = " or ".join(repr(",".join(h)) for h in headers)
            raise ValueError(f"{path}: expected header {wanted}, got {','.join(header)!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    return np.array(rows, dtype=np.float64).reshape(-1, len(header)).T.copy()


def read_events_file(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Load times (and marks when present) from an events table."""
    columns = _read_columns(path, "events", (["time"], ["time", "mark"]))
    t = columns[0]
    if t.size and not np.all(np.isfinite(t)):
        raise ValueError(f"{path}: event times must be finite")
    if np.any(np.diff(t) < 0.0):
        raise ValueError(f"{path}: event times must be sorted ascending")
    if len(columns) == 1:
        return t, None
    m = columns[1]
    if m.size and (not np.all(np.isfinite(m)) or np.any(m <= 0.0)):
        raise ValueError(f"{path}: marks must be finite and strictly positive")
    return t, m


def render_events(times, marks=None) -> str:
    """An events file: a ``time`` or ``time,mark`` header, one row per event."""
    t = np.asarray(times, dtype=np.float64)
    if marks is None:
        lines = ["time", *(_fmt(v) for v in t)]
    else:
        m = np.asarray(marks, dtype=np.float64)
        lines = ["time,mark", *(_fmt(v) + "," + _fmt(x) for v, x in zip(t, m))]
    return "\n".join(lines) + "\n"


def default_window(times) -> tuple[float, float]:
    """Observation window inferred from data: min/max padded by 1%.

    Events may not sit on the window boundary, hence the padding; a
    degenerate time range cannot be padded and needs an explicit window.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size == 0:
        raise ValueError("cannot infer a window from an empty series; pass one explicitly")
    lo, hi = float(t.min()), float(t.max())
    pad = 0.01 * (hi - lo)
    if pad == 0.0:
        raise ValueError("cannot infer a window from a degenerate time range; pass one explicitly")
    return lo - pad, hi + pad


def load_series(path, window: tuple[float, float] | None = None):
    """Events file -> normalized series, inferring the window if absent."""
    times, marks = read_events_file(path)
    if window is None:
        window = default_window(times)
    return EventSeries.from_window(times, window, marks)


def read_intensity_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Step-function table -> (breakpoints, rates, mark_rates or None)."""
    columns = _read_columns(
        path, "intensity", (["start", "end", "rate"], ["start", "end", "rate", "mark_rate"])
    )
    if columns.shape[1] == 0:
        raise ValueError(f"{path}: intensity file has no segments")
    starts, ends, rates = columns[:3]
    if np.any(ends <= starts):
        raise ValueError(f"{path}: each segment needs end > start")
    if np.any(starts[1:] != ends[:-1]):
        raise ValueError(f"{path}: segments must tile the domain contiguously")
    breakpoints = np.concatenate((starts[:1], ends))
    mark_rates = columns[3] if len(columns) == 4 else None
    return breakpoints, rates, mark_rates


@dataclass(eq=False)
class ResultDocument:
    """In-memory form of a segmentation result file."""

    command: str
    source: str
    contrast_kind: str
    a: float
    b: float
    a_rho: float | None
    b_rho: float | None
    fraction: float | None
    cv_replicates: int | None
    kmax: int
    seed: int | None
    window: tuple[float, float]
    n_events: int
    k_hat: int
    warnings: tuple[str, ...]
    # (k, mean, stderr, count) rows; empty when no cross-validation ran
    cv_rows: tuple[tuple[int, float, float, int], ...]
    # (k, contrast or None when infeasible)
    contrast_rows: tuple[tuple[int, float | None], ...]
    # (grid index, side, normalized value, original value)
    change_points: tuple[tuple[int, str, float, float], ...]
    # (segment number, count, rate, original-scale rate, mark rate or None)
    segments: tuple[tuple[int, int, float, float, float | None], ...]

    @property
    def normalized_change_points(self) -> np.ndarray:
        return np.asarray([cp[2] for cp in self.change_points], dtype=np.float64)

    @property
    def rates(self) -> np.ndarray:
        return np.asarray([s[2] for s in self.segments], dtype=np.float64)

    @property
    def mark_rates(self) -> np.ndarray | None:
        if any(s[4] is None for s in self.segments):
            return None
        return np.asarray([s[4] for s in self.segments], dtype=np.float64)


def render_result(doc: ResultDocument) -> str:
    lines = [FORMAT_LINE]
    lines.append(f"command: {doc.command}")
    lines.append(f"source: {doc.source}")
    lines.append(f"contrast: {doc.contrast_kind}")
    lines.append(f"a: {_fmt(doc.a)}")
    lines.append(f"b: {_fmt(doc.b)}")
    if doc.a_rho is not None:
        lines.append(f"a_rho: {_fmt(doc.a_rho)}")
        lines.append(f"b_rho: {_fmt(doc.b_rho)}")
    if doc.fraction is not None:
        lines.append(f"fraction: {_fmt(doc.fraction)}")
        lines.append(f"cv_replicates: {doc.cv_replicates}")
    lines.append(f"kmax: {doc.kmax}")
    lines.append(f"seed: {doc.seed if doc.seed is not None else '-'}")
    lines.append(f"window: {_fmt(doc.window[0])} {_fmt(doc.window[1])}")
    lines.append(f"n_events: {doc.n_events}")
    lines.append(f"k_hat: {doc.k_hat}")
    lines.append("warnings: " + ("; ".join(doc.warnings) if doc.warnings else "-"))
    if doc.cv_rows:
        lines.append("")
        lines.append("[cv_curve]")
        lines.append("k mean stderr count")
        for k, mean, se, count in doc.cv_rows:
            lines.append(f"{k} {_fmt(mean)} {_fmt(se)} {count}")
    lines.append("")
    lines.append("[contrast_by_k]")
    lines.append("k contrast")
    for k, value in doc.contrast_rows:
        lines.append(f"{k} {'infeasible' if value is None else _fmt(value)}")
    lines.append("")
    lines.append("[change_points]")
    lines.append("index side normalized original")
    for index, side, norm, orig in doc.change_points:
        lines.append(f"{index} {side} {_fmt(norm)} {_fmt(orig)}")
    lines.append("")
    lines.append("[segments]")
    marked = any(s[4] is not None for s in doc.segments)
    lines.append("k count rate rate_original" + (" mark_rate" if marked else ""))
    for k, count, rate, rate_orig, mark_rate in doc.segments:
        row = f"{k} {count} {_fmt(rate)} {_fmt(rate_orig)}"
        if marked:
            row += f" {_fmt(mark_rate)}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def parse_result(text: str) -> ResultDocument:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise ValueError(f"not a result document (missing {FORMAT_LINE!r} line)")
    header: dict[str, str] = {}
    sections: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            current = []
            sections[line[1:-1]] = current
        elif current is not None:
            current.append(line.split())
        else:
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()

    def opt_float(key):
        return float(header[key]) if key in header else None

    cv_rows = ()
    if "cv_curve" in sections:
        cv_rows = tuple(
            (int(k), float(mean), float(se), int(count))
            for k, mean, se, count in sections["cv_curve"][1:]
        )
    contrast_rows = tuple(
        (int(k), None if v == "infeasible" else float(v))
        for k, v in sections["contrast_by_k"][1:]
    )
    change_points = tuple(
        (int(i), side, float(norm), float(orig))
        for i, side, norm, orig in sections["change_points"][1:]
    )
    seg_header = sections["segments"][0]
    marked = seg_header[-1] == "mark_rate"
    segments = tuple(
        (int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]) if marked else None)
        for r in sections["segments"][1:]
    )
    w0, w1 = header["window"].split()
    warn_text = header.get("warnings", "-")
    return ResultDocument(
        command=header["command"],
        source=header["source"],
        contrast_kind=header["contrast"],
        a=float(header["a"]),
        b=float(header["b"]),
        a_rho=opt_float("a_rho"),
        b_rho=opt_float("b_rho"),
        fraction=opt_float("fraction"),
        cv_replicates=int(header["cv_replicates"]) if "cv_replicates" in header else None,
        kmax=int(header["kmax"]),
        seed=None if header["seed"] == "-" else int(header["seed"]),
        window=(float(w0), float(w1)),
        n_events=int(header["n_events"]),
        k_hat=int(header["k_hat"]),
        warnings=() if warn_text == "-" else tuple(warn_text.split("; ")),
        cv_rows=cv_rows,
        contrast_rows=contrast_rows,
        change_points=change_points,
        segments=segments,
    )


def render_metrics(pairs) -> str:
    """Small metric,value table used by the evaluate command."""
    lines = ["metric,value"]
    for name, value in pairs:
        lines.append(f"{name},{value if isinstance(value, int) else _fmt(value)}")
    return "\n".join(lines) + "\n"
