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
# the column header row of each section; segments add mark_rate when marked
_COLUMNS = {
    "cv_curve": ("k mean stderr count",),
    "contrast_by_k": ("k contrast",),
    "change_points": ("index side normalized original",),
    "segments": ("k count rate rate_original", "k count rate rate_original mark_rate"),
}


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

    def section(name, rows, variant=0):
        lines.extend(("", f"[{name}]", _COLUMNS[name][variant], *rows))

    if doc.cv_rows:
        section("cv_curve", (f"{k} {_fmt(mean)} {_fmt(se)} {count}"
                             for k, mean, se, count in doc.cv_rows))
    section("contrast_by_k", (f"{k} {'infeasible' if value is None else _fmt(value)}"
                              for k, value in doc.contrast_rows))
    section("change_points", (f"{index} {side} {_fmt(norm)} {_fmt(orig)}"
                              for index, side, norm, orig in doc.change_points))
    marked = any(s[4] is not None for s in doc.segments)
    section("segments", (f"{k} {count} {_fmt(rate)} {_fmt(rate_orig)}"
                         + (f" {_fmt(mark_rate)}" if marked else "")
                         for k, count, rate, rate_orig, mark_rate in doc.segments), marked)
    return "\n".join(lines) + "\n"


def _window(text: str) -> tuple[float, float]:
    w0, w1 = text.split()
    return float(w0), float(w1)


def _parsed(what: str, convert, *fields):
    try:
        return convert(*fields)
    except ValueError:
        raise ValueError(f"result document: malformed {what}") from None


def parse_result(text: str) -> ResultDocument:
    """Read a result document back.

    A missing header line or section, a column header row other than
    the one ``render_result`` writes, and a malformed value or row each
    raise ValueError naming it.
    """
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise ValueError(f"not a result document (missing {FORMAT_LINE!r} line)")
    header: dict[str, str] = {"warnings": "-"}
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
    # checked first: a lost section header would merge its rows into the previous section
    for name in ("contrast_by_k", "change_points", "segments"):
        if name not in sections:
            raise ValueError(f"result document has no [{name}] section")

    def field(key, convert=str, optional=False):
        if key not in header:
            if optional:
                return None
            raise ValueError(f"result document has no {key!r} line")
        return _parsed(f"{key!r} value {header[key]!r}", convert, header[key])

    def table(name, convert):
        if name not in sections:
            return ()
        head, *rows = sections[name] or [[]]
        if " ".join(head) not in _COLUMNS[name]:
            raise ValueError(f"result document: [{name}] has column header "
                             f"{' '.join(head)!r}, expected {_COLUMNS[name][0]!r}")
        for row in rows:
            if len(row) != len(head):
                raise ValueError(f"result document: [{name}] row {' '.join(row)!r} "
                                 f"has {len(row)} fields, expected {len(head)}")
        return tuple(_parsed(f"row {' '.join(r)!r} in [{name}]", convert, *r) for r in rows)

    return ResultDocument(
        command=field("command"),
        source=field("source"),
        contrast_kind=field("contrast"),
        a=field("a", float),
        b=field("b", float),
        a_rho=field("a_rho", float, optional=True),
        b_rho=field("b_rho", float, optional=True),
        fraction=field("fraction", float, optional=True),
        cv_replicates=field("cv_replicates", int, optional=True),
        kmax=field("kmax", int),
        seed=field("seed", lambda v: None if v == "-" else int(v)),
        window=field("window", _window),
        n_events=field("n_events", int),
        k_hat=field("k_hat", int),
        warnings=field("warnings", lambda v: () if v == "-" else tuple(v.split("; "))),
        cv_rows=table("cv_curve", lambda k, mean, se, count: (
            int(k), float(mean), float(se), int(count))),
        contrast_rows=table("contrast_by_k", lambda k, v: (
            int(k), None if v == "infeasible" else float(v))),
        change_points=table("change_points", lambda i, side, norm, orig: (
            int(i), side, float(norm), float(orig))),
        segments=table("segments", lambda k, count, rate, rate_orig, mark_rate=None: (
            int(k), int(count), float(rate), float(rate_orig),
            None if mark_rate is None else float(mark_rate))),
    )


def render_metrics(pairs) -> str:
    """Small metric,value table used by the evaluate command."""
    lines = ["metric,value"]
    for name, value in pairs:
        lines.append(f"{name},{value if isinstance(value, int) else _fmt(value)}")
    return "\n".join(lines) + "\n"
