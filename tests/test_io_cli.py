"""File formats and the command-line pipeline, end to end."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ppseg import KINDS, ResultDocument, load_series, parse_result, render_result
from ppseg.bench import CSV_COLUMNS
from ppseg.cli import main
from ppseg.contrasts import MARKED_KINDS
from ppseg.io import (
    default_window,
    read_events_file,
    read_intensity_file,
    render_events,
    render_metrics,
    render_table,
)

from helpers import edge_events


def test_events_file_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0.0, 100.0, 50))
    marks = rng.exponential(10.0, 50)
    plain = tmp_path / "plain.csv"
    marked = tmp_path / "marked.csv"
    plain.write_text(render_events(times))
    marked.write_text(render_events(times, marks))
    t, m = read_events_file(plain)
    assert m is None
    assert np.array_equal(t, times)
    t, m = read_events_file(marked)
    assert np.array_equal(t, times)
    assert np.array_equal(m, marks)


def test_events_file_validation(tmp_path):
    def failing(text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            read_events_file(path)
        return str(err.value)

    failing("", "empty events file")
    failing("when\n1.0\n", "expected header")
    failing("time,mark,extra\n", "expected header")
    msg = failing("time,mark\n1.0\n", "expected 2 fields")
    assert ":2:" in msg
    msg = failing("time\n1.0\noops\n", "non-numeric value")
    assert ":3:" in msg
    msg = failing("time,mark\n1.0,2.0\n2.0,heavy\n", "non-numeric value")
    assert ":3:" in msg
    failing("time\n2.0\n1.0\n", "sorted ascending")
    failing("time\n1.0\ninf\n", "must be finite")
    failing("time,mark\n1.0,2.0\n3.0,-1.0\n", "strictly positive")


def test_events_file_skips_blank_lines(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("time\n1.0\n\n2.0\n")
    t, m = read_events_file(path)
    assert t.tolist() == [1.0, 2.0] and m is None


def test_intensity_file_round_trip(tmp_path):
    path = tmp_path / "intensity.csv"
    bp = np.array([0.0, 7.0, 8.0, 24.0])
    rates = np.array([1.5, 12.0, 1.5])
    mark_rates = np.array([0.1, 0.005, 0.1])
    path.write_text("start,end,rate,mark_rate\n0.0,7.0,1.5,0.1\n"
                    "7.0,8.0,12.0,0.005\n8.0,24.0,1.5,0.1\n")
    got_bp, got_rates, got_marks = read_intensity_file(path)
    assert np.array_equal(got_bp, bp)
    assert np.array_equal(got_rates, rates)
    assert np.array_equal(got_marks, mark_rates)
    path.write_text("start,end,rate\n0.0,7.0,1.5\n7.0,8.0,12.0\n8.0,24.0,1.5\n")
    assert read_intensity_file(path)[2] is None


def test_intensity_file_validation(tmp_path):
    def failing(text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            read_intensity_file(path)
        return str(err.value)

    failing("", "empty intensity file")
    failing("start,stop,rate\n", "expected header")
    failing("start,end,rate\n", "no segments")
    failing("start,end,rate\n0.0,x,1.0\n", "non-numeric value")
    msg = failing("start,end,rate\n0.0,1.0,2.0\n1.0,x\n", "expected 3 fields")
    assert ":3:" in msg
    path = tmp_path / "blank.csv"
    path.write_text("start,end,rate\n0.0,1.0,2.0\n\n1.0,3.0,4.0\n")
    assert read_intensity_file(path)[0].tolist() == [0.0, 1.0, 3.0]
    failing("start,end,rate\n0.0,0.0,1.0\n", "end > start")
    failing("start,end,rate\n0.0,1.0,1.0\n2.0,3.0,1.0\n", "contiguously")


def test_default_window_pads_the_range():
    assert default_window([2.0, 3.0, 4.0]) == (1.98, 4.02)
    with pytest.raises(ValueError, match="pass one explicitly"):
        default_window([3.0, 3.0])
    with pytest.raises(ValueError, match="empty series"):
        default_window([])


def test_load_series_infers_windows(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(render_events([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]))
    series = load_series(path)
    assert series.window == (1.98, 4.02)
    assert series.marks is not None
    explicit = load_series(path, window=(0.0, 10.0))
    assert explicit.window == (0.0, 10.0)
    assert np.array_equal(explicit.times, np.array([0.2, 0.3, 0.4]))


def _sample_document(marked=True):
    return ResultDocument(
        command="segment",
        source="events.csv",
        contrast_kind="marked_pgeg" if marked else "poisson_gamma",
        a=1.0,
        b=0.025,
        a_rho=2.01 if marked else None,
        b_rho=3.03 if marked else None,
        fraction=0.8,
        cv_replicates=100,
        kmax=3,
        seed=None,
        window=(2.0, 10.0),
        n_events=40,
        k_hat=2,
        warnings=("event times contain ties", "2 replicate(s) dropped: empty learning set"),
        cv_rows=((1, 10.5, 0.25, 100), (2, 9.75, 0.5, 100), (3, 11.0, 0.125, 98)),
        contrast_rows=((1, -55.25), (2, -60.125), (3, None)),
        change_points=((13, "before", 0.375, 5.0),),
        segments=(
            (1, 15, 20.0, 2.5, 0.25 if marked else None),
            (2, 25, 41.0, 5.125, 0.125 if marked else None),
        ),
    )


@pytest.mark.parametrize("marked", [True, False])
def test_result_document_round_trip(marked):
    doc = _sample_document(marked)
    text = render_result(doc)
    assert text.startswith("ppseg-result v1\n")
    back = parse_result(text)
    assert render_result(back) == text
    assert back.contrast_kind == doc.contrast_kind
    assert back.seed is None
    assert back.window == (2.0, 10.0)
    assert back.warnings == doc.warnings
    assert back.cv_rows == doc.cv_rows
    assert back.contrast_rows == doc.contrast_rows
    assert back.change_points == doc.change_points
    assert back.segments == doc.segments
    assert back.normalized_change_points.tolist() == [0.375]
    assert back.rates.tolist() == [20.0, 41.0]
    if marked:
        assert back.mark_rates.tolist() == [0.25, 0.125]
        assert "infeasible" in text
    else:
        assert back.mark_rates is None


def test_parse_result_rejects_other_files():
    with pytest.raises(ValueError, match="not a result document"):
        parse_result("time\n0.5\n")


def test_render_metrics_formats():
    text = render_metrics([("k_hat", 3), ("d", 0.25)])
    assert text == "metric,value\nk_hat,3\nd,0.25\n"


@pytest.mark.parametrize("value, text", [
    (np.int64(3), "3"),
    (3, "3"),
    (None, "-"),
    ("marked_pgeg", "marked_pgeg"),
    (0.25, "0.25"),
    (np.float64(0.1), "0.1"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (1e300, "1e+300"),
    (np.inf, "inf"),
    (np.nan, "nan"),
])
def test_render_table_prints_each_value_by_one_rule(value, text):
    assert render_table(("name", "value"), [("x", value)]) == f"name,value\nx,{text}\n"


def _run(argv):
    return main(argv)


def test_cli_simulate_segment_evaluate(tmp_path, capsys):
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    metrics = tmp_path / "metrics.csv"

    assert _run(["simulate", "--design", "60,8", "--seed", "4", "-o", str(events)]) == 0
    times, marks = read_events_file(events)
    assert marks is None
    assert times.size > 20
    assert np.all((times > 0.0) & (times < 1.0))

    assert _run([
        "segment", str(events), "--window", "0", "1",
        "--replicates", "30", "--kmax", "8", "--seed", "0",
        "-o", str(result),
    ]) == 0
    doc = parse_result(result.read_text())
    assert doc.command == "segment"
    assert doc.contrast_kind == "poisson_gamma"
    assert doc.n_events == times.size
    assert doc.seed == 0
    assert doc.k_hat == len(doc.segments)
    assert len(doc.cv_rows) == 8
    assert doc.window == (0.0, 1.0)

    assert _run([
        "evaluate", str(result), "--truth", "design:60,8", "-o", str(metrics),
    ]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "metric,value"
    values = dict(line.split(",") for line in lines[1:])
    assert int(values["k_hat"]) == doc.k_hat
    assert int(values["k_true"]) == 6
    assert 0.0 <= float(values["hausdorff"]) <= 0.5
    assert float(values["hausdorff"]) == max(
        float(values["hausdorff_estimate_to_truth"]),
        float(values["hausdorff_truth_to_estimate"]),
    )
    assert float(values["l2"]) >= 0.0
    out = capsys.readouterr()
    assert out.err == ""


def test_cli_marked_pipeline(tmp_path):
    events = tmp_path / "marked.csv"
    result = tmp_path / "result.txt"
    assert _run([
        "simulate", "--design", "100,8", "--marks", "0.1,0.005",
        "--seed", "9", "-o", str(events),
    ]) == 0
    times, marks = read_events_file(events)
    assert marks is not None and np.all(marks > 0.0)

    assert _run([
        "segment", str(events), "--window", "0", "1",
        "--replicates", "25", "--kmax", "8", "--seed", "1",
        "-o", str(result),
    ]) == 0
    doc = parse_result(result.read_text())
    assert doc.contrast_kind == "marked_pgeg"
    assert doc.a_rho == 2.01
    assert doc.mark_rates is not None
    assert len(doc.mark_rates) == doc.k_hat


def test_cli_fixed_k_segmentation(tmp_path):
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    assert _run(["simulate", "--design", "40,4", "--seed", "2", "-o", str(events)]) == 0
    assert _run([
        "segment", str(events), "--window", "0", "1",
        "--k", "3", "--contrast", "poisson",
        "-o", str(result),
    ]) == 0
    doc = parse_result(result.read_text())
    assert doc.k_hat == 3
    assert doc.contrast_kind == "poisson"
    assert doc.seed is None
    assert doc.cv_rows == ()
    assert len(doc.change_points) == 2
    assert [k for k, _ in doc.contrast_rows] == [1, 2, 3]
    # MLE rates: count over normalized length, all feasible here
    assert all(value is not None for _, value in doc.contrast_rows)


def test_cli_rerun_is_byte_identical(tmp_path):
    events = tmp_path / "events.csv"
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert _run(["simulate", "--design", "50,8", "--seed", "6", "-o", str(events)]) == 0
    argv = ["segment", str(events), "--replicates", "20", "--kmax", "6", "--seed", "3"]
    assert _run(argv + ["-o", str(first)]) == 0
    assert _run(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_window_equivariance(tmp_path):
    # dyadic times and a dyadic window: normalization is lossless, so
    # the fit on (0, 1) and on the shifted scale must agree exactly
    base = np.array([0.125, 0.25, 0.3125, 0.5, 0.53125, 0.625, 0.875])
    unit = tmp_path / "unit.csv"
    shifted = tmp_path / "shifted.csv"
    unit.write_text(render_events(base))
    shifted.write_text(render_events(3.0 + 8.0 * base))
    out_unit = tmp_path / "unit.txt"
    out_shifted = tmp_path / "shifted.txt"
    common = ["--replicates", "10", "--kmax", "3", "--seed", "0"]
    assert _run(["segment", str(unit), "--window", "0", "1", *common,
                 "-o", str(out_unit)]) == 0
    assert _run(["segment", str(shifted), "--window", "3", "11", *common,
                 "-o", str(out_shifted)]) == 0
    a = parse_result(out_unit.read_text())
    b = parse_result(out_shifted.read_text())
    assert a.k_hat == b.k_hat
    assert a.normalized_change_points.tolist() == b.normalized_change_points.tolist()
    assert a.rates.tolist() == b.rates.tolist()
    for (_, _, norm_a, orig_a), (_, _, norm_b, orig_b) in zip(
        a.change_points, b.change_points
    ):
        assert norm_a == norm_b
        assert orig_b == 3.0 + 8.0 * orig_a


def test_cli_simulate_writes_events_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    design = ["simulate", "--design", "100,8", "--marks", "0.1,0.005", "--seed", "1"]
    assert _run([*design, "-o", "events.csv"]) == 0
    capsys.readouterr()
    for to_stdout in ([], ["-o", "-"]):
        assert _run([*design, *to_stdout]) == 0
        assert capsys.readouterr().out == (tmp_path / "events.csv").read_text()
    assert not (tmp_path / "-").exists()

def test_cli_simulate_from_intensity_file(tmp_path):
    table = tmp_path / "truth.csv"
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    metrics = tmp_path / "metrics.csv"
    table.write_text("start,end,rate\n2.0,6.0,5.0\n6.0,10.0,2.5\n")
    assert _run(["simulate", "--intensity-file", str(table),
                 "--seed", "8", "-o", str(events)]) == 0
    times, _ = read_events_file(events)
    assert np.all((times > 2.0) & (times < 10.0))
    assert _run(["segment", str(events), "--window", "2", "10",
                 "--replicates", "20", "--kmax", "5", "--seed", "0",
                 "-o", str(result)]) == 0
    doc = parse_result(result.read_text())
    assert doc.window == (2.0, 10.0)
    # truth file spans the same original window: accepted and rescaled
    assert _run(["evaluate", str(result), "--truth", str(table),
                 "-o", str(metrics)]) == 0
    values = dict(line.split(",") for line in metrics.read_text().splitlines()[1:])
    assert int(values["k_true"]) == 2


def test_cli_evaluate_rejects_mismatched_windows(tmp_path, capsys):
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    truth = tmp_path / "truth.csv"
    assert _run(["simulate", "--design", "40,2", "--seed", "1", "-o", str(events)]) == 0
    assert _run(["segment", str(events), "--window", "0", "1",
                 "--replicates", "10", "--kmax", "3", "-o", str(result)]) == 0
    truth.write_text("start,end,rate\n0.0,2.0,30.0\n")
    assert _run(["evaluate", str(result), "--truth", str(truth), "-o", "-"]) == 2
    assert "mismatched windows" in capsys.readouterr().err


def test_cli_evaluate_constant_design_truth(tmp_path):
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    metrics = tmp_path / "metrics.csv"
    assert _run(["simulate", "--design", "60,1", "--seed", "3", "-o", str(events)]) == 0
    assert _run(["segment", str(events), "--window", "0", "1",
                 "--replicates", "20", "--kmax", "4", "-o", str(result)]) == 0
    assert _run(["evaluate", str(result), "--truth", "design:60,1",
                 "-o", str(metrics)]) == 0
    values = dict(line.split(",") for line in metrics.read_text().splitlines()[1:])
    # a flat design merges to a single true segment
    assert int(values["k_true"]) == 1


def test_cli_cv_curve(tmp_path):
    events = tmp_path / "events.csv"
    curve = tmp_path / "curve.csv"
    assert _run(["simulate", "--design", "50,4", "--seed", "5", "-o", str(events)]) == 0
    assert _run(["cv-curve", str(events), "--window", "0", "1",
                 "--replicates", "12", "--kmax", "5", "--seed", "2",
                 "-o", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "k,mean,stderr,count"
    assert len(lines) == 6
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == [1, 2, 3, 4, 5]
    counts = [int(line.split(",")[3]) for line in lines[1:]]
    assert all(0 <= c <= 12 for c in counts)


def test_cli_cv_curve_refuses_a_score_table_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    # 500 replicates by kmax 10^8 would take 373 GiB of scores; the host is
    # made to report 64 MiB, so the refusal holds on any machine
    pages = {"SC_PHYS_PAGES": 2**14, "SC_PAGE_SIZE": 2**12}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    events = tmp_path / "events.csv"
    assert _run(["simulate", "--design", "20,2", "--seed", "1", "-o", str(events)]) == 0
    capsys.readouterr()
    assert _run(["cv-curve", str(events), "--window", "0", "1",
                 "--kmax", "100000000", "--replicates", "500"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cross-validation with 500 replicates up to kmax = 100000000 "
                          "needs about 372.5 GiB for its score table")
    assert err.count("\n") == 1


def test_cli_bench_small_grid(tmp_path):
    out1 = tmp_path / "bench1.csv"
    out2 = tmp_path / "bench2.csv"
    argv = ["bench", "--preset", "k-selection", "--means", "40", "--ratios", "4",
            "--samples", "2", "--replicates", "8", "--kmax", "6", "--seed", "0"]
    assert _run(argv + ["-o", str(out1)]) == 0
    assert _run(argv + ["--threads", "2", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["preset"] == "k-selection"
    assert row["k_true"] == "6"
    assert row["samples"] == "2"
    assert row["rho_odd"] == "-"
    assert 1.0 <= float(row["k_hat_mean"]) <= 6.0


@pytest.mark.parametrize("argv, message", [
    (["--preset", "k-selection", "--means", "1e-9", "--ratios", "3"],
     "no sample has any events in the cell at mean intensity 1e-09 and ratio 3.0; "
     "raise the mean intensity"),
    (["--preset", "robust-a", "--means", "50,400", "--ratios", "2,16"],
     "preset robust-a takes one value of means, got 2"),
    (["--preset", "marked-table", "--ratios", "2"], "preset marked-table does not use ratios"),
    (["--preset", "robust-f", "--fraction", "0.5"], "preset robust-f does not use fraction"),
    (["--preset", "robust-a", "--means", "inf"], "mean_rate must be finite and positive"),
], ids=["no-events", "robust-a-lists", "marked-table-ratios", "robust-f-fraction",
        "infinite-mean"])
def test_cli_bench_refusals_exit_2(argv, message, capsys):
    assert _run(["bench", *argv, "--samples", "1", "--replicates", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    assert _run(["simulate", "--design", "30,2", "--seed", "0", "-o", str(events)]) == 0
    monkeypatch.setenv("CPT_SEED", "123")
    assert _run(["segment", str(events), "--replicates", "10", "--kmax", "3",
                 "-o", str(result)]) == 0
    assert parse_result(result.read_text()).seed == 123
    # an explicit flag wins over the environment
    assert _run(["segment", str(events), "--replicates", "10", "--kmax", "3",
                 "--seed", "7", "-o", str(result)]) == 0
    assert parse_result(result.read_text()).seed == 7


def test_cli_rejects_bad_env_seed(tmp_path, monkeypatch, capsys):
    events = tmp_path / "events.csv"
    assert _run(["simulate", "--design", "30,2", "--seed", "0", "-o", str(events)]) == 0
    monkeypatch.setenv("CPT_SEED", "not-a-seed")
    assert _run(["segment", str(events), "--replicates", "5", "--kmax", "2",
                 "-o", "-"]) == 2
    assert "CPT_SEED must be an integer" in capsys.readouterr().err


def test_cross_validated_segment_rejects_another_contrast(tmp_path, capsys):
    # cross-validation always fits the data's own marginal kind, so a
    # different --contrast used to be accepted and silently ignored
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    assert _run(["simulate", "--design", "100,8", "--seed", "1", "-o", str(plain)]) == 0
    assert _run(["simulate", "--design", "100,8", "--marks", "0.1,0.005", "--seed", "1",
                 "-o", str(marked)]) == 0
    for events, kind in ((marked, "poisson_gamma"), (plain, "marked_pgeg")):
        assert _run(["segment", str(events), "--window", "0", "1", "--contrast", kind,
                     "--replicates", "5", "-o", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"use --k for {kind!r}")
    # the data's own kind is accepted
    assert _run(["segment", str(plain), "--window", "0", "1", "--contrast", "poisson_gamma",
                 "--replicates", "5", "--kmax", "3", "-o", "-"]) == 0
    assert "contrast: poisson_gamma" in capsys.readouterr().out



@pytest.mark.parametrize("command", [["segment", "--k", "2"],
                                     ["cv-curve", "--replicates", "3", "--kmax", "3"]])
def test_cli_window_takes_any_float_spelling(tmp_path, capsys, command):
    # a negative bound in exponent form, or -inf, is a value, not an option
    events = tmp_path / "events.csv"
    assert _run(["simulate", "--design", "40,2", "--seed", "0", "-o", str(events)]) == 0
    name, *flags = command
    outputs = []
    for low in ("-1000", "-1e3", "-1.E+3", "-.1e4"):
        out = tmp_path / f"{low}.txt"
        assert _run([name, str(events), "--window", low, "1", *flags, "-o", str(out)]) == 0
        outputs.append(out.read_text())
    assert outputs[1:] == outputs[:1] * 3
    for low in ("-inf", "-Infinity", "-nan"):
        assert _run([name, str(events), "--window", low, "1", *flags, "-o", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "window bounds and width must be finite" in captured.err

def test_cli_error_paths(tmp_path, capsys):
    events = tmp_path / "events.csv"
    empty = tmp_path / "empty.csv"
    empty.write_text("time\n")
    assert _run(["simulate", "--design", "40,2", "--seed", "0", "-o", str(events)]) == 0

    assert _run(["segment", str(empty), "-o", "-"]) == 2
    assert "pass one explicitly" in capsys.readouterr().err

    assert _run(["segment", str(empty), "--window", "0", "1", "-o", "-"]) == 2
    assert "nothing to segment" in capsys.readouterr().err

    assert _run(["segment", str(events), "--contrast", "poisson", "-o", "-"]) == 2
    assert "use --k" in capsys.readouterr().err

    assert _run(["simulate", "--design", "40,2,3", "--seed", "0", "-o", "-"]) == 2
    assert "comma-separated" in capsys.readouterr().err

    table = tmp_path / "truth.csv"
    table.write_text("start,end,rate\n0.0,1.0,30.0\n")
    assert _run(["simulate", "--intensity-file", str(table), "--marks", "0.1",
                 "-o", "-"]) == 2
    assert "mark_rate column" in capsys.readouterr().err

    single = tmp_path / "single.csv"
    single.write_text("time\n0.5\n")
    for k in ("5", "100000000"):
        assert _run(["segment", str(single), "--window", "0", "1", "--k", k,
                     "-o", "-"]) == 2
        assert "exceeds the candidate grid" in capsys.readouterr().err

    assert _run(["segment", str(events), "--window", "0", "1", "--k", "3", "--kmax", "2",
                 "--replicates", "7", "--fraction", "0.5", "--seed", "9", "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--kmax, --replicates, --fraction, --seed only apply" in captured.err

    # the likelihood kinds have no prior: the shape would reach the
    # document's "a:" line and change nothing else
    fixed_k = ["segment", str(events), "--window", "0", "1", "--k", "3", "-o", "-"]
    for kind, shape in (("poisson", "5"), ("marked_poisson", "-5")):
        assert _run([*fixed_k, "--contrast", kind, "--prior-shape", shape]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("--prior-shape only applies to the marginal contrasts poisson_gamma and "
                f"marked_pgeg, not {kind!r}") in captured.err
    assert _run([*fixed_k, "--contrast", "poisson_gamma", "--prior-shape", "5"]) == 0
    assert "\na: 5.0\n" in capsys.readouterr().out


@pytest.mark.parametrize("shape", ["-5", "0", "nan", "inf"])
def test_cli_prior_shape_is_refused_alike_with_and_without_k(tmp_path, capsys, shape):
    # CvConfig checks the shape on both paths, so neither names the
    # contrast's internal hyper-parameter a
    events = tmp_path / "events.csv"
    assert _run(["simulate", "--design", "100,8", "--seed", "1", "-o", str(events)]) == 0
    for command in (["segment", str(events), "--k", "3"], ["cv-curve", str(events)]):
        assert _run([*command, "--prior-shape", shape, "-o", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "prior_shape must be finite and positive" in captured.err


@pytest.mark.parametrize("window", [["0", "inf"], ["nan", "1"]])
def test_cli_refuses_a_window_with_a_non_finite_bound(tmp_path, capsys, window):
    events = tmp_path / "events.csv"
    events.write_text(render_events([0.2, 0.5, 0.7]))
    assert _run(["segment", str(events), "--window", *window, "--k", "2", "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "window bounds and width must be finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, message", [
    ("time\n-1e308\n1e308\n", "window inferred from the time range, padded by 1% at each end, "
                               "overflows the float range; pass one explicitly"),
    ("time\n1e308\n-1e308\n", "event times must be sorted ascending"),
])
def test_cli_checks_the_order_of_times_without_overflow(tmp_path, capsys, text, message):
    # consecutive times 2e308 apart: their difference overflows, the
    # comparison of the times themselves does not, and no window around
    # them fits the float range
    events = tmp_path / "events.csv"
    events.write_text(text)
    assert _run(["segment", str(events), "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_segment_refuses_a_rate_past_the_float_range(tmp_path, capsys):
    # the first segment, from the window start to the first event, has a
    # subnormal normalized length, so its maximum-likelihood rate is inf
    events = tmp_path / "events.csv"
    events.write_text("time\n1.0\n1.995840309534719e+292\n")
    argv = ["segment", str(events), "--window", "0.9999999999999999", "1.9958403095347191e+292",
            "--k", "3", "--contrast", "poisson", "-o", "-"]
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the rate of segment 1 of 3 overflows the float range" in captured.err


def _evaluate_with_change_points(tmp_path, capsys, values):
    """Exit code and stderr of ``evaluate`` on a ``segment --k 3`` document
    whose first normalized change-points are replaced by ``values``."""
    events, result = tmp_path / "events.csv", tmp_path / "result.txt"
    assert _run(["simulate", "--design", "40,2", "--seed", "1", "-o", str(events)]) == 0
    assert _run(["segment", str(events), "--window", "0", "1", "--k", "3",
                 "-o", str(result)]) == 0
    lines = result.read_text().splitlines()
    at = lines.index("[change_points]") + 2
    for i, value in enumerate(values):
        fields = lines[at + i].split()
        fields[2] = value
        lines[at + i] = " ".join(fields)
    result.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = _run(["evaluate", str(result), "--truth", "design:40,2", "-o", "-"])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_evaluate_checks_the_order_of_change_points_without_overflow(tmp_path, capsys):
    # normalized change-points 1e308 then -1e308: their difference
    # overflows, the comparison of the points themselves does not
    code, err = _evaluate_with_change_points(tmp_path, capsys, ("1e308", "-1e308"))
    assert code == 2 and "change-points must be sorted ascending" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_evaluate_refuses_a_nan_change_point(tmp_path, capsys):
    # every comparison with nan is false, so an order check passes a nan
    # change-point, and the l2 distance would drop both segments next to it
    code, err = _evaluate_with_change_points(tmp_path, capsys, ("nan",))
    assert code == 2 and "change-points must be finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows, message", [
    ("-1e308,0,1\n0,1e308,2\n", "the domain's width, last end minus first start, overflows"),
    ("0,inf,1\n", "intensity table values must be finite"),
    ("0,nan,1\n", "intensity table values must be finite"),
    ("0,1,inf\n", "intensity table values must be finite"),
    ("0,1,nan\n", "intensity table values must be finite"),
    ("0,1e300,1e300\n", "a rate times the domain's width overflows"),
], ids=["wide", "inf-end", "nan-end", "inf-rate", "nan-rate", "rate-times-width"])
def test_cli_refuses_intensity_tables_with_non_finite_values_or_width(tmp_path, capsys,
                                                                       rows, message):
    # the first table's domain, -1e308 to 1e308, is 2e308 wide
    table, events, result = tmp_path / "truth.csv", tmp_path / "events.csv", tmp_path / "r.txt"
    table.write_text("start,end,rate\n" + rows)
    assert _run(["simulate", "--design", "40,2", "--seed", "1", "-o", str(events)]) == 0
    assert _run(["segment", str(events), "--window", "0", "1", "--k", "2",
                 "-o", str(result)]) == 0
    capsys.readouterr()
    for argv in (["simulate", "--intensity-file", str(table)],
                 ["evaluate", str(result), "--truth", str(table)]):
        assert _run([*argv, "-o", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {table}: {message}" in captured.err


@pytest.mark.parametrize("k", [-3, 10, 40])
def test_cli_dyadic_window_scales_only_the_original_columns(tmp_path, k):
    # a window (0, 2^k) normalizes every time exactly, so the document
    # equals the unit-window one line by line, apart from its source and
    # window and the original-scale columns, which scale exactly
    scale = 2.0 ** k
    unit = tmp_path / "unit.csv"
    assert _run(["simulate", "--design", "100,8", "--marks", "0.1,0.005", "--seed", "1",
                 "-o", str(unit)]) == 0
    times, marks = read_events_file(unit)
    scaled = tmp_path / "scaled.csv"
    rows = zip((times * scale).tolist(), marks.tolist())
    scaled.write_text("time,mark\n" + "".join(f"{t!r},{m!r}\n" for t, m in rows))
    docs = []
    for events, width in ((unit, "1"), (scaled, repr(scale))):
        out = tmp_path / f"{events.stem}.txt"
        assert _run(["segment", str(events), "--window", "0", width, "--seed", "0",
                     "--replicates", "20", "-o", str(out)]) == 0
        docs.append(out.read_text().splitlines())
    assert len(docs[0]) == len(docs[1])
    section, scaled_rows = None, 0
    for a, b in zip(*docs):
        if a.startswith("["):
            section = a
        if a.startswith(("source:", "window:")):
            continue
        if section in ("[change_points]", "[segments]") and a[:1].isdigit():
            # the fourth column is on the original scale: a time, or a rate
            fa, fb = a.split(), b.split()
            factor = scale if section == "[change_points]" else 1.0 / scale
            assert fa[:3] + fa[4:] == fb[:3] + fb[4:]
            assert float(fb[3]) == float(fa[3]) * factor
            scaled_rows += 1
        else:
            assert a == b
    assert scaled_rows >= 7  # at least two segments and their change-point


@pytest.mark.parametrize("edit, named", [
    (lambda text: re.sub(r"^k_hat: .*\n", "", text, flags=re.M), "no 'k_hat' line"),
    (lambda text: text.replace("[segments]\n", ""), "no [segments] section"),
    (lambda text: re.sub(r"^(window: \S+) \S+$", r"\1", text, flags=re.M), "'window' value"),
    (lambda text: text.replace("\nk contrast\n", "\nk value\n"), "[contrast_by_k]"),
], ids=["no-k_hat", "no-segments", "one-value-window", "bad-column-header"])
def test_cli_evaluate_names_what_is_wrong_with_a_document(tmp_path, capsys, edit, named):
    events = tmp_path / "events.csv"
    result = tmp_path / "result.txt"
    events.write_text(render_events([0.2, 0.3, 0.7], [1.0, 2.0, 3.0]))
    assert _run(["segment", str(events), "--window", "0", "1", "--k", "2",
                 "-o", str(result)]) == 0
    result.write_text(edit(result.read_text()))
    capsys.readouterr()
    assert _run(["evaluate", str(result), "--truth", "design:1,1", "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err, captured.err


def test_parse_result_rejects_malformed_rows():
    text = render_result(_sample_document())
    for bad, named in (("2 -60.125", "2 -60.125 7"), ("13 before", "x before")):
        with pytest.raises(ValueError, match="row") as err:
            parse_result(text.replace(bad, named, 1))
        assert named in str(err.value)


_EVENT_FILES = (st.sampled_from(["", "time\n", "time,mark\n"])
                | edge_events().map(lambda times_marks: render_events(*times_marks)))


@given(text=_EVENT_FILES)
# marks 309 decades apart: a test mark piece overflows to +inf, the K = 1
# mean of the cv curve is +inf and its stderr nan
@example(text="time,mark\n1e-300,1.447411717787145e+295\n1e-300,8.051494939362949e-14\n")
def test_cli_segment_and_evaluate_exit_cleanly_on_edge_inputs(text):
    # every command either writes a readable document (exit 0) or stops
    # with a ValueError (exit 2); no other exception escapes cli.main
    with tempfile.TemporaryDirectory() as work:
        events = os.path.join(work, "events.csv")
        with open(events, "w", encoding="utf-8") as fh:
            fh.write(text)
        runs = [["--replicates", "3", "--kmax", "4"]]
        for kind in KINDS:
            if kind not in MARKED_KINDS or text.startswith("time,mark"):
                runs += [["--k", str(k), "--contrast", kind] for k in range(1, 5)]
        for i, flags in enumerate(runs):
            doc = os.path.join(work, f"doc{i}.txt")
            code = _run(["segment", events, "--window", "0", "1", *flags, "-o", doc])
            assert code in (0, 2), flags
            if code == 0:
                with open(doc, encoding="utf-8") as fh:
                    parse_result(fh.read())
                metrics = os.path.join(work, "metrics.csv")
                assert _run(["evaluate", doc, "--truth", "design:1,1", "-o", metrics]) == 0


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(times=st.lists(_FINITE, min_size=1, max_size=5), in_order=st.booleans(),
       window=st.sampled_from([None, "cover"]) | st.tuples(_FINITE, _FINITE))
# times 2e308 apart, without a window and with one just inside the float range
@example(times=[-1e308, 1e308], in_order=True, window=None)
@example(times=[-1e308, 1e308], in_order=True, window=(-1.7e308, 1.7e308))
@example(times=[1e308, -1e308], in_order=False, window=None)
# a first segment of subnormal normalized length, whose poisson rate is inf
@example(times=[1.0, 1.995840309534719e+292], in_order=True, window="cover")
def test_cli_segment_exits_cleanly_on_raw_times_over_the_whole_float_range(times, in_order,
                                                                          window):
    # raw times anywhere in the finite float range, subnormals included,
    # sorted or not, under the inferred window, the tightest window around
    # them ("cover") or a drawn one: every run writes a document that
    # ``evaluate`` accepts (exit 0) or stops with a ValueError (exit 2)
    if in_order:
        times = sorted(times)
    if window == "cover":
        window = (math.nextafter(min(times), -math.inf), math.nextafter(max(times), math.inf))
    with tempfile.TemporaryDirectory() as work:
        events, doc = os.path.join(work, "events.csv"), os.path.join(work, "doc.txt")
        with open(events, "w", encoding="utf-8") as fh:
            fh.write("time\n" + "".join(f"{t!r}\n" for t in times))
        flags = [] if window is None else ["--window", *(repr(float(w)) for w in window)]
        for run in (["--replicates", "3", "--kmax", "4"], ["--k", "3", "--contrast", "poisson"]):
            code = _run(["segment", events, *flags, *run, "-o", doc])
            assert code in (0, 2), run
            if code == 0:
                assert _run(["evaluate", doc, "--truth", "design:1,1",
                             "-o", os.devnull]) == 0, run
