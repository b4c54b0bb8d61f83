"""Command-line entry points.

Subcommands: ``simulate`` draws event series from a step intensity,
``segment`` fits change-points to an events file (cross-validated
segment count by default, or a fixed count with ``--k``), ``cv-curve``
writes the raw cross-validation curve, ``evaluate`` scores a result
file against a known truth, and ``bench`` runs a simulation preset.

Every command that consumes randomness takes ``--seed``; when the flag
is absent the ``CPT_SEED`` environment variable is used, so pipelines
can be made reproducible without editing scripts.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import PRESETS, BenchConfig, run_bench
from .contrasts import KINDS, default_spec
from .io import (
    ResultDocument,
    load_series,
    parse_result,
    read_intensity_file,
    render_events,
    render_metrics,
    render_result,
    render_table,
)
from .metrics import hausdorff, l2_distance, true_change_values
from .model import intensity_from_breaks
from .selection import CvConfig, cross_validate, fit, refit
from .simulate import alternating_intensity, simulate_events, simulate_marked


def _resolve_seed(value, fallback):
    """Explicit flag wins, then CPT_SEED, then the command's default."""
    if value is not None:
        return value
    env = os.environ.get("CPT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CPT_SEED must be an integer, got {env!r}") from None
    return fallback


def _floats(text: str, label: str, arity=None) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if arity is not None and len(parts) not in arity:
        wanted = " or ".join(str(a) for a in arity)
        raise ValueError(f"{label} expects {wanted} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{label}: non-numeric value in {text!r}") from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_design(text: str):
    """'MEAN,RATIO' or 'MEAN,RATIO,RHO_ODD,RHO_EVEN' -> intensity."""
    values = _floats(text, "design", (2, 4))
    return alternating_intensity(*values)


def _make_document(source, data, result, kmax, cfg) -> ResultDocument:
    """The result document of a fit; ``cfg`` is None when K was fixed."""
    spec, seg, curve = result.spec, result.segmentation, result.curve
    cv_rows = ()
    if curve is not None:
        cv_rows = tuple(zip(curve.ks, curve.means, curve.stderrs, curve.counts))
    change_points = tuple(
        (p.index, p.side, p.value, t) for p, t in zip(seg.change_points, result.change_point_times)
    )
    segments = tuple(
        (i + 1, result.counts[i], result.rates[i], result.rates[i] / data.width,
         None if result.mark_rates is None else result.mark_rates[i])
        for i in range(seg.k)
    )
    return ResultDocument(
        command="segment",
        source=source,
        contrast_kind=spec.kind,
        a=spec.a,
        b=spec.b,
        a_rho=spec.a_rho if spec.requires_marks else None,
        b_rho=spec.b_rho if spec.requires_marks else None,
        fraction=None if cfg is None else cfg.fraction,
        cv_replicates=None if cfg is None else cfg.replicates,
        kmax=kmax,
        seed=None if cfg is None else cfg.seed,
        window=data.window,
        n_events=data.n,
        k_hat=result.k_hat,
        warnings=result.warnings,
        cv_rows=cv_rows,
        contrast_rows=tuple((k, result.contrast_by_k.get(k)) for k in range(1, kmax + 1)),
        change_points=change_points,
        segments=segments,
    )


def _read_intensity(path):
    """An intensity table mapped onto (0, 1), and the domain (lo, hi) it spans."""
    bp, rates, mark_rates = read_intensity_file(path)
    lo, hi = float(bp[0]), float(bp[-1])
    width = hi - lo
    return intensity_from_breaks((bp - lo) / width, rates * width, mark_rates), (lo, hi)


def _cmd_simulate(args) -> int:
    if args.design is not None:
        if args.marks is not None:
            rho = _floats(args.marks, "--marks", (1, 2))
            intensity = alternating_intensity(*_floats(args.design, "--design", (2,)), *rho)
        else:
            intensity = _parse_design(args.design)
        lo, hi = 0.0, 1.0
    else:
        if args.marks is not None:
            raise ValueError("with --intensity-file, set marks via its mark_rate column")
        intensity, (lo, hi) = _read_intensity(args.intensity_file)
    seed = _resolve_seed(args.seed, None)
    simulate = simulate_events if intensity.mark_rates is None else simulate_marked
    series = simulate(intensity, seed=seed)
    _write_output(args.output, render_events(lo + series.times * (hi - lo), series.marks))
    return 0


def _load(args):
    window = tuple(args.window) if args.window is not None else None
    return load_series(args.events, window)


def _cv_config(args) -> CvConfig:
    """Cross-validation settings from the flags given; CvConfig fills in the rest."""
    given = {name: getattr(args, name) for name in ("fraction", "replicates", "kmax")
             if getattr(args, name) is not None}
    return CvConfig(seed=_resolve_seed(args.seed, 0), prior_shape=args.prior_shape, **given)


def _cmd_segment(args) -> int:
    if args.k is not None:
        ignored = [f"--{name}" for name in ("kmax", "replicates", "fraction", "seed")
                   if getattr(args, name) is not None]
        if ignored:
            raise ValueError(f"{', '.join(ignored)} only apply to cross-validation, "
                             "which --k skips")
    data = _load(args)
    if data.n == 0:
        raise ValueError("the events file is empty; nothing to segment")
    if args.k is not None:
        if args.k < 1:
            raise ValueError("--k must be at least 1")
        spec = default_spec(data, kind=args.contrast, a=args.prior_shape)
        cfg, kmax = None, args.k
        result = refit(data, spec, kmax, args.k)
    else:
        kind = default_spec(data).kind
        if args.contrast not in (None, kind):
            raise ValueError(f"cross-validation fits {kind!r} to these data; "
                             f"use --k for {args.contrast!r}")
        cfg = _cv_config(args)
        kmax = cfg.kmax
        result = fit(data, cfg)
    _write_output(args.output, render_result(_make_document(args.events, data, result, kmax, cfg)))
    return 0


def _cmd_cv_curve(args) -> int:
    curve = cross_validate(_load(args), _cv_config(args))
    rows = zip(curve.ks, curve.means, curve.stderrs, curve.counts)
    _write_output(args.output, render_table(("k", "mean", "stderr", "count"), rows))
    return 0


def _cmd_evaluate(args) -> int:
    with open(args.result, encoding="utf-8") as fh:
        doc = parse_result(fh.read())
    if args.truth.startswith("design:"):
        truth = _parse_design(args.truth[len("design:"):])
    else:
        # a truth table on (0, 1) maps onto itself bit for bit
        truth, (lo, hi) = _read_intensity(args.truth)
        if (lo, hi) not in ((0.0, 1.0), doc.window):
            raise ValueError(
                f"mismatched windows: truth spans [{lo}, {hi}] but the "
                f"result window is [{doc.window[0]}, {doc.window[1]}]"
            )
    truth_set = true_change_values(truth)
    estimate_set = np.concatenate(([0.0], doc.normalized_change_points, [1.0]))
    d1, d2, d = hausdorff(estimate_set, truth_set)
    estimate = intensity_from_breaks(estimate_set, doc.rates)
    norm = args.normalization if args.normalization is not None else truth.total_mass
    l2 = l2_distance(estimate, truth, normalization=norm)
    rows = [
        ("k_hat", doc.k_hat),
        ("k_true", truth_set.size - 1),
        ("hausdorff_estimate_to_truth", d1),
        ("hausdorff_truth_to_estimate", d2),
        ("hausdorff", d),
        ("l2", l2),
    ]
    _write_output(args.output, render_metrics(rows))
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        preset=args.preset,
        samples=args.samples,
        cv_replicates=args.replicates,
        fraction=args.fraction,
        kmax=args.kmax,
        seed=_resolve_seed(args.seed, 0),
        threads=args.threads,
        means=_floats(args.means, "--means") if args.means else None,
        ratios=_floats(args.ratios, "--ratios") if args.ratios else None,
    )
    _write_output(args.output, run_bench(cfg))
    return 0


def _add_cv_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kmax", type=int, default=None,
                   help=f"largest segment count tried (default {CvConfig.kmax})")
    p.add_argument("--fraction", type=float, default=None,
                   help=f"thinning keep probability (default {CvConfig.fraction})")
    p.add_argument("--replicates", type=int, default=None,
                   help=f"thinning replicates (default {CvConfig.replicates})")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: CPT_SEED or 0)")
    p.add_argument("--prior-shape", type=float, default=1.0,
                   help="Gamma shape of the marginal contrast prior")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppseg",
        description="Change-point detection for event series with piecewise-constant rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw an event series from a step intensity")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", metavar="MEAN,RATIO",
                     help="alternating six-segment design on (0, 1)")
    src.add_argument("--intensity-file", metavar="FILE",
                     help="step intensity table (start,end,rate[,mark_rate])")
    p.add_argument("--marks", metavar="RHO[,RHO_EVEN]", default=None,
                   help="exponential mark rates for the design's odd/even segments")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: CPT_SEED or fresh entropy)")
    p.add_argument("-o", "--output", default="-", help="events file to write ('-' = stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("segment", help="estimate change-points from an events file")
    p.add_argument("events", help="events file (columns: time[,mark])")
    p.add_argument("--window", type=float, nargs=2, metavar=("T0", "T1"), default=None,
                   help="observation window (default: data range padded by 1%%)")
    p.add_argument("--contrast", choices=KINDS, default=None,
                   help="cost family (default: the data's marginal kind; others need --k)")
    p.add_argument("--k", type=int, default=None,
                   help="fixed segment count; skips cross-validation")
    _add_cv_options(p)
    p.add_argument("-o", "--output", default="-", help="result file to write ('-' = stdout)")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("cv-curve", help="write the cross-validation curve as CSV")
    p.add_argument("events", help="events file (columns: time[,mark])")
    p.add_argument("--window", type=float, nargs=2, metavar=("T0", "T1"), default=None)
    _add_cv_options(p)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_cv_curve)

    p = sub.add_parser("evaluate", help="score a result file against a known intensity")
    p.add_argument("result", help="result file produced by 'segment'")
    p.add_argument("--truth", required=True,
                   help="'design:MEAN,RATIO[,RHO_ODD,RHO_EVEN]' or an intensity file")
    p.add_argument("--normalization", type=float, default=None,
                   help="L2 normalization (default: mean of the true intensity)")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="run a simulation benchmark preset")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--samples", type=int, default=20, help="series per cell (default 20)")
    p.add_argument("--replicates", type=int, default=100,
                   help="thinning replicates per fit (default 100)")
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--fraction", type=float, default=0.8,
                   help="thinning keep probability (default 0.8); robust-f sweeps its own")
    p.add_argument("--seed", type=int, default=None, help="root seed (default: CPT_SEED or 0)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; output is identical for any value")
    p.add_argument("--means", default=None, help="override the preset's mean intensities "
                   "(a list for k-selection and hausdorff-l2, else one value)")
    p.add_argument("--ratios", default=None, help="override the preset's level ratios "
                   "(as --means, but marked-table takes none)")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
