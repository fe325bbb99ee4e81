"""Command-line interface.

Subcommands mirror the library surface: measure (point evaluation),
posterior (one count vector, closed forms plus Monte Carlo), bias-curve
(estimator bias across sample sizes), prior-explore (what a symmetric
prior implies before data), score (annotation file to per-item reports),
and rank (order a report file).

Conventions shared by every subcommand:
  - probability lists are comma-separated; the last entry is the
    can't-solve mass unless --cs supplies it separately
  - count lists are proper categories only; --cs-count adds can't-solve
  - the seed comes from --seed, else the AMBIQ_SEED environment variable,
    else 0, and is always recorded in the output metadata
  - outputs carry no timestamps or machine identifiers, so a rerun with
    the same inputs and seed is byte-identical
  - exit codes: 0 success, 2 invalid input or usage, 3 file I/O failure
  - with --json, errors go to stderr as single-line JSON

Numbers in human-readable tables are printed to 6 decimal places; files
and JSON carry full shortest-round-trip precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Sequence

from . import __version__
from .binary_density import BinaryCounts, density_curve
from .dataset_io import (
    _RANK_KEYS,
    export_reports,
    import_reports,
    load_records,
    rank_and_filter,
    score_items,
)
from .exceptions import AmbiqError, DataFileError, DomainError, TooFewSamples
from .frequentist import ESTIMATOR_NAMES, CountVector, bias_curve
from .measures import (
    CategorySchema,
    MeasureKind,
    ProbabilityVector,
    ambiguity,
)
from .numerics import DirichletParams, make_generator
from .posterior_analytics import posterior_moments, posterior_update
from .posterior_sampling import (
    _MIN_SAMPLES,
    DensityEstimate,
    _sorted_quantiles,
    density_with_uncertainty,
    histogram_mode,
    posterior_mean_sd,
    sample_transformed,
)

__all__ = ["main"]

_SEED_ENV = "AMBIQ_SEED"
# The quantile levels `posterior` reports.
_QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_list(text: str, option: str, kind=float) -> list:
    """The comma-separated entries of an option, each stripped and passed
    through kind; empty entries are skipped, and no entry at all is an
    error."""
    try:
        values = [kind(token.strip()) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        noun = {int: "integer", float: "number"}.get(kind, "value")
        raise DomainError(f"{option} must be a comma-separated {noun} list: {exc}")
    if not values:
        raise DomainError(f"{option} must contain at least one value")
    return values


def _parse_probability(q_text: str, cs: float | None) -> ProbabilityVector:
    values = _parse_list(q_text, "--q")
    if cs is None:
        if len(values) < 2:
            raise DomainError(
                "--q without --cs needs at least two entries (the last is the"
                " can't-solve mass)"
            )
        return ProbabilityVector(proper=tuple(values[:-1]), cs=values[-1])
    return ProbabilityVector(proper=tuple(values), cs=cs)


def _parse_counts(counts_text: str, cs_count: int) -> CountVector:
    return CountVector(
        proper=tuple(_parse_list(counts_text, "--counts", int)), cs=cs_count
    )


def _check_mc_samples(mc_samples: int) -> None:
    """The floor on --mc-samples: fewer draws make the histogram mode, the
    tail quantiles and the density band noise."""
    if mc_samples < _MIN_SAMPLES:
        raise TooFewSamples(f"--mc-samples must be at least {_MIN_SAMPLES}")


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{_SEED_ENV} must be an integer, got {raw!r}")


def _metadata(seed: int, **extra) -> dict:
    rng = type(make_generator(0).bit_generator).__name__.lower()
    meta = {"version": __version__, "rng": rng, "seed": seed}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        sys.stdout.write(f"{name.ljust(width)}  {value}\n")


def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    try:
        handle = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
        try:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        finally:
            if path is not None:
                handle.close()
    except OSError as exc:
        raise DataFileError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def _cmd_measure(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if (args.q is None) == (args.counts is None):
        raise DomainError("provide exactly one of --q or --counts")
    if args.q is not None:
        q = _parse_probability(args.q, args.cs)
        source = "probabilities"
    else:
        counts = _parse_counts(args.counts, args.cs_count)
        q = counts.as_probability_vector()
        source = "plug-in frequencies"
    measures = _parse_list(args.measures, "--measures", MeasureKind.parse)
    values = {m.value: ambiguity(q, m) for m in measures}
    if args.json:
        _emit_json(
            {
                "measures": values,
                "input": {"proper": list(q.proper), "cs": q.cs, "source": source},
                "metadata": _metadata(seed),
            }
        )
    else:
        _emit_table([(name, _fmt6(value)) for name, value in values.items()])
    return 0


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------


_BAND_HEADER = ["bin_lo", "bin_hi", "median_density", "iqr_lo", "iqr_hi"]


def _band_rows(estimate: DensityEstimate, prefix: Sequence[str] = ()) -> list[list[str]]:
    """CSV rows of a Monte Carlo density band, one per bin, each led by prefix."""
    columns = (
        estimate.bin_edges[:-1],
        estimate.bin_edges[1:],
        estimate.median_density,
        estimate.iqr_lo,
        estimate.iqr_hi,
    )
    return [[*prefix, *(repr(float(v)) for v in row)] for row in zip(*columns)]


def _density_to_file(
    args: argparse.Namespace,
    posterior: DirichletParams,
    counts: CountVector,
    measure: MeasureKind,
    seed: int,
) -> str:
    """Write the posterior density curve; returns the method used.

    Two proper categories with a quadratic measure get the exact
    analytic curve; everything else gets a Monte Carlo histogram with an
    across-repeat IQR band.
    """
    analytic = counts.n_proper == 2 and measure is not MeasureKind.OLD
    if analytic:
        grid, values = density_curve(
            BinaryCounts(counts.proper[0], counts.proper[1], counts.cs),
            prior_beta=args.beta,
            measure=measure,
            n_points=args.grid_points,
        )
        _write_csv(
            args.density,
            ["a", "density"],
            [[repr(float(a)), repr(float(v))] for a, v in zip(grid, values)],
        )
        return "analytic"
    estimate = density_with_uncertainty(posterior, measure, seed=seed)
    _write_csv(args.density, _BAND_HEADER, _band_rows(estimate))
    return "mc_histogram"


def _cmd_posterior(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    counts = _parse_counts(args.counts, args.cs_count)
    measure = MeasureKind.parse(args.measure)
    prior = DirichletParams.symmetric(counts.n_proper, args.beta)
    posterior = posterior_update(prior, counts)
    # Total variation has no closed-form moments, so that measure runs on
    # the Monte Carlo path alone and the output says so.
    closed = None
    if measure is not MeasureKind.OLD:
        moments = posterior_moments(posterior, measure)
        closed = {"mean": moments.mean, "sd": moments.sd}
    _check_mc_samples(args.mc_samples)
    mass = args.credible_mass
    if not 0.0 < mass < 1.0:
        raise DomainError(f"credible mass {mass!r} outside (0, 1)")
    values = sample_transformed(posterior, (measure,), args.mc_samples, seed)[0]
    # Moments and mode of the sample as drawn, then one sort for every level.
    mc = {"mean": float(values.mean()), "sd": float(values.std()), "mode": histogram_mode(values)}
    values.sort()
    tail = 0.5 * (1.0 - mass)
    *quantiles, lo, hi = _sorted_quantiles(values, (*_QUANTILE_LEVELS, tail, 1.0 - tail)).tolist()
    method = "closed_form+mc" if closed is not None else "mc_only"

    density_method = None
    if args.density is not None:
        density_method = _density_to_file(args, posterior, counts, measure, seed)

    if args.json:
        payload = {
            "measure": measure.value,
            "method": method,
            "closed_form": closed,
            "mc": {
                **mc,
                "quantiles": {str(k): v for k, v in zip(_QUANTILE_LEVELS, quantiles)},
                "credible_interval": {"lo": lo, "hi": hi, "mass": mass},
            },
            "metadata": _metadata(
                seed,
                beta=args.beta,
                measure=measure.value,
                mc_samples=args.mc_samples,
                density_method=density_method,
            ),
        }
        _emit_json(payload)
    else:
        rows = [("measure", measure.value), ("method", method)]
        if closed is not None:
            rows.append(("closed_mean", _fmt6(closed["mean"])))
            rows.append(("closed_sd", _fmt6(closed["sd"])))
        rows += [
            ("mc_mean", _fmt6(mc["mean"])),
            ("mc_sd", _fmt6(mc["sd"])),
            ("mc_mode", _fmt6(mc["mode"])),
            (f"ci_{mass:g}", f"[{_fmt6(lo)}, {_fmt6(hi)}]"),
            ("seed", str(seed)),
            ("beta", f"{args.beta:g}"),
        ]
        if density_method is not None:
            rows.append(("density", density_method))
        _emit_table(rows)
    return 0


# ---------------------------------------------------------------------------
# bias-curve
# ---------------------------------------------------------------------------


def _cmd_bias_curve(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    q = _parse_probability(args.q, args.cs)
    measure = MeasureKind.parse(args.measure)
    n_values = _parse_list(args.n_values, "--n-values", int)
    estimators = _parse_list(args.estimators, "--estimators", str)
    series = bias_curve(
        q,
        n_values,
        estimators=estimators,
        prior_beta=args.beta,
        measure=measure,
        mc_repeats=args.mc_repeats,
        seed=seed,
    )
    rows = []
    for i, n in enumerate(series.n_values):
        for label in series.labels:
            rows.append(
                [
                    str(n),
                    label,
                    repr(series.bias[label][i]),
                    repr(series.stderr[label][i]),
                ]
            )
    _write_csv(args.output, ["n", "estimator", "bias", "stderr"], rows)
    if args.output is not None:
        summary = {
            "output": args.output,
            "rows": len(rows),
            "metadata": _metadata(
                seed, beta=args.beta, measure=measure.value, mc_repeats=args.mc_repeats
            ),
        }
        if args.json:
            _emit_json(summary)
        else:
            _emit_table([("output", args.output), ("rows", str(len(rows)))])
    return 0


# ---------------------------------------------------------------------------
# prior-explore
# ---------------------------------------------------------------------------


def _cmd_prior_explore(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    measure = MeasureKind.parse(args.measure)
    betas = _parse_list(args.betas, "--betas")
    if args.n_categories < 1:
        raise DomainError("--n-categories must be at least 1")
    _check_mc_samples(args.mc_samples)

    per_beta = []
    density_rows = []
    for index, beta in enumerate(betas):
        # Beta index i owns the base seed seed + i: the table draws from its
        # root stream and density repeat r from its substream (r,), as in
        # `posterior`. A root stream never coincides with a substream, of
        # its own base seed or of another's.
        prior = DirichletParams.symmetric(args.n_categories, beta)
        values = sample_transformed(prior, (measure,), args.mc_samples, seed + index)[0]
        mean, sd = posterior_mean_sd(prior, measure, values)
        per_beta.append(
            {"beta": beta, "mean": mean, "sd": sd, "mode": histogram_mode(values)}
        )
        if args.density is not None:
            estimate = density_with_uncertainty(
                prior, measure, samples_per_repeat=args.mc_samples, seed=seed + index
            )
            density_rows += _band_rows(estimate, (repr(float(beta)),))
    if args.density is not None:
        _write_csv(args.density, ["beta", *_BAND_HEADER], density_rows)
    if args.json:
        _emit_json(
            {
                "measure": measure.value,
                "n_categories": args.n_categories,
                "priors": per_beta,
                "metadata": _metadata(seed, measure=measure.value),
            }
        )
    else:
        sys.stdout.write("beta      mean      sd        mode\n")
        for entry in per_beta:
            sys.stdout.write(
                f"{entry['beta']:<8g}  {_fmt6(entry['mean'])}  {_fmt6(entry['sd'])}"
                f"  {_fmt6(entry['mode'])}\n"
            )
    return 0


# ---------------------------------------------------------------------------
# score / rank
# ---------------------------------------------------------------------------


def _schema_from_args(args: argparse.Namespace) -> CategorySchema:
    labels = _parse_list(args.labels, "--labels", str)
    return CategorySchema(labels=tuple(labels), cs_label=args.cs_label)


def _cmd_score(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    schema = _schema_from_args(args)
    measures = _parse_list(args.measures, "--measures", MeasureKind.parse)
    loaded = load_records(args.input, args.format, schema, skip_unknown=args.skip_unknown)
    reports = score_items(
        loaded.items,
        prior_beta=args.beta,
        measures=measures,
        credible_mass=args.credible_mass,
        mc_samples=args.mc_samples,
        seed=seed,
    )
    export_reports(reports, args.output, args.output_format)
    summary = {
        "input": args.input,
        "output": args.output,
        "n_rows": loaded.n_rows,
        "n_items": len(reports),
        "n_duplicate_pairs": loaded.n_duplicate_pairs,
        "n_unknown_skipped": loaded.n_unknown_skipped,
        "metadata": _metadata(
            seed,
            beta=args.beta,
            measures=[m.value for m in measures],
            credible_mass=args.credible_mass,
            mc_samples=args.mc_samples,
        ),
    }
    if args.json:
        _emit_json(summary)
    else:
        _emit_table(
            [
                ("items", str(len(reports))),
                ("rows", str(loaded.n_rows)),
                ("duplicates", str(loaded.n_duplicate_pairs)),
                ("unknown_skipped", str(loaded.n_unknown_skipped)),
                ("output", args.output),
            ]
        )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    measure = MeasureKind.parse(args.measure)
    reports = import_reports(args.input, args.input_format)
    ranked = rank_and_filter(
        reports,
        key=args.key,
        measure=measure,
        threshold=args.threshold,
        descending=not args.ascending,
    )
    exported = False
    if args.output is not None and ranked:
        export_reports(ranked, args.output, args.output_format)
        exported = True
    scored = [
        (report.item_id, getattr(report.measures[measure.value], args.key))
        for report in ranked
    ]
    if args.json:
        _emit_json(
            {
                "key": args.key,
                "measure": measure.value,
                "threshold": args.threshold,
                "descending": not args.ascending,
                "exported": exported,
                "items": [
                    {"item_id": item_id, "score": score} for item_id, score in scored
                ],
                "metadata": _metadata(seed, measure=measure.value),
            }
        )
    elif scored:
        _emit_table([(item_id, _fmt6(score)) for item_id, score in scored])
    else:
        sys.stdout.write("(no items)\n")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambiq",
        description="Ambiguity measures over soft labels with a can't-solve category.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (and JSON errors)")
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: ${_SEED_ENV} if set, else 0)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[common], help="evaluate measures at a point")
    p.add_argument("--q", help="probabilities; last entry is cs unless --cs is given")
    p.add_argument("--cs", type=float, default=None, help="can't-solve probability")
    p.add_argument("--counts", help="proper-category counts, converted via plug-in")
    p.add_argument("--cs-count", type=int, default=0, help="can't-solve count")
    p.add_argument("--measures", default="new,modified,old")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("posterior", parents=[common], help="posterior summary for counts")
    p.add_argument("--counts", required=True, help="proper-category counts")
    p.add_argument("--cs-count", type=int, default=0)
    p.add_argument("--beta", type=float, default=1.0, help="symmetric prior concentration")
    p.add_argument("--measure", default="new")
    p.add_argument("--credible-mass", type=float, default=0.95)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--density", default=None, metavar="PATH", help="write density curve CSV")
    p.add_argument("--grid-points", type=int, default=512)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("bias-curve", parents=[common], help="estimator bias vs sample size")
    p.add_argument("--q", required=True)
    p.add_argument("--cs", type=float, default=None)
    p.add_argument("--n-values", required=True, help="comma-separated sample sizes")
    p.add_argument("--estimators", default=",".join(ESTIMATOR_NAMES))
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--measure", default="new")
    p.add_argument("--mc-repeats", type=int, default=200)
    p.add_argument("--output", default=None, metavar="PATH", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bias_curve)

    p = sub.add_parser("prior-explore", parents=[common], help="implied prior over a measure")
    p.add_argument("--n-categories", type=int, required=True, help="proper categories C")
    p.add_argument("--betas", default="0.5,1,2", help="comma-separated concentrations")
    p.add_argument("--measure", default="new")
    p.add_argument("--mc-samples", type=int, default=50_000)
    p.add_argument("--density", default=None, metavar="PATH", help="write density band CSV")
    p.set_defaults(func=_cmd_prior_explore)

    p = sub.add_parser("score", parents=[common], help="score an annotation file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "csv"])
    p.add_argument("--labels", required=True, help="comma-separated proper labels")
    p.add_argument("--cs-label", default="cs")
    p.add_argument("--skip-unknown", action="store_true", help="count unknown labels instead of failing")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--measures", default="new,modified,old")
    p.add_argument("--credible-mass", type=float, default=0.95)
    p.add_argument("--mc-samples", type=int, default=20_000)
    p.add_argument("--output", required=True)
    p.add_argument("--output-format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("rank", parents=[common], help="rank a report file")
    p.add_argument("--input", required=True, help="report file from score")
    p.add_argument("--input-format", default="json", choices=["json", "csv"])
    p.add_argument("--key", default="posterior_mean", choices=_RANK_KEYS)
    p.add_argument("--measure", default="new")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--ascending", action="store_true", help="rank lowest first, keep <= threshold")
    p.add_argument("--output", default=None, help="also export the ranked reports")
    p.add_argument("--output-format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_rank)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFileError, OSError) as exc:
        _report_error(args, exc)
        return 3
    except (AmbiqError, ValueError) as exc:
        _report_error(args, exc)
        return 2


def _report_error(args: argparse.Namespace, exc: Exception) -> None:
    if getattr(args, "json", False):
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        sys.stderr.write(line + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
