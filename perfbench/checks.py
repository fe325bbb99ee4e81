"""Checks of the program's outputs against independent references.

Each check takes the parsed output and a reference built in reference.py
and returns a list of problems; an empty list means the output passed.
Self-tests in test_checks.py show that each check accepts the reference
itself and rejects a perturbed copy.
"""

from __future__ import annotations

import math

import numpy as np

from reference import EXACT_RTOL, SIGMAS, CompactReference

# A CDF at an MC quantile level may miss the level by this much. The MC
# sample behind the levels has 200k draws, so its own error is 0.0011 at
# most; quadrature error is far smaller.
CDF_TOL = 0.01

# Mass of the density curve between two levels may miss by this much; the
# trapezoid rule on the 512-point grid adds little to the MC error.
MASS_TOL = 0.01

BINARY_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)

# Quantile levels the CLI posterior summary reports by default, and the
# tails of the default 95% credible interval.
SUMMARY_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)
CI_LEVELS = (0.025, 0.975)


def _close(actual, expected, rtol=EXACT_RTOL) -> bool:
    return actual is not None and abs(actual - expected) <= rtol * max(1.0, abs(expected))


def _in_band(value: float, band: tuple[float, float]) -> bool:
    return band[0] <= value <= band[1]


def check_score_report(reports: list, expected: dict) -> list[str]:
    """Check a score report file against per-item references.

    expected maps item_id to (counts, {measure: (plugin, closed mean or
    None, CompactReference)}), with counts ending in the cs count.
    """
    problems = []
    seen = [r.get("item_id") for r in reports]
    if seen != sorted(expected):
        return [f"report lists items {seen[:3]}... not the {len(expected)} input items in order"]
    for report in reports:
        item = report["item_id"]
        counts, per_measure = expected[item]
        got = tuple(report["counts"]["proper"]) + (report["counts"]["cs"],)
        if got != counts:
            problems.append(f"{item}: counts {got} != {counts}")
            continue
        if report["n_total"] != sum(counts) or report["prior_only"] != (sum(counts) == 0):
            problems.append(f"{item}: n_total/prior_only wrong")
        if report["credible_mass"] != 0.95:
            problems.append(f"{item}: credible mass {report['credible_mass']}")
        if set(report["measures"]) != set(per_measure):
            problems.append(f"{item}: measures {sorted(report['measures'])}")
            continue
        for name, (plugin, closed_mean, ref) in per_measure.items():
            out = report["measures"][name]
            problems += [f"{item} {name}: {p}" for p in _check_summary(out, plugin, closed_mean, ref)]
    return problems


def _check_summary(out: dict, plugin: float, closed_mean, ref: CompactReference) -> list[str]:
    problems = []
    if not _close(out["plugin"], plugin):
        problems.append(f"plugin {out['plugin']!r} != {plugin!r}")
    mean = out["posterior_mean"]
    if closed_mean is not None:
        if not _close(mean, closed_mean):
            problems.append(f"posterior mean {mean!r} != closed form {closed_mean!r}")
    elif abs(mean - ref.mean) > ref.mean_tol:
        problems.append(f"MC posterior mean {mean!r} vs reference {ref.mean!r}")
    if abs(out["posterior_sd"] - ref.sd) > ref.sd_tol:
        problems.append(f"posterior sd {out['posterior_sd']!r} vs reference {ref.sd!r}")
    lo, hi = out["credible_lo"], out["credible_hi"]
    if not lo <= hi:
        problems.append(f"credible interval inverted: {lo!r} > {hi!r}")
    for level, value in zip(CI_LEVELS, (lo, hi)):
        if not _in_band(value, ref.bands[level]):
            problems.append(f"credible bound {value!r} outside the {level} band {ref.bands[level]}")
    return problems


def check_cdf(cdf_values, probs=BINARY_LEVELS) -> list[str]:
    """CDF values at MC quantile levels: near the levels, and rising."""
    problems = []
    for p, f in zip(probs, cdf_values):
        if not (math.isfinite(f) and abs(f - p) <= CDF_TOL):
            problems.append(f"CDF {f!r} at the MC {p} quantile")
    if any(b < a for a, b in zip(cdf_values, cdf_values[1:])):
        problems.append(f"CDF falls as a rises: {list(cdf_values)}")
    if len(cdf_values) != len(probs):
        problems.append(f"{len(cdf_values)} CDF values for {len(probs)} levels")
    return problems


def check_density(grid: np.ndarray, density: np.ndarray, levels, probs=BINARY_LEVELS,
                  n_points: int = 512) -> list[str]:
    """Density curve: its mass between MC quantile levels matches their gaps."""
    if grid.size != n_points or density.size != n_points:
        return [f"density curve has {grid.size} points, expected {n_points}"]
    if not (np.all(np.diff(grid) > 0) and grid[0] > 0.0 and grid[-1] < 1.0):
        return ["density grid not strictly increasing inside (0, 1)"]
    if not np.all(np.isfinite(density)) or np.any(density < 0.0):
        return ["density not finite and nonnegative"]
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    at_levels = np.interp(levels, grid, cumulative)
    # The modified measure's density diverges like (1 - a)^(-1/2), and the
    # trapezoid rule cannot integrate the grid's end cells; levels that fall
    # within two cells of an end are left out of the mass check.
    inside = [grid[2] <= level <= grid[-3] for level in levels]
    problems = []
    for i in range(len(levels) - 1):
        if not (inside[i] and inside[i + 1]):
            continue
        mass = at_levels[i + 1] - at_levels[i]
        want = probs[i + 1] - probs[i]
        if abs(mass - want) > MASS_TOL:
            problems.append(f"density mass {mass:.4f} between the {probs[i]} and {probs[i + 1]} levels, want {want}")
    return problems


def check_posterior_json(payload: dict, measure: str, closed_mean: float, ref: CompactReference) -> list[str]:
    """The CLI posterior summary: closed form exact, MC parts within error."""
    problems = []
    if payload.get("measure") != measure or payload.get("method") != "closed_form+mc":
        return [f"measure/method {payload.get('measure')}/{payload.get('method')}"]
    closed = payload["closed_form"]
    if not _close(closed["mean"], closed_mean):
        problems.append(f"closed-form mean {closed['mean']!r} != {closed_mean!r}")
    if abs(closed["sd"] - ref.sd) > ref.sd_tol:
        problems.append(f"closed-form sd {closed['sd']!r} vs MC reference {ref.sd!r}")
    mc = payload["mc"]
    if abs(mc["mean"] - closed_mean) > ref.mean_tol:
        problems.append(f"MC mean {mc['mean']!r} vs closed form {closed_mean!r}")
    if abs(mc["sd"] - ref.sd) > ref.sd_tol:
        problems.append(f"MC sd {mc['sd']!r} vs reference {ref.sd!r}")
    quantiles = {float(k): v for k, v in mc["quantiles"].items()}
    if sorted(quantiles) != list(SUMMARY_LEVELS):
        problems.append(f"quantile levels {sorted(quantiles)}")
    else:
        values = [quantiles[p] for p in SUMMARY_LEVELS]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append("MC quantiles not monotone")
        for p in SUMMARY_LEVELS:
            if not _in_band(quantiles[p], ref.bands[p]):
                problems.append(f"MC {p} quantile {quantiles[p]!r} outside {ref.bands[p]}")
    ci = mc["credible_interval"]
    if not ci["lo"] <= ci["hi"] or ci["mass"] != 0.95:
        problems.append(f"credible interval {ci}")
    return problems


def check_bias_rows(rows: list[list[str]], expected: dict) -> list[str]:
    """Bias-curve CSV rows against exact and independent MC references.

    expected maps (n, label) to ("exact", bias) for the exact plug-in
    column, ("moments", bias, sd_per_draw, repeats) for a column whose
    per-draw estimator has exactly known moments, or ("mc", bias, stderr)
    for one checked against an independent MC estimate.
    """
    if [r[:2] for r in rows] != [[str(n), label] for n, label in expected]:
        return [f"rows {[tuple(r[:2]) for r in rows][:4]}... do not match the requested grid"]
    problems = []
    for row, (key, ref) in zip(rows, expected.items()):
        bias, stderr = float(row[2]), float(row[3])
        kind = ref[0]
        if kind == "exact":
            if not (_close(bias, ref[1]) and stderr == 0.0):
                problems.append(f"{key}: bias {bias!r} stderr {stderr!r}, exact {ref[1]!r}")
        elif kind == "moments":
            _, want, sd, repeats = ref
            tol = SIGMAS * sd / math.sqrt(repeats)
            if abs(bias - want) > tol:
                problems.append(f"{key}: bias {bias!r} vs exact expectation {want!r}")
            if not 0.6 * sd <= stderr * math.sqrt(repeats) <= 1.5 * sd:
                problems.append(f"{key}: stderr {stderr!r} vs exact {sd / math.sqrt(repeats)!r}")
        else:
            _, want, want_se = ref
            if not (stderr > 0.0 and abs(bias - want) <= SIGMAS * math.hypot(stderr, want_se)):
                problems.append(f"{key}: bias {bias!r} ± {stderr!r} vs MC reference {want!r} ± {want_se!r}")
    return problems
