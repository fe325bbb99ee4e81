"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest -q perfbench/test_checks.py

Each check must accept a correct output, built here from a reference made
apart from the program, and reject the same output perturbed by a small
amount: a CDF shifted by 0.02, a density scaled by 0.9, a plug-in value
off by 1e-6, and so on.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402

MEASURES = ("new", "modified", "old")


def _score_case(counts, seed):
    """References for one item, and a report made from other MC draws."""
    rng = np.random.default_rng(seed)
    base = ref.dirichlet_measures(counts, MEASURES, 20_000, rng)
    other = ref.dirichlet_measures(counts, MEASURES, 20_000, rng)
    per_measure, out = {}, {}
    for m in MEASURES:
        closed = None if m == "old" else ref.posterior_mean(counts, m)
        per_measure[m] = (ref.plugin_value(counts, m), closed,
                          ref.McReference(base[m]).compact(checks.CI_LEVELS, 20_000))
        lo, hi = np.quantile(other[m], [0.025, 0.975])
        out[m] = {"plugin": ref.plugin_value(counts, m),
                  "posterior_mean": closed if closed is not None else float(other[m].mean()),
                  "posterior_sd": float(other[m].std()),
                  "credible_lo": float(lo), "credible_hi": float(hi)}
    report = {"item_id": "a", "counts": {"proper": list(counts[:-1]), "cs": counts[-1]},
              "n_total": sum(counts), "prior_only": False, "credible_mass": 0.95, "measures": out}
    return [report], {"a": (tuple(counts), per_measure)}


@pytest.mark.parametrize("counts", [(3, 1, 1), (4, 0, 1), (40, 25, 10, 3, 7)])
def test_score_check_accepts_independent_mc(counts):
    reports, expected = _score_case(counts, 1)
    assert checks.check_score_report(reports, expected) == []


@pytest.mark.parametrize(
    "measure,field,delta",
    [("new", "plugin", 1e-6), ("modified", "posterior_mean", 1e-6), ("old", "plugin", -1e-6),
     ("new", "posterior_sd", 0.01), ("old", "posterior_mean", 0.03), ("modified", "credible_lo", 0.08),
     ("new", "credible_hi", -0.08)],
)
def test_score_check_rejects_perturbed_field(measure, field, delta):
    reports, expected = _score_case((11, 2, 2), 2)
    reports[0]["measures"][measure][field] += delta
    assert checks.check_score_report(reports, expected)


def test_score_check_rejects_wrong_counts():
    reports, expected = _score_case((11, 2, 2), 3)
    reports[0]["counts"]["cs"] = 3
    assert checks.check_score_report(reports, expected)


def _kumaraswamy(a, b):
    """A law on (0, 1) with closed-form density and quantiles."""
    def pdf(x):
        return a * b * x ** (a - 1) * (1 - x**a) ** (b - 1)

    def quantile(p):
        return (1 - (1 - p) ** (1 / b)) ** (1 / a)

    return pdf, quantile


def _grid():
    return np.linspace(1e-6, 1 - 1e-6, 512)


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (1.0, 0.5), (5.0, 40.0)])
def test_density_check_accepts_exact_density(a, b):
    pdf, quantile = _kumaraswamy(a, b)
    levels = [quantile(p) for p in checks.BINARY_LEVELS]
    grid = _grid()
    assert checks.check_density(grid, pdf(grid), levels) == []


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (1.0, 0.5)])
def test_density_check_rejects_scaled_density(a, b):
    pdf, quantile = _kumaraswamy(a, b)
    levels = [quantile(p) for p in checks.BINARY_LEVELS]
    grid = _grid()
    assert checks.check_density(grid, 0.9 * pdf(grid), levels)


def test_density_check_rejects_short_grid():
    pdf, quantile = _kumaraswamy(2.0, 3.0)
    grid = np.linspace(0.01, 0.99, 256)
    assert checks.check_density(grid, pdf(grid), [quantile(p) for p in checks.BINARY_LEVELS])


def _binary_sample(counts, measure, n, seed):
    return ref.dirichlet_measures(counts, (measure,), n, np.random.default_rng(seed))[measure]


def test_cdf_check_accepts_independent_ecdf_and_rejects_shift():
    levels_sample = ref.McReference(_binary_sample((11, 2, 2), "new", 200_000, 4))
    levels = [levels_sample.quantile(p) for p in checks.BINARY_LEVELS]
    other = ref.McReference(_binary_sample((11, 2, 2), "new", 200_000, 5))
    cdf = [other.cdf(a) for a in levels]
    assert checks.check_cdf(cdf) == []
    assert checks.check_cdf([f + 0.02 for f in cdf])
    assert checks.check_cdf([f - 0.02 for f in cdf])
    assert checks.check_cdf(cdf[:2] + [cdf[3], cdf[2]] + cdf[4:])


def test_cdf_check_rejects_the_known_large_count_fault():
    # The shape of the fault: the CDF collapses to ~0 at the median.
    assert checks.check_cdf([0.0498, 0.0, 6e-8, 0.7493, 0.9503])


def _posterior_payload(counts, measure, seed):
    big = ref.McReference(_binary_sample(counts, measure, 400_000, seed))
    sample = _binary_sample(counts, measure, 100_000, seed + 1)
    closed = ref.posterior_mean(counts, measure)
    q = np.quantile(sample, checks.SUMMARY_LEVELS)
    payload = {
        "measure": measure, "method": "closed_form+mc",
        "closed_form": {"mean": closed, "sd": big.sd},
        "mc": {"mean": float(sample.mean()), "sd": float(sample.std()), "mode": 0.5,
               "quantiles": {str(p): float(v) for p, v in zip(checks.SUMMARY_LEVELS, q)},
               "credible_interval": {"lo": float(q[0]), "hi": float(q[-1]), "mass": 0.95}},
    }
    reference = ref.McReference(_binary_sample(counts, measure, 200_000, seed + 2))
    return payload, closed, reference.compact(checks.SUMMARY_LEVELS, 100_000)


@pytest.mark.parametrize("measure", ["new", "modified"])
def test_posterior_check_accepts_independent_mc(measure):
    payload, closed, compact = _posterior_payload((40, 25, 10), measure, 6)
    assert checks.check_posterior_json(payload, measure, closed, compact) == []


@pytest.mark.parametrize(
    "path,delta",
    [(("closed_form", "mean"), 1e-6), (("closed_form", "sd"), 0.002), (("mc", "mean"), 0.003),
     (("mc", "quantiles", "0.5"), 0.01)],
)
def test_posterior_check_rejects_perturbed_field(path, delta):
    payload, closed, compact = _posterior_payload((40, 25, 10), "new", 7)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += delta
    assert checks.check_posterior_json(payload, "new", closed, compact)


def _bias_case():
    q, n, repeats = (0.45, 0.35, 0.20), 5, 200
    truth = 1 - (0.45**2 + 0.35**2) / 0.8
    plugin, _ = ref.exact_moments(q, n, lambda c: ref.plugin_value(c, "new"))
    mean, sd = ref.exact_moments(q, n, lambda c: ref.posterior_mean(c, "new"))
    expected = {(n, "plugin"): ("exact", plugin - truth),
                (n, "bayes_mean(1)"): ("moments", mean - truth, sd, repeats),
                (n, "bayes_mode(1)"): ("mc", 0.01, 0.004)}
    # An independent MC run of the Bayes-mean column over multinomial draws.
    rng = np.random.default_rng(8)
    estimates = [ref.posterior_mean(tuple(int(v) for v in c), "new") for c in rng.multinomial(n, q, size=repeats)]
    rows = [[str(n), "plugin", repr(plugin - truth), "0.0"],
            [str(n), "bayes_mean(1)", repr(float(np.mean(estimates)) - truth),
             repr(float(np.std(estimates)) / math.sqrt(repeats))],
            [str(n), "bayes_mode(1)", "0.012", "0.004"]]
    return rows, expected


def test_bias_check_accepts_exact_and_independent_mc():
    rows, expected = _bias_case()
    assert checks.check_bias_rows(rows, expected) == []


@pytest.mark.parametrize("row,delta", [(0, 1e-6), (1, 0.05), (2, 0.06)])
def test_bias_check_rejects_perturbed_row(row, delta):
    rows, expected = _bias_case()
    rows[row][2] = repr(float(rows[row][2]) + delta)
    assert checks.check_bias_rows(rows, expected)


def test_bias_exact_enumeration_matches_the_closed_form():
    # E[plug-in] of the new measure has a closed form; the enumeration
    # behind the plug-in check must reproduce it.
    q, n = (0.45, 0.35, 0.20), 7
    c = q[2]
    s2 = q[0] ** 2 + q[1] ** 2
    survival = (1 - c**n) / n
    closed = (1 - survival) - (1 / (1 - c) - survival / (1 - c) ** 2) * s2
    enumerated, _ = ref.exact_moments(q, n, lambda counts: ref.plugin_value(counts, "new"))
    assert enumerated == pytest.approx(closed, abs=1e-12)


_TRACE_SCRIPT = """
import json, os, sys
sys.path[:0] = [{src!r}, {here!r}]
import ambiq.cli, ambiq.numerics, ambiq.binary_density
del ambiq.numerics.adaptive_simpson
del ambiq.binary_density.adaptive_simpson
from tracing import Tracer, op_totals
tracer = Tracer()
tracer.install()
ambiq.cli.main(["bias-curve", "--q", "0.45,0.35,0.20", "--n-values", "1,2", "--mc-repeats", "3",
                "--output", os.devnull])
print(json.dumps({{"absent": tracer.absent, "totals": op_totals(tracer.export())}}))
"""


def test_tracer_reports_missing_internals_as_absent():
    src = os.path.join(os.path.dirname(HERE), "src")
    out = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT.format(src=src, here=HERE)],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["absent"] == ["numerics.adaptive_simpson"]
    totals = report["totals"]
    assert totals["cli.calls"] == 1 and totals["frequentist.bias_curve.calls"] == 1
    # 3 repeats at each of 2 sizes draw 20k rows apiece for the mode column.
    assert totals["numerics.dirichlet_draws.calls"] == 6
    assert totals["numerics.dirichlet_draws.rows"] == 6 * 20_000
    assert totals["cli.self_ms"] < totals["cli.ms"]
