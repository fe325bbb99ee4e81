"""Acceptance suite: ten numbered end-to-end checks of the package's core
claims, each printing one live "criterion NN PASS/FAIL" line even under
pytest's output capture.

The two reference tables in criteria 1 and 2 are reproduced from published
2- and 3-decimal values; the input distributions were reconstructed to
match every printed triple and are frozen here. Criterion 9's base
distributions are self-chosen (the published experiment names its panels
only qualitatively); the checked claims are the qualitative ones: sign,
convergence from below, and smallness of the residual bias at n = 500.
"""

import json
import math
import time

import numpy as np
import pytest

from ambiq.binary_density import (
    BinaryCounts,
    density_integral,
    posterior_cdf_binary,
    posterior_density_binary,
)
from ambiq.cli import main as cli_main
from ambiq.frequentist import (
    CountVector,
    bias_curve,
    bias_plugin,
    exhaustive_expected_estimator,
    expected_plugin,
    plugin_estimate,
)
from ambiq.measures import (
    MeasureKind,
    ProbabilityVector,
    ambiguity,
    ambiguity_array,
    ambiguity_modified,
    ambiguity_new,
    ambiguity_old,
)
from ambiq.numerics import DirichletParams, dirichlet_sample, make_generator
from ambiq.posterior_analytics import (
    expected_amb,
    expected_amb_modified,
    expected_normalized_entropy,
    posterior_update,
    var_amb,
    var_amb_modified,
)
from ambiq.posterior_sampling import sample_transformed


@pytest.fixture()
def announce(capfd):
    """Print the verdict line outside pytest's capture, then assert."""

    def _announce(number: int, ok: bool, detail: str = ""):
        line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


# Reference table: dichotomous distributions (proper pair, cs) against
# printed (new, old, modified) values at 2 decimals.
DICHOTOMOUS_TABLE = [
    (((1.00, 0.00), 0.0), (0.00, 0.00, 0.00)),
    (((0.90, 0.10), 0.0), (0.18, 0.20, 0.36)),
    (((0.80, 0.20), 0.0), (0.32, 0.40, 0.64)),
    (((0.70, 0.30), 0.0), (0.42, 0.60, 0.84)),
    (((0.60, 0.40), 0.0), (0.48, 0.80, 0.96)),
    (((0.50, 0.50), 0.0), (0.50, 1.00, 1.00)),
    (((0.25, 0.25), 0.5), (0.75, 1.00, 1.00)),
    (((0.00, 0.00), 1.0), (1.00, 1.00, 1.00)),
]

# Reference table: five-category distributions against printed 3-decimal
# values.
CATEGORICAL_TABLE = [
    (((1.0, 0.0, 0.0, 0.0, 0.0), 0.0), (0.000, 0.000, 0.000)),
    (((0.8, 0.2, 0.0, 0.0, 0.0), 0.0), (0.320, 0.250, 0.400)),
    (((0.7, 0.3, 0.0, 0.0, 0.0), 0.0), (0.420, 0.250, 0.525)),
    (((0.4, 0.4, 0.2, 0.0, 0.0), 0.0), (0.640, 0.500, 0.800)),
    (((0.25, 0.25, 0.2, 0.2, 0.1), 0.0), (0.785, 0.875, 0.981)),
    (((0.2, 0.2, 0.2, 0.2, 0.2), 0.0), (0.800, 1.000, 1.000)),
    (((0.1, 0.1, 0.1, 0.1, 0.1), 0.5), (0.900, 1.000, 1.000)),
    (((0.0, 0.0, 0.0, 0.0, 0.0), 1.0), (1.000, 1.000, 1.000)),
]


def table_max_error(table):
    worst = 0.0
    for (proper, cs), (new, old, modified) in table:
        q = ProbabilityVector(proper, cs)
        worst = max(
            worst,
            abs(ambiguity_new(q) - new),
            abs(ambiguity_old(q) - old),
            abs(ambiguity_modified(q) - modified),
        )
    return worst


class TestCriterion01DichotomousTable:
    def test_reproduces_reference_values(self, announce):
        start = time.perf_counter()
        worst = table_max_error(DICHOTOMOUS_TABLE)
        elapsed = time.perf_counter() - start
        ok = worst <= 0.005 and elapsed < 1.0
        announce(1, ok, f"max error {worst:.2e}, {elapsed:.3f}s")


class TestCriterion02CategoricalTable:
    def test_reproduces_reference_values(self, announce):
        start = time.perf_counter()
        worst = table_max_error(CATEGORICAL_TABLE)
        elapsed = time.perf_counter() - start
        ok = worst <= 0.0005 and elapsed < 1.0
        announce(2, ok, f"max error {worst:.2e}, {elapsed:.3f}s")


class TestCriterion03ExpectedEntropy:
    def test_analytic_value_and_mc_agreement(self, announce):
        start = time.perf_counter()
        params = DirichletParams(proper=(11.0, 2.0), cs=2.0)
        analytic = expected_normalized_entropy(params)

        proper, cs = dirichlet_sample(params, 1_000_000, seed=30)
        block = np.column_stack([proper, cs])
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(block > 0.0, np.log(block), 0.0)
        entropies = -(block * logs).sum(axis=1) / math.log(block.shape[1])
        mc_mean = float(entropies.mean())
        elapsed = time.perf_counter() - start

        ok = 0.635 <= analytic <= 0.645 and abs(mc_mean - analytic) < 5e-4
        ok = ok and elapsed < 10.0
        announce(
            3,
            ok,
            f"analytic {analytic:.6f}, MC {mc_mean:.6f}, {elapsed:.1f}s",
        )


class TestCriterion04MomentsVsMonteCarlo:
    N_DRAWS = 1_000_000

    def test_closed_forms_within_four_standard_errors(self, announce):
        start = time.perf_counter()
        rng = np.random.default_rng(40)
        worst_z = 0.0
        for index in range(50):
            n_cat = int(rng.integers(1, 7))
            params = DirichletParams(
                proper=tuple(rng.uniform(0.3, 8.0, size=n_cat)),
                cs=float(rng.uniform(0.3, 8.0)),
            )
            proper, cs = dirichlet_sample(params, self.N_DRAWS, seed=4000 + index)

            checks = [
                (
                    ambiguity_array(proper, cs, MeasureKind.NEW),
                    expected_amb(params),
                    var_amb(params),
                )
            ]
            if n_cat >= 2:
                checks.append(
                    (
                        ambiguity_array(proper, cs, MeasureKind.MODIFIED),
                        expected_amb_modified(params),
                        var_amb_modified(params),
                    )
                )
            for values, exp_mean, exp_var in checks:
                n = len(values)
                se_mean = float(values.std()) / math.sqrt(n)
                if se_mean > 0.0:
                    worst_z = max(worst_z, abs(float(values.mean()) - exp_mean) / se_mean)
                centered = values - values.mean()
                m2 = float(np.mean(centered**2))
                m4 = float(np.mean(centered**4))
                se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
                if se_var > 0.0:
                    worst_z = max(worst_z, abs(m2 - exp_var) / se_var)
        elapsed = time.perf_counter() - start
        ok = worst_z <= 4.0 and elapsed < 300.0
        announce(4, ok, f"max |z| {worst_z:.2f} over 50 configs, {elapsed:.0f}s")


class TestCriterion05BinaryDensity:
    CONFIGS = [
        BinaryCounts(0, 0, 0),
        BinaryCounts(1, 0, 0),
        BinaryCounts(2, 2, 0),
        BinaryCounts(4, 1, 0),
        BinaryCounts(3, 2, 1),
        BinaryCounts(10, 1, 1),
        BinaryCounts(5, 5, 2),
        BinaryCounts(8, 0, 3),
        BinaryCounts(12, 3, 2),
        BinaryCounts(30, 0, 0),
    ]
    N_DRAWS = 100_000
    # The analytic CDF is evaluated at every 200th order statistic; the
    # ECDF moves by only 200/N = 0.002 between consecutive evaluation
    # points, so the sup over skipped points exceeds the measured sup by
    # at most that spacing. 0.013 measured + 0.002 < 0.015 budget.
    STRIDE = 200

    def test_normalization_and_ecdf_agreement(self, announce):
        start = time.perf_counter()
        worst_mass_gap = 0.0
        worst_ks = 0.0
        for config_index, counts in enumerate(self.CONFIGS):
            posterior = posterior_update(
                DirichletParams.symmetric(2, 1.0),
                CountVector(proper=(counts.n_plus, counts.n_minus), cs=counts.n_cs),
            )
            for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
                mass = density_integral(counts, prior_beta=1.0, measure=measure).value
                worst_mass_gap = max(worst_mass_gap, abs(mass - 1.0))

                draws = np.sort(
                    sample_transformed(
                        posterior, (measure,), self.N_DRAWS, seed=500 + config_index
                    )[0]
                )
                indices = np.arange(self.STRIDE - 1, self.N_DRAWS, self.STRIDE)
                inside = (draws[indices] > 0.0) & (draws[indices] < 1.0)
                indices = indices[inside]
                ecdf = (indices + 1) / self.N_DRAWS
                analytic = posterior_cdf_binary(draws[indices], counts, 1.0, measure)
                worst_ks = max(worst_ks, float(np.max(np.abs(analytic - ecdf), initial=0.0)))
        elapsed = time.perf_counter() - start
        ok = worst_mass_gap <= 1e-3 and worst_ks + self.STRIDE / self.N_DRAWS < 0.015
        ok = ok and elapsed < 120.0
        announce(
            5,
            ok,
            f"mass gap {worst_mass_gap:.1e}, KS {worst_ks:.4f}, {elapsed:.0f}s",
        )


class TestCriterion06TailAsymptotics:
    def test_upper_endpoint_behavior(self, announce):
        counts = BinaryCounts(2, 2, 1)
        news = [
            posterior_density_binary(1.0 - eps, counts, measure=MeasureKind.NEW)
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        new_ok = news[0] > news[1] > news[2] and all(v < 0.05 for v in news)

        eps = 1e-5
        ratio = posterior_density_binary(
            1.0 - eps, counts, measure=MeasureKind.MODIFIED
        ) / posterior_density_binary(1.0 - 4 * eps, counts, measure=MeasureKind.MODIFIED)
        modified_ok = 1.8 <= ratio <= 2.2
        announce(
            6,
            new_ok and modified_ok,
            f"new tail {news[-1]:.2e} decreasing, modified ratio {ratio:.3f}",
        )


class TestCriterion07PluginExactness:
    def test_closed_form_equals_enumeration(self, announce):
        rng = np.random.default_rng(70)
        worst_gap = 0.0
        monotone_ok = True
        for _ in range(20):
            raw = rng.gamma(1.0, size=3)
            raw /= raw.sum()
            raw = np.minimum(raw, 0.95)
            raw /= raw.sum()
            q = ProbabilityVector((float(raw[0]), float(raw[1])), float(raw[2]))
            previous = None
            for n in range(1, 9):
                exact = expected_plugin(q, n)
                enumerated = exhaustive_expected_estimator(
                    q, n, lambda c: plugin_estimate(c, MeasureKind.NEW)
                )
                worst_gap = max(worst_gap, abs(exact - enumerated))
                bias = bias_plugin(q, n)
                if bias >= 0.0:
                    monotone_ok = False
                if previous is not None and bias <= previous:
                    monotone_ok = False
                previous = bias
        ok = worst_gap <= 1e-12 and monotone_ok
        announce(7, ok, f"max enumeration gap {worst_gap:.2e}")


class TestCriterion08MeasureInequalities:
    N_POINTS = 100_000

    def test_property_suite(self, announce):
        ok = True
        details = []
        for n_cat in range(2, 7):
            proper, cs = dirichlet_sample(
                DirichletParams.symmetric(n_cat, 1.0), self.N_POINTS, seed=800 + n_cat
            )
            new = ambiguity_array(proper, cs, MeasureKind.NEW)
            modified = ambiguity_array(proper, cs, MeasureKind.MODIFIED)
            old = ambiguity_array(proper, cs, MeasureKind.OLD)

            dominance = float(np.min(modified - new))
            relation_gap = float(
                np.max(np.abs(modified - (n_cat * new - cs) / (n_cat - 1.0)))
            )
            bounds_ok = all(
                0.0 <= float(arr.min()) and float(arr.max()) <= 1.0
                for arr in (new, modified, old)
            )

            uniform_gap = 0.0
            for q_cs in np.linspace(0.0, 0.9, 10):
                q = ProbabilityVector(((1.0 - q_cs) / n_cat,) * n_cat, float(q_cs))
                uniform_gap = max(
                    uniform_gap,
                    abs(ambiguity_new(q) - (1.0 - (1.0 - q_cs) / n_cat)),
                )

            ok = (
                ok
                and dominance >= -1e-12
                and relation_gap <= 1e-12
                and bounds_ok
                and uniform_gap <= 1e-12
            )
            details.append(f"C={n_cat}: rel {relation_gap:.1e}")
        announce(8, ok, "; ".join(details[:2]) + "; ...")


class TestCriterion09BiasCurves:
    # Self-chosen base distributions; the published experiment names its
    # panels "balanced" and "skewed" without printing the vectors.
    BALANCED = ProbabilityVector((0.45, 0.35), 0.20)
    SKEWED = ProbabilityVector((0.90, 0.05), 0.05)
    N_VALUES = (1, 2, 5, 20, 100, 500)

    def test_sign_convergence_and_residual(self, announce):
        ok = True
        details = []
        for name, q in (("balanced", self.BALANCED), ("skewed", self.SKEWED)):
            series = bias_curve(
                q, n_values=self.N_VALUES, mc_repeats=200, seed=90
            )
            plugin = series.bias["plugin"]
            plugin_ok = all(v < 0.0 for v in plugin) and all(
                b > a for a, b in zip(plugin, plugin[1:])
            )
            final_ok = True
            for label in series.labels:
                residual = abs(series.bias[label][-1])
                margin = 3.0 * series.stderr[label][-1]
                if residual - margin >= 0.02:
                    final_ok = False
            ok = ok and plugin_ok and final_ok
            details.append(f"{name}: plugin bias at n=500 {plugin[-1]:.4f}")
        announce(9, ok, "; ".join(details))


class TestCriterion10Determinism:
    def run_cli(self, capfd, argv):
        code = cli_main(argv)
        out = capfd.readouterr().out
        return code, out

    def test_reruns_are_byte_identical(self, announce, capfd, tmp_path):
        annotations = tmp_path / "annotations.jsonl"
        with open(annotations, "w", encoding="utf-8") as handle:
            for row in (
                {"item_id": "q1", "annotator_id": "a1", "response": "yes"},
                {"item_id": "q1", "annotator_id": "a2", "response": "cs"},
                {"item_id": "q2", "annotator_id": "a1", "response": "no"},
            ):
                handle.write(json.dumps(row) + "\n")

        pipelines = [
            [
                "posterior", "--counts", "3,1", "--cs-count", "1",
                "--mc-samples", "20000", "--seed", "17", "--json",
            ],
            [
                "prior-explore", "--n-categories", "3", "--betas", "0.5,1,2",
                "--mc-samples", "20000", "--seed", "17", "--json",
            ],
            [
                "bias-curve", "--q", "0.6,0.3", "--cs", "0.1",
                "--n-values", "1,2,5", "--mc-repeats", "20", "--seed", "17",
            ],
        ]
        ok = True
        for argv in pipelines:
            code1, out1 = self.run_cli(capfd, argv)
            code2, out2 = self.run_cli(capfd, argv)
            ok = ok and code1 == 0 and code2 == 0 and out1 == out2

        score_argv = [
            "score", "--input", str(annotations), "--labels", "yes,no",
            "--seed", "17", "--json",
        ]
        outputs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code, _ = self.run_cli(capfd, score_argv + ["--output", str(path)])
            ok = ok and code == 0
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1]
        announce(10, ok, "posterior, prior-explore, bias-curve, score")
