"""Closed-form posterior moments under a Dirichlet law: hand-derived exact
values for small symmetric cases, reduction to Beta formulas at C = 1, a
scipy-digamma cross-check of the expected normalized entropy, Monte Carlo
agreement within standard-error bands, the conjugate count update, the
methods table against every call site that reads it, and the laws of total
expectation and total variance for every closed-form mean and sd.

Hand oracles for Dir(proper=(1,1), cs=1), derived from the rising-factorial
moment formulas and frozen here as exact fractions:

    E[amb]        = 5/9          E[amb^2]   = 31/90
    Var[amb]      = 29/810       E[amb~]    = 7/9
    Var[amb~]     = 41/810       Cov[amb, q_cs] = 1/27
    Var[q_cs]     = 1/18
"""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.special

import ambiq.cli
from ambiq.binary_density import BinaryCounts, posterior_cdf_binary
from ambiq.exceptions import (
    DomainError,
    ShapeMismatch,
    SingleCategoryUnsupported,
)
from ambiq.frequentist import bias_curve
from ambiq.measures import CountVector, MeasureKind, ProbabilityVector, ambiguity_array
from ambiq.numerics import DirichletParams, dirichlet_sample
from ambiq.posterior_analytics import (
    cov_amb_qcs,
    expected_amb,
    expected_amb_modified,
    expected_normalized_entropy,
    methods,
    posterior_mean_sd,
    posterior_update,
    var_amb,
    var_amb_modified,
    var_qcs,
)
from ambiq.posterior_sampling import DensityEstimate

UNIT_SYMMETRIC = DirichletParams(proper=(1.0, 1.0), cs=1.0)


class TestExpectedAmb:
    def test_unit_symmetric_oracle(self):
        assert expected_amb(UNIT_SYMMETRIC) == pytest.approx(5.0 / 9.0, abs=1e-15)

    def test_single_category_reduces_to_beta_mean(self):
        # C = 1: amb = q_cs, and q_cs ~ Beta(cs, proper total).
        params = DirichletParams(proper=(3.0,), cs=2.0)
        assert expected_amb(params) == pytest.approx(2.0 / 5.0, abs=1e-15)

    def test_formula_against_direct_sum(self):
        params = DirichletParams(proper=(0.7, 2.3, 1.1), cs=0.9)
        total = params.total
        solvable = total - params.cs
        direct = 1.0 - sum(
            a * (a + 1.0) / (total * (solvable + 1.0)) for a in params.proper
        )
        assert expected_amb(params) == pytest.approx(direct, abs=1e-14)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n_cat = rng.integers(1, 7)
            params = DirichletParams(
                proper=tuple(rng.uniform(0.2, 5.0, size=n_cat)), cs=rng.uniform(0.2, 5.0)
            )
            assert 0.0 <= expected_amb(params) <= 1.0


class TestSecondMomentAndVariance:
    def test_unit_symmetric_oracles(self):
        mean, sd = posterior_mean_sd(UNIT_SYMMETRIC, MeasureKind.NEW)
        assert sd * sd + mean * mean == pytest.approx(31.0 / 90.0, abs=1e-15)
        assert var_amb(UNIT_SYMMETRIC) == pytest.approx(29.0 / 810.0, abs=1e-15)

    def test_single_category_reduces_to_beta_variance(self):
        # Beta(2, 3): variance 2*3 / (25 * 6) = 0.04
        params = DirichletParams(proper=(3.0,), cs=2.0)
        assert var_amb(params) == pytest.approx(0.04, abs=1e-15)

    def test_variance_consistent_with_moments(self):
        # The paper's second moment E(amb^2) = R + S (1 - E)^2 + 2E - 1, with
        # A the proper total and
        #   R = sum_k a_k(a_k+1)[(a_k+2)(a_k+3) - a_k(a_k+1)]
        #       / [alpha_0 (alpha_0+1) (A+2) (A+3)],
        #   S = alpha_0 (A+1)^2 / [(alpha_0+1) (A+2) (A+3)].
        rng = np.random.default_rng(11)
        for _ in range(30):
            n_cat = rng.integers(1, 6)
            params = DirichletParams(
                proper=tuple(rng.uniform(0.3, 6.0, size=n_cat)), cs=rng.uniform(0.3, 6.0)
            )
            total = params.total
            solvable = total - params.cs
            r = sum(
                a * (a + 1.0) * ((a + 2.0) * (a + 3.0) - a * (a + 1.0)) for a in params.proper
            ) / (total * (total + 1.0) * (solvable + 2.0) * (solvable + 3.0))
            s = total * (solvable + 1.0) ** 2 / (
                (total + 1.0) * (solvable + 2.0) * (solvable + 3.0)
            )
            mean = expected_amb(params)
            second = r + s * (1.0 - mean) ** 2 + 2.0 * mean - 1.0
            assert var_amb(params) == pytest.approx(second - mean**2, abs=1e-12)
            mean, sd = posterior_mean_sd(params, MeasureKind.NEW)
            assert sd * sd + mean * mean == pytest.approx(second, abs=1e-12)

    def test_variance_nonnegative_for_concentrated_posteriors(self):
        params = DirichletParams(proper=(400.0, 2.0), cs=1.0)
        assert var_amb(params) >= 0.0


class TestModifiedMoments:
    def test_unit_symmetric_oracles(self):
        assert expected_amb_modified(UNIT_SYMMETRIC) == pytest.approx(7.0 / 9.0, abs=1e-15)
        assert var_amb_modified(UNIT_SYMMETRIC) == pytest.approx(41.0 / 810.0, abs=1e-14)

    def test_mean_dominates_plain_measure(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n_cat = rng.integers(2, 7)
            params = DirichletParams(
                proper=tuple(rng.uniform(0.3, 5.0, size=n_cat)), cs=rng.uniform(0.3, 5.0)
            )
            assert expected_amb_modified(params) >= expected_amb(params) - 1e-12

    def test_mean_is_the_linear_relation_exactly(self):
        # The relation (C E(amb) - E(q_cs)) / (C - 1), written out: the
        # mean must take exactly these operations, in this order.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n_cat = int(rng.integers(2, 10))
            params = DirichletParams(
                proper=tuple(rng.uniform(0.05, 500.0, size=n_cat)), cs=rng.uniform(0.05, 500.0)
            )
            written_out = (n_cat * expected_amb(params) - params.cs / params.total) / (n_cat - 1.0)
            assert expected_amb_modified(params) == written_out

    def test_single_category_rejected(self):
        with pytest.raises(SingleCategoryUnsupported):
            expected_amb_modified(DirichletParams(proper=(1.0,), cs=1.0))
        with pytest.raises(SingleCategoryUnsupported):
            var_amb_modified(DirichletParams(proper=(1.0,), cs=1.0))


class TestCsMassMoments:
    def test_unit_symmetric_oracles(self):
        assert var_qcs(UNIT_SYMMETRIC) == pytest.approx(1.0 / 18.0, abs=1e-15)
        assert cov_amb_qcs(UNIT_SYMMETRIC) == pytest.approx(1.0 / 27.0, abs=1e-15)

    def test_qcs_variance_is_beta_variance(self):
        params = DirichletParams(proper=(2.0, 5.0), cs=3.0)
        a, b = 3.0, 7.0
        assert var_qcs(params) == pytest.approx(
            a * b / ((a + b) ** 2 * (a + b + 1.0)), abs=1e-15
        )

    def test_covariance_positive(self):
        # More cs mass always means more ambiguity, so the covariance
        # cannot be negative.
        rng = np.random.default_rng(13)
        for _ in range(30):
            n_cat = rng.integers(1, 6)
            params = DirichletParams(
                proper=tuple(rng.uniform(0.3, 5.0, size=n_cat)), cs=rng.uniform(0.3, 5.0)
            )
            assert cov_amb_qcs(params) >= 0.0


class TestExpectedNormalizedEntropy:
    def test_frozen_value(self):
        params = DirichletParams(proper=(11.0, 2.0), cs=2.0)
        assert expected_normalized_entropy(params) == pytest.approx(
            0.6404919013834612, abs=1e-12
        )

    def test_against_scipy_digamma_formula(self):
        params = DirichletParams(proper=(1.4, 3.3, 0.8), cs=2.5)
        alpha = params.as_array()
        total = alpha.sum()
        ref = (
            scipy.special.psi(total + 1.0)
            - float(np.sum(alpha / total * scipy.special.psi(alpha + 1.0)))
        ) / math.log(alpha.size)
        assert expected_normalized_entropy(params) == pytest.approx(ref, abs=1e-12)

    def test_symmetric_concentration_limit(self):
        # Huge symmetric concentration pins q near uniform: entropy -> 1.
        params = DirichletParams.symmetric(3, 5000.0)
        assert expected_normalized_entropy(params) > 0.999

    def test_single_entry_rejected(self):
        # M = 1 only occurs with zero proper categories, which the params
        # type already forbids; C = 1 still gives M = 2 and must work.
        value = expected_normalized_entropy(DirichletParams(proper=(1.0,), cs=1.0))
        assert 0.0 <= value <= 1.0


@pytest.fixture(scope="module")
def draws():
    params = DirichletParams(proper=(0.7, 2.3, 1.1), cs=0.9)
    proper, cs = dirichlet_sample(params, 300_000, seed=77)
    return params, proper, cs


class TestMonteCarloAgreement:
    def _check_mean(self, values, expected):
        se = float(np.std(values)) / math.sqrt(len(values))
        assert float(np.mean(values)) == pytest.approx(expected, abs=4 * se)

    def test_mean_new(self, draws):
        params, proper, cs = draws
        values = ambiguity_array(proper, cs, MeasureKind.NEW)
        self._check_mean(values, expected_amb(params))

    def test_mean_modified(self, draws):
        params, proper, cs = draws
        values = ambiguity_array(proper, cs, MeasureKind.MODIFIED)
        self._check_mean(values, expected_amb_modified(params))

    def test_variance_new(self, draws):
        params, proper, cs = draws
        values = ambiguity_array(proper, cs, MeasureKind.NEW)
        # SE of a sample variance: sqrt((m4 - m2^2)/n) around the centered
        # second moment.
        centered = values - values.mean()
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        se = math.sqrt((m4 - m2 * m2) / len(values))
        assert m2 == pytest.approx(var_amb(params), abs=4 * se)

    def test_covariance_with_cs(self, draws):
        params, proper, cs = draws
        values = ambiguity_array(proper, cs, MeasureKind.NEW)
        prod = (values - values.mean()) * (cs - cs.mean())
        se = float(np.std(prod)) / math.sqrt(len(prod))
        assert float(np.mean(prod)) == pytest.approx(cov_amb_qcs(params), abs=4 * se)


class TestPosteriorUpdate:
    def test_counts_add_componentwise(self):
        prior = DirichletParams(proper=(1.0, 0.5), cs=2.0)
        updated = posterior_update(prior, CountVector(proper=(4, 0), cs=3))
        assert updated.proper == (5.0, 0.5)
        assert updated.cs == 5.0

    def test_zero_counts_is_identity(self):
        prior = DirichletParams.symmetric(3, 1.0)
        updated = posterior_update(prior, CountVector(proper=(0, 0, 0), cs=0))
        assert updated == prior

    def test_shape_mismatch(self):
        prior = DirichletParams.symmetric(2, 1.0)
        with pytest.raises(ShapeMismatch):
            posterior_update(prior, CountVector(proper=(1, 2, 3), cs=0))


class TestPosteriorMeanSd:
    def test_quadratic_measures_are_the_closed_forms(self):
        params = DirichletParams(proper=(2.0, 3.0, 1.0), cs=1.5)
        assert posterior_mean_sd(params, MeasureKind.NEW) == (
            expected_amb(params),
            math.sqrt(var_amb(params)),
        )
        assert posterior_mean_sd(params, MeasureKind.MODIFIED) == (
            expected_amb_modified(params),
            math.sqrt(var_amb_modified(params)),
        )

    def test_old_measure_has_no_closed_form(self):
        with pytest.raises(DomainError):
            posterior_mean_sd(DirichletParams.symmetric(2, 1.0), MeasureKind.OLD)


# Every (measure, C) entry of the methods table that the tests walk, and a
# count vector and a probability vector of each C.
ENTRIES = [(measure, n_proper) for measure in MeasureKind for n_proper in (1, 2, 3)]
COUNTS = {1: (5,), 2: (3, 1), 3: (4, 2, 7)}
PROBABILITIES = {1: (0.7,), 2: (0.5, 0.3), 3: (0.4, 0.3, 0.2)}


def defined(measure, n_proper):
    """Whether the measure exists at C = n_proper: modified and old need
    two proper categories."""
    return measure is MeasureKind.NEW or n_proper >= 2


class TestMethods:
    """Each entry of methods is what `ambiq posterior` prints and what the
    library does, and an exact method's numbers agree with Monte Carlo, so
    an entry flipped to an exact method before that method exists fails
    here."""

    @pytest.mark.parametrize("measure, n_proper", ENTRIES)
    def test_every_call_site_follows_the_entry(
        self, capsys, monkeypatch, tmp_path, sfc64_streams, measure, n_proper
    ):
        counts = COUNTS[n_proper]
        written = []

        def analytic_curve(binary, **kwargs):
            # The curve is that of the item's own counts.
            assert (binary.n_plus, binary.n_minus, binary.n_cs) == (*counts, 1)
            written.append("analytic")
            return np.array([0.5]), np.array([1.0])

        def mc_band(*args, **kwargs):
            written.append("mc_histogram")
            return DensityEstimate(np.array([0.0, 1.0]), np.ones(1), np.ones(1), np.ones(1))

        monkeypatch.setattr(ambiq.cli, "density_curve", analytic_curve)
        monkeypatch.setattr(ambiq.cli, "density_with_uncertainty", mc_band)
        argv = [
            "posterior", "--counts", ",".join(map(str, counts)), "--cs-count", "1",
            "--measure", measure.value, "--mc-samples", "20000", "--seed", "5",
            "--density", str(tmp_path / "density.csv"), "--json",
        ]
        code = ambiq.cli.main(argv)
        out, err = capsys.readouterr()
        if not defined(measure, n_proper):
            assert (code, out, json.loads(err)["error"]) == (2, "", "SingleCategoryUnsupported")
            return
        assert code == 0
        payload = json.loads(out)
        entry = methods(measure, n_proper)
        closed = entry.moments == "closed_form"
        assert payload["method"] == ("closed_form+mc" if closed else "mc_only")
        assert (payload["closed_form"] is not None) == closed
        if closed:
            # An exact mean lies within 5 standard errors of the sample's.
            mc = payload["mc"]
            assert abs(payload["closed_form"]["mean"] - mc["mean"]) < 5 * mc["sd"] / math.sqrt(20000)
        assert payload["metadata"]["density_method"] == entry.density
        assert written == [entry.density]

        # bias_curve draws a posterior sample per repeat, on the stream
        # (seed, (n_index, r)), only for Monte Carlo moments.
        sfc64_streams.clear()
        q = ProbabilityVector(PROBABILITIES[n_proper], 1.0 - sum(PROBABILITIES[n_proper]))
        bias_curve(q, (3,), estimators=("bayes_mean",), measure=measure, mc_repeats=2)
        posterior_streams = [key for _, key in sfc64_streams if len(key) == 2]
        assert bool(posterior_streams) == (entry.moments == "mc")

        if n_proper == 2:
            binary = BinaryCounts(*counts, 1)
            if entry.density != "analytic":
                with pytest.raises(DomainError):
                    posterior_cdf_binary(0.5, binary, measure=measure)
            else:
                # The exact CDF puts half the mass below the sample median.
                median = payload["mc"]["quantiles"]["0.5"]
                assert posterior_cdf_binary(median, binary, measure=measure) == pytest.approx(
                    0.5, abs=0.02
                )


def dirichlet_multinomial_pmf(counts, beta):
    """P(counts) when the full probability vector is Dir(beta, ..., beta)
    and the counts are multinomial given it."""
    n, total = sum(counts), beta * len(counts)
    log_pmf = math.lgamma(n + 1.0) + math.lgamma(total) - math.lgamma(n + total)
    for k in counts:
        log_pmf += math.lgamma(k + beta) - math.lgamma(beta) - math.lgamma(k + 1.0)
    return math.exp(log_pmf)


@pytest.mark.parametrize(
    "measure, n_proper",
    [
        entry
        for entry in ENTRIES
        if defined(*entry) and methods(*entry).moments == "closed_form"
    ],
)
def test_closed_form_moments_obey_the_laws_of_total_expectation_and_variance(measure, n_proper):
    # Averaged over the prior predictive, the posterior mean is the prior
    # mean (total expectation), and the posterior variance plus the
    # variance of the posterior mean is the prior variance (total
    # variance). Every count vector of size n, can't-solve count last,
    # weighted by its Dirichlet-multinomial probability.
    for beta in (0.5, 1.0, 2.0):
        prior = DirichletParams.symmetric(n_proper, beta)
        prior_mean, prior_sd = posterior_mean_sd(prior, measure)
        for n in (1, 3, 8):
            vectors = [
                v for v in itertools.product(range(n + 1), repeat=n_proper + 1) if sum(v) == n
            ]
            weights = [dirichlet_multinomial_pmf(v, beta) for v in vectors]
            moments = [
                posterior_mean_sd(
                    posterior_update(prior, CountVector(proper=v[:-1], cs=v[-1])), measure
                )
                for v in vectors
            ]
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
            average = math.fsum(w * m for w, (m, _) in zip(weights, moments))
            assert abs(average - prior_mean) <= 1e-12, (beta, n)
            variance = (
                math.fsum(w * sd * sd for w, (_, sd) in zip(weights, moments))
                + math.fsum(w * m * m for w, (m, _) in zip(weights, moments))
                - average * average
            )
            assert abs(variance - prior_sd * prior_sd) <= 1e-12, (beta, n)
