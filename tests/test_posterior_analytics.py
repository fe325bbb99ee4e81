"""Closed-form posterior moments under a Dirichlet law: hand-derived exact
values for small symmetric cases, reduction to Beta formulas at C = 1, a
scipy-digamma cross-check of the expected normalized entropy, Monte Carlo
agreement within standard-error bands, and the conjugate count update.

Hand oracles for Dir(proper=(1,1), cs=1), derived from the rising-factorial
moment formulas and frozen here as exact fractions:

    E[amb]        = 5/9          E[amb^2]   = 31/90
    Var[amb]      = 29/810       E[amb~]    = 7/9
    Var[amb~]     = 41/810       Cov[amb, q_cs] = 1/27
    Var[q_cs]     = 1/18
"""

import math

import numpy as np
import pytest
import scipy.special

from ambiq.exceptions import (
    DomainError,
    ShapeMismatch,
    SingleCategoryUnsupported,
)
from ambiq.measures import CountVector, MeasureKind, ambiguity_array
from ambiq.numerics import DirichletParams, dirichlet_sample
from ambiq.posterior_analytics import (
    cov_amb_qcs,
    expected_amb,
    expected_amb_modified,
    expected_normalized_entropy,
    posterior_mean_sd,
    posterior_update,
    var_amb,
    var_amb_modified,
    var_qcs,
)

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
