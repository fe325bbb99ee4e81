"""Frequentist estimation layer: the plug-in estimator and its exact
expectation for every measure (checked against exhaustive multinomial
enumeration, and for total variation against scipy's binomial and a large
multinomial sample), the exact bias identity, strict sign and monotonicity
of the bias, and bias_curve against a plain loop at several CPU counts.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from ambiq import frequentist
from ambiq.exceptions import DomainError, EmptySample, SingleCategoryUnsupported, TooLarge
from ambiq.frequentist import (
    ESTIMATOR_NAMES,
    BiasSeries,
    bias_curve,
    bias_plugin,
    exhaustive_expected_estimator,
    expected_plugin,
    plugin_estimate,
)
from ambiq.measures import (
    CountVector,
    MeasureKind,
    ProbabilityVector,
    ambiguity,
    ambiguity_array,
    ambiguity_new,
)
from ambiq.numerics import DirichletParams, make_generator
from ambiq.posterior_analytics import posterior_mean_sd
from ambiq.posterior_sampling import MODE_BINS
from gamma_reference import dirichlet_rows


def random_q(rng, n_proper=2, max_cs=0.9):
    raw = rng.gamma(1.0, size=n_proper + 1)
    raw /= raw.sum()
    if raw[-1] > max_cs:
        raw[-1] = max_cs
        raw[:-1] *= (1.0 - max_cs) / raw[:-1].sum()
    return ProbabilityVector(tuple(raw[:-1]), float(raw[-1]))


class TestCountVector:
    def test_totals(self):
        counts = CountVector(proper=(3, 1), cs=2)
        assert counts.n_proper == 2
        assert counts.total == 6

    def test_accepts_numpy_integers(self):
        row = np.array([3, 1, 2])
        counts = CountVector(proper=(row[0], row[1]), cs=row[2])
        assert counts.total == 6
        assert all(isinstance(v, int) for v in counts.proper)

    def test_as_probability_vector(self):
        q = CountVector(proper=(3, 1), cs=0).as_probability_vector()
        assert q.proper == (0.75, 0.25)
        assert q.cs == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            CountVector(proper=(0, 0), cs=0).as_probability_vector()

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            CountVector(proper=(-1, 2), cs=0)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            CountVector(proper=(1.5, 2), cs=0)

    def test_rejects_booleans(self):
        with pytest.raises(DomainError):
            CountVector(proper=(True, 2), cs=0)
        with pytest.raises(DomainError):
            CountVector(proper=(1, 2), cs=False)


class TestPluginEstimate:
    def test_even_split(self):
        assert plugin_estimate(CountVector(proper=(1, 1), cs=0)) == pytest.approx(0.5)

    def test_unanimous(self):
        assert plugin_estimate(CountVector(proper=(5, 0), cs=0)) == 0.0

    def test_all_cs(self):
        assert plugin_estimate(CountVector(proper=(0, 0), cs=4)) == 1.0

    def test_is_measure_at_empirical_frequencies(self):
        counts = CountVector(proper=(2, 0), cs=1)
        q = counts.as_probability_vector()
        assert plugin_estimate(counts) == pytest.approx(ambiguity_new(q))
        assert plugin_estimate(counts) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_other_measures_dispatch(self):
        counts = CountVector(proper=(3, 1), cs=0)
        q = counts.as_probability_vector()
        from ambiq.measures import ambiguity_modified, ambiguity_old

        assert plugin_estimate(counts, MeasureKind.MODIFIED) == pytest.approx(
            ambiguity_modified(q)
        )
        assert plugin_estimate(counts, MeasureKind.OLD) == pytest.approx(ambiguity_old(q))


class TestExpectedPlugin:
    def test_hand_values_even_binary(self):
        q = ProbabilityVector((0.5, 0.5), 0.0)
        # n = 1: one annotator can never disagree with itself.
        assert expected_plugin(q, 1) == pytest.approx(0.0, abs=1e-15)
        # n = 2: counts (2,0),(1,1),(0,2) with probs 1/4,1/2,1/4 and plug-in
        # values 0,1/2,0.
        assert expected_plugin(q, 2) == pytest.approx(0.25, abs=1e-15)

    def test_degenerate_cs_is_one(self):
        q = ProbabilityVector((0.0, 0.0), 1.0)
        for n in (1, 3, 10):
            assert expected_plugin(q, n) == 1.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            q = random_q(rng)
            for n in (1, 2, 4, 7):
                exact = expected_plugin(q, n)
                enumerated = exhaustive_expected_estimator(
                    q, n, lambda counts: plugin_estimate(counts, MeasureKind.NEW)
                )
                assert exact == pytest.approx(enumerated, abs=1e-12)

    def test_converges_to_true_value(self):
        q = ProbabilityVector((0.6, 0.3), 0.1)
        truth = ambiguity_new(q)
        assert expected_plugin(q, 2000) == pytest.approx(truth, abs=1e-3)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            expected_plugin(ProbabilityVector((0.5, 0.5), 0.0), 0)

    @pytest.mark.parametrize("expectation", [
        lambda q, n: expected_plugin(q, n),
        lambda q, n: exhaustive_expected_estimator(q, n, plugin_estimate),
    ], ids=["expected_plugin", "exhaustive_expected_estimator"])
    def test_both_expectations_refuse_a_sample_size_in_one_text(self, expectation):
        with pytest.raises(DomainError, match=r"^sample size must be positive, got 0$"):
            expectation(ProbabilityVector((0.5, 0.5), 0.0), 0)


class TestBiasPlugin:
    def test_hand_value(self):
        q = ProbabilityVector((0.5, 0.5), 0.0)
        assert bias_plugin(q, 1) == pytest.approx(-0.5, abs=1e-15)

    def test_closed_form_identity(self):
        # bias = -((1-c^n)/n) * (1 - S/(1-c)^2), S = sum q_k^2, c = q_cs.
        rng = np.random.default_rng(15)
        for _ in range(10):
            q = random_q(rng)
            c = q.cs
            s = sum(v * v for v in q.proper)
            for n in (1, 3, 9):
                identity = -((1.0 - c**n) / n) * (1.0 - s / (1.0 - c) ** 2)
                assert bias_plugin(q, n) == pytest.approx(identity, abs=1e-14)

    def test_strictly_negative_and_increasing(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            q = random_q(rng)
            values = [bias_plugin(q, n) for n in range(1, 12)]
            assert all(v < 0.0 for v in values)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_vanishes_as_n_grows(self):
        q = ProbabilityVector((0.7, 0.2), 0.1)
        assert abs(bias_plugin(q, 10_000)) < 1e-3


class TestExhaustiveEnumeration:
    def test_degenerate_estimator_recovers_constant(self):
        q = ProbabilityVector((0.4, 0.4), 0.2)
        assert exhaustive_expected_estimator(q, 5, lambda c: 0.7) == pytest.approx(0.7)

    def test_linearity_in_counts(self):
        # E[n_cs / n] must equal q_cs exactly.
        q = ProbabilityVector((0.3, 0.5), 0.2)
        expectation = exhaustive_expected_estimator(q, 6, lambda c: c.cs / c.total)
        assert expectation == pytest.approx(0.2, abs=1e-14)

    def test_caps_enforced(self):
        q = ProbabilityVector((0.5, 0.5), 0.0)
        with pytest.raises(TooLarge):
            exhaustive_expected_estimator(q, 13, plugin_estimate)
        wide = ProbabilityVector((0.2,) * 4, 0.2)
        with pytest.raises(TooLarge):
            exhaustive_expected_estimator(wide, 3, plugin_estimate)


@pytest.fixture(scope="module")
def series():
    q = ProbabilityVector((0.45, 0.35), 0.20)
    return bias_curve(q, n_values=(1, 2, 5, 10), mc_repeats=50, seed=7)


MODIFIED_PLUGIN_CASES = [
    ProbabilityVector((0.45, 0.35), 0.20),
    ProbabilityVector((0.3, 0.2, 0.1), 0.4),
]


class TestBiasCurve:

    def test_labels_and_shape(self, series):
        assert series.n_values == (1, 2, 5, 10)
        assert series.labels == ("plugin", "bayes_mean(1)", "bayes_mode(1)")
        for label in series.labels:
            assert len(series.bias[label]) == 4
            assert len(series.stderr[label]) == 4

    def test_plugin_column_is_exact(self, series):
        # The plug-in expectation has a closed form: stderr must be zero and
        # the bias must match bias_plugin.
        q = ProbabilityVector((0.45, 0.35), 0.20)
        assert series.stderr["plugin"] == (0.0, 0.0, 0.0, 0.0)
        for n, b in zip(series.n_values, series.bias["plugin"]):
            assert b == pytest.approx(bias_plugin(q, n), abs=1e-12)

    def test_plugin_bias_negative_and_increasing(self, series):
        values = series.bias["plugin"]
        assert all(v < 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_mc_columns_have_uncertainty(self, series):
        assert all(s > 0.0 for s in series.stderr["bayes_mean(1)"])

    def test_deterministic(self):
        q = ProbabilityVector((0.6, 0.3), 0.1)
        kwargs = dict(n_values=(1, 3), mc_repeats=10, seed=11)
        a = bias_curve(q, **kwargs)
        b = bias_curve(q, **kwargs)
        assert a.bias == b.bias
        assert a.stderr == b.stderr

    def test_estimator_subset(self):
        q = ProbabilityVector((0.6, 0.3), 0.1)
        series = bias_curve(q, n_values=(1, 2), estimators=("plugin",), mc_repeats=5, seed=0)
        assert series.labels == ("plugin",)
        # Other subsets, in orders other than the default: labels follow the
        # order given, and each column is the one the full curve has.
        full = reference_bias_curve(q, (1, 2), MeasureKind.NEW, mc_repeats=5, seed=0)
        for estimators in [("bayes_mode", "plugin"), ("bayes_mean",)]:
            series = bias_curve(q, n_values=(1, 2), estimators=estimators, mc_repeats=5, seed=0)
            labels = tuple(name if name == "plugin" else f"{name}(1)" for name in estimators)
            assert series.labels == labels
            assert series == BiasSeries(
                n_values=(1, 2),
                labels=labels,
                bias={label: full.bias[label] for label in labels},
                stderr={label: full.stderr[label] for label in labels},
            )

    def test_unknown_estimator_rejected(self):
        q = ProbabilityVector((0.6, 0.3), 0.1)
        with pytest.raises(DomainError):
            bias_curve(q, n_values=(1, 2), estimators=("bogus",), mc_repeats=5, seed=0)

    @pytest.mark.parametrize(
        "estimators",
        [("plugin", "plugin"), ("bayes_mean", "bayes_mean"), ("plugin", "bayes_mode", "bayes_mode")],
    )
    def test_repeated_estimator_rejected_before_any_draw(self, estimators, sfc64_streams):
        q = ProbabilityVector((0.5, 0.3), 0.2)
        with pytest.raises(DomainError, match=f"estimator '{estimators[-1]}' is listed more"):
            bias_curve(q, n_values=(1, 2), estimators=estimators, mc_repeats=3, seed=0)
        assert sfc64_streams == []

    @pytest.mark.parametrize("mc_repeats", [0, -1])
    def test_nonpositive_repeats_rejected(self, mc_repeats):
        q = ProbabilityVector((0.45, 0.35), 0.20)
        with pytest.raises(DomainError):
            bias_curve(q, n_values=(1, 20), mc_repeats=mc_repeats, seed=0)
        with pytest.raises(DomainError):
            bias_curve(
                q, n_values=(1, 20), estimators=("plugin",), measure=MeasureKind.OLD,
                mc_repeats=mc_repeats, seed=0,
            )

    @pytest.mark.parametrize("n_values", [(100, 5), (5, 5), (5, 0)])
    def test_bad_n_values_rejected_before_any_draw(self, n_values, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a posterior sample before validating n_values")

        monkeypatch.setattr(frequentist, "sample_transformed", no_draws)
        q = ProbabilityVector((0.45, 0.35), 0.20)
        with pytest.raises(DomainError):
            bias_curve(q, n_values=n_values, mc_repeats=3, seed=0)

    @pytest.mark.parametrize("prior_beta", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("estimators", [("plugin",), ("plugin", "bayes_mean")])
    def test_prior_must_be_positive_and_finite(self, prior_beta, estimators, monkeypatch):
        # Refused before any work, even when no Bayes column would use it.
        def no_work(*args, **kwargs):
            raise AssertionError("worked before validating prior_beta")

        monkeypatch.setattr(frequentist, "ambiguity", no_work)
        q = ProbabilityVector((0.5, 0.3), 0.2)
        with pytest.raises(DomainError):
            bias_curve(q, n_values=(1, 2), estimators=estimators, prior_beta=prior_beta)

    def test_estimator_names_constant(self):
        assert ESTIMATOR_NAMES == ("plugin", "bayes_mean", "bayes_mode")

    @pytest.mark.parametrize("q", MODIFIED_PLUGIN_CASES)
    def test_modified_plugin_column_matches_enumeration(self, q):
        n_values = (1, 2, 5, 8, 12)
        series = bias_curve(
            q, n_values=n_values, estimators=("plugin",), measure=MeasureKind.MODIFIED
        )
        truth = ambiguity(q, MeasureKind.MODIFIED)
        assert series.stderr["plugin"] == (0.0,) * len(n_values)
        for n, bias in zip(n_values, series.bias["plugin"]):
            expectation = exhaustive_expected_estimator(
                q, n, lambda cv: plugin_estimate(cv, MeasureKind.MODIFIED)
            )
            assert bias + truth == pytest.approx(expectation, abs=1e-14)

    @pytest.mark.parametrize("q", MODIFIED_PLUGIN_CASES)
    def test_modified_plugin_column_matches_mc_beyond_enumeration(self, q):
        # Past the enumeration caps the column stays exact; check it against
        # an independent 400k-draw multinomial sample of the plug-in.
        n_values = (20, 50)
        series = bias_curve(
            q, n_values=n_values, estimators=("plugin",), measure=MeasureKind.MODIFIED
        )
        truth = ambiguity(q, MeasureKind.MODIFIED)
        assert series.stderr["plugin"] == (0.0, 0.0)
        pvals = np.array([*q.proper, q.cs])
        n_cat = q.n_proper
        rng = np.random.default_rng(20260)
        for n, bias in zip(n_values, series.bias["plugin"]):
            freq = rng.multinomial(n, pvals, size=400_000) / n
            f_cs = freq[:, -1]
            one_minus = 1.0 - f_cs
            with np.errstate(divide="ignore", invalid="ignore"):
                flip = one_minus - (freq[:, :-1] ** 2).sum(axis=1) / one_minus
            values = np.where(f_cs == 1.0, 1.0, f_cs + n_cat / (n_cat - 1.0) * flip)
            se = values.std() / math.sqrt(values.size)
            assert abs(bias + truth - values.mean()) < 5.0 * se


OLD_PLUGIN_CASES = [
    ProbabilityVector((0.45, 0.35), 0.20),
    ProbabilityVector((0.5, 0.5), 0.0),
    ProbabilityVector((0.4, 0.3, 0.2), 0.1),
    ProbabilityVector((0.7, 0.0, 0.2), 0.1),
    ProbabilityVector((0.13, 0.29, 0.31), 0.27),
]


@pytest.mark.parametrize("q", OLD_PLUGIN_CASES)
def test_old_plugin_column_equals_enumeration_at_every_n(q):
    # Equal to the enumeration oracle within rounding: the column sums
    # binomial terms, the oracle multinomial ones.
    n_values = tuple(range(1, 13))
    series = bias_curve(q, n_values=n_values, estimators=("plugin",), measure=MeasureKind.OLD)
    truth = ambiguity(q, MeasureKind.OLD)
    assert series.stderr["plugin"] == (0.0,) * len(n_values)
    for n, bias in zip(n_values, series.bias["plugin"]):
        expectation = exhaustive_expected_estimator(
            q, n, lambda cv: plugin_estimate(cv, MeasureKind.OLD)
        )
        assert bias + truth == pytest.approx(expectation, abs=1e-14)
        assert bias_plugin(q, n, MeasureKind.OLD) == bias


C4_OLD_CASE = ProbabilityVector((0.3, 0.25, 0.2, 0.1), 0.15)


def binom_oracle_old_plugin(q, n):
    """E[old plug-in] from scipy's binomial pmf: the cs count m ~ Bin(n, c),
    then each proper count ~ Bin(n - m, q_k / (1 - c))."""
    binom = scipy.stats.binom
    n_cat = q.n_proper
    conditional = np.array(q.proper) / (1.0 - q.cs)
    cs_pmf = binom.pmf(np.arange(n + 1), n, q.cs)
    total = 0.0
    for m in range(n + 1):
        solvable = n - m
        b = np.arange(solvable + 1)
        pmf = binom.pmf(b[None, :], solvable, conditional[:, None])
        total += cs_pmf[m] * float((pmf * np.abs(b - solvable / n_cat)).sum())
    return 1.0 - n_cat / (2.0 * (n_cat - 1.0)) * total / n


@pytest.mark.parametrize("n", [100, 500, 2000])
@pytest.mark.parametrize("q", [OLD_PLUGIN_CASES[0], OLD_PLUGIN_CASES[3], C4_OLD_CASE])
def test_old_plugin_matches_binomial_oracle(q, n):
    assert expected_plugin(q, n, MeasureKind.OLD) == pytest.approx(
        binom_oracle_old_plugin(q, n), abs=1e-12
    )


@pytest.mark.parametrize("n", [5, 20, 100])
def test_old_plugin_matches_multinomial_sample_at_four_categories(n):
    # Beyond the enumeration caps in C: an independent 400k-draw sample of
    # the plug-in, with the total-variation formula written out here.
    q = C4_OLD_CASE
    counts = np.random.default_rng(4100 + n).multinomial(n, [*q.proper, q.cs], size=400_000)
    solvable = n - counts[:, -1]
    spread = np.abs(counts[:, :-1] - solvable[:, None] / 4.0).sum(axis=1)
    values = 1.0 - (4.0 / 6.0) * spread / n
    se = values.std() / math.sqrt(values.size)
    assert abs(expected_plugin(q, n, MeasureKind.OLD) - values.mean()) < 5.0 * se


class TestOldPluginEdgeCases:
    def test_no_cant_solve_mass(self):
        # C = 2, q_cs = 0: the plug-in is 1 - |2 n_1 - n| / n, summed
        # directly with exact binomial coefficients at odd and even n.
        p = 0.62
        q = ProbabilityVector((p, 1.0 - p), 0.0)
        for n in (1, 2, 7, 8, 99, 100):
            direct = 1.0 - math.fsum(
                math.comb(n, b) * p**b * (1.0 - p) ** (n - b) * abs(2 * b - n) / n
                for b in range(n + 1)
            )
            assert expected_plugin(q, n, MeasureKind.OLD) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("measure", list(MeasureKind))
    def test_all_mass_on_cant_solve_gives_one(self, measure):
        q = ProbabilityVector((0.0, 0.0), 1.0)
        for n in (1, 5, 2000):
            assert expected_plugin(q, n, measure) == 1.0
            assert bias_plugin(q, n, measure) == 0.0

    def test_zero_proper_entries(self):
        # One proper category empty, and all proper mass on one category:
        # the binomials at p = 0 and p = 1 are point masses.
        for q in (ProbabilityVector((0.0, 0.5, 0.3), 0.2), ProbabilityVector((0.8, 0.0), 0.2)):
            for n in (1, 6, 12):
                enumerated = exhaustive_expected_estimator(
                    q, n, lambda cv: plugin_estimate(cv, MeasureKind.OLD)
                )
                exact = expected_plugin(q, n, MeasureKind.OLD)
                assert exact == pytest.approx(enumerated, abs=1e-14)
            exact = expected_plugin(q, 300, MeasureKind.OLD)
            assert exact == pytest.approx(binom_oracle_old_plugin(q, 300), abs=1e-12)

    def test_single_proper_category_rejected(self):
        q = ProbabilityVector((0.6,), 0.4)
        for measure in (MeasureKind.MODIFIED, MeasureKind.OLD):
            with pytest.raises(SingleCategoryUnsupported):
                expected_plugin(q, 5, measure)
        # At C = 1 the new measure is the can't-solve frequency, unbiased.
        assert expected_plugin(q, 5) == pytest.approx(0.4, abs=1e-15)

    def test_memory_stays_linear_in_n(self):
        # A full (n + 1)^2 pmf table would take 32 MB here.
        tracemalloc.start()
        try:
            expected_plugin(C4_OLD_CASE, 2000, MeasureKind.OLD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_bias_curve(q, n_values, measure, mc_repeats, seed):
    """bias_curve written out as a plain loop under a flat prior: counts
    from the stream (seed, (n_index,)), then for each repeat a fresh
    posterior sample of 20 000 draws from its own substream (seed,
    (n_index, r)) by gamma_reference's column rule, and its mode from
    np.histogram."""
    pvals = np.array([*q.proper, q.cs])
    pvals = pvals / pvals.sum()
    truth = ambiguity(q, measure)
    labels = ("plugin", "bayes_mean(1)", "bayes_mode(1)")
    bias = {label: [] for label in labels}
    stderr = {label: [] for label in labels}
    for n_index, n in enumerate(n_values):
        bias["plugin"].append(expected_plugin(q, n, measure) - truth)
        stderr["plugin"].append(0.0)
        draws = make_generator(seed, (n_index,)).multinomial(n, pvals, size=mc_repeats)
        means = np.empty(mc_repeats)
        modes = np.empty(mc_repeats)
        for r, row in enumerate(draws):
            alpha = row + 1.0
            g = dirichlet_rows(alpha, 20_000, make_generator(seed, (n_index, r)))
            values = ambiguity_array(g[:, :-1], g[:, -1], measure)
            if measure is MeasureKind.OLD:
                means[r] = float(values.mean())
            else:
                post = DirichletParams(proper=tuple(alpha[:-1]), cs=alpha[-1])
                means[r] = posterior_mean_sd(post, measure)[0]
            hist, edges = np.histogram(values, bins=MODE_BINS, range=(0.0, 1.0))
            top = int(np.argmax(hist))
            modes[r] = float(0.5 * (edges[top] + edges[top + 1]))
        for label, estimates in (("bayes_mean(1)", means), ("bayes_mode(1)", modes)):
            bias[label].append(float(estimates.mean()) - truth)
            stderr[label].append(float(estimates.std() / math.sqrt(mc_repeats)))
    return BiasSeries(
        n_values=tuple(n_values),
        labels=labels,
        bias={k: tuple(v) for k, v in bias.items()},
        stderr={k: tuple(v) for k, v in stderr.items()},
    )


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
@pytest.mark.parametrize("measure", list(MeasureKind))
def test_bias_curve_equals_reference_loop(measure, cpus, usable_cpus):
    # The repeats run on as many threads as there are usable CPUs (at
    # most the 12 repeats), and the curve is the plain loop's at each.
    usable_cpus(cpus)
    q = ProbabilityVector((0.5, 0.3), 0.2)
    kwargs = dict(measure=measure, mc_repeats=6, seed=17)
    expected = reference_bias_curve(q, (2, 7), **kwargs)
    threads = threading.active_count()
    assert bias_curve(q, n_values=(2, 7), **kwargs) == expected
    assert threading.active_count() == threads


@pytest.mark.parametrize("measure", list(MeasureKind))
def test_bias_curve_draws_each_repeat_substream_once(measure, sfc64_streams):
    # Both Bayes columns share repeat r's posterior sample, so its substream
    # (seed, (n_index, r)) is built once, next to one counts stream per n.
    q = ProbabilityVector((0.5, 0.3), 0.2)
    bias_curve(q, n_values=(2, 7), measure=measure, mc_repeats=6, seed=17)
    assert sorted(sfc64_streams) == sorted(
        [(17, (0,)), (17, (1,))] + [(17, (i, r)) for i in range(2) for r in range(6)]
    )


@pytest.mark.parametrize("measure", list(MeasureKind))
def test_plugin_only_bias_curve_draws_nothing(measure, sfc64_streams):
    q = ProbabilityVector((0.3, 0.25, 0.2, 0.1), 0.15)
    bias_curve(q, n_values=(1, 20, 100), estimators=("plugin",), measure=measure, seed=17)
    assert sfc64_streams == []


def test_plugin_only_bias_curve_ignores_a_huge_prior():
    # The plug-in uses no prior, so a prior too large for the posterior's
    # closed forms is not refused when it is the only estimator.
    q = ProbabilityVector((0.45, 0.35), 0.20)
    huge = bias_curve(q, n_values=(1, 20), estimators=("plugin",), prior_beta=1e160, seed=3)
    unit = bias_curve(q, n_values=(1, 20), estimators=("plugin",), seed=3)
    assert huge == unit
    with pytest.raises(DomainError, match=r"add up to more than 1e\+154"):
        bias_curve(q, n_values=(1, 20), estimators=("plugin", "bayes_mean"), prior_beta=1e160)


def test_bias_curve_closed_form_mean_draws_no_posterior_sample(sfc64_streams):
    q = ProbabilityVector((0.5, 0.3), 0.2)
    bias_curve(q, n_values=(2, 7), estimators=("plugin", "bayes_mean"), mc_repeats=6, seed=17)
    assert sfc64_streams == [(17, (0,)), (17, (1,))]


class TestBiasSeries:
    def test_validates_series_shapes(self):
        with pytest.raises(DomainError):
            BiasSeries(
                n_values=(1, 2),
                labels=("plugin",),
                bias={"plugin": (0.1,)},
                stderr={"plugin": (0.0, 0.0)},
            )

    def test_validates_n_values(self):
        with pytest.raises(DomainError):
            BiasSeries(
                n_values=(2, 2),
                labels=(),
                bias={},
                stderr={},
            )
        with pytest.raises(DomainError):
            BiasSeries(
                n_values=(0, 1),
                labels=(),
                bias={},
                stderr={},
            )
