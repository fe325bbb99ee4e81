"""Monte Carlo posterior layer: transformed-sample determinism and range,
sample means against closed-form moments, scalar summaries (including the
constant-sample mode convention), the histogram mode, the repeat-based
density uncertainty bands, and the per-count-vector posterior summary
against closed forms and an independent numpy Dirichlet sample.
"""

import math

import numpy as np
import pytest

from ambiq.exceptions import DomainError, TooFewSamples
from ambiq.frequentist import CountVector
from ambiq.measures import MeasureKind, ambiguity, ambiguity_array
from ambiq.numerics import DirichletParams, _dirichlet_draws, make_generator
from ambiq.posterior_analytics import (
    expected_amb,
    expected_amb_modified,
    posterior_moments,
    var_amb,
)
from ambiq.posterior_sampling import (
    MODE_BINS,
    DensityEstimate,
    MeasureSummary,
    PosteriorSummary,
    _sorted_quantiles,
    density_with_uncertainty,
    histogram_mode,
    posterior_mean_sd,
    posterior_summaries,
    posterior_summary,
    sample_transformed,
    summarize,
)

PARAMS = DirichletParams(proper=(2.0, 1.0, 3.0), cs=1.0)


class TestSampleTransformed:
    def test_deterministic(self):
        a = sample_transformed(PARAMS, MeasureKind.NEW, 2000, seed=3)
        b = sample_transformed(PARAMS, MeasureKind.NEW, 2000, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_sample(self):
        a = sample_transformed(PARAMS, MeasureKind.NEW, 2000, seed=3)
        b = sample_transformed(PARAMS, MeasureKind.NEW, 2000, seed=4)
        assert not np.array_equal(a, b)

    def test_values_in_unit_interval(self):
        for kind in MeasureKind:
            values = sample_transformed(PARAMS, kind, 5000, seed=1)
            assert values.shape == (5000,)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_mean_matches_closed_form(self):
        n = 200_000
        for kind, expected in (
            (MeasureKind.NEW, expected_amb(PARAMS)),
            (MeasureKind.MODIFIED, expected_amb_modified(PARAMS)),
        ):
            values = sample_transformed(PARAMS, kind, n, seed=8)
            se = float(np.std(values)) / math.sqrt(n)
            assert float(np.mean(values)) == pytest.approx(expected, abs=4 * se)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(DomainError):
            sample_transformed(PARAMS, MeasureKind.NEW, 0, seed=0)

    @pytest.mark.parametrize("stream", [(), (3,), (1, 4)])
    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_is_the_measure_of_the_streams_draws(self, kind, stream):
        values = sample_transformed(PARAMS, kind, 3000, 6, stream)
        proper, cs = _dirichlet_draws(PARAMS, 3000, make_generator(6, stream))
        np.testing.assert_array_equal(values, ambiguity_array(proper, cs, kind))


@pytest.fixture(scope="module")
def sample():
    return sample_transformed(PARAMS, MeasureKind.NEW, 50_000, seed=12)


class TestSummarize:

    def test_moments(self, sample):
        out = summarize(sample)
        assert out.mean == pytest.approx(float(np.mean(sample)), abs=1e-15)
        assert out.sd == pytest.approx(float(np.std(sample)), abs=1e-15)
        # Sanity against the analytic posterior moments at this sample size.
        assert out.mean == pytest.approx(expected_amb(PARAMS), abs=0.01)
        assert out.sd == pytest.approx(math.sqrt(var_amb(PARAMS)), abs=0.01)

    def test_default_quantile_levels(self, sample):
        out = summarize(sample)
        assert set(out.quantiles) == {0.025, 0.25, 0.5, 0.75, 0.975}
        for level, value in out.quantiles.items():
            assert value == float(np.quantile(sample, level))

    def test_credible_interval_equal_tailed(self, sample):
        out = summarize(sample, credible_mass=0.9)
        lo, hi, mass = out.credible_interval
        assert mass == 0.9
        tail = 0.5 * (1.0 - 0.9)  # 0.04999999999999999, as summarize computes it
        assert lo == float(np.quantile(sample, tail))
        assert hi == float(np.quantile(sample, 1.0 - tail))
        inside = np.mean((sample >= lo) & (sample <= hi))
        assert inside == pytest.approx(0.9, abs=0.01)

    def test_constant_sample_mode_is_the_constant(self):
        values = np.full(2000, 0.37)
        out = summarize(values)
        assert out.mode == 0.37
        assert out.sd == pytest.approx(0.0, abs=1e-15)
        assert out.credible_interval[0] == 0.37
        assert out.credible_interval[1] == 0.37

    def test_leaves_the_sample_unchanged(self, sample):
        before = sample.copy()
        summarize(sample, quantile_levels=(0.1, 0.5, 0.9))
        np.testing.assert_array_equal(sample, before)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            summarize(np.linspace(0.0, 1.0, 999))

    def test_rejects_out_of_range_values(self):
        values = np.linspace(0.0, 1.0, 2000).copy()
        values[7] = 1.5
        with pytest.raises(DomainError):
            summarize(values)

    def test_rejects_nan(self):
        values = np.linspace(0.0, 1.0, 2000).copy()
        values[0] = math.nan
        with pytest.raises(DomainError):
            summarize(values)

    def test_rejects_bad_credible_mass(self):
        values = np.linspace(0.0, 1.0, 2000)
        with pytest.raises(DomainError):
            summarize(values, credible_mass=1.0)
        with pytest.raises(DomainError):
            summarize(values, credible_mass=0.0)

    def test_custom_quantile_levels(self, sample):
        out = summarize(sample, quantile_levels=(0.1, 0.9))
        assert set(out.quantiles) == {0.1, 0.9}
        assert out.quantiles[0.1] <= out.quantiles[0.9]

    def test_summary_type_validates(self):
        with pytest.raises(DomainError):
            PosteriorSummary(
                mean=0.5,
                mode=0.5,
                sd=0.1,
                quantiles={0.25: 0.6, 0.75: 0.4},
                credible_interval=(0.3, 0.7, 0.95),
            )
        with pytest.raises(DomainError):
            PosteriorSummary(
                mean=0.5,
                mode=0.5,
                sd=0.1,
                quantiles={0.5: 0.5},
                credible_interval=(0.7, 0.3, 0.95),
            )


class TestSortedQuantiles:
    """_sorted_quantiles against np.quantile, compared as floats with ==."""

    # Fixed levels, then the (tail, 1 - tail) pair of each credible mass,
    # computed as posterior_summaries and summarize compute them.
    LEVELS = [0.0, 1.0, 0.025, 0.25, 0.5, 0.75, 0.975, 0.1, 1.0 / 3.0] + [
        level
        for mass in (0.5, 0.9, 0.95, 0.99)
        for level in (0.5 * (1.0 - mass), 1.0 - 0.5 * (1.0 - mass))
    ]

    @pytest.mark.parametrize("n", [1, 2, 1000, 20_000, 100_001])
    def test_equals_numpy_quantile(self, n):
        x = np.random.default_rng(n).random(n)
        expected = np.quantile(x, self.LEVELS)
        got = _sorted_quantiles(np.sort(x), self.LEVELS)
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [2, 1000, 20_000, 100_001])
    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_equals_numpy_quantile_with_ties(self, n, decimals):
        x = np.round(np.random.default_rng([n, decimals]).beta(2.0, 5.0, n), decimals)
        expected = np.quantile(x, self.LEVELS)
        got = _sorted_quantiles(np.sort(x), self.LEVELS)
        assert got.tolist() == expected.tolist()

    def test_random_levels(self):
        rng = np.random.default_rng(31)
        for n in (3, 17, 999, 4097):
            x = rng.random(n)
            levels = rng.random(50)
            assert _sorted_quantiles(np.sort(x), levels).tolist() == np.quantile(x, levels).tolist()

    def test_no_levels(self):
        assert _sorted_quantiles(np.sort(np.random.default_rng(2).random(10)), ()).size == 0


def reference_mode(values):
    """The histogram-mode convention computed with np.histogram itself."""
    values = np.asarray(values, dtype=float)
    low = float(values.min())
    if low == float(values.max()):
        return low
    hist, edges = np.histogram(values, bins=MODE_BINS, range=(0.0, 1.0))
    top = int(np.argmax(hist))
    return float(0.5 * (edges[top] + edges[top + 1]))


class TestHistogramMode:
    def test_constant_sample(self):
        assert histogram_mode(np.full(50, 0.42)) == 0.42

    def test_bump_lands_in_right_bin(self):
        rng = np.random.default_rng(6)
        values = np.clip(rng.normal(0.3, 0.01, size=20_000), 0.0, 1.0)
        mode = histogram_mode(values)
        # Mode convention: midpoint of the argmax bin of MODE_BINS fixed
        # bins on [0, 1].
        bin_index = int(mode * MODE_BINS)
        assert abs(mode - (bin_index + 0.5) / MODE_BINS) < 1e-12
        assert abs(mode - 0.3) < 2.0 / MODE_BINS

    def test_unimodal_beta_like_sample(self):
        values = sample_transformed(PARAMS, MeasureKind.MODIFIED, 100_000, seed=2)
        mode = histogram_mode(values)
        assert 0.0 <= mode <= 1.0

    @pytest.mark.parametrize(
        "case",
        [
            "random",
            "edges",
            "below_edges",
            "zero_and_one",
            "one_wins",
            "constant",
            "outside",
            "nan",
        ],
    )
    def test_same_result_as_numpy_histogram(self, case):
        rng = np.random.default_rng(12)
        edges = np.arange(MODE_BINS + 1) / MODE_BINS
        values = {
            "random": rng.beta(2.0, 5.0, size=20_000),
            # Values on the edges k/256, most of them on one edge.
            "edges": np.concatenate([edges, np.full(5, edges[77])]),
            "below_edges": np.concatenate(
                [np.nextafter(edges[1:], 0.0), np.full(5, np.nextafter(edges[78], 0.0))]
            ),
            "zero_and_one": np.array([0.0, 0.0, 1.0, 0.5]),
            # 1.0 belongs to the last bin, which must win here.
            "one_wins": np.array([1.0, 1.0, 1.0, 0.999, 0.2]),
            "constant": np.full(100, 0.3),
            "outside": np.concatenate([rng.uniform(-0.1, 1.1, size=5000), [0.4] * 40]),
            "nan": np.concatenate([rng.beta(2.0, 5.0, size=5000), [np.nan]]),
        }[case]
        assert histogram_mode(values) == reference_mode(values)


@pytest.fixture(scope="module")
def estimate():
    return density_with_uncertainty(
        PARAMS, MeasureKind.NEW, samples_per_repeat=20_000, bins=64, repeats=20, seed=5
    )


class TestDensityWithUncertainty:

    def test_shapes(self, estimate):
        assert estimate.bin_edges.shape == (65,)
        assert estimate.median_density.shape == (64,)
        assert estimate.iqr_lo.shape == (64,)
        assert estimate.iqr_hi.shape == (64,)

    def test_band_ordering(self, estimate):
        assert np.all(estimate.iqr_lo <= estimate.median_density + 1e-12)
        assert np.all(estimate.median_density <= estimate.iqr_hi + 1e-12)

    def test_median_density_normalizes(self, estimate):
        widths = np.diff(estimate.bin_edges)
        mass = float(np.sum(estimate.median_density * widths))
        assert mass == pytest.approx(1.0, abs=0.02)

    def test_deterministic(self):
        kwargs = dict(samples_per_repeat=5000, bins=32, repeats=5, seed=9)
        a = density_with_uncertainty(PARAMS, MeasureKind.OLD, **kwargs)
        b = density_with_uncertainty(PARAMS, MeasureKind.OLD, **kwargs)
        np.testing.assert_array_equal(a.median_density, b.median_density)
        np.testing.assert_array_equal(a.iqr_lo, b.iqr_lo)

    def test_estimate_type_validates_lengths(self):
        with pytest.raises(DomainError):
            DensityEstimate(
                bin_edges=np.linspace(0, 1, 5),
                median_density=np.ones(3),
                iqr_lo=np.ones(4),
                iqr_hi=np.ones(4),
            )


class TestPosteriorSummary:
    COUNTS = CountVector(proper=(4, 0, 2), cs=1)
    POSTERIOR = DirichletParams(proper=(5.0, 1.0, 3.0), cs=2.0)

    @pytest.fixture(scope="class")
    def summary(self):
        return posterior_summary(self.COUNTS, mc_samples=20_000, credible_mass=0.9, seed=4)

    @pytest.fixture(scope="class")
    def reference(self):
        """Independent 200k-draw sample: numpy's PCG64 Dirichlet sampler."""
        rng = np.random.default_rng(20251018)
        draws = rng.dirichlet(self.POSTERIOR.as_array(), size=200_000)
        return {m.value: ambiguity_array(draws[:, :-1], draws[:, -1], m) for m in MeasureKind}

    def test_quadratic_measures_take_exact_moments(self, summary):
        for kind in (MeasureKind.NEW, MeasureKind.MODIFIED):
            moments = posterior_moments(self.POSTERIOR, kind)
            assert summary[kind.value].posterior_mean == pytest.approx(moments.mean, abs=1e-12)
            assert summary[kind.value].posterior_sd == pytest.approx(moments.sd, abs=1e-12)

    def test_old_moments_agree_with_independent_sample(self, summary, reference):
        ref = reference["old"]
        n, n_ref = 20_000, ref.size
        sd = float(ref.std())
        mean_se = sd * math.sqrt(1.0 / n + 1.0 / n_ref)
        assert summary["old"].posterior_mean == pytest.approx(float(ref.mean()), abs=5 * mean_se)
        # Standard error of a sample sd: sqrt((m4 - sd^4) / (4 sd^2 n)).
        m4 = float(np.mean((ref - ref.mean()) ** 4))
        sd_se = math.sqrt((m4 - sd**4) / (4 * sd**2)) * math.sqrt(1.0 / n + 1.0 / n_ref)
        assert summary["old"].posterior_sd == pytest.approx(sd, abs=5 * sd_se)

    def test_interval_bounds_agree_with_independent_sample(self, summary, reference):
        # Checked in probability: the reference share below each bound is
        # the nominal tail within the Monte Carlo error of both samples.
        tail = 0.05
        se = math.sqrt(tail * (1.0 - tail) * (1.0 / 20_000 + 1.0 / 200_000))
        for name, ref in reference.items():
            below_lo = float(np.mean(ref < summary[name].credible_lo))
            above_hi = float(np.mean(ref > summary[name].credible_hi))
            assert below_lo == pytest.approx(tail, abs=5 * se)
            assert above_hi == pytest.approx(tail, abs=5 * se)

    def test_old_moments_and_intervals_are_those_of_the_stream(self, summary):
        # The values are sorted for the interval only after the mean and sd
        # are taken, so both equal the unsorted sample's, and the interval
        # equals np.quantile's on the same stream's draws.
        stream = (3, *self.COUNTS.proper, self.COUNTS.cs)
        proper, cs = _dirichlet_draws(self.POSTERIOR, 20_000, make_generator(4, stream))
        tail = 0.5 * (1.0 - 0.9)
        for kind in MeasureKind:
            values = ambiguity_array(proper, cs, kind)
            lo, hi = np.quantile(values, [tail, 1.0 - tail])
            assert summary[kind.value].credible_lo == float(lo)
            assert summary[kind.value].credible_hi == float(hi)
            if kind is MeasureKind.OLD:
                assert summary["old"].posterior_mean == float(values.mean())
                assert summary["old"].posterior_sd == float(values.std())

    def test_plugin_values(self, summary):
        q = self.COUNTS.as_probability_vector()
        for kind in MeasureKind:
            assert summary[kind.value].plugin == ambiguity(q, kind)

    def test_stream_keyed_on_counts(self, summary):
        again = posterior_summary(self.COUNTS, mc_samples=20_000, credible_mass=0.9, seed=4)
        assert again == summary
        other_seed = posterior_summary(self.COUNTS, mc_samples=20_000, credible_mass=0.9, seed=5)
        assert other_seed["old"].posterior_mean != summary["old"].posterior_mean

    def test_many_vectors_match_one_at_a_time(self):
        vectors = [
            CountVector(proper=(2, 1), cs=0),
            CountVector(proper=(4, 0, 2), cs=1),
            CountVector(proper=(2, 1), cs=0),
            CountVector(proper=(0, 3), cs=2),
        ]
        together = posterior_summaries(vectors, mc_samples=2000, seed=7)
        assert list(together) == [vectors[0], vectors[1], vectors[3]]
        for counts in vectors:
            assert together[counts] == posterior_summary(counts, mc_samples=2000, seed=7)

    def test_prior_only_counts(self):
        out = posterior_summary(CountVector(proper=(0, 0), cs=0), measures=(MeasureKind.NEW,))
        assert list(out) == ["new"]
        assert out["new"].plugin is None
        # Prior Dir(1, 1 | 1): mean 5/9.
        assert out["new"].posterior_mean == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_rejects_bad_settings(self):
        with pytest.raises(TooFewSamples):
            posterior_summary(self.COUNTS, mc_samples=999)
        with pytest.raises(DomainError):
            posterior_summary(self.COUNTS, credible_mass=1.0)
        with pytest.raises(DomainError):
            posterior_summary(self.COUNTS, prior_beta=0.0)
        with pytest.raises(DomainError):
            posterior_summary(self.COUNTS, measures=())


class TestMeasureSummary:
    def test_inverted_interval_rejected(self):
        with pytest.raises(DomainError):
            MeasureSummary(
                plugin=0.0,
                posterior_mean=0.3,
                posterior_sd=0.1,
                credible_lo=0.8,
                credible_hi=0.2,
            )


class TestPosteriorMeanSd:
    def test_old_measure_needs_a_sample(self):
        with pytest.raises(DomainError):
            posterior_mean_sd(PARAMS, MeasureKind.OLD)
        values = sample_transformed(PARAMS, MeasureKind.OLD, 2000, seed=1)
        assert posterior_mean_sd(PARAMS, MeasureKind.OLD, values) == (
            float(values.mean()),
            float(values.std()),
        )
