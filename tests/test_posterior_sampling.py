"""Monte Carlo posterior layer: transformed-sample determinism and range,
sample means against closed-form moments, sorted-sample quantiles and
intervals by selection against np.quantile (including a constant sample),
the histogram mode, the repeat-based density uncertainty bands, the
per-count-vector posterior summary against closed forms and an independent
numpy Dirichlet sample, and the threads that run independent streams:
results that do not depend on the CPU count, the serial loop's error, and
no thread left behind.
"""

import collections
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ambiq.exceptions import DomainError, SingleCategoryUnsupported, TooFewSamples
from ambiq.measures import CountVector, MeasureKind, ambiguity_array, measure_arrays
from ambiq.numerics import DirichletParams, _dirichlet_draws, make_generator
from ambiq.posterior_analytics import (
    expected_amb,
    expected_amb_modified,
    posterior_mean_sd,
    posterior_update,
)
from ambiq.posterior_sampling import (
    MODE_BINS,
    DensityEstimate,
    MeasureSummary,
    _THREADED_MIN_DRAWS,
    _run_tasks,
    _sample_rows,
    _selected_interval,
    _sorted_quantiles,
    _type7_point,
    density_with_uncertainty,
    histogram_mode,
    posterior_summaries,
    sample_transformed,
)
from plugin_oracle import measures_of, plugin_fraction, random_count_vectors

PARAMS = DirichletParams(proper=(2.0, 1.0, 3.0), cs=1.0)


class TestSampleTransformed:
    def test_deterministic(self):
        a = sample_transformed(PARAMS, (MeasureKind.NEW,), 2000, seed=3)[0]
        b = sample_transformed(PARAMS, (MeasureKind.NEW,), 2000, seed=3)[0]
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_sample(self):
        a = sample_transformed(PARAMS, (MeasureKind.NEW,), 2000, seed=3)[0]
        b = sample_transformed(PARAMS, (MeasureKind.NEW,), 2000, seed=4)[0]
        assert not np.array_equal(a, b)

    def test_values_in_unit_interval(self):
        for kind in MeasureKind:
            values = sample_transformed(PARAMS, (kind,), 5000, seed=1)[0]
            assert values.shape == (5000,)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_mean_matches_closed_form(self):
        n = 200_000
        for kind, expected in (
            (MeasureKind.NEW, expected_amb(PARAMS)),
            (MeasureKind.MODIFIED, expected_amb_modified(PARAMS)),
        ):
            values = sample_transformed(PARAMS, (kind,), n, seed=8)[0]
            se = float(np.std(values)) / math.sqrt(n)
            assert float(np.mean(values)) == pytest.approx(expected, abs=4 * se)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(DomainError):
            sample_transformed(PARAMS, (MeasureKind.NEW,), 0, seed=0)

    @pytest.mark.parametrize("stream", [(), (3,), (1, 4)])
    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_is_the_measure_of_the_streams_draws(self, kind, stream):
        values = sample_transformed(PARAMS, (kind,), 3000, 6, stream)[0]
        proper, cs = _dirichlet_draws(PARAMS, 3000, make_generator(6, stream))
        np.testing.assert_array_equal(values, ambiguity_array(proper, cs, kind))

    @pytest.mark.parametrize(
        "kinds",
        [tuple(MeasureKind), (MeasureKind.OLD, MeasureKind.NEW, MeasureKind.OLD)],
    )
    def test_one_draw_feeds_every_measure(self, kinds):
        # One row per measure, in order, from the stream's one sample; a
        # buffer of C + 1 + len(kinds) + 2 rows holds draws and workspace.
        proper, cs = _dirichlet_draws(PARAMS, 3000, make_generator(6, (2,)))
        expected = measure_arrays(proper, cs, kinds)
        out = np.full((PARAMS.n_proper + 1 + len(kinds) + 2, 3000), np.nan)
        for buffer in (None, out):
            rows = sample_transformed(PARAMS, kinds, 3000, 6, (2,), out=buffer)
            assert rows.shape == (len(kinds), 3000)
            np.testing.assert_array_equal(rows, expected)
        assert np.shares_memory(rows, out)

    @pytest.mark.parametrize("n_measures", [1, 2, 3])
    @pytest.mark.parametrize("n_proper", [1, 2, 3, 4])
    def test_reused_buffer_gives_the_same_values(self, n_proper, n_measures):
        params = DirichletParams(proper=tuple(1.0 + 0.5 * k for k in range(n_proper)), cs=0.7)
        # Modified and total variation need C >= 2.
        kinds = (MeasureKind.NEW,) * n_measures
        if n_proper > 1:
            kinds = tuple(MeasureKind)[:n_measures]
        out = np.empty((_sample_rows(n_proper, n_measures), 3000))
        for stream in [(), (3,), (1, 4)]:
            values = sample_transformed(params, kinds, 3000, 6, stream, out=out)
            assert np.shares_memory(values, out)
            np.testing.assert_array_equal(
                values, sample_transformed(params, kinds, 3000, 6, stream)
            )


class TestSortedQuantiles:
    """_sorted_quantiles against np.quantile, compared as floats with ==."""

    # Fixed levels, then the (tail, 1 - tail) pair of each credible mass,
    # computed as posterior_summaries and `ambiq posterior` compute them.
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

    def test_constant_sample(self):
        # Every quantile, the credible interval's ends included, and the
        # histogram mode of a constant sample are the constant.
        values = np.full(2000, 0.37)
        assert set(_sorted_quantiles(values, self.LEVELS).tolist()) == {0.37}
        assert histogram_mode(values) == 0.37
        assert float(np.std(values)) == pytest.approx(0.0, abs=1e-15)

    def test_no_levels(self):
        assert _sorted_quantiles(np.sort(np.random.default_rng(2).random(10)), ()).size == 0


# Credible masses from nearly none to nearly all: at 1e-5 and n = 20 000
# both levels read the same pair of order statistics.
INTERVAL_MASSES = [1e-5, 1e-3, 0.5, 0.95, 0.9999, 1.0 - 1e-6]


def interval_levels(mass):
    """(tail, 1 - tail), computed as posterior_summaries computes them."""
    tail = 0.5 * (1.0 - mass)
    return tail, 1.0 - tail


class TestSelectedInterval:
    """_selected_interval against np.quantile, compared as floats with ==."""

    @staticmethod
    def check(x, mass):
        levels = interval_levels(mass)
        expected = np.quantile(x, levels).tolist()
        work = x.copy()
        assert list(_selected_interval(work, *levels)) == expected
        # The partitions only reorder the sample.
        assert np.array_equal(np.sort(work), np.sort(x))

    @pytest.mark.parametrize("mass", INTERVAL_MASSES)
    @pytest.mark.parametrize("n", [1000, 1001, 20_000, 20_001])
    def test_equals_numpy_quantile(self, n, mass):
        rng = np.random.default_rng([n, 1])
        self.check(rng.random(n), mass)
        # Far-apart order statistics, where interpolating from the wrong
        # end shows in the last bits.
        self.check(rng.standard_exponential(n) ** 4, mass)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_random_level_pairs(self, n):
        # Many (k, k1) pairs of both levels: partition guarantees only that
        # x[k] lands at k, not that its neighbours are x[k - 1] and x[k + 1].
        rng = np.random.default_rng([n, 2])
        x = rng.random(n)
        pairs = np.sort(rng.random((1000, 2)), axis=1).tolist()
        # And pairs whose upper k is the lower k1, or the order statistic
        # just above it.
        pairs += [
            ((k + 0.3) / (n - 1), (k + step) / (n - 1)) for k in range(n - 3) for step in (1.6, 2.6)
        ]
        for lo, hi in pairs:
            expected = np.quantile(x, [lo, hi]).tolist()
            assert list(_selected_interval(x.copy(), lo, hi)) == expected

    @pytest.mark.parametrize("mass", INTERVAL_MASSES)
    @pytest.mark.parametrize("n", [1000, 1001, 20_000, 20_001])
    @pytest.mark.parametrize("decimals", [1, 2])
    def test_equals_numpy_quantile_with_ties(self, n, mass, decimals):
        x = np.round(np.random.default_rng([n, decimals]).beta(2.0, 5.0, n), decimals)
        self.check(x, mass)

    @pytest.mark.parametrize("mass", INTERVAL_MASSES)
    @pytest.mark.parametrize("n", [1000, 20_001])
    def test_constant_sample(self, n, mass):
        x = np.full(n, 0.37)
        self.check(x, mass)
        assert _selected_interval(x, *interval_levels(mass)) == (0.37, 0.37)

    @pytest.mark.parametrize("mass", INTERVAL_MASSES)
    @pytest.mark.parametrize("n", [1000, 1001, 20_000, 20_001])
    def test_samples_holding_exact_zeros_and_ones(self, n, mass):
        # A third of the sample at each end, as a measure at a vertex or
        # at the uniform vector gives them, so some order statistics the
        # levels read are 0 or 1 and some pairs span the jump.
        rng = np.random.default_rng([n, 3])
        x = rng.random(n)
        x[rng.permutation(n)[: 2 * (n // 3)]] = np.repeat([0.0, 1.0], n // 3)
        self.check(x, mass)

    @pytest.mark.parametrize("n", [20_000, 20_001])
    def test_levels_sharing_order_statistics(self, n):
        # At mass 1e-5 the upper level needs no order statistic above the
        # lower one's pair, so the second partition is not made.
        lo, hi = interval_levels(1e-5)
        (_, lower_k1, _), (upper_k, _, _) = _type7_point(n, lo), _type7_point(n, hi)
        assert upper_k <= lower_k1
        x = np.random.default_rng(n).random(n)
        for sample in (x, np.round(x, 2)):
            self.check(sample, 1e-5)

    def test_smallest_samples(self):
        # One value is the top of every level; two values share one pair.
        for x in (np.array([0.25]), np.array([0.75, 0.25]), np.array([0.5, 0.0, 1.0])):
            for mass in INTERVAL_MASSES:
                self.check(x, mass)


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
        values = sample_transformed(PARAMS, (MeasureKind.MODIFIED,), 100_000, seed=2)[0]
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
            "infinities",
            "all_nan",
            "all_outside",
            "nan_mixed",
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
            # Values outside [0, 1] and NaN fall in no bin, as in np.histogram.
            "infinities": np.array([np.inf, -np.inf, 0.7, 0.2, 0.7, np.inf, np.inf]),
            "all_nan": np.full(10, np.nan),
            "all_outside": np.array([2.0, 3.0, -0.5, np.nextafter(1.0, 2.0), -1e-300]),
            "nan_mixed": np.where(
                rng.uniform(size=3000) < 0.3, np.nan, rng.beta(5.0, 2.0, size=3000)
            ),
        }[case]
        assert histogram_mode(values) == reference_mode(values)
        # Bins written into a caller's longer, dirty float row pick the
        # same mode.
        scratch = np.full(len(values) + 3, np.nan)
        assert histogram_mode(values, _scratch=scratch) == reference_mode(values)


@pytest.fixture(scope="module")
def estimate():
    return density_with_uncertainty(PARAMS, MeasureKind.NEW, samples_per_repeat=20_000, seed=5)


class TestDensityWithUncertainty:

    def test_shapes(self, estimate):
        # The band's bins are the mode's.
        np.testing.assert_array_equal(estimate.bin_edges, np.arange(MODE_BINS + 1) / MODE_BINS)
        assert estimate.median_density.shape == (MODE_BINS,)
        assert estimate.iqr_lo.shape == (MODE_BINS,)
        assert estimate.iqr_hi.shape == (MODE_BINS,)

    def test_band_ordering(self, estimate):
        assert np.all(estimate.iqr_lo <= estimate.median_density + 1e-12)
        assert np.all(estimate.median_density <= estimate.iqr_hi + 1e-12)

    def test_median_density_normalizes(self, estimate):
        widths = np.diff(estimate.bin_edges)
        mass = float(np.sum(estimate.median_density * widths))
        assert mass == pytest.approx(1.0, abs=0.02)

    def test_deterministic(self):
        kwargs = dict(samples_per_repeat=5000, seed=9)
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


def summary_of(counts, **settings):
    """posterior_summaries of one count vector."""
    return posterior_summaries((counts,), **settings)[counts]


def canonical_of(counts):
    """The count multiset's representative: proper counts in non-increasing order."""
    return CountVector(tuple(sorted(counts.proper, reverse=True)), counts.cs)


def posterior_fields(summary):
    """Every field of a MeasureSummary but the plug-in."""
    return (summary.posterior_mean, summary.posterior_sd, summary.credible_lo, summary.credible_hi)


class TestPosteriorSummary:
    COUNTS = CountVector(proper=(4, 0, 2), cs=1)
    POSTERIOR = DirichletParams(proper=(5.0, 1.0, 3.0), cs=2.0)

    @pytest.fixture(scope="class")
    def summary(self):
        return summary_of(self.COUNTS, mc_samples=20_000, credible_mass=0.9, seed=4)

    @pytest.fixture(scope="class")
    def reference(self):
        """Independent 200k-draw sample: numpy's PCG64 Dirichlet sampler."""
        rng = np.random.default_rng(20251018)
        draws = rng.dirichlet(self.POSTERIOR.as_array(), size=200_000)
        return {m.value: ambiguity_array(draws[:, :-1], draws[:, -1], m) for m in MeasureKind}

    def test_quadratic_measures_take_exact_moments(self, summary):
        for kind in (MeasureKind.NEW, MeasureKind.MODIFIED):
            mean, sd = posterior_mean_sd(self.POSTERIOR, kind)
            assert summary[kind.value].posterior_mean == pytest.approx(mean, abs=1e-12)
            assert summary[kind.value].posterior_sd == pytest.approx(sd, abs=1e-12)

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
        # equals np.quantile's on the same stream's draws. The sample is
        # that of the count multiset: the canonical vector (4, 2, 0 | 1),
        # its posterior and its stream.
        canonical = DirichletParams(proper=(5.0, 3.0, 1.0), cs=2.0)
        stream = (3, 4, 2, 0, self.COUNTS.cs)
        proper, cs = _dirichlet_draws(canonical, 20_000, make_generator(4, stream))
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
        for kind in MeasureKind:
            assert summary[kind.value].plugin == float(plugin_fraction(self.COUNTS, kind))

    def test_stream_keyed_on_counts(self, summary):
        again = summary_of(self.COUNTS, mc_samples=20_000, credible_mass=0.9, seed=4)
        assert again == summary
        other_seed = summary_of(self.COUNTS, mc_samples=20_000, credible_mass=0.9, seed=5)
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
            assert together[counts] == summary_of(counts, mc_samples=2000, seed=7)

    def test_prior_only_counts(self):
        out = summary_of(CountVector(proper=(0, 0), cs=0), measures=(MeasureKind.NEW,))
        assert list(out) == ["new"]
        assert out["new"].plugin is None
        # Prior Dir(1, 1 | 1): mean 5/9.
        assert out["new"].posterior_mean == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_rejects_bad_settings(self):
        with pytest.raises(TooFewSamples):
            summary_of(self.COUNTS, mc_samples=999)
        with pytest.raises(DomainError):
            summary_of(self.COUNTS, credible_mass=1.0)
        with pytest.raises(DomainError):
            summary_of(self.COUNTS, prior_beta=0.0)
        with pytest.raises(DomainError):
            summary_of(self.COUNTS, measures=())

    @pytest.mark.parametrize("prior_beta", [math.nan, math.inf])
    def test_rejects_a_prior_that_is_not_finite(self, prior_beta):
        with pytest.raises(DomainError, match="positive and finite"):
            posterior_summaries((), prior_beta=prior_beta)

    @pytest.mark.parametrize(
        "vectors",
        [[CountVector((0,), 0)], [CountVector((2, 1), 0), CountVector((3,), 1)]],
        ids=["empty", "after-a-two-category-vector"],
    )
    @pytest.mark.parametrize("kind", [MeasureKind.MODIFIED, MeasureKind.OLD])
    def test_refuses_one_category_before_any_draw(self, sfc64_streams, kind, vectors):
        # A one-category vector anywhere in the collection is refused before
        # the first generator is built, even when other vectors come first.
        with pytest.raises(SingleCategoryUnsupported, match=f"^{kind.value} ambiguity needs C >= 2$"):
            posterior_summaries(vectors, measures=(kind,))
        assert sfc64_streams == []

    def test_small_prior_with_zero_counts_still_samples(self):
        # Dir(0.05, 0.05 | 0.05) draws no all-zero gamma row in 200k.
        out = summary_of(CountVector(proper=(0, 0), cs=0), prior_beta=0.05, mc_samples=200_000)
        assert 0.0 <= out["new"].credible_lo <= out["new"].credible_hi <= 1.0

    def test_refuses_a_prior_whose_draws_underflow(self):
        with pytest.raises(DomainError, match="underflowed to all-zero gamma variates"):
            summary_of(CountVector(proper=(0, 0), cs=0), prior_beta=0.001)


# posterior_summaries at C = 1-5, including zero counts, can't-solve-only
# and empty vectors, under priors 1 and 1/2, with 2000 draws and seed 11:
# (proper, cs, prior, {measure: (plugin, posterior_mean, posterior_sd,
# credible_lo, credible_hi)}). The values were written down before the
# measures of a sample were computed in one pass, so any change in a float
# shows here. They were written down again when the gamma columns of shapes
# 1/2, 3/2 and 2-4 moved to exact identities; the entries whose shapes are
# all on numpy's sampler kept their floats. An entry whose proper counts are
# not non-increasing pins its plug-in values only, (plugin,): its whole
# summary is that of its canonical permutation, the sorted counts, which
# test_summary_floats_are_pinned summarizes on its own. The plug-ins were
# written down again when they became the correctly rounded values of
# plugin_estimate, which test_pinned_plugins_are_correctly_rounded checks;
# every other float kept its bytes then.
PINNED_SUMMARIES = [
    ((3,), 1, 1.0, {
        'new': (0.25, 0.33333333333333337, 0.1781741612749496, 0.05396884095645024, 0.713796055104301),
    }),
    ((0,), 2, 1.0, {
        'new': (1.0, 0.75, 0.19364916731037082, 0.29368970370027736, 0.9925606587097883),
    }),
    ((5,), 0, 1.0, {
        'new': (0.0, 0.1428571428571429, 0.12371791482634867, 0.004608824173574469, 0.46304195545879995),
    }),
    ((0,), 0, 1.0, {
        'new': (None, 0.5, 0.2886751345948129, 0.02176849997624637, 0.979747563584254),
    }),
    ((4, 1), 0, 1.0, {
        'new': (0.32, 0.4375, 0.1301041249666333, 0.159455064580459, 0.6661576125740897),
        'modified': (0.64, 0.75, 0.22047927592204916, 0.26439842068355324, 0.9994990522956319),
        'old': (0.4, 0.5982684785676772, 0.23182356251699787, 0.16853775367797105, 0.9795752394257194),
    }),
    ((0, 0), 0, 1.0, {
        'new': (None, 0.5555555555555556, 0.18921540406584894, 0.14943439444459786, 0.9054919653632213),
        'modified': (None, 0.7777777777777779, 0.22498285257018444, 0.20747594493615265, 0.9996532080078737),
        'old': (None, 0.665913423423042, 0.23399890604430743, 0.15314699068545803, 0.9866699874481054),
    }),
    ((0, 0), 3, 1.0, {
        'new': (1.0, 0.7777777777777778, 0.1314684396244359, 0.4368358411108279, 0.9655771132564359),
        'modified': (1.0, 0.888888888888889, 0.12738033427135795, 0.5109048388868311, 0.9998970143926526),
        'old': (1.0, 0.8272335604767607, 0.14738314438302172, 0.4480708814578008, 0.9956795355706038),
    }),
    ((7, 2), 1, 1.0, {
        'new': (0.4111111111111111, 0.46153846153846156, 0.11043819363869117, 0.20453705804415837, 0.6484604070713328),
        'modified': (0.7222222222222222, 0.7692307692307693, 0.18551585732015546, 0.334966366459794, 0.9992974734010253),
        'old': (0.5, 0.5981615539252568, 0.20275127665595055, 0.21562680617534466, 0.975301529056066),
    }),
    ((2, 0, 5), 1, 1.0, {
        'new': (0.48214285714285715,),
        'modified': (0.6607142857142857,),
        'old': (0.5,),
    }),
    ((0, 0, 0), 0, 1.0, {
        'new': (None, 0.625, 0.1391941090707506, 0.3095874522404197, 0.8773767498057982),
        'modified': (None, 0.8125, 0.15761900266148127, 0.40499045439624903, 0.9924371583435929),
        'old': (None, 0.6696987925209962, 0.1736975433142591, 0.2778443553640068, 0.9443569492882102),
    }),
    ((12, 3, 0, 7), 2, 1.0, {
        'new': (0.6174242424242424,),
        'modified': (0.7954545454545454,),
        'old': (0.5555555555555556,),
    }),
    ((0, 0, 0, 0), 4, 1.0, {
        'new': (1.0, 0.8222222222222222, 0.08056239708221913, 0.6353753644435938, 0.9395658745018447),
        'modified': (1.0, 0.9111111111111111, 0.07417981870189147, 0.7083808473305393, 0.9925516328648333),
        'old': (1.0, 0.8129765130370054, 0.09722233287118495, 0.5891703950801073, 0.9540942891469095),
    }),
    ((1, 1, 1, 1, 1), 0, 1.0, {
        'new': (0.8, 0.7520661157024793, 0.05129671646126809, 0.6221590856858307, 0.8294942396013018),
        'modified': (1.0, 0.9173553719008264, 0.05803447806678784, 0.7669968833303484, 0.9883131667914294),
        'old': (1.0, 0.7258049560620977, 0.09870630477454109, 0.5123001590721257, 0.8919181666447281),
    }),
    ((30, 2, 9, 0, 4), 6, 1.0, {
        'new': (0.563834422657952,),
        'modified': (0.6753812636165577,),
        'old': (0.4852941176470588,),
    }),
    ((3,), 1, 0.5, {
        'new': (0.25, 0.30000000000000004, 0.18708286933869714, 0.026711863595613415, 0.7239560678387633),
    }),
    ((0,), 2, 0.5, {
        'new': (1.0, 0.8333333333333334, 0.1863389981249825, 0.34820746447715445, 0.9997785669815898),
    }),
    ((5,), 0, 0.5, {
        'new': (0.0, 0.08333333333333337, 0.1044638617546682, 8.441328813407216e-05, 0.38070613426374084),
    }),
    ((0,), 0, 0.5, {
        'new': (None, 0.5, 0.3535533905932738, 0.0013511648550284389, 0.9982118716323023),
    }),
    ((4, 1), 0, 0.5, {
        'new': (0.32, 0.37362637362637363, 0.14531902368613392, 0.07945008796583841, 0.6178181162113255),
        'modified': (0.64, 0.6703296703296704, 0.2612289238544097, 0.13478589553678197, 0.9988114414217475),
        'old': (0.4, 0.5156107402864738, 0.25717017471706205, 0.08070883956167428, 0.9674921220658066),
    }),
    ((0, 0), 0, 0.5, {
        'new': (None, 0.5, 0.2581988897471611, 0.02939333868730533, 0.9648623062672613),
        'modified': (None, 0.6666666666666667, 0.2981423969999719, 0.04661784751482438, 0.9993469863387308),
        'old': (None, 0.5827653118546637, 0.2915220116170548, 0.02954336449885504, 0.9906434238692916),
    }),
    ((0, 0), 3, 0.5, {
        'new': (1.0, 0.8333333333333334, 0.14213381090374033, 0.475566789593918, 0.9949453516125648),
        'modified': (1.0, 0.888888888888889, 0.13400504203456187, 0.5122854808254453, 0.9998540377522198),
        'old': (1.0, 0.8598016579322462, 0.1407388558029264, 0.4802525065991113, 0.9979201549126082),
    }),
    ((7, 2), 1, 0.5, {
        'new': (0.4111111111111111, 0.4268774703557312, 0.12044565016187501, 0.1837663363071961, 0.629561915640146),
        'modified': (0.7222222222222222, 0.7233201581027667, 0.2077996789200933, 0.29871752246960825, 0.9987204117874239),
        'old': (0.5, 0.5605913937369544, 0.21457067870195992, 0.19496835170047902, 0.9654781319787209),
    }),
    ((2, 0, 5), 1, 0.5, {
        'new': (0.48214285714285715,),
        'modified': (0.6607142857142857,),
        'old': (0.5,),
    }),
    ((0, 0, 0), 0, 0.5, {
        'new': (None, 0.55, 0.20383233072213802, 0.12781634671301004, 0.9146998312436467),
        'modified': (None, 0.7000000000000001, 0.22990681342044408, 0.16764139408473186, 0.9870648922718035),
        'old': (None, 0.5662375854068785, 0.2246716336752272, 0.10764584518068548, 0.9428664909526788),
    }),
    ((12, 3, 0, 7), 2, 0.5, {
        'new': (0.6174242424242424,),
        'modified': (0.7954545454545454,),
        'old': (0.5555555555555556,),
    }),
    ((0, 0, 0, 0), 4, 0.5, {
        'new': (1.0, 0.8461538461538461, 0.10088366960464615, 0.5970205855666594, 0.980266280207176),
        'modified': (1.0, 0.8974358974358975, 0.09287574500653757, 0.6396991052863751, 0.9931409041579422),
        'old': (1.0, 0.8313724380702654, 0.11140320837006558, 0.5627673743522085, 0.9814545540324503),
    }),
    ((1, 1, 1, 1, 1), 0, 0.5, {
        'new': (0.8, 0.7242647058823529, 0.06518335395630163, 0.562249956118857, 0.8170471444448989),
        'modified': (1.0, 0.8897058823529411, 0.07647870339911375, 0.6920841056522085, 0.9839001490897179),
        'old': (1.0, 0.674725987207794, 0.11118522292234655, 0.4415605215930679, 0.8721958061134176),
    }),
    ((30, 2, 9, 0, 4), 6, 0.5, {
        'new': (0.563834422657952,),
        'modified': (0.6753812636165577,),
        'old': (0.4852941176470588,),
    }),
]

PINNED_KIND_LISTS = [
    tuple(MeasureKind),
    (MeasureKind.OLD, MeasureKind.NEW),
    (MeasureKind.MODIFIED, MeasureKind.OLD, MeasureKind.NEW),
    # A repeated measure has a row of its own: the second old mean must
    # not be taken from the first one's sorted values.
    (MeasureKind.OLD, MeasureKind.OLD),
    (MeasureKind.NEW, MeasureKind.MODIFIED, MeasureKind.NEW),
    (MeasureKind.MODIFIED,),
    (MeasureKind.NEW,),
]


@pytest.mark.parametrize("kinds", PINNED_KIND_LISTS)
@pytest.mark.parametrize("prior", [1.0, 0.5])
def test_summary_floats_are_pinned(prior, kinds):
    pinned = {
        CountVector(proper, cs): values
        for proper, cs, beta, values in PINNED_SUMMARIES
        # C = 1 has the new measure only.
        if beta == prior and (len(proper) > 1 or kinds == (MeasureKind.NEW,))
    }
    # Every vector in one call, so vectors of several C share the call.
    got = posterior_summaries(pinned, prior, kinds, mc_samples=2000, seed=11)
    names = list(dict.fromkeys(kind.value for kind in kinds))
    for counts, values in pinned.items():
        assert list(got[counts]) == names
        canonical = canonical_of(counts)
        if canonical != counts:
            alone = summary_of(
                canonical, prior_beta=prior, measures=kinds, mc_samples=2000, seed=11
            )
        for name in names:
            summary = got[counts][name]
            shared = () if canonical == counts else posterior_fields(alone[name])
            assert (summary.plugin, *posterior_fields(summary)) == values[name] + shared
            if canonical != counts:
                assert summary == alone[name]


def test_pinned_plugins_are_correctly_rounded():
    for proper, cs, _, values in PINNED_SUMMARIES:
        counts = CountVector(proper, cs)
        for name, pinned in values.items():
            exact = float(plugin_fraction(counts, MeasureKind(name))) if counts.total else None
            assert pinned[0] == exact


def test_plugins_of_many_vectors_are_correctly_rounded():
    # Seeded vectors at C = 1-7, mirrored ones and the end points among
    # them; C = 2-7 in one call, so vectors of several C share it.
    vectors = random_count_vectors(np.random.default_rng(7), 150, max_proper=12)
    for n_proper in range(2, 8):
        vectors += [
            CountVector((3,) + (0,) * (n_proper - 1)),
            CountVector((0,) * (n_proper - 1) + (3,)),
            CountVector((2,) * n_proper),
            CountVector((0,) * n_proper, 2),
        ]
    for kinds in (tuple(MeasureKind), (MeasureKind.NEW,)):
        group = [counts for counts in vectors if measures_of(counts) == kinds]
        got = posterior_summaries(group, measures=kinds, mc_samples=1000, seed=3)
        for counts in group:
            for kind in kinds:
                assert got[counts][kind.value].plugin == float(plugin_fraction(counts, kind))


# Count vectors whose proper counts are permutations of each other, the
# canonical (non-increasing) one not among them at C = 3. The C = 4 class
# holds permutations whose measures at their own frequencies differ in the
# last bit in the float kernel.
PERMUTED_CLASSES = [
    [CountVector((0, 5), 0), CountVector((5, 0), 0)],
    [CountVector((1, 3), 2), CountVector((3, 1), 2)],
    [CountVector((0, 2, 4), 1), CountVector((2, 4, 0), 1), CountVector((4, 0, 2), 1)],
    [CountVector((6, 2, 1, 0), 1), CountVector((0, 1, 2, 6), 1), CountVector((1, 6, 0, 2), 1)],
]


@pytest.mark.parametrize("prior", [1.0, 0.5])
@pytest.mark.parametrize(
    "vectors", PERMUTED_CLASSES, ids=lambda vs: "-".join("".join(map(str, v.proper)) for v in vs)
)
def test_permuted_vectors_share_posterior_fields(prior, vectors):
    # The measures are permutation invariant under a symmetric prior, so a
    # count multiset has one posterior law of each measure: every vector of
    # it gets the canonical vector's summary, summarized alone, and the
    # plug-in is the correctly rounded value of the multiset.
    got = posterior_summaries(vectors, prior, mc_samples=2000, seed=5)
    canonical = canonical_of(vectors[0])
    alone = summary_of(canonical, prior_beta=prior, mc_samples=2000, seed=5)
    for counts in vectors:
        own = posterior_update(DirichletParams.symmetric(counts.n_proper, prior), counts)
        for kind in MeasureKind:
            summary = got[counts][kind.value]
            assert summary == alone[kind.value]
            assert summary.plugin == float(plugin_fraction(counts, kind))
            if kind is not MeasureKind.OLD:
                # Closed forms agree across the class to the last bit anyway.
                moments = (summary.posterior_mean, summary.posterior_sd)
                assert moments == posterior_mean_sd(own, kind)


# Vectors at C = 1-4, with zero counts, can't-solve-only, empty and
# non-canonical ones among them.
SELECTION_GRID = [
    CountVector((3,), 1),
    CountVector((0,), 0),
    CountVector((7, 2), 1),
    CountVector((0, 0), 3),
    CountVector((1, 4, 2), 0),
    CountVector((5, 5, 5), 2),
    CountVector((12, 3, 0, 7), 2),
    CountVector((0, 0, 0, 0), 0),
]


@pytest.mark.parametrize("mass", [1e-5, 0.95, 1.0 - 1e-6])
@pytest.mark.parametrize("prior", [1.0, 0.5])
def test_intervals_are_those_of_the_sorted_sample(prior, mass):
    # posterior_summaries finds each interval by selection; the reference
    # sorts a copy of the same stream's values and reads them off it.
    levels = interval_levels(mass)
    for n_proper in (1, 2, 3, 4):
        kinds = tuple(MeasureKind) if n_proper > 1 else (MeasureKind.NEW,)
        vectors = [v for v in SELECTION_GRID if v.n_proper == n_proper]
        got = posterior_summaries(vectors, prior, kinds, credible_mass=mass, seed=9)
        for counts in vectors:
            canonical = canonical_of(counts)
            posterior = posterior_update(DirichletParams.symmetric(n_proper, prior), canonical)
            stream = (n_proper, *canonical.proper, canonical.cs)
            rows = sample_transformed(posterior, kinds, 20_000, 9, stream)
            for kind, values in zip(kinds, rows):
                lo, hi = _sorted_quantiles(np.sort(values), levels).tolist()
                summary = got[counts][kind.value]
                assert (summary.credible_lo, summary.credible_hi) == (lo, hi)


def test_one_sample_per_count_multiset(sfc64_streams):
    vectors = [CountVector((0, 5), 0), CountVector((5, 0), 0), CountVector((2, 3), 1),
               CountVector((3, 2), 1), CountVector((4, 1), 0)]
    posterior_summaries(vectors, mc_samples=2000, seed=5)
    # One stream per multiset, keyed on (C, *sorted proper, cs). Workers
    # build them in any order, but none twice.
    assert collections.Counter(sfc64_streams) == collections.Counter(
        [(5, (2, 5, 0, 0)), (5, (2, 3, 2, 1)), (5, (2, 4, 1, 0))]
    )


# C = 4, 3 and 2 interleaved: the first two vectors already need the
# widest buffer, so twenty need no more.
MIXED_C_VECTORS = [
    CountVector(proper=(k, 20 - k, 3, 1)[: 4 - k % 3], cs=2) for k in range(20)
]


@pytest.mark.parametrize(
    "vectors",
    [[CountVector(proper=(k, 20 - k, 3, 1), cs=2) for k in range(20)], MIXED_C_VECTORS],
    ids=["C4", "C2-3-4"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_memory_does_not_grow_with_vectors(usable_cpus, workers, vectors):
    # One buffer per thread, sized for the widest C (4) whatever mix of C
    # the vectors have, holds the draws, their row sums, every measure's
    # values and the old measure's squared deviations: nothing else of a
    # sample's size is allocated.
    usable_cpus(workers)
    n = 20_000
    posterior_summaries(vectors[:1], mc_samples=1000)

    def peak(count_vectors):
        tracemalloc.start()
        try:
            posterior_summaries(count_vectors, mc_samples=n, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    buffer_bytes = _sample_rows(4, 3) * n * 8
    assert peak(vectors) <= peak(vectors[:2]) + 64_000
    assert peak(vectors) <= workers * buffer_bytes + 64_000


CPU_COUNTS = (1, 2, 3, 7)


def same_at_every_cpu_count(usable_cpus, call):
    """Results of call() with the affinity read as each of CPU_COUNTS,
    asserting that no call leaves a thread behind."""
    results = []
    for cpus in CPU_COUNTS:
        usable_cpus(cpus)
        threads = threading.active_count()
        results.append(call())
        assert threading.active_count() == threads
    return results


def test_summaries_do_not_depend_on_the_cpu_count(usable_cpus):
    # Vectors of C = 2, 3 and 4 interleaved, with permutations of one
    # another among them, so each thread draws C's of every width into the
    # leading rows of its one buffer, and threads share multisets.
    vectors = [CountVector((3, 1), 0), CountVector((0, 2, 5), 1), CountVector((1, 3), 0),
               CountVector((4, 1, 1, 2), 2), CountVector((5, 0, 2), 1), CountVector((2, 2), 3),
               CountVector((1, 2, 4, 1), 2), CountVector((0, 0, 0), 4), CountVector((2, 5, 0), 1)]
    results = same_at_every_cpu_count(
        usable_cpus, lambda: posterior_summaries(vectors, mc_samples=_THREADED_MIN_DRAWS, seed=21)
    )
    assert all(list(got) == vectors and got == results[0] for got in results)


def test_density_band_does_not_depend_on_the_cpu_count(usable_cpus):
    def band():
        estimate = density_with_uncertainty(
            PARAMS, MeasureKind.OLD, samples_per_repeat=_THREADED_MIN_DRAWS, seed=4
        )
        return [estimate.median_density.tobytes(), estimate.iqr_lo.tobytes(),
                estimate.iqr_hi.tobytes()]

    results = same_at_every_cpu_count(usable_cpus, band)
    assert all(got == results[0] for got in results)


BAND_CASES = [
    pytest.param(params, measure, id=f"C{params.n_proper}-{measure.value}")
    for params, measures in (
        (DirichletParams((3.0, 1.5), 0.5), MeasureKind),
        (PARAMS, MeasureKind),
        (DirichletParams((2.0,), 1.5), (MeasureKind.NEW,)),
    )
    for measure in measures
]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("params, measure", BAND_CASES)
def test_density_band_equals_np_histogram_loop(params, measure, cpus, usable_cpus):
    # The band as a plain loop: each repeat's sample from its own stream,
    # histogrammed by np.histogram itself, then the quartiles across repeats.
    usable_cpus(cpus)
    n, seed = _THREADED_MIN_DRAWS, 6
    heights = [
        np.histogram(
            sample_transformed(params, (measure,), n, seed, (r,))[0],
            bins=np.linspace(0.0, 1.0, MODE_BINS + 1),
            density=True,
        )[0]
        for r in range(100)
    ]
    lo, med, hi = np.percentile(heights, [25.0, 50.0, 75.0], axis=0)
    estimate = density_with_uncertainty(params, measure, samples_per_repeat=n, seed=seed)
    assert estimate.iqr_lo.tobytes() == lo.tobytes()
    assert estimate.median_density.tobytes() == med.tobytes()
    assert estimate.iqr_hi.tobytes() == hi.tobytes()


def test_density_band_raises_the_first_repeats_underflow(usable_cpus):
    # Every repeat at concentrations 0.001 has draws that underflow, each
    # a count of its own; repeat 0's is the one a plain loop raises.
    params = DirichletParams.symmetric(2, 0.001)
    n = _THREADED_MIN_DRAWS

    def message():
        with pytest.raises(DomainError, match="underflowed") as caught:
            density_with_uncertainty(params, MeasureKind.NEW, samples_per_repeat=n, seed=3)
        return str(caught.value)

    results = same_at_every_cpu_count(usable_cpus, message)
    assert all(got == results[0] for got in results)
    with pytest.raises(DomainError) as caught:
        sample_transformed(params, (MeasureKind.NEW,), n, 3, (0,))
    assert results[0] == str(caught.value)


class TestRunTasks:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_every_index_runs_once_under_fast_switching(self, usable_cpus, cpus):
        # More threads than cores, switching threads every microsecond: a
        # lost update of the next index would run an index twice or never.
        # Each thread gets one buffer of (rows, draws) for all of its tasks.
        usable_cpus(cpus)
        count = 3000
        runs = [0] * count
        # Buffers by thread, kept alive so that no two share an id.
        buffers = collections.defaultdict(dict)

        def task(index, buffer):
            runs[index] += 1
            buffers[threading.get_ident()][id(buffer)] = buffer

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=_run_tasks, args=(count, task, 3, _THREADED_MIN_DRAWS)
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert runs == [1] * count
        assert 1 <= len(buffers) <= cpus
        assert all(len(used) == 1 for used in buffers.values())
        owned = [buffer for used in buffers.values() for buffer in used.values()]
        assert len({id(buffer) for buffer in owned}) == len(buffers)
        assert all(buffer.shape == (3, _THREADED_MIN_DRAWS) for buffer in owned)

    def test_one_task_or_short_tasks_run_in_the_calling_thread(self, usable_cpus):
        usable_cpus(7)
        caller = threading.get_ident()
        ran = []

        def task(index, buffer):
            ran.append((index, threading.get_ident(), buffer))

        _run_tasks(0, lambda index, buffer: pytest.fail("no task to run"), 2, _THREADED_MIN_DRAWS)
        _run_tasks(1, task, 2, _THREADED_MIN_DRAWS)
        _run_tasks(5, task, 2, _THREADED_MIN_DRAWS - 1)
        assert [(index, thread) for index, thread, _ in ran] == [(0, caller)] + [
            (index, caller) for index in range(5)
        ]
        assert ran[0][2].shape == (2, _THREADED_MIN_DRAWS)
        # The five short tasks share one buffer of the calling thread.
        assert ran[1][2].shape == (2, _THREADED_MIN_DRAWS - 1)
        assert all(buffer is ran[1][2] for _, _, buffer in ran[1:])

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_raises_the_lowest_failure_and_starts_no_more(self, usable_cpus, cpus):
        # Task 3 fails at once while every other task sleeps, so no thread
        # is free between the failure and its record.
        usable_cpus(cpus)
        threads = threading.active_count()
        started = []

        def task(index, buffer):
            started.append(index)
            if index == 3:
                raise ValueError(index)
            time.sleep(0.05)

        with pytest.raises(ValueError, match="^3$"):
            _run_tasks(50, task, 1, _THREADED_MIN_DRAWS)
        assert threading.active_count() == threads
        # Indexes go out in order. When task 3 fails, at most the other
        # W - 1 threads' tasks are running, the highest index 3 + W - 1,
        # and no thread takes another index after them: at W = 1 the
        # tasks run are 0 to 3.
        assert sorted(started) == list(range(len(started)))
        assert 4 <= len(started) <= 3 + cpus

    def test_a_later_failure_on_another_worker_loses_to_the_lower(self, usable_cpus):
        # Task 3 raises only after task 5 has failed on the other thread;
        # the caller still gets task 3's exception, and task 6 never starts.
        usable_cpus(2)
        five_failed = threading.Event()
        buffers = {}

        def task(index, buffer):
            buffers[index] = buffer
            if index == 3:
                assert five_failed.wait(timeout=30)
                raise ValueError(3)
            if index == 5:
                five_failed.set()
                raise ValueError(5)

        with pytest.raises(ValueError, match="^3$"):
            _run_tasks(10, task, 1, _THREADED_MIN_DRAWS)
        assert sorted(buffers) == [0, 1, 2, 3, 4, 5]
        assert buffers[3] is not buffers[5]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_repeats_a_parallel_call(self, usable_cpus):
        # The benchmark forks a child per op after warming up in the
        # parent: no lock may be left held, and no thread expected, there.
        usable_cpus(2)
        vectors = [CountVector((k, 6 - k, 1), 1) for k in range(4)]

        def call():
            return posterior_summaries(vectors, mc_samples=_THREADED_MIN_DRAWS, seed=2)

        expected = call()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if call() == expected else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish within 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("prior_beta", [1.0, 0.5])
def test_credible_intervals_are_calibrated(prior_beta):
    # Simulation-based calibration (Cook, Gelman & Rubin 2006): draw q from
    # the Dir(beta) prior over C + 1 entries and counts ~ Mult(n, q). The
    # true measure then falls in the 95% equal-tailed interval with
    # probability 0.95, so over 1500 replications each measure's coverage
    # lies within four binomial sds, 4 sqrt(0.95 * 0.05 / 1500) = 0.0225.
    # C in 2..5 and n in 3..300 span the count vectors of real files.
    rng = np.random.default_rng(2024)
    replications, mass = 1500, 0.95
    kinds = (MeasureKind.NEW, MeasureKind.MODIFIED, MeasureKind.OLD)
    truths, vectors = [], []
    for _ in range(replications):
        n_cat = int(rng.integers(2, 6))
        q = rng.dirichlet(np.full(n_cat + 1, prior_beta))
        counts = rng.multinomial(int(rng.integers(3, 301)), q)
        truths.append(measure_arrays(q[None, :-1], q[-1:], kinds)[:, 0])
        vectors.append(CountVector(proper=tuple(counts[:-1]), cs=counts[-1]))
    summaries = posterior_summaries(vectors, prior_beta, kinds, 2000, mass, seed=9)
    band = 4.0 * math.sqrt(mass * (1.0 - mass) / replications)
    for i, kind in enumerate(kinds):
        covered = [
            summaries[counts][kind.value].credible_lo
            <= truth[i]
            <= summaries[counts][kind.value].credible_hi
            for counts, truth in zip(vectors, truths)
        ]
        assert abs(np.mean(covered) - mass) <= band, kind


def _rank_chi_squares(n_cat, beta, prior_scale=1.0):
    """Chi-squares of each measure's rank histogram in simulation-based
    calibration: per replication, q ~ Dir(beta) over C + 1 entries, counts
    ~ Mult(n, q) with n in 1..50, and the rank of each true measure among
    99 values of sample_transformed from the posterior built on a
    Dir(prior_scale * beta) prior, put into 10 bins of 10 ranks each."""
    kinds = (MeasureKind.NEW, MeasureKind.MODIFIED, MeasureKind.OLD)
    replications, draws, seed = 2000, 99, 1804
    rng = np.random.default_rng(seed)
    prior = DirichletParams.symmetric(n_cat, prior_scale * beta)
    ranks = np.empty((len(kinds), replications), dtype=np.intp)
    for i in range(replications):
        q = rng.dirichlet(np.full(n_cat + 1, beta))
        counts = rng.multinomial(int(rng.integers(1, 51)), q)
        truth = measure_arrays(q[None, :-1], q[-1:], kinds)[:, 0]
        posterior = posterior_update(prior, CountVector(tuple(counts[:-1]), counts[-1]))
        values = sample_transformed(posterior, kinds, draws, seed, (i,))
        ranks[:, i] = np.count_nonzero(values < truth[:, None], axis=1)
    observed = np.array([np.bincount(row * 10 // (draws + 1), minlength=10) for row in ranks])
    expected = replications / 10
    return ((observed - expected) ** 2 / expected).sum(axis=1)


@pytest.mark.parametrize("n_cat, prior_beta", [(2, 0.5), (3, 1.0), (4, 1.0)])
def test_posterior_ranks_are_uniform(n_cat, prior_beta):
    # Simulation-based calibration by ranks (Talts et al. 2018,
    # arXiv:1804.06788): if the posterior sampler is right, the rank of the
    # true measure among 99 posterior draws is uniform on 0..99, so its
    # 10-bin histogram over 2000 replications has a chi-square with 9
    # degrees of freedom. 27.88 is that law's 0.999 quantile.
    assert np.all(_rank_chi_squares(n_cat, prior_beta) <= 27.88)
    # The check has power: a posterior built from a doubled prior fails it.
    assert np.all(_rank_chi_squares(n_cat, prior_beta, prior_scale=2.0) > 27.88)


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
        values = sample_transformed(PARAMS, (MeasureKind.OLD,), 2000, seed=1)[0]
        expected = (float(values.mean()), float(values.std()))
        assert posterior_mean_sd(PARAMS, MeasureKind.OLD, values) == expected
        work = np.empty_like(values)
        assert posterior_mean_sd(PARAMS, MeasureKind.OLD, values, work) == expected
        assert values.tolist() == sample_transformed(
            PARAMS, (MeasureKind.OLD,), 2000, seed=1
        )[0].tolist()
