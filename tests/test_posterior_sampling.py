"""Monte Carlo posterior layer: transformed-sample determinism and range,
sample means against closed-form moments, sorted-sample quantiles against
np.quantile (including a constant sample), the histogram mode, the
repeat-based density uncertainty bands, and the per-count-vector posterior
summary against closed forms and an independent numpy Dirichlet sample.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ambiq.exceptions import DomainError, TooFewSamples
from ambiq.frequentist import CountVector
from ambiq.measures import MeasureKind, ambiguity, ambiguity_array, measure_arrays
from ambiq.numerics import DirichletParams, _dirichlet_draws, make_generator
from ambiq.posterior_analytics import (
    expected_amb,
    expected_amb_modified,
    posterior_moments,
)
from ambiq.posterior_sampling import (
    MODE_BINS,
    DensityEstimate,
    MeasureSummary,
    _sorted_quantiles,
    density_with_uncertainty,
    histogram_mode,
    posterior_mean_sd,
    posterior_summaries,
    sample_transformed,
)

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

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_reused_buffer_gives_the_same_values(self, kind):
        out = np.full((PARAMS.n_proper + 4, 3000), np.nan)
        for stream in [(), (3,), (1, 4)]:
            values = sample_transformed(PARAMS, (kind,), 3000, 6, stream, out=out)[0]
            assert np.shares_memory(values, out)
            np.testing.assert_array_equal(
                values, sample_transformed(PARAMS, (kind,), 3000, 6, stream)[0]
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


def summary_of(counts, **settings):
    """posterior_summaries of one count vector."""
    return posterior_summaries((counts,), **settings)[counts]


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


# posterior_summaries at C = 1-5, including zero counts, can't-solve-only
# and empty vectors, under priors 1 and 1/2, with 2000 draws and seed 11:
# (proper, cs, prior, {measure: (plugin, posterior_mean, posterior_sd,
# credible_lo, credible_hi)}). The values were written down before the
# measures of a sample were computed in one pass, so any change in a float
# shows here.
PINNED_SUMMARIES = [
    ((3,), 1, 1.0, {
        'new': (0.25, 0.33333333333333337, 0.1781741612749496, 0.04677297498093391, 0.7327212518401688),
    }),
    ((0,), 2, 1.0, {
        'new': (1.0, 0.75, 0.19364916731037082, 0.30967579278608953, 0.9923908735135366),
    }),
    ((5,), 0, 1.0, {
        'new': (0.0, 0.1428571428571429, 0.12371791482634867, 0.004608824173574469, 0.46304195545879995),
    }),
    ((0,), 0, 1.0, {
        'new': (None, 0.5, 0.2886751345948129, 0.02176849997624637, 0.979747563584254),
    }),
    ((4, 1), 0, 1.0, {
        'new': (0.31999999999999984, 0.4375, 0.1301041249666333, 0.15205789881962894, 0.6585080784041379),
        'modified': (0.6399999999999997, 0.75, 0.22047927592204916, 0.24899064363765377, 0.9990207486955238),
        'old': (0.3999999999999999, 0.5925005297036677, 0.2298344544595567, 0.15833365674578673, 0.9733720805784916),
    }),
    ((0, 0), 0, 1.0, {
        'new': (None, 0.5555555555555556, 0.18921540406584894, 0.14943439444459786, 0.9054919653632213),
        'modified': (None, 0.7777777777777779, 0.22498285257018444, 0.20747594493615265, 0.9996532080078737),
        'old': (None, 0.665913423423042, 0.23399890604430743, 0.15314699068545803, 0.9866699874481054),
    }),
    ((0, 0), 3, 1.0, {
        'new': (1.0, 0.7777777777777778, 0.1314684396244359, 0.4729248391374269, 0.9673387096053239),
        'modified': (1.0, 0.888888888888889, 0.12738033427135795, 0.5339559862169739, 0.9998825869376244),
        'old': (1.0, 0.8282711603943069, 0.1448317767819675, 0.4911912939110877, 0.9957144814284972),
    }),
    ((7, 2), 1, 1.0, {
        'new': (0.4111111111111112, 0.46153846153846156, 0.11043819363869117, 0.22633025316731972, 0.6420195742299816),
        'modified': (0.7222222222222224, 0.7692307692307693, 0.18551585732015546, 0.36646005362191936, 0.9991019058116376),
        'old': (0.5, 0.6080485993714416, 0.1988177123121597, 0.2426896735859442, 0.9731536314686435),
    }),
    ((2, 0, 5), 1, 1.0, {
        'new': (0.4821428571428571, 0.5757575757575757, 0.10175299107560434, 0.3339090988209373, 0.7353040185805076),
        'modified': (0.6607142857142856, 0.7803030303030302, 0.13344733866324965, 0.44315313286927915, 0.9787370694363133),
        'old': (0.5, 0.6064410186975211, 0.14255127706454734, 0.3001129248126916, 0.8739093448068612),
    }),
    ((0, 0, 0), 0, 1.0, {
        'new': (None, 0.625, 0.1391941090707506, 0.3095874522404197, 0.8773767498057982),
        'modified': (None, 0.8125, 0.15761900266148127, 0.40499045439624903, 0.9924371583435929),
        'old': (None, 0.6696987925209962, 0.1736975433142591, 0.2778443553640068, 0.9443569492882102),
    }),
    ((12, 3, 0, 7), 2, 1.0, {
        'new': (0.6174242424242424, 0.6475095785440613, 0.05520813172118684, 0.5234944109991875, 0.7402645617686339),
        'modified': (0.7954545454545453, 0.8288633461047255, 0.06842245318964915, 0.6706101536175995, 0.9361966152067958),
        'old': (0.5555555555555556, 0.6111270280234959, 0.08499278107568199, 0.4524868152015361, 0.769371211999991),
    }),
    ((0, 0, 0, 0), 4, 1.0, {
        'new': (1.0, 0.8222222222222222, 0.08056239708221913, 0.6353753644435938, 0.9395658745018447),
        'modified': (1.0, 0.9111111111111111, 0.07417981870189147, 0.7083808473305393, 0.9925516328648333),
        'old': (1.0, 0.8129765130370054, 0.09722233287118495, 0.5891703950801073, 0.9540942891469095),
    }),
    ((1, 1, 1, 1, 1), 0, 1.0, {
        'new': (0.7999999999999999, 0.7520661157024793, 0.05129671646126809, 0.6264678280075626, 0.8275202512638894),
        'modified': (0.9999999999999999, 0.9173553719008264, 0.05803447806678784, 0.7669109966601099, 0.9876059839456974),
        'old': (1.0, 0.7246606157643359, 0.09511589848575967, 0.5186981360427808, 0.888198774767745),
    }),
    ((30, 2, 9, 0, 4), 6, 1.0, {
        'new': (0.5638344226579519, 0.6057791537667698, 0.059594162245433485, 0.47629773461393876, 0.7101750930989948),
        'modified': (0.6753812636165576, 0.7265221878224974, 0.07171857146966337, 0.5692591036465624, 0.8534837861566231),
        'old': (0.48529411764705876, 0.5155548238696304, 0.06614898633755104, 0.3846662357160261, 0.646635615156248),
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
        'new': (0.31999999999999984, 0.37362637362637363, 0.14531902368613392, 0.07945008796583841, 0.6178181162113255),
        'modified': (0.6399999999999997, 0.6703296703296704, 0.2612289238544097, 0.13478589553678197, 0.9988114414217475),
        'old': (0.3999999999999999, 0.5156107402864738, 0.25717017471706205, 0.08070883956167428, 0.9674921220658066),
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
        'new': (0.4111111111111112, 0.4268774703557312, 0.12044565016187501, 0.1837663363071961, 0.629561915640146),
        'modified': (0.7222222222222224, 0.7233201581027667, 0.2077996789200933, 0.29871752246960825, 0.9987204117874239),
        'old': (0.5, 0.5605913937369544, 0.21457067870195992, 0.19496835170047902, 0.9654781319787209),
    }),
    ((2, 0, 5), 1, 0.5, {
        'new': (0.4821428571428571, 0.5236842105263158, 0.11675785734017108, 0.251777845154702, 0.7173775237953959),
        'modified': (0.6607142857142856, 0.7105263157894737, 0.15436255413869812, 0.3349374708944676, 0.959602510273592),
        'old': (0.5, 0.5427963782530854, 0.15248493330613325, 0.22502546675811258, 0.830357873186451),
    }),
    ((0, 0, 0), 0, 0.5, {
        'new': (None, 0.55, 0.20383233072213802, 0.12781634671301004, 0.9146998312436467),
        'modified': (None, 0.7000000000000001, 0.22990681342044408, 0.16764139408473186, 0.9870648922718035),
        'old': (None, 0.5662375854068785, 0.2246716336752272, 0.10764584518068548, 0.9428664909526788),
    }),
    ((12, 3, 0, 7), 2, 0.5, {
        'new': (0.6174242424242424, 0.6241509433962265, 0.059309814295192796, 0.48528003716685747, 0.7210736629499219),
        'modified': (0.7954545454545453, 0.8007547169811321, 0.07384252379879168, 0.6226281622915789, 0.911724913303218),
        'old': (0.5555555555555556, 0.5774348380287172, 0.08269736835535747, 0.4211855519356168, 0.7323777844091611),
    }),
    ((0, 0, 0, 0), 4, 0.5, {
        'new': (1.0, 0.8461538461538461, 0.10088366960464615, 0.5970205855666594, 0.980266280207176),
        'modified': (1.0, 0.8974358974358975, 0.09287574500653757, 0.6396991052863751, 0.9931409041579422),
        'old': (1.0, 0.8313724380702654, 0.11140320837006558, 0.5627673743522085, 0.9814545540324503),
    }),
    ((1, 1, 1, 1, 1), 0, 0.5, {
        'new': (0.7999999999999999, 0.7242647058823529, 0.06518335395630163, 0.562249956118857, 0.8170471444448989),
        'modified': (0.9999999999999999, 0.8897058823529411, 0.07647870339911375, 0.6920841056522085, 0.9839001490897179),
        'old': (1.0, 0.674725987207794, 0.11118522292234655, 0.4415605215930679, 0.8721958061134176),
    }),
    ((30, 2, 9, 0, 4), 6, 0.5, {
        'new': (0.5638344226579519, 0.5819969453990073, 0.06289382119650305, 0.45240588958137834, 0.6936638243066795),
        'modified': (0.6753812636165576, 0.6974035891561665, 0.07569169330613443, 0.5396089120124136, 0.8309204369615545),
        'old': (0.48529411764705876, 0.48837849015390394, 0.06451015285370629, 0.36161044850439084, 0.6196324729331746),
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
        for name in names:
            summary = got[counts][name]
            assert (
                summary.plugin,
                summary.posterior_mean,
                summary.posterior_sd,
                summary.credible_lo,
                summary.credible_hi,
            ) == values[name]


def test_memory_does_not_grow_with_vectors():
    # One buffer per C holds the draws and every measure's values; the
    # only other sample-sized array is the draws' row sums.
    n = 20_000
    vectors = [CountVector(proper=(k, 20 - k, 3, 1), cs=2) for k in range(20)]
    posterior_summaries(vectors[:1], mc_samples=1000)

    def peak(count_vectors):
        tracemalloc.start()
        try:
            posterior_summaries(count_vectors, mc_samples=n, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    buffer_bytes = (5 + 3 + 2) * n * 8
    assert peak(vectors) <= peak(vectors[:2]) + 64_000
    assert peak(vectors) <= buffer_bytes + n * 8 + 64_000


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
        assert posterior_mean_sd(PARAMS, MeasureKind.OLD, values) == (
            float(values.mean()),
            float(values.std()),
        )
