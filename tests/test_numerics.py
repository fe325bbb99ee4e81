"""Numerics layer: special functions against scipy oracles, the SFC64
generator contract, the gamma-method Dirichlet sampler, and the incomplete
beta: its batch stop rule, its broadcasting over several (a, b), its
route through Temme's expansion at large shapes and its non-convergence
error.

scipy appears only here and in sibling test modules as an independent
oracle; the package itself never imports it.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ambiq import numerics
from ambiq.binary_density import BinaryCounts, density_curve
from ambiq.exceptions import DomainError, InternalConsistencyError, TooLarge
from ambiq.frequentist import bias_curve
from ambiq.measures import ProbabilityVector
from ambiq.numerics import (
    DirichletParams,
    _dirichlet_draws,
    _gamma_row,
    beta_pdf_pair,
    digamma,
    dirichlet_sample,
    ln_gamma,
    make_generator,
    regularized_incomplete_beta,
)
from ambiq.posterior_sampling import posterior_summaries
from gamma_reference import dirichlet_rows


def ulp_tolerance(value, floor=1e-12, ulps=4):
    """Absolute tolerance: `floor` where representable, else a few ulps."""
    return max(floor, ulps * np.spacing(abs(value)))


class TestLnGamma:
    def test_matches_scipy_over_wide_range(self):
        xs = np.logspace(-3, 6, 400)
        for x in xs:
            mine = ln_gamma(float(x))
            ref = float(scipy.special.gammaln(x))
            assert abs(mine - ref) <= ulp_tolerance(ref), f"x={x}"

    def test_integer_values_are_log_factorials(self):
        for n in range(1, 15):
            assert ln_gamma(float(n)) == pytest.approx(
                math.log(math.factorial(n - 1)), abs=1e-12
            )

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)


class TestDigamma:
    def test_matches_scipy(self):
        xs = np.logspace(-3, 5, 300)
        for x in xs:
            ref = float(scipy.special.psi(x))
            assert digamma(float(x)) == pytest.approx(ref, abs=ulp_tolerance(ref))

    def test_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        for x in (0.1, 0.7, 2.3, 11.0):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)

    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            digamma(0.0)


class TestBetaPdf:
    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b = rng.uniform(0.3, 8.0, size=2)
            xs = rng.uniform(0.01, 0.99, size=20)
            mine = beta_pdf_pair(a, b, xs, 1.0 - xs)
            ref = scipy.stats.beta.pdf(xs, a, b)
            np.testing.assert_allclose(mine, ref, rtol=1e-12)

    def test_scalar_in_scalar_out(self):
        out = beta_pdf_pair(2.0, 3.0, 0.5, 0.5)
        assert isinstance(out, float)
        assert out == pytest.approx(scipy.stats.beta.pdf(0.5, 2.0, 3.0), rel=1e-12)

    def test_pair_variant_uses_complement_argument(self):
        # Supplying 1-x directly must avoid the cancellation in 1.0 - x:
        # here 1-x is given as 1e-17, below resolution of float subtraction.
        tiny = 1e-17
        out = beta_pdf_pair(1.0, 0.5, 1.0 - tiny, tiny)
        expected = math.exp(-0.5 * math.log(tiny) - scipy.special.betaln(1.0, 0.5))
        assert out == pytest.approx(expected, rel=1e-12)

    def test_pair_variant_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_pdf_pair(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            beta_pdf_pair(1.0, 1.0, 1.0, 0.0)


class TestRegularizedIncompleteBeta:
    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rng.uniform(0.2, 30.0, size=2)
            xs = rng.uniform(0.0, 1.0, size=15)
            mine = regularized_incomplete_beta(a, b, xs)
            ref = scipy.special.betainc(a, b, xs)
            np.testing.assert_allclose(mine, ref, atol=1e-13, rtol=1e-12)

    def test_endpoints_exact(self):
        assert regularized_incomplete_beta(0.4, 2.5, 0.0) == 0.0
        assert regularized_incomplete_beta(0.4, 2.5, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for x in (0.12, 0.5, 0.88):
            left = regularized_incomplete_beta(3.0, 0.7, x)
            right = 1.0 - regularized_incomplete_beta(0.7, 3.0, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-14)

    def test_uniform_case_is_identity(self):
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            regularized_incomplete_beta(1.0, 1.0, xs), xs, atol=1e-15
        )

    def test_large_batch_converges_like_its_elements(self):
        # An element must stop at its own convergence: left iterating, it
        # jitters by a few ulps, and a large batch then never meets the stop
        # rule in one iteration although each element converges alone.
        xs = np.linspace(0.75, 0.85, 200_001)
        batch = regularized_incomplete_beta(20001.0, 5001.0, xs)
        for i in (0, 51_234, 100_000, 149_999, 200_000):
            alone = regularized_incomplete_beta(20001.0, 5001.0, float(xs[i]))
            assert batch[i] == pytest.approx(alone, rel=1e-14, abs=1e-300)
        np.testing.assert_allclose(batch, scipy.special.betainc(20001.0, 5001.0, xs), atol=1e-10)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, -0.1)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.1)

    def test_reports_the_element_that_does_not_converge(self, monkeypatch):
        # Five iterations are too few for the fraction near the mean of
        # (301, 201), and enough at x = 0.1, far below it.
        monkeypatch.setattr(numerics, "_BETAINC_SHIFTS", numerics._BETAINC_SHIFTS[:5])
        with pytest.raises(InternalConsistencyError, match=r"a=301\.0, b=201\.0, x=0\.6"):
            regularized_incomplete_beta(301.0, 201.0, np.array([0.1, 0.6]))


def mixed_batch():
    """Shapes below and above one as (k, 1) columns a and b, and a (k, n)
    x holding 0, 1 and each row's crossover (a+1)/(a+b+2) with its
    neighbours. The last three pairs have both shapes at least 500, so
    their crossovers lie in Temme's window and their random x mostly out
    of it."""
    rng = np.random.default_rng(11)
    shapes = np.array(
        [(0.3, 0.8), (0.5, 0.5), (2.0, 0.4), (1.0, 1.0), (7.5, 3.0), (41.0, 26.0), (301.0, 201.0), (51.0, 502.0),
         (3001.0, 2001.0), (1001.0, 10002.0), (2e6 + 1.0, 2e6 + 1.0)]
    )
    a, b = shapes[:, :1], shapes[:, 1:]
    cross = (a + 1.0) / (a + b + 2.0)
    edges = [np.zeros_like(a), np.ones_like(a), cross, np.nextafter(cross, 0.0), np.nextafter(cross, 1.0)]
    return a, b, np.concatenate([*edges, rng.random((a.size, 30))], axis=1)


class TestIncompleteBetaBatches:
    def test_each_element_as_in_a_call_of_its_own(self):
        a, b, x = mixed_batch()
        batch = regularized_incomplete_beta(a, b, x)
        assert batch.shape == x.shape
        for i, j in np.ndindex(x.shape):
            alone = regularized_incomplete_beta(float(a[i, 0]), float(b[i, 0]), float(x[i, j]))
            assert batch[i, j].tobytes() == np.float64(alone).tobytes(), (i, j)

    def test_matches_scipy(self):
        a, b, x = mixed_batch()
        batch = regularized_incomplete_beta(a, b, x)
        np.testing.assert_allclose(batch, scipy.special.betainc(a, b, x), atol=1e-13, rtol=1e-12)

    def test_grid_of_shapes_matches_scipy(self):
        # A (6, 1) a against a (1, 5) b is a 6 x 5 grid of pairs; x of shape
        # (4, 1, 1) sends each value of x through every pair.
        a = np.array([0.3, 0.9, 2.0, 12.0, 80.0, 400.0])[:, None]
        b = np.array([0.5, 1.0, 3.5, 40.0, 250.0])[None, :]
        x = np.array([0.01, 0.3, 0.62, 0.97])[:, None, None]
        grid = regularized_incomplete_beta(a, b, x)
        assert grid.shape == (4, 6, 5)
        np.testing.assert_allclose(grid, scipy.special.betainc(a, b, x), atol=1e-13, rtol=1e-12)

    def test_scalars_give_a_float(self):
        value = regularized_incomplete_beta(2.0, 3.0, 0.25)
        assert type(value) is float
        assert value == pytest.approx(scipy.special.betainc(2.0, 3.0, 0.25), abs=1e-15)

    def test_empty_x(self):
        assert regularized_incomplete_beta(2.0, 3.0, np.empty(0)).shape == (0,)

    def test_shapes_must_broadcast(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(np.ones(3), np.ones(2), 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(np.ones((3, 1)), 1.0, np.full((2, 4), 0.5))


# Posterior shapes (count + 1) from 5e2 to 1e8, a < b, a > b and a = b.
TEMME_GRID = [(501.0, 2001.0), (2001.0, 501.0), (2001.0, 2001.0), (2001.0, 10001.0), (10001.0, 2001.0),
              (10001.0, 10001.0), (10001.0, 100001.0), (100001.0, 10001.0), (100001.0, 100001.0),
              (100001.0, 1000001.0), (1000001.0, 100001.0), (1000001.0, 1000001.0),
              (1000001.0, 10000001.0), (10000001.0, 1000001.0), (10000001.0, 10000001.0),
              (10000001.0, 100000001.0), (100000001.0, 10000001.0), (100000001.0, 100000001.0)]

# Standard deviations from the Beta mean: both sides, and the window's
# edges at 10 sd less a margin that rounding of x cannot cross.
WINDOW_SD = np.array([-9.999, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 9.999])


def beta_sd_points(a, b, sds):
    mean = a / (a + b)
    return mean + sds * math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))


class TestTemmeRoute:
    @pytest.mark.parametrize("a, b", TEMME_GRID)
    def test_matches_scipy_in_the_window(self, a, b, monkeypatch):
        # scipy's own error grows with the shapes: against a 50-digit
        # evaluation of the same expansion it reads up to 8e-13 at 1e5 and
        # 2.6e-11 at 1e8, while this route stays within 4e-14. The bounds
        # are what scipy can confirm.
        monkeypatch.setattr(numerics, "_fraction_route", None)  # the window never reaches it
        x = beta_sd_points(a, b, WINDOW_SD)
        rtol = 1e-12 if max(a, b) <= 1e5 + 1 else 2e-11
        got = regularized_incomplete_beta(a, b, x)
        np.testing.assert_allclose(got, scipy.special.betainc(a, b, x), rtol=rtol, atol=0.0)

    def test_symmetric_pair_at_its_mean_is_one_half(self):
        for a in (501.0, 2e6 + 1.0, 1e8 + 1.0):
            assert regularized_incomplete_beta(a, a, 0.5) == 0.5

    def test_smaller_shapes_and_far_tails_take_the_fraction(self, monkeypatch):
        served = []
        fraction = numerics._fraction_route

        def recording(alpha, beta, owner, xi):
            served.append(xi.copy())
            return fraction(alpha, beta, owner, xi)

        monkeypatch.setattr(numerics, "_fraction_route", recording)
        outside = beta_sd_points(3001.0, 2001.0, np.array([-10.001, 10.001]))
        regularized_incomplete_beta(3001.0, 2001.0, outside)
        regularized_incomplete_beta(499.0, 2001.0, beta_sd_points(499.0, 2001.0, np.zeros(1)))
        np.testing.assert_array_equal(np.concatenate(served), np.append(outside, 499.0 / 2500.0))


BAD_SHAPES = (0.0, -2.0, math.nan, math.inf, -math.inf)


class TestBetaShapeValidation:
    @pytest.mark.parametrize("bad", BAD_SHAPES)
    def test_incomplete_beta_needs_positive_finite_shapes(self, bad):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(bad, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, bad, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(np.array([2.0, bad]), 1.0, np.array([[0.5], [0.0]]))

    @pytest.mark.parametrize("a, b", [(1e50, 2e50), (1e154, 2e154), (2.0**52, 2.0**52 + 2.0)])
    def test_incomplete_beta_refuses_shapes_summing_past_two_to_the_53(self, a, b):
        # Unrefused, (1e50, 2e50, 1/3) read 1.0 where I is about 0, and
        # (1e154, 2e154, 1/3) raised InternalConsistencyError after
        # overflow warnings. The refusal comes before any work, in a batch
        # too.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge):
                regularized_incomplete_beta(a, b, 1.0 / 3.0)
            with pytest.raises(TooLarge):
                regularized_incomplete_beta(np.array([2.0, a]), np.array([3.0, b]), 0.5)

    def test_incomplete_beta_serves_shapes_summing_to_two_to_the_53(self):
        assert regularized_incomplete_beta(2.0**52, 2.0**52, 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", BAD_SHAPES)
    def test_beta_pdf_needs_positive_finite_shapes(self, bad):
        with pytest.raises(DomainError):
            beta_pdf_pair(bad, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            beta_pdf_pair(1.0, bad, 0.5, 0.5)


class TestParamValidation:
    def test_dirichlet_params_positive(self):
        with pytest.raises(DomainError):
            DirichletParams(proper=(1.0, 0.0), cs=1.0)
        with pytest.raises(DomainError):
            DirichletParams(proper=(), cs=1.0)

    def test_total_above_1e154_is_refused(self):
        # The closed-form moments square the total, which must stay finite;
        # near 1e308 the total itself would overflow.
        for proper, cs in (((1e160, 1.0), 1.0), ((1e153,) * 11, 1.0), ((1e308, 1e308), 1e308)):
            with pytest.raises(DomainError, match=r"add up to more than 1e\+154"):
                DirichletParams(proper=proper, cs=cs)
        assert DirichletParams.symmetric(3, 1e150).total == 4e150
        assert DirichletParams(proper=(5e153,), cs=5e153).total == 1e154

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf])
    def test_every_symmetric_prior_is_refused_by_one_rule(self, beta):
        # The symmetric prior, the summaries, the bias curve and the exact
        # binary density all refuse a bad concentration with one message.
        refusals = (
            lambda: DirichletParams.symmetric(2, beta),
            lambda: posterior_summaries((), prior_beta=beta),
            lambda: bias_curve(ProbabilityVector((0.5, 0.3), 0.2), (1, 2), ("plugin",), beta),
            lambda: density_curve(BinaryCounts(3, 1, 1), prior_beta=beta),
        )
        message = f"^prior concentration must be positive and finite, got {beta!r}$"
        for refuse in refusals:
            with pytest.raises(DomainError, match=message):
                refuse()

    def test_symmetric_constructor(self):
        params = DirichletParams.symmetric(3, 0.5)
        assert params.proper == (0.5, 0.5, 0.5)
        assert params.cs == 0.5
        assert params.n_proper == 3
        assert params.total == pytest.approx(2.0)

    def test_as_array_order(self):
        params = DirichletParams(proper=(1.0, 2.0), cs=9.0)
        np.testing.assert_array_equal(params.as_array(), [1.0, 2.0, 9.0])


class TestGenerator:
    def test_same_seed_same_stream_identical(self):
        a = make_generator(7, (3,)).random(16)
        b = make_generator(7, (3,)).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = make_generator(7, (0,)).random(16)
        b = make_generator(7, (1,)).random(16)
        assert not np.array_equal(a, b)

    def test_stream_is_not_seed_offset(self):
        # Spawn keys must not collide with plain reseeding.
        a = make_generator(7, (1,)).random(16)
        b = make_generator(8, ()).random(16)
        assert not np.array_equal(a, b)

    def test_uses_sfc64_bit_generator(self):
        assert type(make_generator(0).bit_generator).__name__ == "SFC64"


class TestDirichletSample:
    def test_rows_are_simplex_points(self):
        params = DirichletParams(proper=(0.4, 1.1, 2.0), cs=0.7)
        proper, cs = dirichlet_sample(params, 5000, seed=1)
        assert proper.shape == (5000, 3)
        assert cs.shape == (5000,)
        assert np.all(proper >= 0.0) and np.all(cs >= 0.0)
        np.testing.assert_allclose(proper.sum(axis=1) + cs, 1.0, atol=1e-12)

    def test_marginal_moments_match_beta(self):
        # Each Dirichlet coordinate is marginally Beta(alpha_i, total-alpha_i).
        params = DirichletParams(proper=(2.0, 3.0), cs=1.0)
        proper, cs = dirichlet_sample(params, 400_000, seed=9)
        n = proper.shape[0]
        for column, alpha in ((proper[:, 0], 2.0), (proper[:, 1], 3.0), (cs, 1.0)):
            s = params.total
            se = math.sqrt(alpha * (s - alpha) / (s * s * (s + 1.0)) / n)
            assert float(np.mean(column)) == pytest.approx(alpha / s, abs=4 * se)

    def test_deterministic(self):
        params = DirichletParams.symmetric(2, 1.0)
        a = dirichlet_sample(params, 100, seed=5)
        b = dirichlet_sample(params, 100, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_rejects_nonpositive_count(self):
        with pytest.raises(DomainError):
            dirichlet_sample(DirichletParams.symmetric(2, 1.0), 0, seed=0)

    def test_refuses_draws_whose_gammas_all_underflow(self):
        # At concentrations near 0.001 every gamma variate of some vectors
        # underflows to 0, which would divide 0 by 0.
        params = DirichletParams.symmetric(2, 0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"of 20000 Dirichlet draws underflowed"):
                dirichlet_sample(params, 20_000, seed=0)

    @pytest.mark.parametrize(
        "alpha",
        [
            (2.0, 1.0),
            (0.5, 0.5, 0.5),
            (3.0, 1.5, 4.0, 0.5),
            (4.0, 2.0, 2.0, 5.0, 1.0),
            (1.5, 0.5000001, 3.0, 12.0, 2.5),
            *(tuple(np.linspace(0.3, 4.0, n - 1)) + (0.8,) for n in range(2, 10)),
        ],
    )
    def test_same_floats_as_column_gamma_draws(self, alpha):
        # The draws must equal, bit for bit, the documented column rule of
        # gamma_reference: one column per category drawn in order from the
        # same stream (proper first, cs last), each by its shape's route,
        # divided by the column sum added left to right.
        params = DirichletParams(proper=alpha[:-1], cs=alpha[-1])
        expected = dirichlet_rows(alpha, 20_000, make_generator(3, (len(alpha),)))
        for out in (None, np.empty((len(alpha) + 1, 20_000))):
            proper, cs = _dirichlet_draws(
                params, 20_000, make_generator(3, (len(alpha),)), out=out
            )
            np.testing.assert_array_equal(proper, expected[:, :-1])
            np.testing.assert_array_equal(cs, expected[:, -1])
            if out is not None:
                assert np.shares_memory(proper, out) and np.shares_memory(cs, out)

    def test_out_of_the_wrong_shape_is_refused(self):
        # The block plus one row for the row sums; a block alone would
        # otherwise leave the last category undrawn.
        params = DirichletParams(proper=(2.0, 1.0), cs=0.5)
        for shape in ((3, 100), (4, 99), (5, 100)):
            with pytest.raises(DomainError, match="out must have shape"):
                _dirichlet_draws(params, 100, make_generator(0), out=np.empty(shape))

    def test_rows_with_routed_shapes_sum_to_one(self):
        params = DirichletParams(proper=(2.0, 3.0, 0.5, 1.5), cs=4.0)
        proper, cs = dirichlet_sample(params, 50_000, seed=2)
        assert np.all(proper > 0.0) and np.all(cs > 0.0)
        np.testing.assert_allclose(proper.sum(axis=1) + cs, 1.0, rtol=0, atol=1e-15)


# Shapes with a route of their own (an exponential fill at 1, a product of
# uniforms at 2-4), then neighbours of them on standard_gamma.
ROUTED_SHAPES = [1.0, 2.0, 3.0, 4.0]
UNROUTED_NEIGHBOURS = [0.5, 5.0]


def _generator_state(rng):
    state = rng.bit_generator.state
    return (tuple(state["state"]["state"].tolist()), state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("stream", [(), (1,), (4, 2)])
def test_shape_one_row_is_numpys_gamma_bit_for_bit(stream):
    # The exponential fill gives standard_gamma(1.0)'s floats and leaves
    # the generator where it does, over consecutive rows of one stream.
    ours, theirs = make_generator(5, stream), make_generator(5, stream)
    row, spare = np.empty(20_000), np.empty(20_000)
    for _ in range(5):
        _gamma_row(1.0, ours, row, spare)
        np.testing.assert_array_equal(row, theirs.standard_gamma(1.0, 20_000))
        assert _generator_state(ours) == _generator_state(theirs)


@pytest.mark.parametrize("shape", ROUTED_SHAPES + UNROUTED_NEIGHBOURS)
class TestGammaRowLaw:
    """Each route of _gamma_row draws Gamma(shape, 1): a two-sample KS test
    against numpy's standard_gamma on an independent PCG64 stream, and the
    sample mean and variance against shape, within 5 standard errors."""

    N = 400_000

    @pytest.fixture()
    def draws(self, shape):
        row, spare = np.empty(self.N), np.empty(self.N)
        _gamma_row(shape, make_generator(31, (int(2 * shape),)), row, spare)
        return row

    def test_ks_against_numpy_gamma(self, shape, draws):
        oracle = np.random.Generator(np.random.PCG64(2718)).standard_gamma(shape, self.N)
        assert scipy.stats.ks_2samp(draws, oracle).pvalue > 1e-3
        assert np.all(draws >= 0.0) and np.all(np.isfinite(draws))

    def test_mean_and_variance(self, shape, draws):
        # Gamma(k, 1) has mean k, variance k and fourth central moment
        # 3k(k + 2), so the sample variance has sd sqrt((2k^2 + 6k) / n).
        mean_se = math.sqrt(shape / self.N)
        var_se = math.sqrt((2.0 * shape * shape + 6.0 * shape) / self.N)
        assert float(draws.mean()) == pytest.approx(shape, abs=5 * mean_se)
        assert float(draws.var()) == pytest.approx(shape, abs=5 * var_se)
