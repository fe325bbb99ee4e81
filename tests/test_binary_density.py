"""Exact posterior density of binary-task ambiguity: the reference inverse
transform xi, its lower bound and its a-derivative, normalization of the
analytic density, agreement with an independently assembled scipy route,
consistency of means with the closed-form posterior moments, the CDF
(endpoints, monotonicity, agreement with the density and with an empirical
CDF), and tail behavior near a = 1.

The reference density here is deliberately naive: scipy beta pdfs and scipy
quadrature glued to the xi inversion, its lower bound and the Jacobian
xi_partial_a written out below. It shares no integration code with the
production path, which inlines its own forms of all three in the
substituted variable, so agreement checks the whole change-of-variables
pipeline, not one implementation against itself. The reference CDF is the
adaptive Simpson route the package used before its fixed Gauss-Kronrod
rule; it converges at small counts only. At counts where it does not, the
CDF and the density curve are checked against Monte Carlo quantiles of
seeded numpy Dirichlet draws.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ambiq.binary_density import (
    _GAUSS_WEIGHTS,
    _KRONROD_WEIGHTS,
    _NODES,
    BinaryCounts,
    density_curve,
    density_integral,
    posterior_cdf_binary,
    posterior_density_binary,
)
from ambiq.exceptions import DomainError
from ambiq.measures import MeasureKind, ProbabilityVector, ambiguity, ambiguity_array
from ambiq.numerics import DirichletParams, make_generator, regularized_incomplete_beta
from ambiq.posterior_analytics import expected_amb, expected_amb_modified
from quadrature_oracle import Quadrature, adaptive_simpson

# Count vectors of acceptance criterion 05.
SMALL_COUNTS = [
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

# Count vectors whose posterior peak is narrow enough that a quadrature
# blind to where the integrand concentrates reads CDF and density ~0 there.
LARGE_COUNTS = [
    BinaryCounts(3000, 2000, 500),
    BinaryCounts(6000, 4000, 1000),
    BinaryCounts(285, 1032, 1),
    BinaryCounts(260, 204, 298),
]
LEVELS = np.array([0.05, 0.25, 0.5, 0.75, 0.95])

# Count vectors at which the continued fraction alone needed more than its
# iteration cap near the conditional Beta mean, so the CDF raised.
HUGE_COUNTS = [BinaryCounts(2_000_000, 2_000_000, 10), BinaryCounts(20_000_000, 10_000_000, 1_000_000)]


def lower_bound(a, measure):
    """Smallest can't-solve mass u compatible with measure value a."""
    return max(0.0, 2.0 * a - 1.0) if measure is MeasureKind.NEW else 0.0


def xi(a, u, measure):
    """Smaller of the two conditional-probability roots attaining level a.

    Defined for 0 < a < 1 and lower_bound(a) <= u <= a, up to 1e-9 of
    rounding slack in the radicand; vectorized over u.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0, 1), got {a!r}")
    one_minus_u = 1.0 - np.asarray(u, dtype=float)
    if np.any(one_minus_u <= 0.0):
        raise DomainError("u must be below 1")
    if measure is MeasureKind.NEW:
        r = 2.0 * (1.0 - a) / one_minus_u - 1.0
    else:
        r = (1.0 - a) / one_minus_u
    if np.any(r < -1e-9) or np.any(r > 1.0 + 1e-9):
        raise DomainError(f"(a, u) outside the invertible region for the {measure.value} measure")
    value = 0.5 * (1.0 - np.sqrt(np.clip(r, 0.0, 1.0)))
    return value if np.ndim(u) else float(value)


def xi_partial_a(a, u, measure):
    """Jacobian d xi / d a at fixed u, vectorized over u; the production
    density inlines its own form of it in the substituted variable."""
    xi(a, u, measure)  # rejects (a, u) outside the invertible region
    one_minus_u = 1.0 - np.asarray(u, dtype=float)
    if measure is MeasureKind.NEW:
        denom = 2.0 * np.sqrt(np.clip(one_minus_u * (2.0 * (1.0 - a) - one_minus_u), 0.0, None))
    else:
        denom = 4.0 * np.sqrt((1.0 - a) * one_minus_u)
    if np.any(denom < 1e-300):
        raise ArithmeticError(f"d xi/d a diverges at the root-merging point for a={a!r}")
    value = 1.0 / denom
    return value if np.ndim(u) else float(value)


def reference_density(a, counts, beta, measure):
    """Naive scipy route; see module docstring."""
    cond = (counts.n_plus + beta, counts.n_minus + beta)
    cs = (counts.n_cs + beta, counts.n_plus + counts.n_minus + 2 * beta)
    lo = lower_bound(a, measure)
    if a <= lo:
        return 0.0

    def integrand(u):
        x = xi(a, u, measure)
        jac = abs(xi_partial_a(a, u, measure))
        spikes = scipy.stats.beta.pdf(x, *cond) + scipy.stats.beta.pdf(1 - x, *cond)
        return scipy.stats.beta.pdf(u, *cs) * spikes * jac

    # Square-root substitutions toward both endpoints, as in the package,
    # but integrated by scipy with a fixed tiny inset.
    mid = 0.5 * (lo + a)
    eps = 1e-7
    left, _ = scipy.integrate.quad(
        lambda s: 2 * s * integrand(lo + s * s), eps, math.sqrt(mid - lo), limit=300
    )
    right, _ = scipy.integrate.quad(
        lambda s: 2 * s * integrand(a - s * s), eps, math.sqrt(a - mid), limit=300
    )
    return left + right


def simpson_cdf(a, counts, beta, measure):
    """The CDF by adaptive Simpson on u = end -/+ s**2 over both halves of
    [lower_bound(a), a], with per-half absolute tolerance 5e-9."""
    cond = (counts.n_plus + beta, counts.n_minus + beta)
    cs = (counts.n_cs + beta, counts.n_plus + counts.n_minus + 2 * beta)
    lo = lower_bound(a, measure)

    def integrand(u):
        root = xi(a, u, measure)
        tails = (
            regularized_incomplete_beta(*cond, root)
            + 1.0
            - regularized_incomplete_beta(*cond, 1.0 - root)
        )
        return scipy.stats.beta.pdf(u, *cs) * tails

    mid = 0.5 * (lo + a)
    half = Quadrature(tol=5e-9)
    left = adaptive_simpson(
        lambda s: integrand(lo + s * s) * 2 * s, 1e-8, math.sqrt(mid - lo), half
    )
    right = adaptive_simpson(
        lambda s: integrand(a - s * s) * 2 * s, 1e-8, math.sqrt(a - mid), half
    )
    return regularized_incomplete_beta(*cs, lo) + left.value + right.value


def mc_quantiles(counts, measure, seed):
    """Quantiles at LEVELS of 200k posterior draws (numpy PCG64, prior 1)."""
    rng = np.random.default_rng(seed)
    alpha = [counts.n_plus + 1.0, counts.n_minus + 1.0, counts.n_cs + 1.0]
    draws = rng.dirichlet(alpha, size=200_000)
    return np.quantile(ambiguity_array(draws[:, :2], draws[:, 2], measure), LEVELS)


def mixture_vector(a, u, measure):
    """Binary soft label whose ambiguity equals a: proper = (1-u)(xi, 1-xi)."""
    x = xi(a, u, measure)
    return ProbabilityVector(((1.0 - u) * x, (1.0 - u) * (1.0 - x)), u)


class TestXi:
    def test_inverts_the_measure(self):
        # xi is defined so the resulting soft label scores exactly a.
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            for a in (0.15, 0.4, 0.7, 0.95):
                lo = lower_bound(a, measure)
                for frac in (0.1, 0.5, 0.9):
                    u = lo + frac * (a - lo)
                    q = mixture_vector(a, u, measure)
                    assert ambiguity(q, measure) == pytest.approx(a, abs=1e-9)

    def test_hand_value(self):
        # New measure, u = 0, a = 1/2: r = 0, xi = 1/2 (uniform conditional).
        assert xi(0.5, 0.0, MeasureKind.NEW) == pytest.approx(0.5, abs=1e-12)

    def test_branch_in_lower_half(self):
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            x = xi(0.3, 0.1, measure)
            assert 0.0 < x <= 0.5

    def test_outside_domain_rejected(self):
        # u > a means even total conditional agreement cannot push the
        # measure down to a.
        with pytest.raises(DomainError):
            xi(0.3, 0.5, MeasureKind.NEW)
        # New measure at a > 1/2 also needs u >= 2a - 1.
        with pytest.raises(DomainError):
            xi(0.9, 0.5, MeasureKind.NEW)

    def test_vectorized_over_u(self):
        us = np.array([0.05, 0.1, 0.2])
        out = xi(0.4, us, MeasureKind.MODIFIED)
        assert out.shape == us.shape
        for u, x in zip(us, out):
            assert x == pytest.approx(xi(0.4, float(u), MeasureKind.MODIFIED))


class TestXiPartialA:
    def test_matches_finite_difference(self):
        h = 1e-6
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            for a, u in ((0.3, 0.1), (0.6, 0.25), (0.8, 0.5)):
                if lower_bound(a, measure) + 1e-3 > u:
                    continue
                grad = xi_partial_a(a, u, measure)
                fd = (xi(a + h, u, measure) - xi(a - h, u, measure)) / (2 * h)
                assert grad == pytest.approx(fd, rel=1e-5)

    def test_positive_on_lower_branch(self):
        # Raising a pushes the lower root up toward the uniform point 1/2.
        assert xi_partial_a(0.4, 0.1, MeasureKind.NEW) > 0.0


class TestLowerBound:
    def test_new_measure_kink(self):
        assert lower_bound(0.3, MeasureKind.NEW) == 0.0
        assert lower_bound(0.8, MeasureKind.NEW) == pytest.approx(0.6)

    def test_modified_measure(self):
        assert lower_bound(0.3, MeasureKind.MODIFIED) == 0.0
        assert lower_bound(0.8, MeasureKind.MODIFIED) == 0.0


class TestNormalization:
    @pytest.mark.parametrize(
        "counts,beta",
        [
            (BinaryCounts(0, 0, 0), 1.0),
            (BinaryCounts(0, 0, 0), 0.5),
            (BinaryCounts(3, 2, 1), 1.0),
            (BinaryCounts(12, 3, 2), 2.0),
            (BinaryCounts(30, 0, 0), 1.0),
            (BinaryCounts(0, 0, 7), 0.5),
        ],
    )
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_density_integrates_to_one(self, counts, beta, measure):
        result = density_integral(counts, prior_beta=beta, measure=measure)
        assert result.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_error_estimate_covers_outer_rule(self, measure):
        # At this count the posterior peak is narrow enough that the outer
        # 96-node rule, not the inner panels, sets the error of the mass.
        result = density_integral(BinaryCounts(6000, 4000, 1000), measure=measure)
        assert result.error_estimate >= abs(result.value - 1.0)

    def test_mean_matches_closed_form(self):
        counts = BinaryCounts(10, 1, 1)
        posterior = DirichletParams(proper=(11.0, 2.0), cs=2.0)
        for measure, expected in (
            (MeasureKind.NEW, expected_amb(posterior)),
            (MeasureKind.MODIFIED, expected_amb_modified(posterior)),
        ):
            mass = density_integral(counts, measure=measure, moment=0).value
            first = density_integral(counts, measure=measure, moment=1).value
            assert first / mass == pytest.approx(expected, abs=1e-6)


class TestAgainstReferenceRoute:
    @pytest.mark.parametrize(
        "counts,beta",
        [(counts, 1.0) for counts in SMALL_COUNTS]
        + [(BinaryCounts(0, 0, 0), 0.5), (BinaryCounts(12, 3, 2), 2.0)],
    )
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_density_agrees(self, counts, beta, measure):
        for a in (0.2, 0.45, 0.55, 0.8):
            mine = posterior_density_binary(a, counts, prior_beta=beta, measure=measure)
            ref = reference_density(a, counts, beta, measure)
            assert mine == pytest.approx(ref, rel=1e-5, abs=1e-9)


class TestDensityEdges:
    def test_rejects_closed_endpoints(self):
        # The density is defined on the open interval only; the CDF handles
        # the endpoints.
        counts = BinaryCounts(2, 2, 0)
        with pytest.raises(DomainError):
            posterior_density_binary(0.0, counts)
        with pytest.raises(DomainError):
            posterior_density_binary(1.0, counts)

    def test_nonnegative_on_grid(self):
        counts = BinaryCounts(5, 0, 2)
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            grid = np.linspace(0.01, 0.99, 25)
            values = [
                posterior_density_binary(float(a), counts, measure=measure) for a in grid
            ]
            assert all(v >= 0.0 for v in values)
            assert all(math.isfinite(v) for v in values)


class TestTailBehavior:
    def test_new_density_vanishes_at_upper_bound(self):
        counts = BinaryCounts(3, 2, 1)
        values = [
            posterior_density_binary(1.0 - eps, counts, measure=MeasureKind.NEW)
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert values[0] > values[1] > values[2]
        assert values[-1] < 0.05

    def test_modified_density_has_inverse_sqrt_divergence(self):
        # f(1-eps)/f(1-4eps) -> sqrt(4 eps / eps) = 2 as eps -> 0.
        counts = BinaryCounts(3, 2, 1)
        eps = 1e-5
        near = posterior_density_binary(1.0 - eps, counts, measure=MeasureKind.MODIFIED)
        far = posterior_density_binary(1.0 - 4 * eps, counts, measure=MeasureKind.MODIFIED)
        assert near / far == pytest.approx(2.0, abs=0.05)


class TestCdf:
    def test_endpoints(self):
        counts = BinaryCounts(4, 1, 1)
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            assert posterior_cdf_binary(0.0, counts, measure=measure) == 0.0
            assert posterior_cdf_binary(1.0, counts, measure=measure) == 1.0

    def test_monotone_on_grid(self):
        counts = BinaryCounts(3, 2, 1)
        grid = np.linspace(0.0, 1.0, 41)
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            values = [
                posterior_cdf_binary(float(a), counts, measure=measure) for a in grid
            ]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_consistent_with_density(self):
        # CDF increments must equal the integral of the density; compare a
        # central difference of the CDF against the density at the midpoint.
        counts = BinaryCounts(3, 2, 1)
        h = 5e-4
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            for a in (0.3, 0.6):
                rise = posterior_cdf_binary(
                    a + h, counts, measure=measure
                ) - posterior_cdf_binary(a - h, counts, measure=measure)
                assert rise / (2 * h) == pytest.approx(
                    posterior_density_binary(a, counts, measure=measure), rel=1e-3
                )

    def test_against_empirical_cdf(self):
        counts = BinaryCounts(3, 2, 1)
        posterior = DirichletParams(proper=(4.0, 3.0), cs=2.0)
        rng = make_generator(21)
        draws = rng.dirichlet(posterior.as_array(), size=20_000)
        proper, cs = draws[:, :-1], draws[:, -1]
        for measure in (MeasureKind.NEW, MeasureKind.MODIFIED):
            from ambiq.measures import ambiguity_array

            values = np.sort(ambiguity_array(proper, cs, measure))
            for a in (0.25, 0.5, 0.75):
                ecdf = float(np.searchsorted(values, a, side="right")) / len(values)
                assert posterior_cdf_binary(a, counts, measure=measure) == pytest.approx(
                    ecdf, abs=0.02
                )


# posterior_cdf_binary at the benchmark's count vectors, both measures,
# prior concentrations 1 and 1/2, and levels near the closed-form mean
# -2, -1, 0, 1 and 2 sd: (counts, measure, prior, levels, values). The
# values were written down from one-level calls before the incomplete
# beta took its tails in batches, so any change in a float shows here.
# The (3000, 2000, 500) and (6000, 4000, 1000) rows were written again
# when their Beta pairs moved to Temme's expansion: each new float lies
# within 1e-15 of the same quadrature run on scipy's betainc, where the
# old ones were up to 7.7e-12 off.
PINNED_CDF = [
    ((3, 1, 1), MeasureKind.NEW, 1.0, (0.283363, 0.409539, 0.535714, 0.66189, 0.788065), (
        0.040449063944860066,
        0.1560375379179776,
        0.4547482586967182,
        0.8562906606481553,
        0.987499463306496,
    )),
    ((3, 1, 1), MeasureKind.NEW, 0.5, (0.209113, 0.354556, 0.5, 0.645444, 0.790887), (
        0.03847933345166927,
        0.16635372872554063,
        0.44296947872540593,
        0.854915138822541,
        0.9873562841596878,
    )),
    ((3, 1, 1), MeasureKind.MODIFIED, 1.0, (0.458512, 0.63997, 0.821429, 0.99, 0.999), (
        0.05525062539614303,
        0.1699063166862991,
        0.38840298512586213,
        0.8531535198130689,
        0.9535609785199393,
    )),
    ((3, 1, 1), MeasureKind.MODIFIED, 0.5, (0.336816, 0.553024, 0.769231, 0.985438, 0.999), (
        0.050063866643627955,
        0.18119680866939464,
        0.4095719236463494,
        0.856596877810482,
        0.962539411681217,
    )),
    ((40, 25, 10), MeasureKind.NEW, 1.0, (0.480013, 0.5115, 0.542986, 0.574473, 0.60596), (
        0.03536304868406253,
        0.14980836368939632,
        0.4655459603983028,
        0.8556314230672053,
        0.9865416755376797,
    )),
    ((40, 25, 10), MeasureKind.NEW, 0.5, (0.476387, 0.508313, 0.54024, 0.572167, 0.604093), (
        0.03565496065726541,
        0.15001318593564167,
        0.4641251377044593,
        0.8560592372939606,
        0.986867011870637,
    )),
    ((40, 25, 10), MeasureKind.MODIFIED, 1.0, (0.850381, 0.897664, 0.944947, 0.99223, 0.999), (
        0.0477320241714014,
        0.15379827611480826,
        0.4095138055790267,
        0.8639299786620231,
        0.9589608062693614,
    )),
    ((40, 25, 10), MeasureKind.MODIFIED, 0.5, (0.846309, 0.894767, 0.943225, 0.991683, 0.999), (
        0.04760628850066717,
        0.15404316918583,
        0.4104068359650806,
        0.8625169773994569,
        0.9604371611501936,
    )),
    ((300, 200, 50), MeasureKind.NEW, 1.0, (0.506796, 0.517015, 0.527234, 0.537453, 0.547672), (
        0.029514027394259186,
        0.1563579597525775,
        0.4824665723447467,
        0.8445608155633736,
        0.9837498294985918,
    )),
    ((300, 200, 50), MeasureKind.NEW, 0.5, (0.50635, 0.516585, 0.526819, 0.537054, 0.547289), (
        0.029551633980754066,
        0.1563768479177596,
        0.4823600066947552,
        0.8445829397796994,
        0.9838007940997011,
    )),
    ((300, 200, 50), MeasureKind.MODIFIED, 1.0, (0.930368, 0.946306, 0.962245, 0.978183, 0.994121), (
        0.036570357576642266,
        0.15724116776810193,
        0.4591822872604468,
        0.8436147789404823,
        0.9963737358237734,
    )),
    ((300, 200, 50), MeasureKind.MODIFIED, 0.5, (0.930079, 0.946075, 0.96207, 0.978066, 0.994061), (
        0.03655651475160076,
        0.15725897875357195,
        0.45922311591323006,
        0.8436052903252969,
        0.9963504544937938,
    )),
    ((3000, 2000, 500), MeasureKind.NEW, 1.0, (0.520815, 0.524042, 0.527269, 0.530496, 0.533723), (
        0.025015777925610924,
        0.15841140415795366,
        0.49441810931452007,
        0.841653520010499,
        0.9795164172524387,
    )),
    ((3000, 2000, 500), MeasureKind.NEW, 0.5, (0.520772, 0.524, 0.527227, 0.530455, 0.533682), (
        0.025010761650054884,
        0.15842121063914338,
        0.4943699783271506,
        0.8416645947306043,
        0.9795121925540209,
    )),
    ((3000, 2000, 500), MeasureKind.MODIFIED, 1.0, (0.953414, 0.958455, 0.963496, 0.968537, 0.973578), (
        0.02775079042453035,
        0.15847849187830734,
        0.4869087361936643,
        0.8415188164539356,
        0.9828637670796323,
    )),
    ((3000, 2000, 500), MeasureKind.MODIFIED, 0.5, (0.953393, 0.958436, 0.963479, 0.968522, 0.973565), (
        0.027748855748300785,
        0.1584808441164278,
        0.4869275619230039,
        0.8415383666391564,
        0.9828683693523692,
    )),
    ((6000, 4000, 1000), MeasureKind.NEW, 1.0, (0.522707, 0.524989, 0.527271, 0.529552, 0.531834), (
        0.02434495745024159,
        0.15851300484162087,
        0.4960748154877839,
        0.8414449097111465,
        0.978855588935519,
    )),
    ((6000, 4000, 1000), MeasureKind.NEW, 0.5, (0.522686, 0.524968, 0.52725, 0.529532, 0.531814), (
        0.02434960602505072,
        0.15851282102195582,
        0.49604262460863763,
        0.8415149667467275,
        0.9788670250693438,
    )),
    ((6000, 4000, 1000), MeasureKind.MODIFIED, 1.0, (0.956437, 0.960002, 0.963566, 0.967131, 0.970695), (
        0.026349022678665072,
        0.15858792210375022,
        0.4907192052182771,
        0.8414473433593774,
        0.9811539307794899,
    )),
    ((6000, 4000, 1000), MeasureKind.MODIFIED, 0.5, (0.956427, 0.959993, 0.963558, 0.967123, 0.970688), (
        0.026347205303429263,
        0.15860418633243806,
        0.49078707502830526,
        0.8414439582119697,
        0.9811580139772843,
    )),
]


@pytest.mark.parametrize("counts, measure, prior, levels, values", PINNED_CDF)
def test_cdf_floats_are_pinned(counts, measure, prior, levels, values):
    got = tuple(posterior_cdf_binary(a, BinaryCounts(*counts), prior, measure) for a in levels)
    assert got == values


# (counts, measure, ((a, density at a) at points 4, 12, 16, 20 and 28 of
# a 33-point density_curve), density_integral's moment-1 value), prior 1.
# The curve's grid and the panel breakpoints both derive from the Beta
# means and sds, so these floats pin both.
PINNED_DENSITY = [
    ((3, 1, 1), MeasureKind.NEW, (
        (0.12500075, 0.05666342943050019),
        (0.37500025, 1.1014805170501383),
        (0.5, 2.8197938618239498),
        (0.62499975, 2.8165174475592436),
        (0.87499925, 0.02926517248739832),
    ), 0.5357142857142886),
    ((3, 1, 1), MeasureKind.MODIFIED, (
        (0.12500075, 0.014129896334990677),
        (0.37500025, 0.2583817599702718),
        (0.49999999999999994, 0.5063353097280535),
        (0.62499975, 0.8315508624332715),
        (0.87499925, 2.0032296549747928),
    ), 0.8214285714290639),
    ((300, 200, 50), MeasureKind.NEW, (
        (0.25000049999999996, 8.230520320169426e-58),
        (0.48827539286318566, 0.12061173488407666),
        (0.5234072340600786, 34.97542010758304),
        (0.5585390752569714, 0.15889651246588377),
        (0.7499994999999999, 5.280849462122373e-95),
    ), 0.5272344234772899),
    ((300, 200, 50), MeasureKind.MODIFIED, (
        (0.25000049999999996, 3.2909400274207038e-115),
        (0.7499995, 1.1704816000816795e-13),
        (0.8581767459530049, 0.00028764483879141896),
        (0.8936323094647536, 0.05750921167884747),
        (0.9645434364882512, 25.36506234893356),
    ), 0.9622446154898298),
    ((3000, 2000, 500), MeasureKind.NEW, (
        (0.25000049999999996, 0.0),
        (0.5136556750719681, 0.03837520313418738),
        (0.525929953351241, 111.66218334801103),
        (0.538204231630514, 0.26190056126819045),
        (0.7499995, 0.0),
    ), 0.5272687734344053),
    ((3000, 2000, 500), MeasureKind.MODIFIED, (
        (0.25000049999999996, 0.0),
        (0.7499995, 5.436963211110523e-138),
        (0.9286501111931583, 2.0164338223851187e-06),
        (0.9464873333948688, 0.5426596330020451),
        (0.9821617777982896, 0.011345574971260451),
    ), 0.9634962980130204),
]


@pytest.mark.parametrize("counts, measure, points, mean", PINNED_DENSITY)
def test_density_floats_are_pinned(counts, measure, points, mean):
    grid, values = density_curve(BinaryCounts(*counts), 1.0, measure, n_points=33)
    got = tuple((float(grid[i]), float(values[i])) for i in (4, 12, 16, 20, 28))
    assert got == points
    assert density_integral(BinaryCounts(*counts), 1.0, measure, moment=1).value == mean


@pytest.mark.parametrize("prior", [0.0, -1.0, math.nan, math.inf])
def test_prior_must_be_positive_and_finite(prior):
    counts = BinaryCounts(3, 1, 1)
    with pytest.raises(DomainError):
        posterior_cdf_binary(0.5, counts, prior)
    with pytest.raises(DomainError):
        posterior_density_binary(0.5, counts, prior)
    with pytest.raises(DomainError):
        density_curve(counts, prior)


class TestBatchedCdf:
    COUNTS = BinaryCounts(40, 25, 10)

    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_levels_in_one_call_match_one_call_each(self, measure):
        # Only the quadrature sums see a different row count, so values
        # agree to about an ulp; both endpoints stay exact.
        levels = np.concatenate([[0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5], np.linspace(0.4, 0.99, 70)])
        batch = posterior_cdf_binary(levels, self.COUNTS, 1.0, measure)
        alone = np.array([posterior_cdf_binary(float(a), self.COUNTS, 1.0, measure) for a in levels])
        assert batch.shape == levels.shape
        assert batch[0] == 0.0 and batch[1] == 1.0
        np.testing.assert_allclose(batch, alone, rtol=0.0, atol=2.3e-16)

    def test_shape_and_type(self):
        assert type(posterior_cdf_binary(0.5, self.COUNTS)) is float
        assert type(posterior_cdf_binary(np.float64(0.5), self.COUNTS)) is float
        grid = np.array([[0.2, 0.5, 0.55], [0.6, 0.0, 1.0]])
        values = posterior_cdf_binary(grid, self.COUNTS)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
        assert posterior_cdf_binary([], self.COUNTS).shape == (0,)

    def test_rejects_any_level_outside_unit_interval(self):
        for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, float("nan")]):
            with pytest.raises(DomainError):
                posterior_cdf_binary(np.array(bad), self.COUNTS)

    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_one_incomplete_beta_call_per_chunk(self, measure, monkeypatch):
        # Both conditional tails and the boundary term go through one
        # continued-fraction batch per chunk of _CHUNK levels.
        import ambiq.binary_density as bd

        calls = []

        def counting(a, b, x):
            calls.append(np.size(x))
            return regularized_incomplete_beta(a, b, x)

        monkeypatch.setattr(bd, "regularized_incomplete_beta", counting)
        posterior_cdf_binary(0.7, self.COUNTS, 1.0, measure)
        assert len(calls) == 1
        calls.clear()
        posterior_cdf_binary(np.linspace(0.3, 0.9, bd._CHUNK + 1), self.COUNTS, 1.0, measure)
        assert len(calls) == 2


class TestPanelRule:
    def test_gauss_part_is_the_10_point_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        used = _GAUSS_WEIGHTS > 0.0
        np.testing.assert_allclose(_NODES[used], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_GAUSS_WEIGHTS[used], weights, rtol=0, atol=1e-15)

    def test_kronrod_rule_exact_through_degree_31(self):
        # The Kronrod extension of the Gauss nodes is unique, so exactness
        # through degree 3n + 1 = 31 pins down the whole table.
        assert np.all(np.diff(_NODES) > 0.0)
        for degree in range(32):
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert _KRONROD_WEIGHTS @ _NODES**degree == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("counts", [BinaryCounts(3, 1, 1), BinaryCounts(300, 200, 50)])
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    @pytest.mark.parametrize("cdf", [False, True])
    def test_a_grid_is_its_chunks_evaluated_alone(self, counts, measure, cdf):
        # One _panels call serves the whole grid, and each chunk integrates
        # its slice of it: the floats of evaluating every chunk on its own.
        import ambiq.binary_density as bd

        grid = np.linspace(0.01, 0.99, 3 * bd._CHUNK + 5)
        values, errors, evaluations = bd._evaluate(grid, counts, 1.0, measure, cdf)
        chunks = [
            bd._evaluate(grid[start : start + bd._CHUNK], counts, 1.0, measure, cdf)
            for start in range(0, grid.size, bd._CHUNK)
        ]
        assert values.tobytes() == np.concatenate([c[0] for c in chunks]).tobytes()
        assert errors.tobytes() == np.concatenate([c[1] for c in chunks]).tobytes()
        assert evaluations == sum(c[2] for c in chunks)


class TestAgainstAdaptiveRoute:
    @pytest.mark.parametrize("counts", SMALL_COUNTS)
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_cdf_agrees(self, counts, measure):
        for a in (0.02, 0.2, 0.45, 0.5, 0.55, 0.8, 0.98):
            mine = posterior_cdf_binary(a, counts, measure=measure)
            assert mine == pytest.approx(simpson_cdf(a, counts, 1.0, measure), abs=1e-7)


class TestLargeCounts:
    @pytest.mark.parametrize("counts", LARGE_COUNTS)
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_cdf_at_mc_quantiles(self, counts, measure):
        # 200k draws put the ECDF standard error at most 0.0012; 0.005 is
        # about four of them.
        quantiles = mc_quantiles(counts, measure, seed=counts.total)
        cdf = [posterior_cdf_binary(float(a), counts, measure=measure) for a in quantiles]
        np.testing.assert_allclose(cdf, LEVELS, atol=0.005)

    @pytest.mark.parametrize("counts", LARGE_COUNTS)
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_curve_mass_between_mc_quantiles(self, counts, measure):
        quantiles = mc_quantiles(counts, measure, seed=counts.total + 1)
        grid, values = density_curve(counts, measure=measure)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))]
        )
        mass = np.diff(np.interp(quantiles, grid, cumulative))
        np.testing.assert_allclose(mass, np.diff(LEVELS), atol=0.01)


class TestHugeCounts:
    @pytest.mark.parametrize("counts", HUGE_COUNTS)
    @pytest.mark.parametrize("measure", [MeasureKind.NEW, MeasureKind.MODIFIED])
    def test_cdf_at_mc_quantiles(self, counts, measure):
        # 2M draws, in four blocks of one generator to bound memory; at
        # each quantile the CDF must read its level within 5 standard
        # errors, sqrt(p(1 - p) / 2M), at most 0.0018.
        draws = 2_000_000
        rng = np.random.default_rng(counts.total)
        alpha = [counts.n_plus + 1.0, counts.n_minus + 1.0, counts.n_cs + 1.0]
        values = []
        for _ in range(4):
            block = rng.dirichlet(alpha, size=draws // 4)
            values.append(ambiguity_array(block[:, :2], block[:, 2], measure))
        quantiles = np.quantile(np.concatenate(values), LEVELS)
        cdf = [posterior_cdf_binary(float(a), counts, measure=measure) for a in quantiles]
        se = np.sqrt(LEVELS * (1.0 - LEVELS) / draws)
        assert np.all(np.abs(np.array(cdf) - LEVELS) <= 5.0 * se), (cdf, se)


class TestDensityCurve:
    def test_shapes_and_grid(self):
        counts = BinaryCounts(2, 1, 1)
        grid, values = density_curve(counts, n_points=128)
        assert grid.shape == values.shape == (128,)
        assert np.all(np.diff(grid) > 0)
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))

    def test_new_grid_contains_kink(self):
        grid, _ = density_curve(BinaryCounts(1, 1, 0), n_points=64)
        assert 0.5 in grid

    def test_half_the_points_cover_the_bulk(self):
        counts = BinaryCounts(3000, 2000, 500)
        posterior = DirichletParams(proper=(3001.0, 2001.0), cs=501.0)
        mean = expected_amb(posterior)
        grid, _ = density_curve(counts, n_points=512)
        assert 0.0 < grid[0] and grid[-1] < 1.0
        assert 0.5 in grid
        near = np.abs(grid - mean) < 0.05
        assert np.count_nonzero(near) >= 256

    def test_deterministic(self):
        counts = BinaryCounts(2, 1, 1)
        a1, v1 = density_curve(counts, measure=MeasureKind.MODIFIED, n_points=32)
        a2, v2 = density_curve(counts, measure=MeasureKind.MODIFIED, n_points=32)
        np.testing.assert_array_equal(v1, v2)


class TestBinaryCounts:
    def test_total(self):
        assert BinaryCounts(3, 2, 1).total == 6

    def test_accepts_numpy_integers(self):
        row = np.array([3, 2, 1])
        counts = BinaryCounts(row[0], row[1], row[2])
        assert counts.total == 6

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            BinaryCounts(-1, 0, 0)

    def test_rejects_float(self):
        with pytest.raises(DomainError):
            BinaryCounts(1.5, 0, 0)

    def test_rejects_boolean(self):
        # The rule of CountVector, which refuses booleans as counts.
        with pytest.raises(DomainError):
            BinaryCounts(True, 1, 1)
