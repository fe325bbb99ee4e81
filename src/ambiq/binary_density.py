"""Exact posterior density and CDF of ambiguity for two proper categories.

With C = 2 the ambiguity value determines the conditional vector up to the
swap pi <-> 1 - pi, so the pushforward of a Dirichlet posterior onto the
measure has a one-dimensional integral representation: condition on the
can't-solve mass u, invert the measure to a symmetric pair of pi values,
and weight by the Beta densities of the independent (u, pi) pair, for
the measures whose C = 2 density posterior_analytics.methods names ANALYTIC.

The inversion threshold, shared by both invertible measures, is

    xi(a, u) = (1 - sqrt(r)) / 2 in [0, 1/2],   a attained at pi in {xi, 1 - xi},

with r = 2(1 - a)/(1 - u) - 1 for the new measure and r = (1 - a)/(1 - u)
for the modified one. It is defined for g(a) <= u <= a, where the lower
bound g(a) is max(0, 2a - 1) for the new measure and 0 for the modified
one. Conditioning on u, the event {measure <= a} is {pi <= xi or
pi >= 1-xi}. Integrating the density of u against the Beta tail masses of
that event gives the CDF directly; differentiating under the integral sign
gives the density, which picks up the Jacobian d xi / d a.

Integrands here have square-root endpoint behavior (the Jacobian blows up
where the two pi roots merge, and Beta densities with shape below one blow
up at 0). Every integral below substitutes u = end -/+ s**2 on each half of
the interval, which turns each x**(-1/2)-type endpoint into a bounded,
smooth integrand for all shape parameters >= 1/2.

In s, each half is cut into panels at breakpoints placed where the
integrand concentrates: the can't-solve Beta mean +/- k sd, and the u at
which xi(a, u) meets the conditional Beta mean +/- k sd, for k up to 12.
At large counts both peaks are far narrower than the interval, so a rule
that does not know where they are can step over them and read ~0.
Breakpoints are clipped to the interval; panels of zero width are dropped.
Each panel gets a fixed 21-point Gauss-Kronrod rule with its embedded
10-point Gauss rule; the Kronrod sum is the value and the gap between the
two sums, added over panels, is the error estimate (heuristic and
conservative: it measures the Gauss rule's error). The nodes and weights
are QUADPACK's qk21 table, so nothing is computed at import. The density
and the CDF at many values of a are evaluated in one batch, in chunks of
32 values of a, so the work is a few numpy passes over arrays of a few MB.
For the CDF, the two conditional Beta tails at every node and the
can't-solve boundary term at every a of a chunk are one batch of the
incomplete beta: three rows of nodes, against a column of the three (a, b)
pairs, so one continued-fraction loop runs per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .measures import CountVector, MeasureKind
from .numerics import (
    DirichletParams, QuadratureResult, _check_prior, beta_pdf_pair, regularized_incomplete_beta,
)
from .posterior_analytics import ANALYTIC, methods, posterior_mean_sd

__all__ = [
    "BinaryCounts",
    "posterior_density_binary",
    "posterior_cdf_binary",
    "density_curve",
    "density_integral",
]

_CURVE_EDGE = 1e-6

# Half of a density curve's points cover the closed-form mean +/- this many
# posterior standard deviations.
_CURVE_BULK_SD = 8.0


@dataclass(frozen=True)
class BinaryCounts:
    """Observed response counts for two proper categories plus can't-solve."""

    n_plus: int
    n_minus: int
    n_cs: int

    def __post_init__(self):
        # Checked by the rule of every count record.
        CountVector((self.n_plus, self.n_minus), self.n_cs)

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus + self.n_cs


# The (a, b) shapes of a Beta distribution.
Shapes = tuple[float, float]


def _beta_params(counts: BinaryCounts, prior_beta: float) -> tuple[Shapes, Shapes]:
    """(conditional-vector Beta, can't-solve Beta) shapes of the posterior."""
    _check_prior(prior_beta)
    cond = (counts.n_plus + prior_beta, counts.n_minus + prior_beta)
    cs = (counts.n_cs + prior_beta, counts.n_plus + counts.n_minus + 2.0 * prior_beta)
    return cond, cs


# The 10-point Gauss / 21-point Kronrod pair on [-1, 1] (QUADPACK's qk21
# table): nonnegative abscissae from the outside in, their Kronrod weights,
# and their Gauss weights (zero at the abscissae Kronrod added).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077589672629580, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
])


def _mirror(half: np.ndarray, sign: float) -> np.ndarray:
    return np.concatenate([sign * half[:-1], half[::-1]])


# One rule per panel, over ascending nodes: the Kronrod sum is the value,
# its gap to the embedded Gauss sum the error estimate.
_NODES = _mirror(_XGK, -1.0)
_KRONROD_WEIGHTS = _mirror(_WGK, 1.0)
_GAUSS_WEIGHTS = _mirror(_WG, 1.0)

# Breakpoints sit at these multiples of a standard deviation around the
# can't-solve Beta mean and around the conditional Beta mean (mapped to u),
# so every panel sees at most a few standard deviations of either peak.
_BULK_OFFSETS = np.array([0.0, -1.5, 1.5, -3.0, 3.0, -5.0, 5.0, -8.0, 8.0, -12.0, 12.0])

# Values of a evaluated together; keeps the node arrays to a few MB.
_CHUNK = 32


def _bulk(shapes: Shapes) -> np.ndarray:
    """The Beta mean plus each of _BULK_OFFSETS standard deviations."""
    a, b = shapes
    s = a + b
    return a / s + _BULK_OFFSETS * math.sqrt(a * b / (s * s * (s + 1.0)))


def _panels(a, lo, cond: Shapes, cs: Shapes, is_new: bool):
    """Integration panels in s for each a, over both halves of [lo, a].

    Returns (owner, base, sign, center, half_width) per panel of positive
    width, in increasing owner, the index of the panel's a; on the panel,
    u = base + sign * s**2.
    """
    x = np.clip(_bulk(cond), 0.0, 1.0)
    spread = (1.0 - 2.0 * x) ** 2
    one_minus_a = (1.0 - a)[:, None]
    # The u at which xi(a, u) reaches each x; x = 1/2 on the modified
    # measure maps to -inf, which the clipping below moves onto lo.
    with np.errstate(divide="ignore"):
        u_cond = 1.0 - (2.0 * one_minus_a / (1.0 + spread) if is_new else one_minus_a / spread)
    u_cs = np.broadcast_to(_bulk(cs), u_cond.shape)
    breaks = np.concatenate([u_cs, u_cond], axis=1)
    mid = 0.5 * (lo + a)
    zero = np.zeros((a.size, 1))
    left = np.sort(np.sqrt(np.clip(breaks, lo[:, None], mid[:, None]) - lo[:, None]), axis=1)
    right = np.sort(np.sqrt(a[:, None] - np.clip(breaks, mid[:, None], a[:, None])), axis=1)
    left = np.concatenate([zero, left, np.sqrt(mid - lo)[:, None]], axis=1)
    right = np.concatenate([zero, right, np.sqrt(a - mid)[:, None]], axis=1)
    edges = np.stack([left, right], axis=1)  # (n, 2 halves, n_breaks + 2)
    half_width = 0.5 * np.diff(edges, axis=2)
    center = edges[:, :, :-1] + half_width
    shape = half_width.shape
    owner = np.broadcast_to(np.arange(a.size)[:, None, None], shape)
    base = np.broadcast_to(np.stack([lo, a], axis=1)[:, :, None], shape)
    sign = np.broadcast_to(np.array([1.0, -1.0])[None, :, None], shape)
    live = half_width > 0.0
    return owner[live], base[live], sign[live], center[live], half_width[live]


def _integrate(a, lo, panels, cond: Shapes, cs: Shapes, is_new: bool, cdf: bool):
    """Per-a integral over u in [lo, a] of the density (or CDF) integrand,
    over panels, the _panels of these values of a.

    Each half of the interval is written in s with u = lo + s**2 or
    u = a - s**2, and every piece is built cancellation-free from s, so
    1 - u never collapses onto 1 - a and the root xi never onto 0. For the
    modified measure the density's divergent (1-a)**(-1/2) factor is left
    to the caller. The CDF also gets its boundary term P(u <= lo), and
    both conditional tails at every node and the boundary term at every a
    are one batch of the incomplete beta: three rows of x, one per (a, b).
    Returns (values, error estimates, evaluations).
    """
    owner, base, sign, center, half_width = panels
    s = center[:, None] + half_width[:, None] * _NODES
    s2 = s * s
    a_node = a[owner][:, None]
    base = base[:, None]
    step = sign[:, None] * s2
    u = base + step
    w = (1.0 - base) - step  # 1 - u
    gap = (a_node - base) - step  # a - u
    if is_new:
        # 2(1-a) - (1-u); floored so rounding noise in the first term, which
        # vanishes at a root-merging lower end, cannot blow up the Jacobian.
        num = np.maximum((2.0 * (1.0 - a_node) - (1.0 - base)) + step, 0.25 * s2)
        one_minus_r = 2.0 * gap / w
    else:
        num = np.broadcast_to(1.0 - a_node, s.shape)
        one_minus_r = gap / w
    sqrt_r = np.sqrt(np.minimum(num / w, 1.0))
    root = one_minus_r / (2.0 * (1.0 + sqrt_r))
    if cdf:
        # P(pi <= xi) + P(pi >= 1 - xi), both as lower tails at xi, and
        # P(u <= lo), below which every conditional vector scores at most a;
        # lo is padded with zeros, where I is exactly 0 and costs nothing.
        x = np.zeros((3, root.size))
        x[0] = x[1] = root.ravel()
        x[2, : lo.size] = lo
        first, second = cond
        tails = regularized_incomplete_beta(
            np.array([[first], [second], [cs[0]]]), np.array([[second], [first], [cs[1]]]), x
        )
        inner = (tails[0] + tails[1]).reshape(root.shape)
        boundary = tails[2, : lo.size]
    else:
        co_root = 0.5 * (1.0 + sqrt_r)
        jacobian = 0.5 / np.sqrt(w * num) if is_new else 0.25 / np.sqrt(w)
        inner = (beta_pdf_pair(*cond, co_root, root) + beta_pdf_pair(*cond, root, co_root)) * jacobian
    f = (2.0 * s) * beta_pdf_pair(*cs, u, w) * inner
    kronrod = (f @ _KRONROD_WEIGHTS) * half_width
    gauss = (f @ _GAUSS_WEIGHTS) * half_width
    values = np.bincount(owner, weights=kronrod, minlength=a.size)
    if cdf:
        values += boundary
    errors = np.bincount(owner, weights=np.abs(kronrod - gauss), minlength=a.size)
    return values, errors, f.size


def _evaluate(a, counts: BinaryCounts, prior_beta: float, measure: MeasureKind, cdf: bool):
    """Density (or CDF) at every a in (0, 1), in chunks of _CHUNK values.

    The panels of every a are built in one _panels call. A panel row
    depends on its own a only and the rows come in the order of their a,
    so each chunk integrates its slice, renumbered from 0: the same floats
    as panels built per chunk.

    Returns (values, error estimates, integrand evaluations).
    """
    if methods(measure, 2).density != ANALYTIC:
        raise DomainError("the exact binary posterior covers the quadratic measures only")
    cond, cs = _beta_params(counts, prior_beta)
    is_new = measure is MeasureKind.NEW
    a = np.asarray(a, dtype=float)
    lo = np.maximum(0.0, 2.0 * a - 1.0) if is_new else np.zeros_like(a)
    owner, *rest = _panels(a, lo, cond, cs, is_new)
    starts = range(0, a.size, _CHUNK)
    cuts = np.searchsorted(owner, [*starts, a.size])
    values = np.empty_like(a)
    errors = np.empty_like(a)
    evaluations = 0
    for start, first, stop in zip(starts, cuts[:-1], cuts[1:]):
        part = a[start : start + _CHUNK]
        panels = (owner[first:stop] - start, *(column[first:stop] for column in rest))
        value, error, count = _integrate(
            part, lo[start : start + _CHUNK], panels, cond, cs, is_new, cdf
        )
        if not cdf and not is_new:
            scale = 1.0 / np.sqrt(1.0 - part)
            value, error = value * scale, error * scale
        values[start : start + _CHUNK] = value
        errors[start : start + _CHUNK] = error
        evaluations += count
    return values, errors, evaluations


def posterior_density_binary(
    a: float,
    counts: BinaryCounts,
    prior_beta: float = 1.0,
    measure: MeasureKind = MeasureKind.NEW,
) -> float:
    """Density of the posterior ambiguity at a, for 0 < a < 1.

    Computed as the integral over the can't-solve mass u of

        f_cs(u) [f(1 - xi) + f(xi)] d xi / d a

    between the lower bound g(a) and a, where f is the conditional-vector
    Beta density and f_cs the can't-solve Beta density.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0, 1), got {a!r}")
    values, _, _ = _evaluate(np.array([a]), counts, prior_beta, measure, cdf=False)
    return max(0.0, float(values[0]))


def posterior_cdf_binary(
    a: float | np.ndarray,
    counts: BinaryCounts,
    prior_beta: float = 1.0,
    measure: MeasureKind = MeasureKind.NEW,
) -> float | np.ndarray:
    """P(ambiguity <= a) under the posterior, for 0 <= a <= 1.

    Conditional on u the event is a pair of Beta tails, so the CDF needs
    only a single integral of bounded quantities:

        P(u <= g(a)) + integral_g(a)^a f_cs(u) [I(xi) + 1 - I(1 - xi)] du

    with I the regularized incomplete Beta of the conditional vector and
    g the lower bound (the boundary term is zero unless g(a) > 0, which
    happens only for the quadratic-entropy measure past a = 1/2).

    a is a float, which gives a float, or an array of levels, which gives
    an array of its shape. The levels of an array are evaluated in one
    batch; each value may then differ from that of a float call in the
    last bit, because the quadrature's sums run over a different number
    of rows.
    """
    levels = np.asarray(a, dtype=float)
    if not np.all((levels >= 0.0) & (levels <= 1.0)):
        raise DomainError(f"a must lie in [0, 1], got {a!r}")
    inner = (levels > 0.0) & (levels < 1.0)
    out = np.where(levels == 1.0, 1.0, 0.0)
    if np.any(inner):
        values, _, _ = _evaluate(levels[inner], counts, prior_beta, measure, cdf=True)
        out[inner] = np.clip(values, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _curve_grid(counts: BinaryCounts, prior_beta: float, measure: MeasureKind, n_points: int):
    """n_points increasing values in (0, 1), half of them on the posterior bulk.

    Points are spread with density proportional to one uniform share over
    [_CURVE_EDGE, 1 - _CURVE_EDGE] plus one uniform share over the closed-
    form mean +/- _CURVE_BULK_SD standard deviations; for the new measure
    the point nearest 1/2 moves onto the kink.
    """
    cond, cs = _beta_params(counts, prior_beta)
    mean, sd = posterior_mean_sd(DirichletParams(proper=cond, cs=cs[0]), measure)
    first, last = _CURVE_EDGE, 1.0 - _CURVE_EDGE
    bulk = np.clip(mean + _CURVE_BULK_SD * sd * np.array([-1.0, 1.0]), first, last)
    knots = np.array([first, bulk[0], bulk[1], last])
    # Share of the points at or below each knot: half spread evenly over
    # the whole range, half over the bulk.
    share = 0.5 * (knots - first) / (last - first) + np.array([0.0, 0.0, 0.5, 0.5])
    grid = np.interp(np.linspace(0.0, 1.0, n_points), share, knots)
    if measure is MeasureKind.NEW:
        grid[np.argmin(np.abs(grid - 0.5))] = 0.5
    return grid


def density_curve(
    counts: BinaryCounts,
    prior_beta: float = 1.0,
    measure: MeasureKind = MeasureKind.NEW,
    n_points: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate the density on an open grid over (0, 1).

    The grid is not uniform: about half of its points cover the posterior
    bulk (closed-form mean +/- 8 sd), the rest spread evenly over
    [1e-6, 1 - 1e-6]. The quadratic-entropy density has a kink at a = 1/2
    (where the lower integration bound leaves zero), so for that measure
    the grid contains 1/2 exactly. The modified-measure density diverges
    like (1 - a)**(-1/2), so a trapezoid rule over the table overstates the
    mass of the last cells; density_integral integrates it properly.
    """
    if n_points < 3:
        raise DomainError("n_points must be at least 3")
    grid = _curve_grid(counts, prior_beta, measure, n_points)
    values, _, _ = _evaluate(grid, counts, prior_beta, measure, cdf=False)
    return grid, np.maximum(values, 0.0)


# Gauss-Legendre nodes per piece of density_integral's outer rule:
# comfortably beyond 1e-5 on realistic count patterns, which is what
# normalization and mean checks need.
_OUTER_NODES = 96


def _outer_rule(n_nodes: int, moment: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in a and weights (times a**moment) of the outer rule."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    points, outer = [], []
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        mid = 0.5 * (lo + hi)
        for start, length, sign in ((lo, mid - lo, 1.0), (hi, hi - mid, -1.0)):
            s_hi = math.sqrt(length)
            s = 0.5 * s_hi * (nodes + 1.0)
            a = start + sign * s * s
            points.append(a)
            outer.append(0.5 * s_hi * weights * 2.0 * s * a**moment)
    return np.concatenate(points), np.concatenate(outer)


def density_integral(
    counts: BinaryCounts,
    prior_beta: float = 1.0,
    measure: MeasureKind = MeasureKind.NEW,
    moment: int = 0,
) -> QuadratureResult:
    """integral of a**moment times the density over (0, 1).

    Moment 0 is the normalization check, moment 1 the posterior mean of
    the measure. The outer integral splits at the kink and substitutes
    a = end -/+ s^2 toward each endpoint (taming the modified-measure
    (1-a)**(-1/2) divergence), then applies a fixed 96-point
    Gauss-Legendre rule per piece.

    error_estimate covers both levels of the quadrature: the outer rule's
    weighted sum of the inner Gauss-Kronrod error estimates, plus the gap
    between the value and a coarser outer rule with 48 nodes per
    piece (heuristic and conservative: it measures the coarser rule's
    error). The density at the nodes of both outer rules is taken in one
    batched call, and n_evaluations counts both.
    """
    if moment < 0 or moment != int(moment):
        raise DomainError(f"moment must be a nonnegative integer, got {moment!r}")
    points, outer = _outer_rule(_OUTER_NODES, moment)
    coarse_points, coarse_outer = _outer_rule(_OUTER_NODES // 2, moment)
    values, errors, evaluations = _evaluate(
        np.concatenate([points, coarse_points]), counts, prior_beta, measure, cdf=False
    )
    value = float(outer @ values[: points.size])
    coarse = float(coarse_outer @ values[points.size :])
    return QuadratureResult(
        value=value,
        error_estimate=float(outer @ errors[: points.size]) + abs(value - coarse),
        n_evaluations=evaluations,
    )
