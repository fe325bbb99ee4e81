"""Special functions, Dirichlet parameters, Dirichlet sampling.

Everything downstream (closed-form posterior moments, the analytic binary
density, Monte-Carlo summaries) is built on the primitives in this module.
Special functions are implemented here rather than taken from an external
library so their accuracy is pinned by this repo's own tests; the test suite
cross-checks them against scipy as an independent oracle. The one Beta
density, ``beta_pdf_pair``, takes x and 1 - x as separate arguments, since
the binary density builds both without cancellation; ``QuadratureResult``
carries the value, error estimate and evaluation count of its fixed rules.
``regularized_incomplete_beta`` takes plain a, b and x that broadcast
like scipy's betainc, and evaluates a whole batch at once, also over
several (a, b): the binary CDF sends both conditional tails and its
can't-solve boundary term through one call. Each element takes one of
two routes, chosen from its shapes and x alone. Where both shapes are at
least 500 and x lies within 10 sd of the Beta mean, Temme's uniform
asymptotic expansion (BASYM of TOMS 708) gives I_x within 4e-14 at any
shape up to 1e8, at a cost that does not grow with the shapes; near the
mean of large shapes the continued fraction needed O(sqrt(shape))
iterations, drifted to 4e-9 off and raised from a = b = 9e5 on, and now it
no longer does. Every other element takes the continued fraction, in
one loop for the batch.

All functions are pure. Sampling takes explicit seeds and returns values;
there is no hidden global RNG state. A Dirichlet sample draws one gamma
row per category, each by the route its scalar shape picks
(``_gamma_row``): at integer shapes 2, 3 and 4 an exact identity from
uniforms, which costs less than numpy's gamma sampler there, at shape 1
numpy's exponential sampler, which gives standard_gamma's own floats
there, and at every other shape numpy's standard_gamma. The route
depends only on the shape, so reruns are byte-identical for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DomainError, InternalConsistencyError, TooLarge

__all__ = [
    "DirichletParams",
    "QuadratureResult",
    "ln_gamma",
    "digamma",
    "regularized_incomplete_beta",
    "make_generator",
    "dirichlet_sample",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


# The largest total concentration: the closed-form moments square it, and
# 1e154 squared is still a finite double. Entries are checked against it
# first, so that summing them cannot overflow.
_MAX_TOTAL = 1e154


def _check_prior(beta: float) -> None:
    """Refuse a symmetric prior concentration that is not positive and finite."""
    if not 0.0 < beta < math.inf:
        raise DomainError(f"prior concentration must be positive and finite, got {beta!r}")


@dataclass(frozen=True)
class DirichletParams:
    """Concentration parameters of a Dirichlet over C proper categories plus
    a designated can't-solve entry.

    The can't-solve concentration is a dedicated field, never "the last index
    of a flat vector", so its position is unambiguous everywhere.

    Attributes:
        proper: concentrations for the C proper categories, all > 0.
        cs: concentration of the can't-solve category, > 0.

    Raises:
        DomainError: no proper category, a concentration that is not
            positive and finite, or a total above 1e154.
    """

    proper: tuple[float, ...]
    cs: float

    def __post_init__(self):
        if len(self.proper) < 1:
            raise DomainError("need at least one proper category")
        object.__setattr__(self, "proper", tuple(float(a) for a in self.proper))
        object.__setattr__(self, "cs", float(self.cs))
        entries = self.proper + (self.cs,)
        for a in entries:
            if not (a > 0 and math.isfinite(a)):
                raise DomainError(f"concentrations must be positive finite reals; got {a}")
        if max(entries) > _MAX_TOTAL or self.total > _MAX_TOTAL:
            raise DomainError(
                f"concentrations {entries} add up to more than {_MAX_TOTAL:g}, "
                "the largest total whose square the closed forms can hold"
            )

    @property
    def n_proper(self) -> int:
        """Number of proper categories C."""
        return len(self.proper)

    @property
    def total(self) -> float:
        """Total concentration: can't-solve plus all proper entries."""
        return self.cs + math.fsum(self.proper)

    @classmethod
    def symmetric(cls, n_proper: int, beta: float) -> "DirichletParams":
        """Symmetric prior with every entry (proper and cs) equal to beta."""
        _check_prior(beta)
        return cls(proper=(float(beta),) * n_proper, cs=float(beta))

    def as_array(self) -> np.ndarray:
        """Concentrations as a flat array, proper entries first, cs last."""
        return np.array(self.proper + (self.cs,), dtype=float)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with its error bookkeeping.

    Attributes:
        value: the integral estimate.
        error_estimate: heuristic bound on the absolute error of value.
        n_evaluations: number of integrand evaluations.
    """

    value: float
    error_estimate: float
    n_evaluations: int


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients. Relative accuracy of the
# rational part is ~1e-15 over the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (Lanczos approximation).

    Accurate to a few ulps of the true value across [1e-3, 1e6]; for x below
    0.5 the recurrence ln Gamma(x) = ln Gamma(x+1) - ln x avoids the region
    where the Lanczos series loses accuracy.

    Raises:
        DomainError: if x <= 0 or not finite.
    """
    x = float(x)
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"ln_gamma requires x > 0; got {x}")
    if x < 0.5:
        return ln_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z + i)
    base = z + _LANCZOS_G + 0.5
    return _HALF_LN_TWO_PI + (z + 0.5) * math.log(base) - base + math.log(acc)


# Asymptotic-series coefficients B_{2n}/(2n) for the digamma expansion.
_DIGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to shift the argument above
    10, then the asymptotic series psi(x) ~ ln x - 1/(2x) - sum B_2n/(2n x^2n).
    Absolute error is well below 1e-12 on the shifted range.

    Raises:
        DomainError: if x <= 0 or not finite.
    """
    x = float(x)
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"digamma requires x > 0; got {x}")
    result = 0.0
    while x < 10.0:
        result -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _DIGAMMA_SERIES:
        series += c * power
        power *= inv2
    return result + math.log(x) - 0.5 / x - series


def _ln_beta(a: float, b: float) -> float:
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def beta_pdf_pair(a: float, b: float, x, one_minus_x):
    """Beta(a, b) density from independently supplied x and 1 - x.

    For integrands parametrized so that both the point and its complement
    are available without cancellation (e.g. x built from a square-root
    substitution where 1 - x would lose all precision near the endpoints).
    Both arguments must be strictly positive; no endpoint limits here.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"Beta shapes must be positive finite reals; got a={a}, b={b}")
    x_arr = np.asarray(x, dtype=float)
    c_arr = np.asarray(one_minus_x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(c_arr <= 0.0):
        raise DomainError("beta_pdf_pair requires strictly positive x and 1-x")
    out = np.exp(
        (a - 1.0) * np.log(x_arr) + (b - 1.0) * np.log(c_arr) - _ln_beta(a, b)
    )
    return out if np.ndim(x) else float(out)


_BETAINC_MAX_ITER = 500
# Largest a + b that regularized_incomplete_beta serves (see its docstring).
_BETAINC_MAX_TOTAL = 2.0**53
_BETAINC_EPS = 1e-15
_BETAINC_TINY = 1e-300

# What the rows (b, a, 0, a + b, a, a - 1, a + 1) of _betainc_cf add at
# iteration m = 1, 2, ...: -m, m, m, m, 2m, 2m, 2m.
_BETAINC_SHIFTS = np.array([-1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0])[None, :, None] * np.arange(
    1.0, _BETAINC_MAX_ITER + 1.0
)[:, None, None]


def _floor_tiny(values: np.ndarray) -> None:
    """Lentz's guard: entries below _BETAINC_TINY in magnitude become it."""
    np.copyto(values, _BETAINC_TINY, where=np.abs(values) < _BETAINC_TINY)


def _betainc_cf(a: np.ndarray, b: np.ndarray, pair: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta, evaluated with the
    modified Lentz algorithm, elementwise over x.

    Element i has shapes a[pair[i]] and b[pair[i]]: a and b list the
    distinct pairs. The loop runs over the elements sorted by pair, so
    each iteration computes its coefficients once per pair and repeats
    them over each pair's run of elements. Valid (fast-converging) for
    x < (a+1)/(a+b+2); callers apply the symmetry transform outside that
    range. Each element stops at the first iteration whose factor lies
    within _BETAINC_EPS of one and is written out then, so converged
    values are frozen rather than left to jitter by a few ulps while the
    rest of a large batch converges. Frozen elements ride along under a
    mask until half of the arrays are frozen; then the arrays are cut
    down to the running elements. Elements still running after
    _BETAINC_MAX_ITER iterations read NaN.

    The coefficients of iteration m are m (b - m) x / ((a - 1 + 2m)(a + 2m))
    and minus (a + m)(a + b + m) x / ((a + 1 + 2m)(a + 2m)). The minus
    sign is folded into the second update, 1 - y d in place of 1 + (-y) d,
    which is exact.
    """
    out = np.full(x.size, np.nan)
    index = np.argsort(pair, kind="stable")
    pair, x = pair[index], x[index]
    runs = np.bincount(pair, minlength=a.size)
    qab = a + b
    qap = a + 1.0
    rows = np.stack([b, a, np.zeros_like(a), qab, a, a - 1.0, qap])
    factors = np.empty((4, a.size))  # the numerators, then the denominators
    dc = np.ones((2, x.size))  # d and c of the recurrence, guarded together
    d, c = dc
    np.subtract(1.0, np.repeat(qab, runs) * x / np.repeat(qap, runs), out=d)
    _floor_tiny(d)
    np.divide(1.0, d, out=d)
    h = d.copy()
    live = np.ones(x.size, dtype=bool)
    n_live = x.size
    for shift in _BETAINC_SHIFTS:
        shifted = rows + shift
        np.multiply(shifted[0:2], shifted[2:4], out=factors[0:2])
        np.multiply(shifted[5:7], shifted[4], out=factors[2:4])
        spread = np.repeat(factors, runs, axis=1)
        coef = spread[0:2]
        coef *= x
        coef /= spread[2:4]
        even, odd = coef
        np.multiply(even, d, out=d)
        np.divide(even, c, out=c)
        dc += 1.0
        _floor_tiny(dc)
        np.divide(1.0, d, out=d)
        h *= d * c
        np.multiply(odd, d, out=d)
        np.divide(odd, c, out=c)
        np.subtract(1.0, dc, out=dc)
        _floor_tiny(dc)
        np.divide(1.0, d, out=d)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _BETAINC_EPS
        done &= live
        converged = np.count_nonzero(done)
        if converged:
            out[index[done]] = h[done]
            live ^= done
            n_live -= converged
            if n_live == 0:
                return out
            if 2 * n_live <= live.size:
                keep = np.flatnonzero(live)
                pair, x, dc, h, index = pair[keep], x[keep], dc[:, keep], h[keep], index[keep]
                runs = np.bincount(pair, minlength=a.size)
                d, c = dc
                live = np.ones(n_live, dtype=bool)
    return out


# Temme's expansion serves a pair whose shapes are both at least
# _TEMME_MIN_SHAPE, at x within _TEMME_WINDOW_SD sd of its mean. Below that
# shape the fraction needs few enough iterations that building the
# expansion's coefficients costs more. At that shape the expansion needs
# up to 18 orders in the window, and _TEMME_MAX_ORDER leaves room.
_TEMME_MIN_SHAPE = 500.0
_TEMME_WINDOW_SD = 10.0
_TEMME_MAX_ORDER = 40
_E0 = 2.0 / math.sqrt(math.pi)  # TOMS 708's e0 and e1
_E1 = 2.0**-1.5

# 1/3, 1/5, 1/7, ...: the series of (atanh(r) - r) / r**3 in r**2, whose 16
# terms hold a double for |r| <= 0.3, that is |x| <= 0.46 in _rlog1.
_ATANH_SERIES = tuple(1.0 / (2 * k + 3) for k in reversed(range(16)))


def _rlog1(x: np.ndarray) -> np.ndarray:
    """x - log(1 + x) for |x| <= 0.46, without the cancellation of the
    difference: with r = x / (2 + x), log(1 + x) = 2 atanh(r) and x = 2r /
    (1 - r), so x - log(1 + x) = 2 r**2 (1 / (1 - r) - r (1/3 + r**2/5 + ...)).
    """
    r = x / (2.0 + x)
    t = r * r
    series = np.full_like(r, _ATANH_SERIES[0])
    for coef in _ATANH_SERIES[1:]:
        series *= t
        series += coef
    return 2.0 * t * (1.0 / (1.0 - r) - r * series)


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) for x >= 500, from the
    Stirling series 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7), whose
    next term is below 1e-23 there. 1/x is squared, not x, so that x up
    to the largest double gives no overflow."""
    inverse = 1.0 / x
    t = inverse * inverse
    return (((-t / 1680.0 + 1.0 / 1260.0) * t - 1.0 / 360.0) * t + 1.0 / 12.0) / x


class _TemmeSeries:
    """The coefficients d_0, d_1, ... of Temme's expansion for one (a, b),
    built two at a time as the terms need them (BASYM in DiDonato & Morris
    1992, ACM TOMS 18(3), Algorithm 708; Temme 1987, SIAM J. Math. Anal.
    18(6)). w0 is the expansion's small parameter, about 1/sqrt(min(a, b)),
    and bcorr the Stirling remainder of ln B(a, b).

    The series of (b, a) is this one with d_0, d_2, d_4, ... negated,
    exactly: swapping the shapes negates r1, which flips the sign of the
    odd powers in the series behind the d's, and IEEE rounding is
    symmetric in sign. So one series serves both tails of a pair.
    """

    def __init__(self, a: float, b: float):
        small = min(a, b)
        self.h = small / max(a, b)
        self.r0 = 1.0 / (self.h + 1.0)
        self.r1 = (b - a) / max(a, b)
        self.w0 = 1.0 / math.sqrt(small * (self.h + 1.0))
        self.bcorr = _stirling_tail(a) + _stirling_tail(b) - _stirling_tail(a + b)
        self.a0 = [self.r1 * (2.0 / 3.0)]
        self.c = [-0.5 * self.a0[0]]
        self.d = [-self.c[0]]
        self.sum_h = 1.0
        self.h_power = 1.0

    def extend(self) -> None:
        """Append d_{n-1} and d_n for the next even n."""
        n = len(self.d) + 1
        a0, c, d = self.a0, self.c, self.d
        self.h_power *= self.h * self.h
        a0.append(self.r0 * 2.0 * (self.h * self.h_power + 1.0) / (n + 2.0))
        self.sum_h += self.h_power
        a0.append(self.r1 * 2.0 * self.sum_h / (n + 3.0))
        for i in (n, n + 1):
            # b0 holds the first i coefficients of the power series of
            # A(t)**r, A having coefficients 1, a0[0], a0[1], ...
            r = (i + 1.0) * -0.5
            b0 = [r * a0[0]]
            for m in range(2, i + 1):
                bsum = 0.0
                for j in range(1, m):
                    bsum += (j * r - (m - j)) * a0[j - 1] * b0[m - j - 1]
                b0.append(r * a0[m - 1] + bsum / m)
            c.append(b0[i - 1] / (i + 1.0))
            dsum = 0.0
            for j in range(1, i):
                dsum += d[i - j - 1] * c[j - 1]
            d.append(-(dsum + c[i - 1]))


def _temme_expansion(series: list[_TemmeSeries], pair, flip, a, b, lam: np.ndarray) -> np.ndarray:
    """I_x(a, b) by Temme's expansion, elementwise, as BASYM computes it:
    element i has shapes a[i] and b[i] and lam[i] = a - (a + b) x >= 0.
    series[pair[i]] holds the coefficients of its pair, and flip[i] is
    -1.0 where (a, b) is that pair swapped and 1.0 where not.

    The terms come two orders at a time, and a pair's series grows only
    while one of its elements runs. Each element stops at the first order
    whose two terms add less than _BETAINC_EPS of its sum, and is frozen
    then, so its float is the one it gets in a batch of its own. Elements
    still running after _TEMME_MAX_ORDER read NaN.
    """
    f = a * _rlog1(-lam / a) + b * _rlog1(lam / b)
    z0 = np.sqrt(f)
    z2 = f + f
    # j0 starts from erfc scaled by exp(f), as its recurrence needs.
    erfc = np.array([math.erfc(v) for v in z0.tolist()])
    j0 = 0.5 / _E0 * (np.exp(f) * erfc)
    j1 = np.full_like(f, _E1)
    w0 = np.array([s.w0 for s in series])
    w = w0.copy()
    total = j0 + flip * np.array([s.d[0] for s in series])[pair] * w0[pair] * j1
    z_odd = z0 / _E1 * 0.5
    z_even = z2.copy()
    live = np.ones(f.size, dtype=bool)
    coef = np.zeros((2, len(series)))
    for n in range(2, _TEMME_MAX_ORDER + 1, 2):
        coef[:] = 0.0
        for p in np.unique(pair[live]).tolist():
            series[p].extend()
            coef[:, p] = series[p].d[n - 1 : n + 1]
        j0 = _E1 * z_odd + (n - 1.0) * j0
        j1 = _E1 * z_even + n * j1
        z_odd *= z2
        z_even *= z2
        w *= w0
        t0 = coef[0][pair] * w[pair] * j0
        w *= w0
        t1 = flip * coef[1][pair] * w[pair] * j1
        np.add(total, t0 + t1, out=total, where=live)
        live &= np.abs(t0) + np.abs(t1) > _BETAINC_EPS * total
        if not live.any():
            break
    total[live] = np.nan
    scale = np.exp(-np.array([s.bcorr for s in series]))[pair]
    return _E0 * np.exp(-f) * scale * total


def _two_product(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi = fl(p q) and hi + lo = p q exactly (Dekker 1971)."""
    hi = p * q
    split = 134217729.0 * p  # 2**27 + 1
    p_hi = split - (split - p)
    p_lo = p - p_hi
    split = 134217729.0 * q
    q_hi = split - (split - q)
    q_lo = q - q_hi
    return hi, ((p_hi * q_hi - hi) + p_hi * q_lo + p_lo * q_hi) + p_lo * q_lo


def _temme_route(alpha: np.ndarray, beta: np.ndarray, owner: np.ndarray, xi: np.ndarray):
    """Which elements Temme's expansion serves, and their values.

    An element qualifies when both shapes of its pair are at least
    _TEMME_MIN_SHAPE and x is within _TEMME_WINDOW_SD sd of the mean, that
    is |lam| <= 10 sqrt(a b / (a + b + 1)) for lam = a - (a + b) x, which
    is a + b times the distance of x below the mean. lam comes from an
    exact product, so its one rounding is relative to lam, not to a. An
    element with lam < 0 takes the other tail, 1 - I_{1-x}(b, a) at -lam,
    as the expansion wants lam >= 0.

    Returns (routed mask over the elements, their values).
    """
    large = np.minimum(alpha, beta) >= _TEMME_MIN_SHAPE
    if not large.any():
        return np.zeros(xi.size, dtype=bool), np.empty(0)
    total = alpha + beta
    hi, lo = _two_product(total[owner], xi)
    lam = (alpha[owner] - hi) - lo
    reach = _TEMME_WINDOW_SD * np.sqrt(alpha) * np.sqrt(beta / (total + 1.0))
    routed = large[owner] & (np.abs(lam) <= reach[owner])
    if not routed.any():
        return routed, np.empty(0)
    owner, lam = owner[routed], lam[routed]
    swapped = lam < 0.0
    used, pair = np.unique(owner, return_inverse=True)
    series = [_TemmeSeries(alpha[p], beta[p]) for p in used.tolist()]
    first = np.where(swapped, beta[owner], alpha[owner])
    second = np.where(swapped, alpha[owner], beta[owner])
    vals = _temme_expansion(series, pair, np.where(swapped, -1.0, 1.0), first, second, np.abs(lam))
    vals[swapped] = 1.0 - vals[swapped]
    return routed, vals


def _fraction_route(alpha: np.ndarray, beta: np.ndarray, owner: np.ndarray, xi: np.ndarray):
    """I_x(a, b) by the continued fraction, for elements xi of pairs owner.

    Past the (a+1)/(a+b+2) crossover the symmetry I_x(a, b) = 1 - I_{1-x}(b, a)
    keeps the fraction in its fast-converging regime; direct and reflected
    elements share one loop.
    """
    k = alpha.size
    ln_beta = np.array([_ln_beta(p, q) for p, q in zip(alpha.tolist(), beta.tolist())])
    direct = xi < ((alpha + 1.0) / (alpha + beta + 2.0))[owner]
    # Pairs 0..k-1 of the continued fraction are the given ones, pairs
    # k..2k-1 the same swapped, for the reflected elements.
    pair = np.where(direct, owner, owner + k)
    first, second = np.concatenate([alpha, beta]), np.concatenate([beta, alpha])
    front = alpha[owner] * np.log(xi)
    front += beta[owner] * np.log1p(-xi)
    front -= ln_beta[owner]
    np.exp(front, out=front)
    front /= first[pair]
    vals = front * _betainc_cf(first, second, pair, np.where(direct, xi, 1.0 - xi))
    reflected = ~direct
    vals[reflected] = 1.0 - vals[reflected]
    return vals


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b), the Beta CDF.

    Two routes, chosen per element from its shapes and x. An element
    whose shapes are both at least 500 and whose x lies within 10 sd of
    the Beta mean a/(a + b) takes Temme's uniform asymptotic expansion
    (BASYM of TOMS 708), whose cost does not grow with the shapes. Every
    other element takes the continued fraction; for x past the
    (a+1)/(a+b+2) crossover the symmetry I_x(a, b) = 1 - I_{1-x}(b, a)
    keeps it in its fast-converging regime.

    a, b and x broadcast against each other, as in scipy's betainc; three
    scalars give a float. A pair is one entry of a and b broadcast against
    each other before x joins, and each route computes its coefficients
    once per pair, so a column of k (a, b) against k rows of x costs k
    coefficient sets per iteration. Each element gets the same float as
    in a call of its own.

    Measured limits. Temme's route, at x within 10 sd of the mean, is
    within 4e-14 of a 50-digit evaluation of the expansion at every shape
    from 5e2 to 1e8. Against scipy.special.betainc it reads within 2e-13
    up to shapes 1e4 and 8e-13 at 1e5, and the gap grows to 2.6e-11 at
    1e8, which is scipy's own error. The fraction is within 1e-12 of
    scipy at shapes below 500 near the mean; past 10 sd of large shapes,
    where I is below 1e-23 or within that of 1, its relative error grows
    with the shapes (6.5e-10 at 1e5, 2.5e-7 at 1e8), and at (11, 4e6 + 2)
    it is 3.9e-9 off, from its front factor x^a (1 - x)^b / (a B(a, b)).
    The fraction raises only when an element needs more than
    _BETAINC_MAX_ITER iterations, as the mean of a = b = 9e5 did before
    the expansion served it.

    Shapes are served up to a + b = 2**53 (_BETAINC_MAX_TOTAL), where
    consecutive integers stop having doubles of their own; past it the
    crossover (a + 1)/(a + b + 2) can round onto x itself, as at
    (1e50, 2e50, 1/3), whose value is about 0 but would read 1. No count
    a file can hold comes near the bound.

    Raises:
        DomainError: for a or b not positive and finite, x outside [0, 1],
            or shapes that do not broadcast.
        TooLarge: for any pair with a + b above 2**53, before any work.
        InternalConsistencyError: naming an (a, b, x) whose continued
            fraction did not converge.
    """
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0) | ~np.isfinite(arr)):
        raise DomainError("regularized_incomplete_beta requires x in [0, 1]")
    try:
        alpha, beta = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        shape = np.broadcast_shapes(alpha.shape, arr.shape)
    except ValueError as exc:
        raise DomainError(f"a, b and x do not broadcast: {exc}") from None
    if not np.all((alpha > 0.0) & (alpha < math.inf) & (beta > 0.0) & (beta < math.inf)):
        raise DomainError(f"Beta shapes must be positive finite reals; got a={a}, b={b}")
    if np.any(alpha + beta > _BETAINC_MAX_TOTAL):
        raise TooLarge(f"Beta shapes must sum to at most 2**53; got a={a}, b={b}")
    owner = np.broadcast_to(np.arange(alpha.size).reshape(alpha.shape), shape).ravel()
    flat = np.broadcast_to(arr, shape).ravel()
    alpha, beta = alpha.ravel(), beta.ravel()
    out = np.empty(flat.size)
    at_zero = flat == 0.0
    at_one = flat == 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0
    inner = ~(at_zero | at_one)
    if np.any(inner):
        xi = flat[inner]
        owner = owner[inner]
        vals = np.empty(xi.size)
        routed, vals_routed = _temme_route(alpha, beta, owner, xi)
        vals[routed] = vals_routed
        rest = ~routed
        if rest.any():
            vals[rest] = _fraction_route(alpha, beta, owner[rest], xi[rest])
        stuck = np.flatnonzero(np.isnan(vals))
        if stuck.size:
            i = stuck[0]
            method = "Temme expansion" if routed[i] else "continued fraction"
            raise InternalConsistencyError(
                f"incomplete-beta {method} failed to converge for "
                f"a={alpha[owner[i]]}, b={beta[owner[i]]}, x={xi[i]}"
            )
        out[inner] = vals
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if shape == () else out.reshape(shape)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def make_generator(seed: int, stream: Sequence[int] = ()) -> np.random.Generator:
    """Construct the package-wide RNG: numpy's SFC64 generator.

    Streams are derived with SeedSequence spawn keys, so (seed, stream) pairs
    give independent, reproducible generators: make_generator(seed, (r,)) is
    the documented per-repeat stream used by Monte-Carlo repeats. The
    generator algorithm name belongs in any serialized run metadata.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.SFC64(ss))


# Integer shapes whose gamma rows are a product of uniforms rather than
# numpy's standard_gamma, whose cost is about the same at every shape from
# 2 up (BENCH_gamma_routes.json has the table).
_PRODUCT_SHAPES = frozenset((2.0, 3.0, 4.0))


def _gamma_row(
    shape: float, rng: np.random.Generator, row: np.ndarray, spare: np.ndarray
) -> None:
    """Fill `row` with Gamma(shape, 1) variates drawn from `rng`, using the
    equally long `spare` as scratch.

    An integer shape k in 2..4 is drawn as -log prod_i (1 - U_i), i = 1..k
    (Devroye 1986, ch. IX): a whole row of uniforms U_1 (rng.random), then
    a row of U_2 whose complements multiply the first, and so on in order,
    with one log at the end. The law is exact, and the uniforms'
    complements lie in (0, 1], so no log meets 0. Shape 1 is a row of
    numpy's standard_exponential: standard_gamma(1.0) calls the same
    exponential sampler per element, so the floats and the generator's
    state afterwards are the same, without the per-element dispatch.
    Every other shape is a row of numpy's standard_gamma.
    """
    if shape == 1.0:
        rng.standard_exponential(out=row)
    elif shape in _PRODUCT_SHAPES:
        rng.random(out=row)
        np.subtract(1.0, row, out=row)
        for _ in range(int(shape) - 1):
            rng.random(out=spare)
            np.subtract(1.0, spare, out=spare)
            row *= spare
        np.log(row, out=row)
        np.negative(row, out=row)
    else:
        rng.standard_gamma(shape, out=row)


def _dirichlet_draws(
    params: DirichletParams,
    count: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` Dirichlet vectors via the gamma method using `rng`.

    Returns (proper, cs) with shapes (count, C) and (count,). The C + 1
    Gamma(alpha_i, 1) rows are drawn one after another from `rng`, proper
    entries first and cs last, each by _gamma_row from its scalar shape
    into one row of a (C + 1, count) block. Each vector, a column of the
    block, is then divided by the sum of its C + 1 gammas, added in that
    category order, so the floats do not depend on memory layout. proper
    is the transposed view of the block's first C rows, so its columns
    are contiguous.

    A float array `out` of shape (C + 2, count) receives the block in its
    first C + 1 rows, and its last row is the gamma rows' scratch and then
    the row sums; the results are views of it. Without it the block is a
    new array. The values are the same either way.

    Raises:
        DomainError: an `out` of the wrong shape, or a vector whose gammas
            all underflow to 0 (concentrations near 0.001).
    """
    alpha = params.proper + (params.cs,)
    if out is None:
        # Separate arrays, so the scratch row is freed on return rather
        # than kept alive by the result.
        g, total = np.empty((len(alpha), count)), np.empty(count)
    elif out.shape != (len(alpha) + 1, count):
        raise DomainError(f"out must have shape {(len(alpha) + 1, count)}, got {out.shape}")
    else:
        g, total = out[:-1], out[-1]
    for row, shape in zip(g, alpha):
        _gamma_row(shape, rng, row, total)
    np.copyto(total, g[0])
    for row in g[1:]:
        total += row
    if not total.all():
        raise DomainError(
            f"{count - np.count_nonzero(total)} of {count} Dirichlet draws underflowed "
            f"to all-zero gamma variates at concentrations {alpha}"
        )
    g /= total
    return g[:-1].T, g[-1]


def dirichlet_sample(
    params: DirichletParams,
    count: int,
    seed: int,
    stream: Sequence[int] = (),
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` probability vectors from Dir(params), deterministically
    per (seed, stream); the generator is make_generator(seed, stream).

    A float array `out` of shape (C + 2, count) receives the draws and the
    row sums, as in _dirichlet_draws; the values are the same either way.

    Returns:
        (proper, cs): arrays of shape (count, C) and (count,); each row of
        proper together with the matching cs entry sums to 1.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1; got {count}")
    return _dirichlet_draws(params, int(count), make_generator(seed, stream), out)
