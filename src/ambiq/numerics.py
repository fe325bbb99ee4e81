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
like scipy's betainc, and evaluates its continued fraction for a whole
batch in one loop, also over several (a, b): the binary CDF sends both
conditional tails and its can't-solve boundary term through one call.

All functions are pure. Sampling takes explicit seeds and returns values;
there is no hidden global RNG state. A Dirichlet sample draws one gamma
row per category, each by the route its scalar shape picks
(``_gamma_row``): at integer shapes 2, 3 and 4 an exact identity from
uniforms, which costs less than numpy's gamma sampler there, and at
every other shape numpy's standard_gamma. The route depends only on the
shape, so reruns are byte-identical for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DomainError, InternalConsistencyError

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


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b), the Beta CDF.

    Continued-fraction evaluation; for x past the (a+1)/(a+b+2) crossover
    the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) keeps the fraction in its
    fast-converging regime. The switch is made per element, and direct and
    reflected elements share one continued-fraction loop.

    a, b and x broadcast against each other, as in scipy's betainc; three
    scalars give a float. A pair is one entry of a and b broadcast against
    each other before x joins, and the loop computes its coefficients once
    per pair, so a column of k (a, b) against k rows of x costs k
    coefficient sets per iteration. Each element gets the same float as
    in a call of its own.

    Measured limits against scipy.special.betainc, at a = b and x within
    6 sd of 1/2: the error is below 1e-13 at 1e3, reaches 3e-10 at 1e5
    and 2e-9 at 6e5. At x = 1/2, where the fraction converges slowest,
    it needs more than _BETAINC_MAX_ITER iterations from a = b = 9e5 on.

    Raises:
        DomainError: for a or b not positive and finite, x outside [0, 1],
            or shapes that do not broadcast.
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
        k = alpha.size
        ln_beta = np.array([_ln_beta(p, q) for p, q in zip(alpha.tolist(), beta.tolist())])
        xi = flat[inner]
        owner = owner[inner]
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
        stuck = np.flatnonzero(np.isnan(vals))
        if stuck.size:
            i = stuck[0]
            raise InternalConsistencyError(
                "incomplete-beta continued fraction failed to converge for "
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
    complements lie in (0, 1], so no log meets 0. Every other shape is a
    row of numpy's standard_gamma.
    """
    if shape in _PRODUCT_SHAPES:
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
