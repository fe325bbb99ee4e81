"""Computations made apart from the program, which the checks compare against.

Nothing here imports the program. The measures and the posterior means
are written out from their definitions; Monte Carlo (MC) references draw
with numpy's default PCG64 generator, never the program's Philox streams;
the bias columns come from exact multinomial enumeration.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances are set in standard errors of the compared estimates, so a
# correct program fails a check about once in 1e11 comparisons.
SIGMAS = 7.0

# Relative tolerance for closed forms and plug-in values, which the program
# computes exactly up to rounding.
EXACT_RTOL = 1e-9


def measure_values(proper: np.ndarray, cs: np.ndarray, measure: str) -> np.ndarray:
    """The three measures over rows of (proper (n, C), cs (n,))."""
    n_cat = proper.shape[1]
    one_minus = 1.0 - cs
    safe = np.where(one_minus > 0.0, one_minus, 1.0)
    sq = (proper * proper).sum(axis=1)
    if measure == "new":
        out = 1.0 - sq / safe
    elif measure == "modified":
        out = cs + n_cat / (n_cat - 1.0) * (one_minus - sq / safe)
    elif measure == "old":
        tv = np.abs(proper / safe[:, None] - 1.0 / n_cat).sum(axis=1)
        out = 1.0 - 0.5 * one_minus * n_cat / (n_cat - 1.0) * tv
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return np.where(one_minus > 0.0, out, 1.0)


def plugin_value(counts: tuple[int, ...], measure: str) -> float:
    """A measure at the empirical frequencies; counts end with the cs count."""
    total = sum(counts)
    freq = np.array([c / total for c in counts], dtype=float)
    return float(measure_values(freq[None, :-1], freq[-1:], measure)[0])


def posterior_mean(counts: tuple[int, ...], measure: str, prior: float = 1.0) -> float:
    """Exact posterior mean of new or modified under Dir(counts + prior).

    q_cs ~ Beta(a_cs, A) is independent of the conditional vector
    p ~ Dir(a_1..a_C), and q_k^2 / (1 - q_cs) = (1 - q_cs) p_k^2, so
    E[sum_k q_k^2 / (1 - q_cs)] = (A / a_0) sum_k a_k (a_k + 1) / (A (A + 1)).
    """
    alpha = [c + prior for c in counts]
    a0 = math.fsum(alpha)
    a_proper = a0 - alpha[-1]
    mean_new = 1.0 - math.fsum(a * (a + 1.0) for a in alpha[:-1]) / (a0 * (a_proper + 1.0))
    if measure == "new":
        return mean_new
    if measure == "modified":
        n_cat = len(alpha) - 1
        return (n_cat * mean_new - alpha[-1] / a0) / (n_cat - 1.0)
    raise ValueError(f"no closed-form mean for {measure!r}")


class McReference:
    """Summary of an independent MC sample of one measure's posterior.

    Keeps only what the checks need: the mean, the sd and the standard
    error of an sd estimate, and quantiles at chosen levels, so a caller
    can hold references for many count vectors at once.
    """

    def __init__(self, values: np.ndarray):
        self.n = values.size
        self._sorted = np.sort(values)
        self.mean = float(values.mean())
        self.sd = float(values.std())
        centred = values - self.mean
        m4 = float(np.mean(centred**4))
        # Delta-method standard error of a sample sd from n draws.
        self._sd_var_n = max(m4 - self.sd**4, 0.0) / (4.0 * self.sd**2) if self.sd > 0 else 0.0

    def quantile(self, p: float) -> float:
        return float(np.quantile(self._sorted, min(max(p, 0.0), 1.0)))

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self._sorted, x, side="right")) / self.n

    def sd_stderr(self, n_other: int) -> float:
        """Standard error of the difference of two sample sds."""
        return math.sqrt(self._sd_var_n * (1.0 / n_other + 1.0 / self.n))

    def mean_tolerance(self, n_other: int) -> float:
        return SIGMAS * self.sd * math.sqrt(1.0 / n_other + 1.0 / self.n)

    def quantile_band(self, p: float, n_other: int) -> tuple[float, float]:
        """Where an n_other-draw p-quantile of the same law may fall."""
        eps = SIGMAS * math.sqrt(p * (1.0 - p) * (1.0 / n_other + 1.0 / self.n))
        return self.quantile(p - eps), self.quantile(p + eps)

    def compact(self, levels, n_other: int) -> "CompactReference":
        """Drop the sample, keeping the bands for the given quantile levels."""
        return CompactReference(
            mean=self.mean,
            sd=self.sd,
            sd_tol=SIGMAS * self.sd_stderr(n_other),
            mean_tol=self.mean_tolerance(n_other),
            bands={p: self.quantile_band(p, n_other) for p in levels},
        )


class CompactReference:
    """What McReference.compact keeps: plain numbers and quantile bands."""

    def __init__(self, mean, sd, sd_tol, mean_tol, bands):
        self.mean = mean
        self.sd = sd
        self.sd_tol = sd_tol
        self.mean_tol = mean_tol
        self.bands = bands


def dirichlet_measures(
    counts: tuple[int, ...], measures, n: int, rng: np.random.Generator, prior: float = 1.0
) -> dict[str, np.ndarray]:
    """n posterior draws of each measure under Dir(counts + prior)."""
    draws = rng.dirichlet(np.array(counts, dtype=float) + prior, size=n)
    return {m: measure_values(draws[:, :-1], draws[:, -1], m) for m in measures}


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def multinomial_enumeration(q: tuple[float, ...], n: int):
    """Every count vector of n draws from q, with its probability."""
    log_q = [math.log(p) if p > 0 else -math.inf for p in q]
    for combo in _compositions(n, len(q)):
        if any(k > 0 and lq == -math.inf for k, lq in zip(combo, log_q)):
            continue
        ln_pmf = math.lgamma(n + 1.0) - math.fsum(math.lgamma(k + 1.0) for k in combo)
        ln_pmf += math.fsum(k * lq for k, lq in zip(combo, log_q) if k > 0)
        yield combo, math.exp(ln_pmf)


def exact_moments(q: tuple[float, ...], n: int, estimator) -> tuple[float, float]:
    """Exact (mean, sd) of estimator(counts) over multinomial(n, q) counts."""
    terms = [(p, estimator(combo)) for combo, p in multinomial_enumeration(q, n)]
    mean = math.fsum(p * v for p, v in terms)
    var = math.fsum(p * (v - mean) ** 2 for p, v in terms)
    return mean, math.sqrt(max(var, 0.0))


def histogram_mode(values: np.ndarray, bins: int = 256) -> float:
    """Midpoint of the fullest of `bins` equal bins on [0, 1], first wins."""
    hist, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    top = int(np.argmax(hist))
    return float(0.5 * (edges[top] + edges[top + 1]))
