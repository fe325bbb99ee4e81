"""Point estimation of ambiguity from finite annotation samples.

The plug-in estimator applies a measure to the empirical response
frequencies: measures.plugin_estimate, re-exported here. Its expectation
under multinomial sampling is exact at every sample size for all three
measures: a closed form for the quadratic-entropy measures, and one sum
over the can't-solve count of binomial expectations for total
variation. For the quadratic measures the bias is known to be
negative at every finite n: squared frequencies are biased-up estimates of
squared probabilities, and the measure subtracts them. bias_curve sets the
plug-in beside the Bayesian alternatives, the posterior mean and mode under
a symmetric Dirichlet prior, whose bias it estimates by Monte Carlo over
repeated count draws. Counts arrive as measures.CountVector records.
Repeats that draw a posterior sample draw it from a stream of their own,
and run on every CPU this process may use, one thread and one 20 000-draw
sample buffer per CPU, so memory grows by a buffer per extra thread while
the output bytes do not depend on the CPU count.

exhaustive_expected_estimator enumerates count vectors exhaustively and is
deliberately capped at small n and few categories; it exists as an oracle
to validate the exact expectations, not as a production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .exceptions import DomainError, TooLarge
from .measures import (
    CountVector, MeasureKind, ProbabilityVector, _check_categories, ambiguity, modified_from_new,
    plugin_estimate,
)
from .numerics import DirichletParams, _check_prior, ln_gamma, make_generator
from .posterior_analytics import MC, methods, posterior_mean_sd, posterior_update
from .posterior_sampling import _run_tasks, _sample_rows, histogram_mode, sample_transformed

__all__ = [
    "BiasSeries",
    "ESTIMATOR_NAMES",
    "plugin_estimate",
    "expected_plugin",
    "bias_plugin",
    "exhaustive_expected_estimator",
    "bias_curve",
]

# Exhaustive enumeration caps: the count simplex has C(n + M - 1, M - 1)
# points, and the oracle is only ever needed where that stays tiny.
_EXHAUSTIVE_MAX_N = 12
_EXHAUSTIVE_MAX_CATEGORIES = 4

ESTIMATOR_NAMES = ("plugin", "bayes_mean", "bayes_mode")

# Draws in each bias_curve repeat's posterior sample.
_MODE_SAMPLES = 20_000


@dataclass(frozen=True)
class BiasSeries:
    """Bias of several estimators across sample sizes.

    bias and stderr map an estimator label to one value per entry of
    n_values; stderr is zero wherever the expectation was computed
    exactly rather than by Monte Carlo.
    """

    n_values: tuple[int, ...]
    labels: tuple[str, ...]
    bias: Mapping[str, tuple[float, ...]]
    stderr: Mapping[str, tuple[float, ...]]

    def __post_init__(self):
        _check_sample_sizes(self.n_values)
        for label in self.labels:
            for table in (self.bias, self.stderr):
                if label not in table or len(table[label]) != len(self.n_values):
                    raise DomainError(f"missing or misshaped series for {label!r}")


def _check_sample_size(n: int) -> None:
    """Refuse a sample size below one."""
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")


def _check_sample_sizes(n_values: Sequence[int]) -> None:
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise DomainError("n_values must be strictly increasing")
    if any(n < 1 for n in n_values):
        raise DomainError("n_values must be positive")


def expected_plugin(
    q: ProbabilityVector, n: int, measure: MeasureKind = MeasureKind.NEW
) -> float:
    """Exact sampling expectation of the plug-in estimator of `measure` at
    n responses drawn from q.

    New measure: with S = sum_k q_k^2 over proper categories and c = q_cs,

        E = [1 - (1 - c^n)/n] - [1/(1-c) - (1 - c^n)/(n (1-c)^2)] S,

    degenerating to 1 when c = 1. Modified measure: modified_from_new(E, c,
    C), since that measure is linear in (plain measure, can't-solve
    frequency) and the can't-solve frequency is unbiased.

    Total variation: at counts (n_1..n_C, m) with m < n the plug-in is
    1 - kappa/n * sum_k |n_k - (n - m)/C|, kappa = C/(2(C - 1)), and at
    m = n it is 1, which is the same formula with every n_k = 0. Given the
    can't-solve count m ~ Bin(n, c), each n_k ~ Bin(n - m, q_k / (1 - c)),
    so E = 1 - kappa/n * sum_m P(m) sum_k E|n_k - (n - m)/C|: O(n^2 C)
    binomial terms, in memory linear in n. Degenerate q gives 1, as for
    the new measure.

    Raises:
        SingleCategoryUnsupported: modified or old for C = 1.
    """
    _check_sample_size(n)
    if measure is MeasureKind.MODIFIED:
        return modified_from_new(expected_plugin(q, n), q.cs, q.n_proper)
    if measure is not MeasureKind.NEW:
        return _expected_plugin_old(q, n)
    if q.is_degenerate:
        return 1.0
    c = q.cs
    survival = (1.0 - c**n) / n
    s2 = math.fsum(v * v for v in q.proper)
    one_minus = 1.0 - c
    factor = 1.0 / one_minus - survival / one_minus**2
    return (1.0 - survival) - factor * s2


def _expected_plugin_old(q: ProbabilityVector, n: int) -> float:
    n_cat = q.n_proper
    _check_categories((MeasureKind.OLD,), n_cat)
    if q.is_degenerate:
        return 1.0
    # ln k! for k = 0..n, each from ln_gamma, so no rounding accumulates
    # along k as it would in a running sum of ln k.
    ln_fact = np.array([ln_gamma(k + 1.0) for k in range(n + 1)])
    conditional = np.array(q.proper) / math.fsum(q.proper)
    cs_pmf = _binomial_pmfs(n, np.array([q.cs]), ln_fact)[0]
    terms = []
    # Counts of m whose probability underflows add nothing.
    for m in np.flatnonzero(cs_pmf):
        solvable = n - int(m)
        deviation = np.abs(np.arange(solvable + 1.0) - solvable / n_cat)
        spread = _binomial_pmfs(solvable, conditional, ln_fact) @ deviation
        terms.append(cs_pmf[m] * math.fsum(spread.tolist()))
    kappa = n_cat / (2.0 * (n_cat - 1.0))
    return 1.0 - kappa / n * math.fsum(terms)


def _binomial_pmfs(trials: int, probs: np.ndarray, ln_fact: np.ndarray) -> np.ndarray:
    """Bin(trials, p) probabilities of 0..trials, one row per entry p of
    probs, from the table ln_fact[k] = ln k!.

    Each row is divided by its sum, which cancels the rounding that all of
    its terms share (that of ln trials! and of exp at large arguments):
    ten times closer to exact rational sums at n = 100-300.
    """
    k = np.arange(trials + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_pmf = (
            (ln_fact[trials] - ln_fact[: trials + 1] - ln_fact[trials::-1])
            + np.multiply.outer(np.log(probs), k)
            + np.multiply.outer(np.log1p(-probs), trials - k)
        )
    # p = 0 or 1 leaves 0 * -inf = NaN at the one count that has all the mass.
    pmf = np.nan_to_num(np.exp(ln_pmf), nan=1.0)
    pmf /= pmf.sum(axis=1, keepdims=True)
    return pmf


def bias_plugin(
    q: ProbabilityVector, n: int, measure: MeasureKind = MeasureKind.NEW
) -> float:
    """expected_plugin minus the true value, exact for every measure. For
    the quadratic measures it is strictly negative unless the true value
    is an endpoint case, and shrinks like 1/n."""
    return expected_plugin(q, n, measure) - ambiguity(q, measure)


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def exhaustive_expected_estimator(
    q: ProbabilityVector,
    n: int,
    estimator: Callable[[CountVector], float],
) -> float:
    """Exact E[estimator(counts)] by enumerating the whole count simplex:
    an oracle for the exact expectations, used only to check them.

    Multinomial probabilities come from log-gamma factorials, so the sum
    is exact to rounding even at the enumeration caps.

    Raises:
        TooLarge: beyond n = 12 or 4 total categories, where enumeration
            stops being an oracle and starts being a production path.
    """
    _check_sample_size(n)
    m = q.n_proper + 1
    if n > _EXHAUSTIVE_MAX_N or m > _EXHAUSTIVE_MAX_CATEGORIES:
        raise TooLarge(
            f"exhaustive enumeration capped at n <= {_EXHAUSTIVE_MAX_N} and "
            f"{_EXHAUSTIVE_MAX_CATEGORIES} categories; got n = {n}, M = {m}"
        )
    probs = (*q.proper, q.cs)
    ln_n_fact = ln_gamma(n + 1.0)
    terms = []
    for combo in _compositions(n, m):
        if any(k > 0 and p == 0.0 for k, p in zip(combo, probs)):
            continue
        ln_pmf = ln_n_fact - math.fsum(ln_gamma(k + 1.0) for k in combo)
        ln_pmf += math.fsum(k * math.log(p) for k, p in zip(combo, probs) if k > 0)
        terms.append(math.exp(ln_pmf) * estimator(CountVector(proper=combo[:-1], cs=combo[-1])))
    return math.fsum(terms)


def bias_curve(
    q: ProbabilityVector,
    n_values: Sequence[int],
    estimators: Sequence[str] = ESTIMATOR_NAMES,
    prior_beta: float = 1.0,
    measure: MeasureKind = MeasureKind.NEW,
    mc_repeats: int = 200,
    seed: int = 0,
) -> BiasSeries:
    """Bias of the requested estimators at each sample size.

    The plug-in column is exact for every measure at every n, with stderr
    0: expected_plugin minus the true value. Bayesian columns are always
    Monte Carlo over the counts: they are redrawn mc_repeats times per
    sample size from the stream (seed, (n_index,)), and no counts are
    drawn when only the plug-in is requested. Repeat r's posterior mean is
    by the moments method of posterior_analytics.methods; its mode, and a
    Monte Carlo mean, come from one posterior sample of 20 000 draws from
    the substream (seed, (n_index, r)), shared by both Bayes columns, so
    the whole curve is reproducible from the single seed. The repeats of
    every sample size are run by posterior_sampling._run_tasks, on the
    usable CPUs where they draw a sample, and the curve is the same floats
    at any CPU count.
    """
    for index, name in enumerate(estimators):
        if name not in ESTIMATOR_NAMES:
            raise DomainError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
        if name in estimators[:index]:
            raise DomainError(f"estimator {name!r} is listed more than once")
    if not estimators:
        raise DomainError("need at least one estimator")
    if mc_repeats < 1:
        raise DomainError(f"mc_repeats must be at least 1, got {mc_repeats}")
    _check_prior(prior_beta)
    n_tuple = tuple(int(n) for n in n_values)
    _check_sample_sizes(n_tuple)
    truth = ambiguity(q, measure)
    pvals = np.array([*q.proper, q.cs])
    pvals = pvals / pvals.sum()
    n_cat = q.n_proper
    labels = {name: name if name == "plugin" else f"{name}({prior_beta:g})" for name in estimators}
    bayes_names = [name for name in estimators if name != "plugin"]
    # Built before any draw, so a prior too large to update is refused up
    # front; the plug-in alone uses no prior.
    prior = DirichletParams.symmetric(n_cat, prior_beta) if bayes_names else None
    # One posterior sample per repeat serves both Bayes columns.
    need_sample = bool(bayes_names) and (
        "bayes_mode" in bayes_names or methods(measure, n_cat).moments == MC
    )
    # Repeat r at sample size n_values[i] is task, counts row and estimate
    # i * mc_repeats + r. Each thread draws and measures every sample of its
    # repeats in the one buffer _run_tasks gives it, and the sd and the
    # mode's bins go into its free draw row.
    draws = [
        make_generator(seed, (n_index,)).multinomial(n, pvals, size=mc_repeats)
        for n_index, n in enumerate(n_tuple)
        if bayes_names
    ]
    counts = np.array(draws, dtype=np.int64).reshape(-1, n_cat + 1)
    estimates = {name: np.empty(len(counts)) for name in bayes_names}

    def estimate_repeat(index: int, buffer: np.ndarray) -> None:
        post = posterior_update(prior, CountVector(counts[index, :n_cat], counts[index, n_cat]))
        values = scratch = None
        if need_sample:
            values = sample_transformed(
                post, (measure,), _MODE_SAMPLES, seed, divmod(index, mc_repeats), out=buffer
            )[0]
            scratch = buffer[0]
        if "bayes_mean" in estimates:
            estimates["bayes_mean"][index], _ = posterior_mean_sd(
                post, measure, values, work=scratch
            )
        if "bayes_mode" in estimates:
            estimates["bayes_mode"][index] = histogram_mode(values, _scratch=scratch)

    _run_tasks(
        len(counts), estimate_repeat, _sample_rows(n_cat, 1), _MODE_SAMPLES if need_sample else 0
    )
    bias: dict[str, tuple[float, ...]] = {}
    stderr: dict[str, tuple[float, ...]] = {}
    for name, label in labels.items():
        if name == "plugin":
            bias[label] = tuple(expected_plugin(q, n, measure) - truth for n in n_tuple)
            stderr[label] = (0.0,) * len(n_tuple)
        else:
            rows = estimates[name].reshape(len(n_tuple), mc_repeats)
            bias[label] = tuple(float(row.mean()) - truth for row in rows)
            stderr[label] = tuple(float(row.std() / math.sqrt(mc_repeats)) for row in rows)
    return BiasSeries(n_values=n_tuple, labels=tuple(labels.values()), bias=bias, stderr=stderr)
