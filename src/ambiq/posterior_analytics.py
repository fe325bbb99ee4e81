"""Closed-form posterior quantities under a Dirichlet-distributed soft label.

With a Dir(alpha) prior over the full probability vector (proper entries
plus can't-solve) and multinomially observed counts n, the posterior is
Dir(alpha + n). Writing A = alpha_0 - alpha_cs for the proper-mass total,
the can't-solve probability and the conditional vector are independent
under any Dirichlet, with q_cs ~ Beta(alpha_cs, A) and p ~ Dir(alpha_1..
alpha_C). That independence is what makes the ambiguity moments below
elementary.

Notation used throughout: E = E(amb), and the two abbreviations

    R = sum_k a_k(a_k+1)[(a_k+2)(a_k+3) - a_k(a_k+1)]
        / [alpha_0 (alpha_0+1) (A+2) (A+3)]
    S = alpha_0 (A+1)^2 / [(alpha_0+1) (A+2) (A+3)]

The second moment is E(amb^2) = R + S [1 - E]^2 + 2E - 1; subtracting E^2
gives the variance R + (S - 1) [1 - E]^2, which var_amb evaluates.

methods(measure, C) is the one record of which method serves each quantity.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .exceptions import (
    DomainError,
    InternalConsistencyError,
    ShapeMismatch,
    SingleCategoryUnsupported,
)
from .measures import CountVector, MeasureKind, _check_categories, modified_from_new
from .numerics import DirichletParams, digamma

__all__ = [
    "posterior_update",
    "expected_normalized_entropy",
    "expected_amb",
    "expected_amb_modified",
    "var_amb",
    "var_qcs",
    "cov_amb_qcs",
    "var_amb_modified",
    "methods",
    "posterior_mean_sd",
]

# Negative-variance rounding noise below this is clamped to zero; anything
# larger means a transcription bug in a formula, and we want to hear it.
_VARIANCE_NOISE = 1e-12


def posterior_update(prior: DirichletParams, counts: CountVector) -> DirichletParams:
    """Conjugate update: returns Dir(prior + counts), componentwise.

    Raises:
        ShapeMismatch: when the count vector has a different number of
            proper categories than the prior.
    """
    if len(counts.proper) != prior.n_proper:
        raise ShapeMismatch(
            f"prior has {prior.n_proper} proper categories, counts have {len(counts.proper)}"
        )
    proper = tuple(a + n for a, n in zip(prior.proper, counts.proper))
    return DirichletParams(proper=proper, cs=prior.cs + counts.cs)


def expected_normalized_entropy(params: DirichletParams) -> float:
    """Expected normalized entropy of the full vector under Dir(params).

    (1/ln M) [psi(alpha_0 + 1) - sum_k (alpha_k/alpha_0) psi(alpha_k + 1)]
    with the sum over all M = C + 1 entries (can't-solve included) and psi
    the digamma function.
    """
    entries = params.proper + (params.cs,)
    m = len(entries)
    if m < 2:
        raise SingleCategoryUnsupported("expected entropy needs M >= 2")
    total = params.total
    acc = digamma(total + 1.0)
    acc -= math.fsum(a / total * digamma(a + 1.0) for a in entries)
    value = acc / math.log(m)
    if value < -_VARIANCE_NOISE or value > 1.0 + _VARIANCE_NOISE:
        raise InternalConsistencyError(f"expected entropy {value!r} outside [0, 1]")
    return min(1.0, max(0.0, value))


def _sum_rising2(params: DirichletParams) -> float:
    """sum_k alpha_k (alpha_k + 1) over proper entries, compensated."""
    return math.fsum(a * (a + 1.0) for a in params.proper)


def expected_amb(params: DirichletParams) -> float:
    """E(amb) = 1 - sum_k a_k(a_k+1) / [alpha_0 (A + 1)], A = proper total.

    For C = 1 this reduces to the Beta mean alpha_cs / alpha_0, because with
    one proper category the measure equals q_cs.
    """
    total = params.total
    a_proper = total - params.cs
    return 1.0 - _sum_rising2(params) / (total * (a_proper + 1.0))


def expected_amb_modified(params: DirichletParams) -> float:
    """E of the modified measure via the exact linear relation:
    [C E(amb) - alpha_cs/alpha_0] / (C - 1), with alpha_cs/alpha_0 = E(q_cs)."""
    return modified_from_new(expected_amb(params), params.cs / params.total, params.n_proper)


def _r_and_s(params: DirichletParams) -> tuple[float, float]:
    total = params.total
    a_proper = total - params.cs
    r_num = math.fsum(
        a * (a + 1.0) * ((a + 2.0) * (a + 3.0) - a * (a + 1.0)) for a in params.proper
    )
    denom = total * (total + 1.0) * (a_proper + 2.0) * (a_proper + 3.0)
    r = r_num / denom
    s = total * (a_proper + 1.0) ** 2 / ((total + 1.0) * (a_proper + 2.0) * (a_proper + 3.0))
    return r, s


def var_amb(params: DirichletParams) -> float:
    """Var(amb) = R + (S - 1) [1 - E]^2, E(amb^2) - E^2 by the module notes,
    clamped at 0 for rounding noise."""
    r, s = _r_and_s(params)
    mean = expected_amb(params)
    value = r + (s - 1.0) * (1.0 - mean) ** 2
    if value < -_VARIANCE_NOISE:
        raise InternalConsistencyError(f"var_amb = {value!r} < 0 beyond noise")
    return max(0.0, value)


def var_qcs(params: DirichletParams) -> float:
    """Variance of the can't-solve mass, from its Beta(alpha_cs, A) marginal:
    alpha_cs A / [alpha_0^2 (alpha_0 + 1)]."""
    total = params.total
    return params.cs * (total - params.cs) / (total * total * (total + 1.0))


def cov_amb_qcs(params: DirichletParams) -> float:
    """Cov(amb, q_cs) = alpha_cs / [alpha_0 (alpha_0+1)] * [1 - E(amb)].

    Nonnegative for every parameter set: more can't-solve mass can only push
    the measure up. The factorized form exists because the conditional
    vector is independent of q_cs, so only the (1 - q_cs) factor inside the
    measure covaries.
    """
    total = params.total
    return params.cs / (total * (total + 1.0)) * (1.0 - expected_amb(params))


def var_amb_modified(params: DirichletParams) -> float:
    """Variance of the modified measure through the linear relation:
    (C-1)^{-2} [C^2 Var(amb) + Var(q_cs) - 2C Cov(amb, q_cs)]."""
    n_cat = params.n_proper
    _check_categories((MeasureKind.MODIFIED,), n_cat)
    value = (
        n_cat * n_cat * var_amb(params)
        + var_qcs(params)
        - 2.0 * n_cat * cov_amb_qcs(params)
    ) / (n_cat - 1.0) ** 2
    if value < -_VARIANCE_NOISE:
        raise InternalConsistencyError(f"var_amb_modified = {value!r} < 0 beyond noise")
    return max(0.0, value)


CLOSED_FORM, MC, ANALYTIC, MC_HISTOGRAM = "closed_form", "mc", "analytic", "mc_histogram"
Methods = namedtuple("Methods", ["moments", "density"])


def methods(measure: MeasureKind, n_proper: int) -> Methods:
    """Which method, by the name `ambiq posterior` prints, serves the
    posterior moments (CLOSED_FORM or MC) and density (ANALYTIC or
    MC_HISTOGRAM) of `measure` over n_proper proper categories. The
    quadratic measures have closed-form Dirichlet moments, and at C = 2 an
    exact density (binary_density); total variation, piecewise linear, has
    neither. Monte Carlo serves whatever has no exact method."""
    if measure is MeasureKind.OLD:
        return Methods(MC, MC_HISTOGRAM)
    return Methods(CLOSED_FORM, ANALYTIC if n_proper == 2 else MC_HISTOGRAM)


def posterior_mean_sd(
    params: DirichletParams,
    measure: MeasureKind,
    values: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[float, float]:
    """(mean, sd) of a measure under Dir(params), by the moments method
    of methods: closed forms ignore values; Monte Carlo moments are those
    of the sample `values`, drawn from Dir(params) by the caller, the
    floats of values.mean() and values.std(). A float array `work` shaped
    like values, which must not overlap it, takes the squared deviations
    in place of a new array.

    Raises:
        SingleCategoryUnsupported: Modified with C = 1.
        DomainError: Monte Carlo moments without a sample.
    """
    if methods(measure, params.n_proper).moments == CLOSED_FORM:
        if measure is MeasureKind.NEW:
            return expected_amb(params), math.sqrt(var_amb(params))
        return expected_amb_modified(params), math.sqrt(var_amb_modified(params))
    if values is None:
        raise DomainError(f"the {measure.value} measure's moments need a Monte Carlo sample")
    # np.std's own steps: the mean, the squared deviations from it, their
    # pairwise sum over n.
    mean = values.mean()
    deviations = np.subtract(values, mean, out=work)
    deviations *= deviations
    return float(mean), math.sqrt(deviations.sum() / values.size)
