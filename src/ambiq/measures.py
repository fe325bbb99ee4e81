"""Ambiguity measures over soft labels with a can't-solve category.

A soft label assigns probability q_k to each of C proper answer categories
and q_cs to a designated "can't solve" response. Three scalar measures of
task ambiguity are computed from such a vector:

* ``ambiguity_new`` -- the probability that an annotator abstains, or that
  two annotators who both judge the task solvable disagree on the answer:
  ``amb(q) = 1`` when ``q_cs = 1``, else ``1 - (sum_k q_k^2) / (1 - q_cs)``.
* ``ambiguity_modified`` -- same event structure, but the conditional
  disagreement probability is rescaled by its maximum (C-1)/C so a uniform
  conditional distribution scores 1 even without abstention mass:
  ``q_cs + C/(C-1) * [(1 - q_cs) - (sum_k q_k^2)/(1 - q_cs)]``.
* ``ambiguity_old`` -- an earlier total-variation-based alternative:
  ``1 - (1-q_cs)/2 * C/(C-1) * sum_k |p_k - 1/C|`` with p the conditional
  vector; kept for comparison studies.

All three live in [0, 1], are invariant under permutations of the proper
categories, and treat q_cs asymmetrically: abstention mass always pushes
ambiguity up. CountVector, the response counts that estimators and
posteriors take, sits beside the ProbabilityVector of its frequencies.
plugin_estimate, a measure at those frequencies, is one quotient of the
integer counts, so it is correctly rounded. A float soft label goes
through one array kernel, measure_arrays, which computes every requested
measure of rows of (proper, cs) in one pass, into a workspace its caller
can reuse. The samplers call it on millions of vectors at a time;
ambiguity_array and the scalar functions are calls of it, so a soft label
and a Monte Carlo draw of it get the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .exceptions import (
    DomainError,
    EmptySample,
    InternalConsistencyError,
    SingleCategoryUnsupported,
)

__all__ = [
    "DEGENERACY_THRESHOLD",
    "SIMPLEX_TOLERANCE",
    "CategorySchema",
    "ProbabilityVector",
    "CountVector",
    "MeasureKind",
    "plugin_estimate",
    "ambiguity_new",
    "ambiguity_modified",
    "modified_from_new",
    "ambiguity_old",
    "ambiguity",
    "normalized_entropy",
    "ambiguity_array",
    "measure_arrays",
]

# q_cs at or above this is treated as total unsolvability: the conditional
# vector would divide by ~0, so the measures take their degenerate value 1.
DEGENERACY_THRESHOLD = 1.0 - 1e-12

# Probability vectors must sum to 1 within this tolerance. Inputs outside it
# are rejected, never renormalized: silent renormalization masks data bugs.
SIMPLEX_TOLERANCE = 1e-9

# Results may violate [0, 1] by at most this much (rounding noise) before we
# call it a bug rather than noise.
_CLAMP_TOLERANCE = 1e-12


class MeasureKind(Enum):
    """The three ambiguity measures, as a closed enumeration."""

    NEW = "new"
    MODIFIED = "modified"
    OLD = "old"

    @classmethod
    def parse(cls, name: str) -> "MeasureKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DomainError(f"unknown measure {name!r}; expected one of: {valid}") from None


def _check_categories(kinds: Sequence[MeasureKind], n_proper: int) -> None:
    """Refuse the modified and old measures at C = 1: both divide by C - 1."""
    for kind in kinds:
        if kind is not MeasureKind.NEW and n_proper < 2:
            raise SingleCategoryUnsupported(f"{kind.value} ambiguity needs C >= 2")


@dataclass(frozen=True)
class CategorySchema:
    """Names of the C proper categories plus the can't-solve label.

    The can't-solve label is a separate field, not a member of ``labels``,
    so its position in serialized data is never ambiguous.
    """

    labels: tuple[str, ...]
    cs_label: str = "cs"

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) < 1:
            raise DomainError("schema needs at least one proper category")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError(f"duplicate category labels in {self.labels}")
        if self.cs_label in self.labels:
            raise DomainError(
                f"can't-solve label {self.cs_label!r} collides with a proper label"
            )

    @property
    def n_proper(self) -> int:
        return len(self.labels)


def _check_simplex(entries: Sequence[float], what: str) -> None:
    for v in entries:
        if not (math.isfinite(v) and -0.0 <= v <= 1.0):
            raise DomainError(f"{what} entries must lie in [0, 1]; got {v}")
    total = math.fsum(entries)
    if abs(total - 1.0) > SIMPLEX_TOLERANCE:
        raise DomainError(
            f"{what} must sum to 1 within {SIMPLEX_TOLERANCE:g}; got sum {total!r}"
        )


@dataclass(frozen=True)
class ProbabilityVector:
    """Soft label: probabilities over C proper categories plus q_cs.

    Entries must be in [0, 1] and sum to 1 within ``SIMPLEX_TOLERANCE``.

    Examples:
        >>> q = ProbabilityVector((0.4, 0.4), 0.2)
        >>> q.n_proper
        2
    """

    proper: tuple[float, ...]
    cs: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "proper", tuple(float(v) for v in self.proper))
        object.__setattr__(self, "cs", float(self.cs))
        if len(self.proper) < 1:
            raise DomainError("need at least one proper category")
        _check_simplex(self.proper + (self.cs,), "probability vector")

    @property
    def n_proper(self) -> int:
        return len(self.proper)

    @property
    def is_degenerate(self) -> bool:
        """True when effectively all mass sits on can't-solve."""
        return self.cs >= DEGENERACY_THRESHOLD


@dataclass(frozen=True)
class CountVector:
    """Response counts: one integer per proper category plus can't-solve."""

    proper: tuple[int, ...]
    cs: int = 0

    def __post_init__(self):
        for v in tuple(self.proper) + (self.cs,):
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise DomainError(f"counts must be integers; got {v!r}")
        object.__setattr__(self, "proper", tuple(int(v) for v in self.proper))
        object.__setattr__(self, "cs", int(self.cs))
        if len(self.proper) < 1:
            raise DomainError("need at least one proper category")
        if any(v < 0 for v in self.proper) or self.cs < 0:
            raise DomainError("counts must be nonnegative")

    @property
    def n_proper(self) -> int:
        return len(self.proper)

    @property
    def total(self) -> int:
        return sum(self.proper) + self.cs

    def as_probability_vector(self) -> ProbabilityVector:
        """Empirical frequencies.

        Raises:
            EmptySample: with no responses there is no frequency vector.
        """
        n = self.total
        if n == 0:
            raise EmptySample("cannot form frequencies from zero responses")
        return ProbabilityVector(
            proper=tuple(v / n for v in self.proper), cs=self.cs / n
        )


def plugin_estimate(counts: CountVector, measure: MeasureKind = MeasureKind.NEW) -> float:
    """The measure at the empirical frequencies of `counts`, correctly rounded.

    Each measure is one quotient of Python ints, and int / int rounds
    once. With N_p = sum_k n_k, N = N_p + cs and Q = sum_k n_k^2, new is
    (N N_p - Q) / (N N_p), modified is (cs N_p (C - 1) + C (N_p^2 - Q)) /
    ((C - 1) N N_p), old is (2 (C - 1) N - sum_k |C n_k - N_p|) /
    (2 (C - 1) N), and N_p = 0 gives 1. So permuted counts tie exactly and
    the end points are exact: the old measure of (3, 0, 0, 0, 0 | 0) is 0.0.
    It raises EmptySample for no responses at all, then
    SingleCategoryUnsupported for modified or old at C = 1.

    Examples:
        >>> plugin_estimate(CountVector((4, 1)), MeasureKind.MODIFIED)
        0.64
    """
    n_proper = sum(counts.proper)
    n, c = n_proper + counts.cs, counts.n_proper
    if n == 0:
        raise EmptySample("cannot form frequencies from zero responses")
    _check_categories((measure,), c)
    if n_proper == 0:
        return 1.0
    if measure is MeasureKind.OLD:
        spread = sum(abs(c * k - n_proper) for k in counts.proper)
        return (2 * (c - 1) * n - spread) / (2 * (c - 1) * n)
    squares = sum(k * k for k in counts.proper)
    if measure is MeasureKind.NEW:
        return (n * n_proper - squares) / (n * n_proper)
    numerator = counts.cs * n_proper * (c - 1) + c * (n_proper**2 - squares)
    return numerator / ((c - 1) * n * n_proper)


def ambiguity(q: ProbabilityVector, kind: MeasureKind) -> float:
    """The measure named by `kind` at one soft label.

    A one-row call of the array kernel measure_arrays, so the scalar and
    the Monte Carlo layers share one copy of each formula.
    """
    return float(measure_arrays(np.array([q.proper]), np.array([q.cs]), (kind,))[0, 0])


def ambiguity_new(q: ProbabilityVector) -> float:
    """Ambiguity: abstention probability plus conditional disagreement.

    ``amb(q) = 1`` if q_cs is (numerically) 1, else
    ``1 - (sum_k q_k^2) / (1 - q_cs)``.

    Equals q_cs for C = 1; equals ``1 - (1 - q_cs)/C`` for a uniform
    conditional distribution. Maximum 1 is reached only at q_cs = 1.

    Examples:
        >>> ambiguity_new(ProbabilityVector((1.0, 0.0), 0.0))
        0.0
        >>> round(ambiguity_new(ProbabilityVector((0.25, 0.25), 0.5)), 6)
        0.75
    """
    return ambiguity(q, MeasureKind.NEW)


def ambiguity_modified(q: ProbabilityVector) -> float:
    """Modified ambiguity: conditional disagreement rescaled by its maximum.

    ``q_cs + C/(C-1) * [(1 - q_cs) - (sum_k q_k^2)/(1 - q_cs)]`` with the
    degenerate branch returning 1. Reaches 1 whenever the conditional
    distribution is uniform, regardless of q_cs; the float kernel can miss
    it by an ulp (0.9999999999999999 at five labels of 0.2).

    Raises:
        SingleCategoryUnsupported: for C = 1 (the C/(C-1) rescaling is
            undefined).

    Examples:
        >>> ambiguity_modified(ProbabilityVector((0.5, 0.5), 0.0))
        1.0
        >>> round(ambiguity_modified(ProbabilityVector((0.8, 0.2), 0.0)), 6)
        0.64
    """
    return ambiguity(q, MeasureKind.MODIFIED)


def modified_from_new(amb: float, q_cs: float, n_proper: int) -> float:
    """Modified ambiguity from the plain one: ``(C*amb - q_cs) / (C - 1)``.

    This is an algebraic identity, so it holds exactly for any valid pair
    produced by the two measure functions on the same vector.

    Raises:
        SingleCategoryUnsupported: for C = 1.
        DomainError: when amb or q_cs is outside [0, 1].
    """
    _check_categories((MeasureKind.MODIFIED,), n_proper)
    if not (0.0 <= amb <= 1.0):
        raise DomainError(f"amb must lie in [0, 1]; got {amb}")
    if not (0.0 <= q_cs <= 1.0):
        raise DomainError(f"q_cs must lie in [0, 1]; got {q_cs}")
    return (n_proper * amb - q_cs) / (n_proper - 1.0)


def ambiguity_old(q: ProbabilityVector) -> float:
    """Total-variation-based ambiguity of earlier work, for comparison.

    ``1 - (1-q_cs)/2 * C/(C-1) * sum_k |p_k - 1/C|`` with p the conditional
    vector; 1 on the degenerate branch. Saturates at 1 for any distribution
    whose conditional part is uniform, and more broadly compresses the upper
    range compared to the other two measures. The float kernel can miss
    the end point 0 by an ulp (1.1e-16 at the vertex (1, 0, 0, 0, 0)).

    Raises:
        SingleCategoryUnsupported: for C = 1.
    """
    return ambiguity(q, MeasureKind.OLD)


def _entries(p) -> tuple[float, ...]:
    if isinstance(p, ProbabilityVector):
        return p.proper + (p.cs,)
    entries = tuple(float(v) for v in p)
    _check_simplex(entries, "probability vector")
    return entries


def normalized_entropy(p) -> float:
    """Shannon entropy divided by its maximum ln M, in [0, 1].

    Accepts a :class:`ProbabilityVector` (M = C + 1, the can't-solve entry
    counts as a category) or any simplex sequence (M = its length). Uses the
    convention 0 ln(1/0) = 0.

    Raises:
        SingleCategoryUnsupported: for M = 1 (ln 1 = 0 normalization).
    """
    entries = _entries(p)
    m = len(entries)
    if m < 2:
        raise SingleCategoryUnsupported("normalized entropy needs M >= 2")
    # 0.0 - x rather than -x, so a point mass gives 0.0 and not -0.0.
    h = 0.0 - math.fsum(v * math.log(v) for v in entries if v > 0.0)
    return float(_check_array_range(np.array(h / math.log(m)), "normalized_entropy"))


# ---------------------------------------------------------------------------
# Array kernel
# ---------------------------------------------------------------------------
#
# The Monte-Carlo layers evaluate measures on millions of sampled vectors:
# measure_arrays takes an (n, C) proper block plus an (n,) cs column and
# writes every requested measure in one pass, and the scalar measures above
# are one-row calls of it. Inputs are trusted to be rows of a simplex (as
# produced by the samplers or a ProbabilityVector). Every row reduction
# adds columns left to right, so a row gets the same floats whether the
# block is C-ordered or, as the samplers return it, column-major, and
# whichever other rows and measures share the call.


def _check_array_range(values: np.ndarray, what: str) -> np.ndarray:
    """Raise on values outside [0, 1] by more than rounding noise, and clip
    the noise. The clip runs only when some value lies outside [0, 1]: it
    changes no other value (np.clip keeps -0.0), so skipping it is exact."""
    lo = float(values.min(initial=0.0))
    hi = float(values.max(initial=1.0))
    if lo < -_CLAMP_TOLERANCE or hi > 1.0 + _CLAMP_TOLERANCE:
        raise InternalConsistencyError(f"{what} outside [0, 1]: range [{lo!r}, {hi!r}]")
    if lo < 0.0 or hi > 1.0:
        np.clip(values, 0.0, 1.0, out=values)
    return values


def measure_arrays(
    proper: np.ndarray,
    cs: np.ndarray,
    kinds: Sequence[MeasureKind],
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Every measure in `kinds` over rows of (proper, cs), in one pass.

    Returns a (len(kinds), n) array whose row i holds measure kinds[i]; a
    kind listed twice gets two rows of equal floats. Given `work`, a float
    array of shape (len(kinds) + 2, n) that does not overlap the inputs,
    the result is its first len(kinds) rows, and its last two rows take
    1 - cs and scratch values; so a caller that passes the same workspace
    for each sample allocates nothing per sample. Without it the result
    is a new array.

    1 - cs and the degenerate-row test are computed once per call, and
    the quotient (sum_k q_k^2) / (1 - cs) once for new and modified. Each
    formula is evaluated on every row; rows whose can't-solve mass is at
    or above DEGENERACY_THRESHOLD (or NaN) divided by ~0 and then take the
    degenerate value 1. Every live row gets the floats it gets alone.

    Raises:
        SingleCategoryUnsupported: modified or old requested for C = 1.
        DomainError: a workspace of the wrong shape.
    """
    proper = np.asarray(proper, dtype=float)
    cs = np.asarray(cs, dtype=float)
    n_rows, n_cat = proper.shape
    _check_categories(kinds, n_cat)
    if work is None:
        # Separate arrays, so the two scratch rows are freed on return
        # rather than kept alive by the result.
        out = np.empty((len(kinds), n_rows))
        one_minus, scratch = np.empty(n_rows), np.empty(n_rows)
    elif work.shape != (len(kinds) + 2, n_rows):
        raise DomainError(
            f"workspace must have shape {(len(kinds) + 2, n_rows)}, got {work.shape}"
        )
    else:
        out, one_minus, scratch = work[:-2], work[-2], work[-1]
    np.subtract(1.0, cs, out=one_minus)
    with np.errstate(divide="ignore", invalid="ignore"):
        if any(kind is not MeasureKind.OLD for kind in kinds):
            # scratch = (sum_k q_k^2) / (1 - cs), the squares added column
            # by column; out[0] holds each square, as no measure is written
            # yet.
            np.square(proper[:, 0], out=scratch)
            for j in range(1, n_cat):
                np.square(proper[:, j], out=out[0])
                scratch += out[0]
            scratch /= one_minus
        for row, kind in zip(out, kinds):
            if kind is MeasureKind.NEW:
                np.subtract(1.0, scratch, out=row)
            elif kind is MeasureKind.MODIFIED:
                np.subtract(one_minus, scratch, out=row)
                row *= n_cat / (n_cat - 1.0)
                row += cs
        # Old last: it takes the scratch row that the quotient held.
        for row, kind in zip(out, kinds):
            if kind is not MeasureKind.OLD:
                continue
            # Total variation sum_k |p_k - 1/C|, added column by column.
            for j in range(n_cat):
                column = row if j == 0 else scratch
                np.divide(proper[:, j], one_minus, out=column)
                column -= 1.0 / n_cat
                np.abs(column, out=column)
                if j:
                    row += column
            # Same left-to-right order as 1 - 0.5 * (1 - cs) * C / (C - 1) * tv.
            np.multiply(0.5, one_minus, out=scratch)
            scratch *= n_cat
            scratch /= n_cat - 1.0
            row *= scratch
            np.subtract(1.0, row, out=row)
    floor = 1.0 - DEGENERACY_THRESHOLD
    if not one_minus.min(initial=1.0) > floor:
        out[:, ~(one_minus > floor)] = 1.0
    for row, kind in zip(out, kinds):
        _check_array_range(row, f"ambiguity_{kind.value}")
    return out


def ambiguity_array(proper: np.ndarray, cs: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Vectorized measure `kind` over rows of (proper, cs): measure_arrays
    of that one kind."""
    return measure_arrays(proper, cs, (kind,))[0]
