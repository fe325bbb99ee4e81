"""Monte Carlo summaries of transformed Dirichlet posteriors.

Everything here flows through one pipeline: draw full probability vectors
from Dir(params), push them through an ambiguity measure, and summarize
the resulting scalar sample. sample_transformed(params, measures, count,
seed, stream) is that draw and push for one stream, one row of values per
measure, optionally into a buffer the caller reuses. Every Monte Carlo
sample of the package is drawn through it. Streams are derived from a
single user seed with explicit spawn keys, so any repeat structure is
reproducible without coordination between callers.

posterior_summaries is the per-count-vector summary, and MeasureSummary
its record: one sample per distinct count vector, drawn from a stream
keyed on the counts themselves, feeds every measure's interval, while the
quadratic measures take their mean and sd from the closed forms. A
vector's summary depends only on (counts, prior, measures, sample size,
credible mass, seed), never on the other vectors it is summarized with.

Quantiles and credible intervals are read off a sorted sample by
_sorted_quantiles, Hyndman and Fan's type 7 rule (linear interpolation
between order statistics at virtual index (n - 1) p), with numpy's own
arithmetic, so they are the same floats np.quantile gives for the same
sample. One sort serves every level; np.quantile partitions the sample
around the order statistics of each level on every call, which costs more
than the sort on numpy 2's vectorized np.sort. Means and sds are taken
before the sort: a pairwise sum's last bits depend on the order of its
terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .exceptions import DomainError, TooFewSamples
from .measures import MeasureKind, measure_arrays
from .numerics import DirichletParams, dirichlet_sample
from .posterior_analytics import posterior_moments, posterior_update

if TYPE_CHECKING:
    from .frequentist import CountVector

__all__ = [
    "MeasureSummary",
    "DensityEstimate",
    "MODE_BINS",
    "sample_transformed",
    "histogram_mode",
    "posterior_mean_sd",
    "posterior_summaries",
    "density_with_uncertainty",
]

# Histogram resolution used for the mode convention. Mode estimates are
# reported as the midpoint of the fullest bin on a fixed [0, 1] grid; a
# fixed bin count keeps the convention stable across sample sizes.
MODE_BINS = 256

_MIN_SAMPLES = 1000


@dataclass(frozen=True)
class MeasureSummary:
    """Posterior summary of one measure for one count vector.

    plugin is the measure at the empirical frequencies, None for a count
    vector with no annotations. posterior_mean and posterior_sd are exact
    for the quadratic measures and sample moments for total variation; the
    equal-tailed credible interval [credible_lo, credible_hi] always comes
    from the Monte Carlo sample. The field names, in order, are the
    per-measure columns of a score report file.
    """

    plugin: float | None
    posterior_mean: float
    posterior_sd: float
    credible_lo: float
    credible_hi: float

    def __post_init__(self):
        if self.credible_lo > self.credible_hi:
            raise DomainError(
                f"credible interval [{self.credible_lo!r}, {self.credible_hi!r}] inverted"
            )


@dataclass(frozen=True)
class DensityEstimate:
    """Histogram density with repeat-to-repeat sampling uncertainty.

    bin_edges has one more entry than the per-bin arrays. median_density
    is the across-repeat median of normalized histogram heights; iqr_lo
    and iqr_hi are the across-repeat quartiles, so the band reflects pure
    Monte Carlo variation at the chosen samples_per_repeat.
    """

    bin_edges: np.ndarray
    median_density: np.ndarray
    iqr_lo: np.ndarray
    iqr_hi: np.ndarray

    def __post_init__(self):
        n_bins = len(self.bin_edges) - 1
        for name in ("median_density", "iqr_lo", "iqr_hi"):
            if len(getattr(self, name)) != n_bins:
                raise DomainError(f"{name} must have {n_bins} entries")


def histogram_mode(values: np.ndarray) -> float:
    """Mode by the fixed-histogram convention: midpoint of the fullest of
    256 equal bins on [0, 1], first bin winning ties.

    A constant sample defeats the convention (every bin but one is empty,
    and which one depends on rounding), so the constant itself is returned.

    A sample inside [0, 1] is binned as ``min(floor(256 v), 255)`` with
    ``np.bincount``, which picks the same bins as ``np.histogram`` does at
    a fraction of its cost: multiplying by 256 is exact, so the index is
    exact, and ``np.histogram``'s edges ``linspace(0, 1, 257)`` are
    exactly k/256, so its own edge corrections never move a value. The
    midpoint (2k + 1)/512 is exact either way. Any other sample, one with
    NaN included, goes through ``np.histogram``.
    """
    values = np.asarray(values, dtype=float)
    low = float(values.min())
    high = float(values.max())
    if low == high:
        return low
    if 0.0 <= low and high <= 1.0:
        bins = (values * MODE_BINS).astype(np.intp)
        np.minimum(bins, MODE_BINS - 1, out=bins)
        return (int(np.argmax(np.bincount(bins))) + 0.5) / MODE_BINS
    hist, edges = np.histogram(values, bins=MODE_BINS, range=(0.0, 1.0))
    top = int(np.argmax(hist))
    return float(0.5 * (edges[top] + edges[top + 1]))


def sample_transformed(
    params: DirichletParams,
    measures: Sequence[MeasureKind],
    count: int,
    seed: int,
    stream: Sequence[int] = (),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw `count` vectors from Dir(params), using the stream (seed,
    stream), and return every measure in `measures` at each of them: the
    (len(measures), count) rows of measure_arrays, so one draw feeds
    several measures.

    A float array `out` of shape (C + 1 + len(measures) + 2, count)
    receives the draws in its first C + 1 rows and the measures' workspace
    in the rest, and the values are a view of it, so a caller drawing many
    samples of one shape can reuse one buffer. The values are the same
    either way.
    """
    block, work = (None, None) if out is None else np.split(out, [params.n_proper + 1])
    proper, cs = dirichlet_sample(params, count, seed, stream, out=block)
    return measure_arrays(proper, cs, measures, work)


def _sorted_quantiles(sorted_values: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """Quantiles of a finite, ascending sample at levels in [0, 1]: the
    same floats as ``np.quantile(sorted_values, levels)`` (method "linear").

    Level p sits at virtual index v = (n - 1) p, between order statistics
    a = x[floor(v)] and b = x[floor(v) + 1], and is interpolated as numpy
    does, from the nearer end: a + (b - a) t, or b - (b - a)(1 - t) when
    t = v - floor(v) is at least 0.5. At the top (v = n - 1) both indexes
    are -1, the last value, and t = v + 1, as in numpy.
    """
    n = sorted_values.shape[0]
    virtual = (n - 1) * np.asarray(levels, dtype=float)
    below = np.floor(virtual)
    top = virtual >= n - 1
    below[top] = -1.0
    t = virtual - below
    i = below.astype(np.intp)
    a = sorted_values[i]
    b = sorted_values[np.where(top, -1, i + 1)]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def posterior_mean_sd(
    params: DirichletParams,
    measure: MeasureKind,
    values: np.ndarray | None = None,
) -> tuple[float, float]:
    """(mean, sd) of a measure under Dir(params).

    The quadratic measures use the closed-form moments and ignore values;
    total variation has none, so its mean and sd are the moments of the
    Monte Carlo sample `values`, drawn from Dir(params) by the caller.
    """
    if measure is MeasureKind.OLD:
        if values is None:
            raise DomainError("the total-variation measure needs a Monte Carlo sample")
        return float(values.mean()), float(values.std())
    moments = posterior_moments(params, measure)
    return moments.mean, moments.sd


def posterior_summaries(
    count_vectors: Iterable["CountVector"],
    prior_beta: float = 1.0,
    measures: Sequence[MeasureKind] = (
        MeasureKind.NEW,
        MeasureKind.MODIFIED,
        MeasureKind.OLD,
    ),
    mc_samples: int = 20_000,
    credible_mass: float = 0.95,
    seed: int = 0,
) -> dict["CountVector", dict[str, MeasureSummary]]:
    """Plug-in value and posterior summary of each measure for each
    distinct count vector, keyed by count vector.

    The posterior is Dir(prior_beta + counts) under a symmetric prior. One
    sample of mc_samples posterior vectors serves every measure: it gives
    the equal-tailed interval of each, and the mean and sd of total
    variation; the quadratic measures take their mean and sd from the
    closed forms. The sample comes from the stream (seed, (C, *proper,
    cs)), keyed on the counts, so equal count vectors get equal summaries
    wherever they occur, and ``posterior_summaries((counts,), ...)[counts]``
    is the summary of one vector. Each value is one MeasureSummary per
    measure, keyed by measure name, in the order given.

    Each distinct vector is summarized once, with the result it gets
    alone. The vectors share one sample_transformed buffer per number of
    categories C, of shape (C + 1 + len(measures) + 2, mc_samples), so
    each vector's values are computed and sorted in place, and summarizing
    many vectors does not hand memory back to the system and fault it in
    again for the next one.

    Each measure's values are sorted in place once its mean and sd are
    taken, and the interval is read off the sorted sample by the type 7
    rule of _sorted_quantiles: the same floats as np.quantile. A measure
    listed twice has a row of its own, so its second mean is taken from
    unsorted values too. The plug-in values of all non-empty vectors come
    from one measure_arrays call per C; the kernel works row by row, so
    they are the floats of ambiguity at each vector's frequencies.

    Raises:
        TooFewSamples: mc_samples below 1000.
        DomainError: credible_mass outside (0, 1), a nonpositive prior, or
            no measures.
    """
    measures = tuple(measures)
    if mc_samples < _MIN_SAMPLES:
        raise TooFewSamples(f"mc_samples must be at least {_MIN_SAMPLES}")
    if not 0.0 < credible_mass < 1.0:
        raise DomainError(f"credible mass {credible_mass!r} outside (0, 1)")
    if prior_beta <= 0.0:
        raise DomainError(f"prior concentration must be positive, got {prior_beta!r}")
    if not measures:
        raise DomainError("need at least one measure")
    tail = 0.5 * (1.0 - credible_mass)
    distinct = list(dict.fromkeys(count_vectors))
    plugins = _plugin_values(distinct, measures)
    buffers: dict[int, np.ndarray] = {}
    summaries = {}
    for counts in distinct:
        n_proper = counts.n_proper
        if n_proper not in buffers:
            buffers[n_proper] = np.empty((n_proper + 1 + len(measures) + 2, mc_samples))
        posterior = posterior_update(DirichletParams.symmetric(n_proper, prior_beta), counts)
        stream = (n_proper, *counts.proper, counts.cs)
        rows = sample_transformed(
            posterior, measures, mc_samples, seed, stream, out=buffers[n_proper]
        )
        summary = {}
        for measure, values, plugin in zip(measures, rows, plugins.get(counts, repeat(None))):
            # Sorted only after the moments: total variation's mean and sd
            # are pairwise sums, whose last bits depend on the order.
            mean, sd = posterior_mean_sd(posterior, measure, values)
            values.sort()
            lo, hi = _sorted_quantiles(values, (tail, 1.0 - tail))
            summary[measure.value] = MeasureSummary(
                plugin=plugin,
                posterior_mean=mean,
                posterior_sd=sd,
                credible_lo=float(lo),
                credible_hi=float(hi),
            )
        summaries[counts] = summary
    return summaries


def _plugin_values(
    count_vectors: Sequence["CountVector"], measures: tuple[MeasureKind, ...]
) -> dict["CountVector", tuple[float, ...]]:
    """Each measure at the empirical frequencies of each non-empty count
    vector, in the order of `measures`: one measure_arrays call per number
    of categories. A frequency v / n is the float that
    CountVector.as_probability_vector gives, since both counts are exact
    in a double."""
    groups: dict[int, list] = {}
    for counts in count_vectors:
        if counts.total:
            groups.setdefault(counts.n_proper, []).append(counts)
    plugins = {}
    for n_proper, group in groups.items():
        freq = np.array([(*c.proper, c.cs) for c in group], dtype=float)
        freq /= np.array([[c.total] for c in group], dtype=float)
        values = measure_arrays(freq[:, :n_proper], freq[:, n_proper], measures)
        plugins.update(zip(group, zip(*values.tolist())))
    return plugins


def density_with_uncertainty(
    params: DirichletParams,
    measure: MeasureKind,
    samples_per_repeat: int = 100_000,
    bins: int = 256,
    repeats: int = 100,
    seed: int = 0,
) -> DensityEstimate:
    """Histogram density of the transformed posterior with an IQR band.

    Repeat r draws from the stream (seed, (r,)), so the repeats are
    independent and individually reproducible. Each repeat's histogram is
    normalized to integrate to one; the returned band summarizes the
    per-bin spread across repeats.
    """
    if samples_per_repeat < 1 or bins < 1 or repeats < 1:
        raise DomainError("samples_per_repeat, bins, and repeats must be positive")
    edges = np.linspace(0.0, 1.0, bins + 1)
    heights = np.empty((repeats, bins))
    for r in range(repeats):
        values = sample_transformed(params, (measure,), samples_per_repeat, seed, (r,))[0]
        heights[r], _ = np.histogram(values, bins=edges, density=True)
    lo, med, hi = np.percentile(heights, [25.0, 50.0, 75.0], axis=0)
    return DensityEstimate(
        bin_edges=edges,
        median_density=med,
        iqr_lo=lo,
        iqr_hi=hi,
    )
