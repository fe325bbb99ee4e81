"""Monte Carlo summaries of transformed Dirichlet posteriors.

Everything here flows through one pipeline: draw full probability vectors
from Dir(params), push them through an ambiguity measure, and summarize
the resulting scalar sample. sample_transformed(params, measures, count,
seed, stream) is that draw and push for one stream, one row of values per
measure, optionally into a buffer the caller reuses. Every Monte Carlo
sample of the package is drawn through it. Streams are derived from
a single user seed with explicit spawn keys, so any repeat structure is
reproducible without coordination between callers.

posterior_summaries is the per-count-vector summary, and MeasureSummary
its record: one sample per count multiset, drawn from a stream keyed on
the count multiset (proper counts in non-increasing order, then cs),
feeds every measure's interval, and the mean and sd of any measure that
posterior_analytics.methods serves by Monte Carlo. Every measure is
invariant under permutations of the proper categories and the prior is
symmetric, so count vectors that are permutations of each other have
the same posterior law of each measure, and they get the same summary,
the plug-in included: measures.plugin_estimate depends on the multiset
only. A vector's summary depends only on (counts, prior, measures,
sample size, credible mass, seed), never on the other vectors it is
summarized with.

Loops over independent streams (posterior_summaries' count multisets,
density_with_uncertainty's repeats and frequentist.bias_curve's repeats)
run on every CPU this process may use, one thread each, through
_run_tasks, where each stream draws at least 8000 vectors. Each thread
draws into one sample buffer of its own, handed to every task it runs,
so memory grows by one buffer per extra thread. `ambiq posterior
--density` runs its Monte Carlo summary and its density rows as two
tasks the same way, with no buffer, and writes its file after both. Each
task draws only from its own stream and writes only its own result, so
the output bytes do not depend on the CPU count.

One 256-bin count, _mode_bins, serves the mode and the density band:
histogram_mode reads the midpoint of its fullest bin, and
density_with_uncertainty normalizes each repeat's counts to heights.

Quantiles and credible intervals follow Hyndman and Fan's type 7 rule
(linear interpolation between order statistics at virtual index
(n - 1) p) with numpy's own arithmetic, so they are the same floats
np.quantile gives for the same sample. Where a level's order statistics
lie is _type7_point's; how they are interpolated is _type7's. They are
read off a sorted sample by _sorted_quantiles, where one sort serves
many levels (`ambiq posterior`'s seven), or found by _selected_interval,
two single-kth partitions in place, where an interval needs only its two
levels (posterior_summaries). Either costs less than np.quantile, which
partitions around every order statistic of every level on each call.
Means and sds are taken before the values are reordered: a pairwise
sum's last bits depend on the order of its terms.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .exceptions import DomainError, TooFewSamples
from .measures import CountVector, MeasureKind, _check_categories, measure_arrays, plugin_estimate
from .numerics import DirichletParams, _check_prior, dirichlet_sample
from .posterior_analytics import posterior_mean_sd, posterior_update

__all__ = [
    "MeasureSummary",
    "DensityEstimate",
    "MODE_BINS",
    "sample_transformed",
    "histogram_mode",
    "posterior_summaries",
    "density_with_uncertainty",
]

# Histogram resolution used for the mode convention. Mode estimates are
# reported as the midpoint of the fullest bin on a fixed [0, 1] grid; a
# fixed bin count keeps the convention stable across sample sizes.
MODE_BINS = 256

_MIN_SAMPLES = 1000


def _check_mc_settings(mc_samples: int, credible_mass: float | None = None) -> None:
    """Refuse fewer draws than a mode or tail quantile needs, or a credible mass outside (0, 1)."""
    if mc_samples < _MIN_SAMPLES:
        raise TooFewSamples(f"mc_samples must be at least {_MIN_SAMPLES}")
    if credible_mass is not None and not 0.0 < credible_mass < 1.0:
        raise DomainError(f"credible mass {credible_mass!r} outside (0, 1)")


@dataclass(frozen=True)
class MeasureSummary:
    """Posterior summary of one measure for one count vector.

    plugin is plugin_estimate, the measure at the empirical frequencies,
    None for a count vector with no annotations. posterior_mean and
    posterior_sd are by the moments method of posterior_analytics.methods;
    the equal-tailed credible interval [credible_lo, credible_hi] always
    comes from the Monte Carlo sample. The field names, in order, are the
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


def _mode_bins(values: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Counts of a sample inside [0, 1] in the MODE_BINS equal bins of
    [0, 1], value v in bin ``min(floor(256 v), 255)``: the bins numpy's
    ``histogram`` picks, at a fraction of its cost. Multiplying by 256 is
    exact, so the index is exact, and numpy's edges ``linspace(0, 1, 257)``
    are exactly k/256, so its own edge corrections never move a value.

    The bin indexes are written into ``scratch``, a free contiguous float
    row at least as long as the sample, where a caller has one (a draw row
    of sample_transformed's `out` once it has returned), and into a new
    array otherwise.
    """
    if scratch is None:
        bins = np.empty(values.shape, dtype=np.intp)
    else:
        bins = scratch.view(np.intp)[: values.shape[0]]
    # The product is taken in float and truncated as it is stored, as
    # astype(np.intp) truncates it.
    np.multiply(values, MODE_BINS, out=bins, casting="unsafe")
    np.minimum(bins, MODE_BINS - 1, out=bins)
    return np.bincount(bins, minlength=MODE_BINS)


def histogram_mode(values: np.ndarray, *, _scratch: np.ndarray | None = None) -> float:
    """Mode by the fixed-histogram convention: midpoint of the fullest of
    256 equal bins on [0, 1], first bin winning ties, counted by _mode_bins
    (into ``_scratch`` where a caller has a free float row).

    A constant sample defeats the convention (every bin but one is empty,
    and which one depends on rounding), so the constant itself is returned.
    Values outside [0, 1], and NaN, fall in no bin, as in numpy's
    ``histogram`` with ``range=(0, 1)``, and a sample with none inside
    reads the first bin. The midpoint (2k + 1)/512 is exact.
    """
    values = np.asarray(values, dtype=float)
    low = float(values.min())
    high = float(values.max())
    if low == high:
        return low
    if not (0.0 <= low and high <= 1.0):
        values = values[(values >= 0.0) & (values <= 1.0)]
    return (int(np.argmax(_mode_bins(values, _scratch))) + 0.5) / MODE_BINS


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
    several measures. A measure that C does not support is refused first.

    A contiguous float array `out` of _sample_rows(C, len(measures)) rows
    of count receives the draws in its first C + 1 rows and the measures'
    workspace in the rest, and the values are a view of it, so a caller
    drawing many samples can reuse one buffer, or the leading rows of a
    wider one, and allocate nothing per sample. The values are the same
    either way.
    """
    _check_categories(measures, params.n_proper)
    n_draws = params.n_proper + 1
    draws, work = (None, None) if out is None else (out[: n_draws + 1], out[n_draws:])
    proper, cs = dirichlet_sample(params, count, seed, stream, out=draws)
    return measure_arrays(proper, cs, measures, work)


def _sample_rows(n_proper: int, n_measures: int) -> int:
    """Rows of sample_transformed's `out`: C + 1 rows of draws, then
    n_measures + 2 of workspace, whose first row is the draws' scratch and
    row sums until the measures take it over. Once sample_transformed
    returns, the draw rows are free for the caller's scratch."""
    return n_proper + 1 + n_measures + 2


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Fewest vectors a task must draw for _run_tasks to use threads. Below
# about 5000, threads lose to a plain loop: each task's Python steps then
# take as long as its numpy fills, and two threads trade the interpreter
# lock around every call. Measured on 2 CPUs, two threads took 1.5x the
# serial time at 2000 draws per task and 0.6-0.75x at 6000-8000, in
# posterior_summaries and density_with_uncertainty alike.
_THREADED_MIN_DRAWS = 8000


def _run_tasks(count: int, task: Callable[[int, np.ndarray], None], rows: int, draws: int) -> None:
    """Call task(index, buffer) for each index in range(count), on W
    threads, the calling thread among them: as many as this process has
    usable CPUs, read on every call, and at most count; 1 where each task
    draws fewer than _THREADED_MIN_DRAWS vectors (draws).

    Each thread allocates one np.empty((rows, draws)) before its first
    task and hands it to every task it runs, so no sample hands its memory
    back to the system for the next to fault in again. Tasks that allocate
    what they need themselves (`ambiq posterior`'s summary and density)
    are given no buffer: rows 0 hands each an empty one, and draws then
    only sets the threading threshold. Indexes are handed
    out in increasing order, each to the next free thread. A task must
    write only its own result slot and draw only from its own stream; then
    nothing it computes depends on W or on which thread ran it. numpy
    releases the interpreter lock in its random fills and ufuncs, so the
    draws of different tasks overlap.

    Once a task raises, no further task starts; the running ones finish,
    and the exception of the lowest failing index is raised. Every lower
    index has run by then, so it is the exception a plain loop raises.
    Every thread is joined before this returns or raises, so none outlives
    the call, and a process forked afterwards inherits none.
    """
    workers = min(_usable_cpus(), count) if draws >= _THREADED_MIN_DRAWS else 1
    lock = threading.Lock()
    next_index = 0
    failures: dict[int, BaseException] = {}

    def work() -> None:
        nonlocal next_index
        buffer = None
        while True:
            with lock:
                if failures or next_index == count:
                    return
                index = next_index
                next_index += 1
            try:
                if buffer is None:
                    buffer = np.empty((rows, draws))
                task(index, buffer)
            except BaseException as error:  # raised again by the calling thread
                with lock:
                    failures[index] = error
                return

    threads = []
    try:
        for _ in range(1, workers):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]


def _type7_point(n: int, level: float) -> tuple[int, int, float]:
    """Where the type 7 quantile at `level` of n values lies: order
    statistics k and k1 and the weight t of the upper one, as np.quantile
    (method "linear") finds them.

    The virtual index v = (n - 1) p lies between k = floor(v) and
    k1 = k + 1, and t = v - k. At the top (v >= n - 1) both are n - 1, the
    largest value, and t = v + 1, numpy's weight there.
    """
    virtual = (n - 1) * level
    if virtual >= n - 1:
        return n - 1, n - 1, virtual + 1.0
    k = math.floor(virtual)
    return k, k + 1, virtual - k


def _type7(a: float, b: float, t: float) -> float:
    """The type 7 quantile between order statistics a <= b at weight t,
    interpolated as numpy does, from the nearer end: a + (b - a) t, or
    b - (b - a)(1 - t) when t is at least 0.5."""
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def _sorted_quantiles(sorted_values: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """Quantiles of a finite, ascending sample at levels in [0, 1]: the
    same floats as ``np.quantile(sorted_values, levels)`` (method "linear"),
    each read at its _type7_point and interpolated by _type7."""
    n = sorted_values.shape[0]
    quantiles = []
    for level in levels:
        k, k1, t = _type7_point(n, float(level))
        quantiles.append(_type7(float(sorted_values[k]), float(sorted_values[k1]), t))
    return np.array(quantiles, dtype=float)


def _selected_interval(
    values: np.ndarray, lo_level: float, hi_level: float
) -> tuple[float, float]:
    """Quantiles at lo_level <= hi_level of a finite sample: the floats
    _sorted_quantiles reads off its sorted copy, found by two single-kth
    partitions of `values` in place instead of a sort.

    The first partition, at the lower level's k1, puts order statistic
    x[k1] there and the smaller values before it, whose max is x[k]. The
    values after it are the order statistics above k1; a partition of
    them at the upper level's k puts x[k] there and the larger values
    after it, whose min is the upper level's x[k1]. An upper level whose
    k is at most the lower one's k1 (credible masses near 0) reads what
    the first partition found. A partition only places its kth value, so
    the neighbours are taken as that max and min, never by position.
    numpy's partition at all four indexes at once costs about four sorts
    of 20 000 values; these two cost less than one.
    """
    n = values.shape[0]
    i, i1, s = _type7_point(n, lo_level)
    j, j1, t = _type7_point(n, hi_level)
    values.partition(i1)
    lower = (float(values[:i1].max()) if i < i1 else float(values[i1]), float(values[i1]))
    if j < i1:
        upper = lower
    else:
        if j > i1:
            values[i1 + 1 :].partition(j - i1 - 1)
        a = float(values[j])
        upper = (a, float(values[j + 1 :].min()) if j1 > j else a)
    return _type7(*lower, s), _type7(*upper, t)


def posterior_summaries(
    count_vectors: Iterable[CountVector],
    prior_beta: float = 1.0,
    measures: Sequence[MeasureKind] = tuple(MeasureKind),
    mc_samples: int = 20_000,
    credible_mass: float = 0.95,
    seed: int = 0,
) -> dict[CountVector, dict[str, MeasureSummary]]:
    """Plug-in value and posterior summary of each measure for each
    distinct count vector, keyed by count vector: one MeasureSummary per
    measure, keyed by measure name, in the order given.
    ``posterior_summaries((counts,), ...)[counts]`` is one vector's.

    The posterior is Dir(prior_beta + counts) under a symmetric prior. One
    sample of mc_samples posterior vectors per count multiset serves every
    measure: it gives the equal-tailed interval of each, and a Monte Carlo
    mean and sd by posterior_mean_sd. It is drawn from the canonical
    posterior (proper counts in non-increasing order, then cs) and the
    stream (seed, (C, *canonical proper, cs)), and every permutation of
    the proper counts gets the result the multiset gets alone. The plug-in
    is plugin_estimate, None for a vector with no annotations.

    The count multisets are sampled by _run_tasks, one task each, on the
    usable CPUs from 8000 draws up; the summaries are the same floats at
    any CPU count. Each thread's one buffer is sized for the widest C
    among the vectors, and a multiset draws into its leading
    _sample_rows(C, len(measures)) rows, so summarizing many vectors, of
    any mix of C, holds one buffer per thread. Once a measure's mean and sd are
    taken, its interval is found by _selected_interval, two partitions of
    its values in place: the same floats as np.quantile, without a sort.
    A measure listed twice has a row of its own, so its second mean is
    taken from unpartitioned values too.

    Raises:
        TooFewSamples: mc_samples below 1000.
        DomainError: credible_mass outside (0, 1), a prior that is not
            positive and finite, or no measures.
        SingleCategoryUnsupported: modified or old at C = 1, before any draw.
    """
    measures = tuple(measures)
    _check_mc_settings(mc_samples, credible_mass)
    _check_prior(prior_beta)
    if not measures:
        raise DomainError("need at least one measure")
    tail = 0.5 * (1.0 - credible_mass)
    # Each distinct count vector and its multiset's canonical vector.
    distinct = {
        counts: CountVector(tuple(sorted(counts.proper, reverse=True)), counts.cs)
        for counts in count_vectors
    }
    _check_categories(measures, min((c.n_proper for c in distinct), default=2))
    multisets = list(dict.fromkeys(distinct.values()))
    # (mean, sd, lo, hi) of each measure, per count multiset, in its slot.
    per_multiset: list[list[tuple[float, float, float, float]]] = [[] for _ in multisets]

    def summarize_multiset(index: int, widest_buffer: np.ndarray) -> None:
        canonical = multisets[index]
        n_proper = canonical.n_proper
        buffer = widest_buffer[: _sample_rows(n_proper, len(measures))]
        posterior = posterior_update(DirichletParams.symmetric(n_proper, prior_beta), canonical)
        stream = (n_proper, *canonical.proper, canonical.cs)
        rows = sample_transformed(posterior, measures, mc_samples, seed, stream, out=buffer)
        for measure, values in zip(measures, rows):
            # Partitioned only after the moments: a Monte Carlo mean and sd
            # are pairwise sums, whose last bits depend on the order. The
            # sd squares its deviations in the free first draw row.
            mean, sd = posterior_mean_sd(posterior, measure, values, work=buffer[0])
            lo, hi = _selected_interval(values, tail, 1.0 - tail)
            per_multiset[index].append((mean, sd, lo, hi))

    widest = max((c.n_proper for c in multisets), default=1)
    _run_tasks(
        len(multisets), summarize_multiset, _sample_rows(widest, len(measures)), mc_samples
    )
    shared = dict(zip(multisets, per_multiset))
    return {
        counts: {
            measure.value: MeasureSummary(
                plugin_estimate(counts, measure) if counts.total else None, *fields
            )
            for measure, fields in zip(measures, shared[canonical])
        }
        for counts, canonical in distinct.items()
    }


def density_with_uncertainty(
    params: DirichletParams,
    measure: MeasureKind,
    samples_per_repeat: int = 100_000,
    seed: int = 0,
) -> DensityEstimate:
    """Histogram density of the transformed posterior with an IQR band.

    Repeat r of 100 draws samples_per_repeat values from the stream (seed,
    (r,)) and counts them in the mode's MODE_BINS bins of [0, 1] by
    _mode_bins, into a free draw row, normalized to integrate to one in
    the steps of numpy's histogram(density=True); the returned band
    summarizes the per-bin spread across these independent, reproducible
    repeats. The repeats are run by _run_tasks on the usable CPUs from 8000
    draws up, each thread drawing into the one buffer _run_tasks gives it,
    and the band is the same floats at any CPU count.
    """
    edges = np.linspace(0.0, 1.0, MODE_BINS + 1)
    heights = np.empty((100, MODE_BINS))

    def histogram_repeat(r: int, buffer: np.ndarray) -> None:
        values = sample_transformed(params, (measure,), samples_per_repeat, seed, (r,), out=buffer)
        counts = _mode_bins(values[0], buffer[0])
        heights[r] = counts / np.diff(edges) / counts.sum()

    _run_tasks(
        len(heights), histogram_repeat, _sample_rows(params.n_proper, 1), samples_per_repeat
    )
    lo, med, hi = np.percentile(heights, [25.0, 50.0, 75.0], axis=0)
    return DensityEstimate(
        bin_edges=edges,
        median_density=med,
        iqr_lo=lo,
        iqr_hi=hi,
    )
