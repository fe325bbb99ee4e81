"""Infer the ambiguity of one task from a handful of annotations.

Run:  python3 demos/posterior_inference.py

The soft label q is never observed directly; annotators are a finite
sample from it. Under a symmetric Dirichlet prior the posterior over q
after counting responses is again Dirichlet, and the induced posterior
over the ambiguity value has closed-form mean and variance for the new
and modified measures. Monte Carlo draws from the same posterior provide
quantiles, credible intervals, and a density picture, and they are the
only route for the old measure.
"""

import numpy as np

from ambiq import (
    CountVector,
    DirichletParams,
    MeasureKind,
    expected_normalized_entropy,
    histogram_mode,
    posterior_moments,
    posterior_update,
    sample_transformed,
)


def main() -> None:
    prior = DirichletParams.symmetric(2, 1.0)
    counts = CountVector(proper=(11, 2), cs=2)
    posterior = posterior_update(prior, counts)

    print("Task: binary question answered by 15 annotators.")
    print(f"  responses: {counts.proper[0]} yes, {counts.proper[1]} no, {counts.cs} cs")
    print(f"  prior:     symmetric Dirichlet, beta = 1 (flat over the simplex)")
    concentrations = ", ".join(f"{v:g}" for v in posterior.as_array())
    print(f"  posterior: Dir({concentrations})")
    print()

    print("Closed-form posterior moments of the ambiguity value:")
    for kind in (MeasureKind.NEW, MeasureKind.MODIFIED):
        moments = posterior_moments(posterior, kind)
        print(f"  {kind.value:<9} mean {moments.mean:.4f}   sd {moments.sd:.4f}")
    print()

    print("The same posterior, summarized from 100k Monte Carlo draws")
    print("(the closed forms above validate these numbers):")
    for kind in MeasureKind:
        samples = sample_transformed(posterior, (kind,), 100_000, seed=0)[0]
        lo, hi = np.quantile(samples, [0.025, 0.975])
        print(
            f"  {kind.value:<9} mean {samples.mean():.4f}   sd {samples.std():.4f}"
            f"   mode {histogram_mode(samples):.3f}   95% CI [{lo:.3f}, {hi:.3f}]"
        )
    print()
    print("The old measure has no closed-form moments; for it the Monte")
    print("Carlo column above is the estimate, not a cross-check.")
    print()

    entropy = expected_normalized_entropy(posterior)
    print("Expected normalized entropy of q under the posterior (a common")
    print(f"comparison quantity): {entropy:.4f}")
    print()

    print("Sample-size story: the ambiguity posterior tightens as")
    print("annotations accumulate while the mean stabilizes.")
    print(f"  {'n':>4} {'mean':>8} {'sd':>8}")
    for scale in (1, 2, 4, 8):
        scaled = CountVector(
            proper=(counts.proper[0] * scale, counts.proper[1] * scale),
            cs=counts.cs * scale,
        )
        moments = posterior_moments(posterior_update(prior, scaled), MeasureKind.NEW)
        print(f"  {scaled.total:>4} {moments.mean:>8.4f} {moments.sd:>8.4f}")


if __name__ == "__main__":
    main()
