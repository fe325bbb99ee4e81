"""The fixed reference kernel that op times are expressed in.

The host this benchmark runs on changes speed by up to a quarter within a
few seconds, and every op slows by about the same factor. The benchmark
therefore runs this kernel between ops and reports each op time divided by
the kernel's median time in the same run (the `*_ref` metrics).

The kernel mixes the kinds of work the program does: Philox gamma draws,
row normalisation, a quadratic form, quantiles and a histogram in numpy,
then JSON round-tripping and a Python loop over the parsed rows. It never
calls the program.

Never change this file. A `*_ref` figure is comparable with another only
when both were measured against the same kernel; changing the kernel
silently rescales every normalised metric of every later run.
"""

from __future__ import annotations

import json

import numpy as np

_ALPHA = np.array([3.0, 2.0, 1.5])
_LEVELS = [0.025, 0.975]
_ROWS = [
    {"item_id": f"i{k:03d}", "counts": [k % 5, k % 3, k % 2], "v": k / 7.0}
    for k in range(96)
]


def reference_kernel() -> float:
    """Run the kernel once; the return value only keeps the work live."""
    rng = np.random.Generator(np.random.Philox(20251004))
    g = rng.standard_gamma(_ALPHA, size=(6000, 3))
    g /= g.sum(axis=1, keepdims=True)
    p = g[:, :2]
    v = 1.0 - np.einsum("ij,ij->i", p, p) / (1.0 - g[:, 2])
    lo, hi = np.quantile(v, _LEVELS)
    hist, _ = np.histogram(v, bins=256, range=(0.0, 1.0))
    rows = json.loads(json.dumps(_ROWS))
    acc = 0.0
    for _ in range(4):
        for row in rows:
            for c in row["counts"]:
                acc += c * row["v"]
    return float(lo + hi + hist.argmax() + acc)
