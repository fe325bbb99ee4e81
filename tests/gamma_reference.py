"""The documented rule for a Dirichlet sample's gamma columns, written out
independently of ambiq.numerics, so tests can check its draws bit for bit.

Column i has the scalar shape alpha_i and is drawn from the one stream
after columns 0..i-1, `count` values at a time:
- shape k in {2, 3, 4}: -log of the product of (1 - U) over a (k, count)
  block of uniforms, multiplied down the block's rows in order;
- any other shape: numpy's standard_gamma.
Each vector is its gammas divided by their sum, added left to right.
"""

from functools import reduce

import numpy as np


def gamma_column(rng: np.random.Generator, shape: float, count: int) -> np.ndarray:
    if shape in (2.0, 3.0, 4.0):
        return -np.log(np.prod(1.0 - rng.random((int(shape), count)), axis=0))
    return rng.standard_gamma(shape, count)


def dirichlet_rows(alpha, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, len(alpha)) Dirichlet vectors by the rule above."""
    columns = [gamma_column(rng, float(a), count) for a in alpha]
    total = reduce(np.add, columns)
    return np.column_stack([column / total for column in columns])
