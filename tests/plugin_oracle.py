"""The plug-in of each measure as an exact rational, written out from the
measure definitions at the empirical frequencies, independently of
ambiq.measures. A plug-in is correctly rounded when it equals
float(plugin_fraction(...)): Fraction to float rounds once.
"""

from fractions import Fraction

from ambiq.measures import CountVector, MeasureKind


def plugin_fraction(counts: CountVector, kind: MeasureKind) -> Fraction:
    """The measure `kind` at frequencies q_k = n_k / N and q_cs = cs / N."""
    n = counts.total
    q = [Fraction(k, n) for k in counts.proper]
    q_cs = Fraction(counts.cs, n)
    solvable = 1 - q_cs
    if solvable == 0:
        return Fraction(1)
    c = len(q)
    if kind is MeasureKind.NEW:
        return 1 - sum(x * x for x in q) / solvable
    if kind is MeasureKind.MODIFIED:
        return q_cs + Fraction(c, c - 1) * (solvable - sum(x * x for x in q) / solvable)
    tv = sum(abs(x / solvable - Fraction(1, c)) for x in q)
    return 1 - solvable / 2 * Fraction(c, c - 1) * tv


def random_count_vectors(rng, count, max_proper=60, max_cs=6):
    """`count` non-empty count vectors at C = 1-7, with proper counts in
    0..max_proper, cs in 0..max_cs, and a third of the proper counts 0."""
    vectors = []
    while len(vectors) < count:
        c = int(rng.integers(1, 8))
        proper = rng.integers(0, max_proper + 1, size=c) * (rng.random(c) > 1 / 3)
        vector = CountVector(tuple(int(k) for k in proper), int(rng.integers(0, max_cs + 1)))
        if vector.total:
            vectors.append(vector)
    return vectors


def measures_of(counts: CountVector):
    """The measures defined at the vector's C: new only at C = 1."""
    return tuple(MeasureKind) if counts.n_proper > 1 else (MeasureKind.NEW,)
