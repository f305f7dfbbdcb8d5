"""Slow exact max-norm oracles, shared by the test modules."""

from fractions import Fraction

from maxram.errors import DimensionMismatch, PreconditionError


def chebyshev_distance(x, y) -> Fraction:
    """Max-coordinate distance between two equal-length rational vectors."""
    if len(x) != len(y):
        raise DimensionMismatch(f"dimension mismatch: {len(x)} vs {len(y)}")
    best = Fraction(0)
    for a, b in zip(x, y):
        diff = abs(Fraction(a) - Fraction(b))
        if diff > best:
            best = diff
    return best


def check_metric_naive(dist) -> None:
    """The metric axioms over all d^3 triples in Fractions, each failure
    naming its first entry; oracle for maxram.metric.check_metric."""
    d = len(dist)
    rows = [[Fraction(v) for v in row] for row in dist]
    for i, row in enumerate(rows):
        if len(row) != d:
            raise PreconditionError("distance matrix must be square")
        if row[i] != 0:
            raise PreconditionError(f"nonzero diagonal at {i}")
    for i in range(d):
        for j in range(i + 1, d):
            if rows[i][j] != rows[j][i]:
                raise PreconditionError(f"asymmetric entry at ({i},{j})")
            if rows[i][j] <= 0:
                raise PreconditionError(f"nonpositive distance at ({i},{j})")
    for i in range(d):
        for j in range(d):
            for l in range(d):
                if rows[i][j] > rows[i][l] + rows[l][j]:
                    raise PreconditionError(
                        f"triangle inequality fails at ({i},{j},{l})"
                    )
