"""Slow exact max-norm oracles, shared by the test modules."""

from fractions import Fraction

from maxram.errors import DimensionMismatch


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
