"""Hand-built anchor sets, shared by the test modules."""

from fractions import Fraction

from maxram.errors import PreconditionError
from maxram.extraction import AnchorSet


def anchor_set_one_alpha(alpha) -> AnchorSet:
    """Anchor values for the two-step pattern (1, alpha), alpha > 1.

    ceil(alpha) + 2 values: 0, then an arithmetic ramp from 1 to alpha,
    then alpha + 1. Consecutive values differ by at most 1, so a value
    gap above 1 forces an index gap of at least 2.
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise PreconditionError("alpha must exceed 1")
    m = -((-alpha.numerator) // alpha.denominator)  # ceil(alpha)
    values = [Fraction(0)]
    for l in range(1, m + 1):
        values.append(1 + Fraction(l - 1, m - 1) * (alpha - 1))
    values.append(alpha + 1)
    return AnchorSet(tuple(values), (0, 1, m + 1))
