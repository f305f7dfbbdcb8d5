"""Hand-built anchor sets, and the Fraction values of any anchor set or
sequence, shared by the test modules."""

import math
from fractions import Fraction

from maxram.errors import PreconditionError
from maxram.extraction import AnchorSet


def anchor_values(anchors) -> tuple[Fraction, ...]:
    """The values num[i] / den of an AnchorSet or AnchorSequence."""
    return tuple(Fraction(n, anchors.den) for n in anchors.num)


def marked_steps(anchors: AnchorSet) -> tuple[Fraction, ...]:
    """The gaps between consecutive marked values."""
    values = anchor_values(anchors)
    marks = anchors.marks
    return tuple(values[b] - values[a] for a, b in zip(marks, marks[1:]))


def anchor_set_one_alpha(alpha) -> AnchorSet:
    """Anchor values for the two-step pattern (1, alpha), alpha > 1.

    ceil(alpha) + 2 values: 0, then an arithmetic ramp from 1 to alpha,
    then alpha + 1. Consecutive values differ by at most 1, so a value
    gap above 1 forces an index gap of at least 2. They are stated over
    the least common denominator.
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise PreconditionError("alpha must exceed 1")
    m = -((-alpha.numerator) // alpha.denominator)  # ceil(alpha)
    values = [Fraction(0)]
    for l in range(1, m + 1):
        values.append(1 + Fraction(l - 1, m - 1) * (alpha - 1))
    values.append(alpha + 1)
    den = math.lcm(*(v.denominator for v in values))
    num = tuple(v.numerator * (den // v.denominator) for v in values)
    return AnchorSet(num, den, (0, 1, m + 1))
