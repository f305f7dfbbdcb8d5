"""Random exact metric spaces, shared by the test modules."""

import random
from fractions import Fraction

from maxram.errors import PreconditionError
from maxram.metric import FiniteMetricSpace


def random_metric_space(rng: random.Random, size: int) -> FiniteMetricSpace:
    """Random exact metric: random symmetric weights, shortest-path closure.

    The closure fixes every triangle violation, and positive weights keep
    off-diagonal distances positive.
    """
    if size < 1:
        raise PreconditionError("size must be >= 1")
    dist = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = Fraction(rng.randint(4, 24), rng.randint(1, 4))
            dist[i][j] = dist[j][i] = w
    for l in range(size):
        for i in range(size):
            for j in range(size):
                via = dist[i][l] + dist[l][j]
                if i != j and via < dist[i][j]:
                    dist[i][j] = via
    return FiniteMetricSpace(tuple(tuple(row) for row in dist))
