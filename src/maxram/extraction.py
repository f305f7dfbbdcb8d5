"""Extraction of baton copies from dense grid subsets.

Any subset of {0..k}^n with more than k^n elements contains k+1 points
x^0..x^k with max-norm distance |s-t| between x^s and x^t. The extractor
below is the constructive induction behind that fact, run as a loop: a
head-shift map pushes mass toward larger last coordinates, a class above
the counting threshold goes on with one axis fewer, and preimages are
pulled back. One integer core serves both entries: the anchor entry maps
each coordinate to its anchor index first, comparing integer numerators
cross-multiplied, so general gap patterns reduce to the unit case.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, PreconditionError
from .metric import Baton, CopyEmbedding, PointSet

IntVec = tuple[int, ...]


class GridSubset:
    """A set of integer vectors inside {0..k}^n."""

    def __init__(self, n: int, k: int, elems: frozenset[IntVec]):
        self.n = n
        self.k = k
        self.elems = elems = frozenset(tuple(e) for e in elems)
        if n < 1 or k < 1:
            raise PreconditionError("grid subset needs n >= 1 and k >= 1")
        for e in elems:
            if len(e) != n:
                raise PreconditionError(f"element {e} has wrong dimension")
            if any(not (0 <= c <= k) for c in e):
                raise PreconditionError(f"element {e} outside {{0..{k}}}")

    def __len__(self) -> int:
        return len(self.elems)


def _shifted(x: IntVec, fiber: set[int], k: int) -> IntVec:
    """One application of the head-shift map to an element x of a subset
    of {0..k}^n, given `fiber`, the heads of the subset over x's tail.

    x moves to (tail, head+1) when some value j > head is missing from
    the fiber; otherwise x is a fixed point. The map is injective on the
    subset.
    """
    head = x[-1]
    if any(j not in fiber for j in range(head + 1, k + 1)):
        return x[:-1] + (head + 1,)
    return x


def _require_dense(count: int, top: int, n: int) -> None:
    """Refuse count points of {0..top}^n unless count > top^n, the bound
    that forces a copy. At top >= 2, top^n >= 2^n, so a stated n of any
    size is refused by count's bit length before the power is formed."""
    if (top >= 2 and n >= count.bit_length()) or count <= top**n:
        raise PreconditionError(f"need more than {top}^{n} points, got {count}")


def _extract(elems, n: int, k: int) -> list[IntVec]:
    """Ordered points x^0..x^k with ||x^s - x^t|| = |s-t|, all from elems.

    Each step peels the last axis and goes on with the tails of a dense
    class, each mapped to its point; the chain the last step finds is
    pulled back through those maps. No call stack: Python's recursion
    limit does not cap n.
    """
    levels: list[dict[IntVec, IntVec]] = []
    while n > 1:
        fibers: dict[IntVec, set[int]] = {}
        for e in elems:
            fibers.setdefault(e[:-1], set()).add(e[-1])

        full = sorted(t for t, heads in fibers.items() if len(heads) == k + 1)
        if full:
            chain = [full[0] + (i,) for i in range(k + 1)]
            break

        # No full fiber: shift, partition the image by last coordinate, go
        # on with a class that stays above the counting threshold.
        preimage: dict[IntVec, IntVec] = {}
        classes: dict[int, set[IntVec]] = {i: set() for i in range(k + 1)}
        for e in elems:
            img = _shifted(e, fibers[e[:-1]], k)
            assert img not in preimage, "shift map lost injectivity"
            preimage[img] = e
            classes[img[-1]].add(img)

        assert not classes[0], "image class at head 0 must be empty"
        threshold = k ** (n - 1)
        target = next(
            (i for i in range(1, k + 1) if len(classes[i]) > threshold), None
        )
        assert target is not None, "pigeonhole guarantees a dense class"

        tails = {y[:-1]: preimage[y] for y in classes[target]}
        assert len(tails) == len(classes[target])
        levels.append(tails)
        elems, n = tails.keys(), n - 1
    else:
        assert len(elems) == k + 1, "one-dimensional dense set must be full"
        chain = [(i,) for i in range(k + 1)]
    for tails in reversed(levels):
        chain = [tails[y] for y in chain]
    return chain


def extract_unit_baton(subset: GridSubset) -> CopyEmbedding:
    """Extract a unit-gap baton copy from a grid subset with > k^n points:
    the core on the subset's own integers, checked over its k + 1 points."""
    n, k = subset.n, subset.k
    _require_dense(len(subset), k, n)  # before the k steps: k may be huge
    chain = PointSet(n, _extract(subset.elems, n, k))
    return CopyEmbedding(Baton.unit(k).as_metric_space(), chain, range(k + 1))


class AnchorSet(NamedTuple):
    """Strictly increasing values num[i] / den starting at 0, with marked
    positions running from 0 to the last index.

    The marked indices select the extraction steps that realize a target
    gap pattern: consecutive marked values differ by the pattern's steps.
    An anchor set comes from a verified anchor sequence (its anchor_set,
    which passes on the sequence's own integer numerators and den) or is
    the unit grid 0..k over den 1, every index marked.
    """

    num: tuple[int, ...]
    den: int
    marks: tuple[int, ...]


def extract_general_baton(
    subset: PointSet, baton: Baton, anchors: AnchorSet
) -> CopyEmbedding:
    """Extract a copy of `baton` from a dense subset of anchor-grid points.

    Each coordinate of every point must be one of the anchor values (an
    anchor sequence supplies its values through `.anchor_set`); with more
    than (len(num)-1)^n points a copy is guaranteed. The copy is found
    by pulling the subset back to the integer grid, extracting a unit
    baton, and pushing the marked positions forward.

    All of it runs in integers: the subset's coordinates, scaled by their
    common denominator, meet the anchor numerators cross-multiplied, so a
    coordinate c/scale is anchor i exactly when c * den == num[i] * scale.
    """
    num, den, marks = anchors
    if baton.k + 1 != len(marks):
        raise PreconditionError("anchor marks do not match the baton length")
    if any(
        (num[b] - num[a]) * s.denominator != s.numerator * den
        for a, b, s in zip(marks, marks[1:], baton.steps)
    ):
        raise PreconditionError("anchor marked gaps do not match the baton steps")
    top = len(num) - 1
    n = subset.dim
    _require_dense(len(subset), top, n)

    scale, coords = subset.scaled_coords
    index_of_value = {v * scale: i for i, v in enumerate(num)}
    where: dict[IntVec, int] = {}
    for j, p in enumerate(coords):
        try:
            where[tuple(index_of_value[c * den] for c in p)] = j
        except KeyError:
            point = ", ".join(map(str, subset.points[j]))
            raise DomainError(
                f"point ({point}) has a coordinate outside the anchors"
            ) from None
    chain = _extract(where.keys(), n, top)

    # Some axis runs 0..top along the chain, upward, so the marks select
    # it forward: the base and full-fiber cases run upward on the last
    # axis, and each peeled axis pulls back only the last coordinate.
    witness = next(
        j for j in range(n) if {chain[0][j], chain[-1][j]} == {0, top}
    )
    assert all(chain[s][witness] == s for s in range(top + 1))

    indices = tuple(where[chain[i]] for i in marks)
    return CopyEmbedding(baton.as_metric_space(), subset, indices)
