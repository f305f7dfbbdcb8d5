"""Finite metric spaces, point sets, and exact ell-infinity geometry.

Everything here is exact. At the boundary, coordinates and distances are
Fractions. Inside, each point set caches its coordinates scaled by the
LCM of their denominators (PointSet.scaled_coords), and copy search
works on Python ints: per point, one bitmask of the points at each
distance the search needs, so candidate sets are ANDs of bitmasks.
Python ints are exact at any size, so one path serves every scale.
check_metric tests a distance matrix read from a file the same way, on
ints scaled once; a space built from points is a metric by construction.

With distinct_supports, find_copies adds lex-leader constraints from the
space's automorphisms (Crawford, Ginsberg, Luks and Roy, KR 1996): the
search builds only the least embedding of each support, which is the one
a filter on the full enumeration keeps.

Where a copy is checked: during the search, the masks prove every
pair's distance, so find_copies returns bare index tuples. CopyEmbedding
checks a copy pair by pair from the scaled coordinates; it wraps every
copy an artifact writes and every copy a certificate states. Floats
never appear on a correctness path.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import NamedTuple

from .errors import DimensionMismatch, DomainError, PreconditionError

Vec = tuple[Fraction, ...]

# The chromatic search on a grid builds every point and the copy
# hypergraph: at budget 1000 the 1,024 points of {0..3}^5 against the unit
# 2-baton take about 40 s on a 2-vCPU Xeon host. A grid of more than four
# times that is refused before any point, or (k+1)^n itself, is built.
MAX_GRID_POINTS = 2**12


def _as_vec(coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


class FiniteMetricSpace(NamedTuple):
    """A metric on points 0..size-1 given by an exact distance matrix.

    Built unchecked: from_points gives a metric by construction, and a
    matrix read from a file passes check_metric first."""

    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.dist)

    @classmethod
    def from_points(cls, points: "PointSet") -> "FiniteMetricSpace":
        scale, coords = points.scaled_coords
        rows = tuple(
            tuple(
                Fraction(max((abs(u - v) for u, v in zip(x, y)), default=0), scale)
                for y in coords
            )
            for x in coords
        )
        return cls(rows)


def check_metric(dist) -> None:
    """Refuse a matrix of rationals that is not a metric on 0..d-1: square,
    zero diagonal, symmetric, positive off the diagonal, and the triangle
    inequality, each failure naming its first entry.

    The entries are scaled once by the LCM of their denominators, so the
    O(d^3) triangle test runs on ints: row i minus row l, at most d[i][l].
    """
    scale = math.lcm(*(v.denominator for row in dist for v in row))
    rows = [[v.numerator * (scale // v.denominator) for v in row] for row in dist]
    d = len(rows)
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
    for i, row in enumerate(rows):
        if any(max(map(sub, row, other)) > row[l] for l, other in enumerate(rows)):
            j, l = min(
                (j, l)
                for l, other in enumerate(rows)
                for j in range(d)
                if row[j] > row[l] + other[j]
            )
            raise PreconditionError(f"triangle inequality fails at ({i},{j},{l})")


class PointSet:
    """Distinct points in rational n-space."""

    def __init__(self, dim: int, points: tuple[Vec, ...]):
        self.dim = dim
        self.points = pts = tuple(_as_vec(p) for p in points)
        for p in pts:
            if len(p) != dim:
                raise DimensionMismatch(
                    f"point ({', '.join(map(str, p))}) has dimension {len(p)}, "
                    f"expected {dim}"
                )
        if len(set(pts)) != len(pts):
            raise PreconditionError("points must be distinct")

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, point) -> int:
        return self.points.index(_as_vec(point))

    @cached_property
    def scaled_coords(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(scale, coords): scale is the LCM of every coordinate's
        denominator, and coords[i] is points[i] times scale, in ints."""
        scale = math.lcm(*(c.denominator for p in self.points for c in p))
        coords = tuple(
            tuple(c.numerator * (scale // c.denominator) for c in p)
            for p in self.points
        )
        return scale, coords


def _distance_masks(points: PointSet, wanted) -> list[dict[int, int]]:
    """masks[i][v] has bit j set when points i and j are at Chebyshev
    distance v, for each positive v in wanted (distances times
    scaled_coords[0]).

    Built per axis rather than per pair: on each axis, one bitmask per
    coordinate value and prefix ORs over the sorted values give the points
    within v of a point (AND over axes) and exactly v from it (OR over
    axes); a point is at distance v when it is both.
    """
    _, coords = points.scaled_coords
    axes = []
    for axis in range(points.dim):
        at: dict[int, int] = {}
        for j, p in enumerate(coords):
            at[p[axis]] = at.get(p[axis], 0) | 1 << j
        values = sorted(at)
        prefix = [0]
        for x in values:
            prefix.append(prefix[-1] | at[x])
        axes.append((at, values, prefix))
    everyone = (1 << len(coords)) - 1
    masks = []
    for p in coords:
        by_value = {}
        for v in wanted:
            within, edge = everyone, 0
            for x, (at, values, prefix) in zip(p, axes):
                # The value masks are disjoint, so XOR of prefixes is a range OR.
                within &= prefix[bisect_right(values, x + v)] ^ prefix[
                    bisect_left(values, x - v)
                ]
                edge |= at.get(x - v, 0) | at.get(x + v, 0)
            by_value[v] = within & edge
        masks.append(by_value)
    return masks


def check_grid(k: int, n: int) -> None:
    """Refuse a grid {0..k}^n with k or n below 1, or past the point cap."""
    if k < 1 or n < 1:
        raise PreconditionError("grid needs k >= 1 and n >= 1")
    # (k+1)^n >= 2^n, so n is bounded before the power is computed.
    if n >= MAX_GRID_POINTS.bit_length() or (k + 1) ** n > MAX_GRID_POINTS:
        raise DomainError(f"the grid has more than {MAX_GRID_POINTS} points")


def grid_points(k: int, n: int) -> PointSet:
    """The integer grid {0..k}^n as a point set in lexicographic order."""
    check_grid(k, n)
    pts = tuple(
        tuple(Fraction(c) for c in p)
        for p in itertools.product(range(k + 1), repeat=n)
    )
    return PointSet(n, pts)


class Baton:
    """Collinear points described by their consecutive gaps.

    The realized point set is {0, s1, s1+s2, ...}. An empty gap tuple is
    the degenerate one-point baton; it arises when a point set projects
    to a single value on some axis and is rejected by any operation that
    needs at least one step.
    """

    def __init__(self, steps: tuple[Fraction, ...]):
        self.steps = steps = tuple(Fraction(s) for s in steps)
        for s in steps:
            if s <= 0:
                raise PreconditionError("baton steps must be positive")

    @classmethod
    def unit(cls, k: int) -> "Baton":
        if k < 1:
            raise PreconditionError("unit baton needs k >= 1")
        return cls((Fraction(1),) * k)

    @property
    def k(self) -> int:
        return len(self.steps)

    def positions(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)]
        for s in self.steps:
            out.append(out[-1] + s)
        return tuple(out)

    def as_point_set(self) -> PointSet:
        return PointSet(1, tuple((v,) for v in self.positions()))

    def as_metric_space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace.from_points(self.as_point_set())


class CopyEmbedding:
    """An isometric copy of a finite metric space inside a point set.

    indices[i] names the point realizing abstract point i; the pairwise
    max-norm distances are verified exactly on construction.
    """

    def __init__(
        self, source: FiniteMetricSpace, points: PointSet, indices: tuple[int, ...]
    ):
        self.source = source
        self.points = points
        self.indices = indices = tuple(indices)
        d = source.size
        if len(indices) != d:
            raise PreconditionError("index count must match metric size")
        if len(set(indices)) != d:
            raise PreconditionError("indices must be distinct")
        for i in indices:
            if not (0 <= i < len(points)):
                raise PreconditionError(f"index {i} out of range")
        scale, coords = points.scaled_coords
        for a, b in itertools.combinations(range(d), 2):
            x, y = coords[indices[a]], coords[indices[b]]
            got = max((abs(u - v) for u, v in zip(x, y)), default=0)
            want = source.dist[a][b]
            if got * want.denominator != want.numerator * scale:
                raise PreconditionError(
                    f"distance mismatch at pair ({a},{b}): "
                    f"{Fraction(got, scale)} != {want}"
                )

    def mapped_points(self) -> tuple[Vec, ...]:
        return tuple(self.points.points[i] for i in self.indices)


def frechet_embed(space: FiniteMetricSpace) -> CopyEmbedding:
    """Embed a finite metric space into (Q^d, max norm) via matrix rows.

    Row i of the distance matrix becomes point i; the triangle inequality
    makes this an exact isometry, which the returned embedding rechecks.
    """
    rows = PointSet(space.size, space.dist)
    return CopyEmbedding(space, rows, tuple(range(space.size)))


def find_copies(
    space: FiniteMetricSpace,
    points: PointSet,
    limit: int | None = None,
    distinct_supports: bool = False,
) -> list[tuple[int, ...]]:
    """All ordered isometric embeddings of `space` into `points`, as index
    tuples: tup[i] names the point realizing abstract point i.

    Enumeration is lexicographic in the index tuple. For each point and
    each distance the space needs, one Python-int bitmask holds the points
    at that scaled distance from it. The candidates for abstract point t
    are the AND of the chosen points' masks for their distances to t, so
    no partial tuple that fails a pair is ever extended; they are walked
    lowest bit first, in ascending index order. The masks prove every
    pair's distance, so a tuple needs no recheck; wrap it in CopyEmbedding
    where a copy leaves the search as an artifact.

    With distinct_supports, only the first embedding per support set is
    kept (a configuration and its reversal otherwise count separately),
    and limit counts supports. The embeddings onto tup's support are
    tup.s = (tup[s(0)], ..., tup[s(d-1)]) for the automorphisms s of the
    space, and the first is the least. For s other than the identity,
    with i the least point it moves, tup < tup.s exactly when
    tup[i] < tup[s(i)]. So the search keeps tup[i] < tup[j] for every
    pair (i, j) of _lex_leader_pairs, which only the least embedding of
    each support meets: no other embedding is built, and the list is the
    one that filtering the full enumeration by support gives.
    """
    if limit is not None and limit < 1:
        raise PreconditionError("limit must be positive")
    scale = points.scaled_coords[0]
    targets = []
    for row in space.dist:
        scaled = [divmod(v.numerator * scale, v.denominator) for v in row]
        if any(r for _, r in scaled):
            # Some distance is not a multiple of 1/scale; no two points have it.
            return []
        targets.append([q for q, _ in scaled])
    masks = _distance_masks(points, {v for row in targets for v in row if v})
    after = _lex_leader_pairs(targets) if distinct_supports else [()] * space.size
    return _search(targets, masks, (1 << len(points)) - 1, limit, after)


def _lex_leader_pairs(targets: list[list[int]]) -> list[list[int]]:
    """after[j] lists each i < j such that some automorphism of the space
    with distance matrix targets fixes 0..i-1 and maps i to j.

    A candidate j must keep i's distances to 0..i-1 and i's sorted row;
    one limit-1 search of the space in itself, with 0..i-1 pinned to
    themselves and i to j, decides it. Once the distances to 0..i-1 tell
    every point apart, only the identity fixes 0..i-1, so the scan stops
    there: at i = 1 for a baton.
    """
    d = len(targets)
    # at[p][v]: the points at distance v from p, for every distance in the
    # space, so that a failing branch reads an empty mask, not a KeyError.
    everywhere = dict.fromkeys((v for row in targets for v in row), 0)
    at = [dict(everywhere) for _ in range(d)]
    for p, row in enumerate(targets):
        for q, v in enumerate(row):
            at[p][v] |= 1 << q
    rows = [sorted(row) for row in targets]
    after: list[list[int]] = [[] for _ in range(d)]
    for i in range(d):
        if len({tuple(row[:i]) for row in targets}) == d:
            break
        for j in range(i + 1, d):
            if (
                targets[j][:i] == targets[i][:i]
                and rows[j] == rows[i]
                and _search(targets, at, (1 << d) - 1, 1, [()] * d, (*range(i), j))
            ):
                after[j].append(i)
    return after


def _search(targets, masks, everyone, limit, after, pinned=()) -> list[tuple[int, ...]]:
    """The index tuples that extend pinned, in lexicographic order, at most
    limit of them. The candidates for abstract point t are the points p
    set in masks[chosen[s]][targets[t][s]] for every s < t, with
    p > chosen[i] for every i in after[t]."""
    d = len(targets)
    out: list[tuple[int, ...]] = []
    # chosen[t] realizes abstract point t; left[t] holds the candidates for
    # it not yet tried. No call stack: Python's recursion limit does not
    # cap the size of the space.
    chosen = [*pinned, *[0] * (d - len(pinned))]
    left = [0] * d
    base = depth = len(pinned)
    if base == d:
        return [tuple(chosen)]
    last = d - 1
    while True:
        # Distances to chosen points are positive, so no chosen point
        # survives the AND.
        row = targets[depth]
        candidates = everyone
        for s in range(depth):
            candidates &= masks[chosen[s]][row[s]]
        for i in after[depth]:
            candidates &= -(2 << chosen[i])
        if depth < last:
            left[depth] = candidates
        else:
            # The last point: every candidate completes a tuple.
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                chosen[last] = low.bit_length() - 1
                out.append(tuple(chosen))
                if len(out) == limit:
                    return out
            depth -= 1
        while depth >= base and not left[depth]:
            depth -= 1
        if depth < base:
            return out
        candidates = left[depth]
        low = candidates & -candidates
        left[depth] = candidates ^ low
        chosen[depth] = low.bit_length() - 1
        depth += 1


def diameter(space: FiniteMetricSpace) -> Fraction:
    if space.size < 2:
        raise PreconditionError("diameter needs at least 2 points")
    return max(
        space.dist[i][j]
        for i in range(space.size)
        for j in range(i + 1, space.size)
    )


def connectivity_threshold(space: FiniteMetricSpace) -> Fraction:
    """Least l such that edges of length <= l connect the whole space.

    This is the bottleneck edge of a minimum spanning tree (Prim).
    """
    d = space.size
    if d < 2:
        raise PreconditionError("connectivity threshold needs at least 2 points")
    in_tree = [False] * d
    best = list(space.dist[0])
    in_tree[0] = True
    bottleneck = Fraction(0)
    for _ in range(d - 1):
        nxt = -1
        for v in range(d):
            if not in_tree[v] and (nxt < 0 or best[v] < best[nxt]):
                nxt = v
        bottleneck = max(bottleneck, best[nxt])
        in_tree[nxt] = True
        for v in range(d):
            if not in_tree[v] and space.dist[nxt][v] < best[v]:
                best[v] = space.dist[nxt][v]
    return bottleneck
