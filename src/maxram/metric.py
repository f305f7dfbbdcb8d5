"""Finite metric spaces, point sets, and exact ell-infinity geometry.

Everything here is exact. At the boundary, coordinates and distances are
Fractions. Inside, each point set caches its coordinates scaled by the
LCM of their denominators (PointSet.scaled_coords), and copy search
compares integer distances from one scaled matrix. CopyEmbedding
rechecks every copy exactly, pair by pair, from the scaled coordinates.
Floats never appear on a correctness path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, PreconditionError

Vec = tuple[Fraction, ...]


def _as_vec(coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


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


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A metric on points 0..size-1 given by an exact distance matrix."""

    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        d = len(self.dist)
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.dist)
        object.__setattr__(self, "dist", rows)
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

    @property
    def size(self) -> int:
        return len(self.dist)

    @classmethod
    def from_points(cls, points: "PointSet") -> "FiniteMetricSpace":
        scale = points.scaled_coords[0]
        rows = tuple(
            tuple(Fraction(v, scale) for v in row)
            for row in _scaled_distance_matrix(points).tolist()
        )
        return cls(rows)


@dataclass(frozen=True)
class PointSet:
    """Distinct points in rational n-space."""

    dim: int
    points: tuple[Vec, ...]

    def __post_init__(self):
        pts = tuple(_as_vec(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for p in pts:
            if len(p) != self.dim:
                raise DimensionMismatch(
                    f"point {p} has dimension {len(p)}, expected {self.dim}"
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


def _scaled_distance_matrix(points: PointSet) -> np.ndarray:
    """Chebyshev distances between points, times points.scaled_coords[0].

    The entries are exact integers: int64 when every coordinate difference
    fits with headroom, otherwise an object array of Python ints.
    """
    import numpy as np  # on first use, so `maxram cover` never loads numpy

    _, coords = points.scaled_coords
    bound = max((abs(c) for p in coords for c in p), default=0)
    dtype = np.int64 if 2 * bound < 2**62 else object
    arr = np.array(coords, dtype=dtype).reshape(len(coords), points.dim)
    dist = np.zeros((len(coords), len(coords)), dtype=dtype)
    for axis in range(points.dim):
        col = arr[:, axis]
        dist = np.maximum(dist, np.abs(col[:, None] - col[None, :]))
    return dist


def grid_points(k: int, n: int) -> PointSet:
    """The integer grid {0..k}^n as a point set in lexicographic order."""
    if k < 0 or n < 1:
        raise PreconditionError("grid needs k >= 0 and n >= 1")
    pts = tuple(
        tuple(Fraction(c) for c in p)
        for p in itertools.product(range(k + 1), repeat=n)
    )
    return PointSet(n, pts)


@dataclass(frozen=True)
class Baton:
    """Collinear points described by their consecutive gaps.

    The realized point set is {0, s1, s1+s2, ...}. An empty gap tuple is
    the degenerate one-point baton; it arises when a point set projects
    to a single value on some axis and is rejected by any operation that
    needs at least one step.
    """

    steps: tuple[Fraction, ...]

    def __post_init__(self):
        steps = tuple(Fraction(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
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
        pos = self.positions()
        rows = tuple(tuple(abs(a - b) for b in pos) for a in pos)
        return FiniteMetricSpace(rows)


@dataclass(frozen=True)
class CopyEmbedding:
    """An isometric copy of a finite metric space inside a point set.

    indices[i] names the point realizing abstract point i; the pairwise
    max-norm distances are verified exactly on construction.
    """

    source: FiniteMetricSpace
    points: PointSet
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        d = self.source.size
        if len(self.indices) != d:
            raise PreconditionError("index count must match metric size")
        if len(set(self.indices)) != d:
            raise PreconditionError("indices must be distinct")
        for i in self.indices:
            if not (0 <= i < len(self.points)):
                raise PreconditionError(f"index {i} out of range")
        scale, coords = self.points.scaled_coords
        for a, b in itertools.combinations(range(d), 2):
            x, y = coords[self.indices[a]], coords[self.indices[b]]
            got = max((abs(u - v) for u, v in zip(x, y)), default=0)
            want = self.source.dist[a][b]
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
) -> list[CopyEmbedding]:
    """All ordered isometric embeddings of `space` into `points`.

    Enumeration is lexicographic in the index tuple. The candidates for
    abstract point t are the points whose rows of the scaled distance
    matrix hold the required distance to every point already chosen, so
    no partial tuple that fails a pair is ever extended. With
    distinct_supports, only the first embedding per support set is kept
    (a configuration and its reversal otherwise count separately).
    """
    if limit is not None and limit < 1:
        raise PreconditionError("limit must be positive")
    d = space.size
    scale = points.scaled_coords[0]
    targets = [[v * scale for v in row] for row in space.dist]
    if any(v.denominator != 1 for row in targets for v in row):
        # Some distance is not a multiple of 1/scale; no two points have it.
        return []
    import numpy as np

    targets = [[v.numerator for v in row] for row in targets]
    dist = _scaled_distance_matrix(points)
    out: list[CopyEmbedding] = []
    seen: set[frozenset] = set()
    chosen: list[int] = []

    def descend() -> bool:
        depth = len(chosen)
        if depth == d:
            if distinct_supports:
                key = frozenset(chosen)
                if key in seen:
                    return False
                seen.add(key)
            out.append(CopyEmbedding(space, points, tuple(chosen)))
            return limit is not None and len(out) >= limit
        if depth == 0:
            candidates = range(len(points))
        else:
            # Distances to chosen points are positive, so no chosen point
            # survives the filter.
            row = targets[depth]
            mask = dist[chosen[0]] == row[0]
            for j in range(1, depth):
                mask &= dist[chosen[j]] == row[j]
            candidates = np.flatnonzero(mask).tolist()
        for cand in candidates:
            chosen.append(cand)
            if descend():
                return True
            chosen.pop()
        return False

    descend()
    return out


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
