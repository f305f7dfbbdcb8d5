"""Exact chromatic numbers for forbidden-copy hypergraphs on small grids.

Vertices are the points of a finite set, and every isometric copy of a
forbidden space contributes its support as a hyperedge. A coloring is
proper when no hyperedge is monochromatic, and the chromatic number is
found by iterative deepening with a shared node budget: once every level
below t is exhausted, a coloring found at level t is provably optimal.

The search relabels the vertices by their position in one static order,
so each edge is checked once, at its last position, and the colors go
back to vertex order in the certificate. When every edge has three
vertices (a 3-point space, such as a two-step baton) one set
comprehension reads the colors a position's closing edges block; other
hypergraphs use a general loop.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, DomainError, PreconditionError
from .metric import Baton, FiniteMetricSpace, PointSet, find_copies, grid_points
from .rational import ceil_div

# Building a copy hypergraph peaks at about 175 bytes per edge ({0..3}^4
# against the unit 3-baton: 1,203,320 edges in 226 MB), so 2^22 edges stay
# under 1 GB.
MAX_EDGES = 2**22


class CopyHypergraph(NamedTuple):
    """Supports of all copies of a source space inside a point set."""

    point_set: PointSet
    edges: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.point_set.points)


def copy_hypergraph(points: PointSet, space: FiniteMetricSpace) -> CopyHypergraph:
    """Enumerate copy supports of the space inside the point set, refusing
    more than MAX_EDGES of them."""
    if space.size < 2:
        raise PreconditionError("forbidden space needs at least 2 points")
    copies = find_copies(space, points, limit=MAX_EDGES + 1, distinct_supports=True)
    if len(copies) > MAX_EDGES:
        raise DomainError(f"the copy hypergraph has more than {MAX_EDGES} edges")
    edges = sorted(map(tuple, map(sorted, copies)))
    return CopyHypergraph(point_set=points, edges=tuple(edges))


class ColoringCertificate(NamedTuple):
    colors: tuple[int, ...]
    color_count: int
    optimal: bool
    lower_bound: int
    lower_bound_witness: str
    budget_exhausted: bool = False


class _BudgetExceeded(Exception):
    pass


def _blocked(rests, colors) -> set[int]:
    """Colors that would complete a monochromatic edge, given the rests of
    the edges the vertex closes (all of them already colored)."""
    blocked = set()
    for rest in rests:
        c = colors[rest[0]]
        for u in rest:
            if colors[u] != c:
                break
        else:
            blocked.add(c)
    return blocked


def _blocked_by_pairs(rests, colors) -> set[int]:
    """_blocked for rests of two vertices: the edges of a 3-point space."""
    return {colors[a] for a, b in rests if colors[a] == colors[b]}


def _greedy_clique(vertex_count: int, pair_adj) -> int:
    order = sorted(range(vertex_count), key=lambda v: (-len(pair_adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in pair_adj[v] for u in clique):
            clique.append(v)
    return len(clique)


def exact_chromatic(
    hypergraph: CopyHypergraph,
    budget: int = DEFAULT_BUDGET,
    known_bound: tuple[int, str] = (1, "trivial:1"),
) -> ColoringCertificate:
    """Minimum colors with no monochromatic edge, within a node budget.

    Levels are tried in increasing order starting from the best known
    lower bound, with vertices relabeled by their position in decreasing
    degree order and new colors only introduced one at a time. Each edge
    is checked once, at its last position (by one set comprehension when
    all edges have three vertices). The budget counts every color tried,
    including blocked ones. known_bound lets callers feed in an externally
    proved bound and its witness (it is trusted for the starting level but
    cross-checked against any coloring found). If the budget runs out, the
    first-fit coloring in the same vertex order is returned, with the
    largest level actually exhausted as the proven lower bound.
    """
    n = hypergraph.vertex_count
    if n < 1:
        raise PreconditionError("hypergraph needs at least one vertex")
    edges = hypergraph.edges
    if not edges:
        return ColoringCertificate(
            colors=(0,) * n,
            color_count=1,
            optimal=True,
            lower_bound=1,
            lower_bound_witness="trivial:1",
        )

    pair_adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in (edge for edge in edges if len(edge) == 2):
        pair_adj[a].add(b)
        pair_adj[b].add(a)
    # Decreasing degree; the sort is stable, so ties keep vertex order.
    degree = Counter(chain.from_iterable(edges))
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    position = sorted(range(n), key=order.__getitem__)  # order's inverse
    # closing[p]: the other positions of each edge whose last position is p
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for places in map(sorted, map(map, repeat(position.__getitem__), edges)):
        last = places.pop()
        closing[last].append(tuple(places))
    read = _blocked_by_pairs if set(map(len, edges)) == {3} else _blocked

    clique = _greedy_clique(n, pair_adj)
    # The first of equal bounds names the witness: clique, then edge.
    candidates = [(2, "edge:2"), known_bound]
    if clique >= 2:
        candidates.insert(0, (clique, f"clique:{clique}"))
    base_lb, base_witness = max(candidates, key=lambda c: c[0])
    if base_lb > n:
        raise DomainError("supplied lower bound exceeds the vertex count")

    colors = [-1] * n
    nodes = 0

    def descend(limit: int) -> bool:
        """Depth-first search for a coloring with at most limit colors. A
        position reached afresh has color -1 and tries the colors above its
        own. No call stack: Python's recursion limit does not cap n."""
        nonlocal nodes
        used = [0] * (n + 1)  # used[pos]: colors used before position pos
        blocked: list[set[int]] = [set()] * n
        pos = 0
        while pos < n:
            c = colors[pos] + 1
            if c == 0:
                blocked[pos] = read(closing[pos], colors)
            skip = blocked[pos]
            seen = used[pos]
            top = seen + 1 if seen < limit else limit
            while c < top:
                nodes += 1
                if nodes > budget:
                    raise _BudgetExceeded
                if c not in skip:
                    break
                c += 1
            else:
                colors[pos] = -1
                pos -= 1
                if pos < 0:
                    return False
                continue
            colors[pos] = c
            used[pos + 1] = c + 1 if c >= seen else seen
            pos += 1
        return True

    level = base_lb
    exhausted = False
    try:
        while not descend(level):
            level += 1
    except _BudgetExceeded:
        # At limit n the next new color is never blocked, so the first
        # descent never backs up: it is the first-fit coloring.
        exhausted, budget, colors = True, math.inf, [-1] * n
        descend(n)
    used = max(colors) + 1
    if used < base_lb and not exhausted:
        raise DomainError(
            f"found a {used}-coloring below the supplied lower bound {base_lb}"
        )
    # A coloring at base_lb meets it; above it, every lower level ran out.
    assert exhausted or used == level
    witness = base_witness if level == base_lb else f"exhausted:{level - 1}"
    return ColoringCertificate(
        colors=tuple(map(colors.__getitem__, position)),
        color_count=used,
        optimal=used == level,
        lower_bound=level,
        lower_bound_witness=witness,
        budget_exhausted=exhausted,
    )


def pigeonhole_lower_bound(k: int, n: int) -> int:
    """ceil((k+1)^n / k^n) colors are forced by unit batons on the k-grid."""
    if k < 1 or n < 1:
        raise PreconditionError("need k >= 1 and n >= 1")
    return ceil_div((k + 1) ** n, k**n)


def _isometric_to_unit_baton(space: FiniteMetricSpace, k: int) -> bool:
    if space.size != k + 1:
        return False
    line = Baton.unit(k).as_point_set()
    return bool(find_copies(space, line, limit=1))


def grid_chromatic(
    k: int, n: int, space: FiniteMetricSpace, budget: int = DEFAULT_BUDGET
) -> ColoringCertificate:
    """Chromatic number of the integer grid {0..k}^n against a forbidden
    space.

    When the space is isometric to the unit-gap baton with k steps, the
    counting bound ceil((k+1)^n / k^n) applies and seeds the search as
    the witness pigeonhole:b; any certificate must then meet it.
    """
    hypergraph = copy_hypergraph(grid_points(k, n), space)
    if _isometric_to_unit_baton(space, k):
        bound = pigeonhole_lower_bound(k, n)
        return exact_chromatic(hypergraph, budget, (bound, f"pigeonhole:{bound}"))
    return exact_chromatic(hypergraph, budget)
