"""Exact chromatic numbers for forbidden-copy hypergraphs on small grids.

Vertices are the points of a finite set, and every isometric copy of a
forbidden space contributes its support as a hyperedge. A coloring is
proper when no hyperedge is monochromatic, and the chromatic number is
found by iterative deepening with a shared node budget: once every level
below t is exhausted, a coloring found at level t is provably optimal.

Vertices are colored in one static order, so each edge is checked once,
at its last vertex in that order: the colors such closing edges block are
gathered once per search node. The node budget counts every color tried,
blocked ones included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorings import pigeonhole_lower_bound
from .errors import DEFAULT_BUDGET, DomainError, PreconditionError
from .metric import Baton, FiniteMetricSpace, PointSet, find_copies, grid_points


@dataclass(frozen=True)
class CopyHypergraph:
    """Supports of all copies of a source space inside a point set."""

    point_set: PointSet
    source: FiniteMetricSpace
    edges: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.point_set.points)


def copy_hypergraph(points: PointSet, space: FiniteMetricSpace) -> CopyHypergraph:
    """Enumerate copy supports of the space inside the point set."""
    if space.size < 2:
        raise PreconditionError("forbidden space needs at least 2 points")
    embeddings = find_copies(space, points, distinct_supports=True)
    edges = sorted(tuple(sorted(emb.indices)) for emb in embeddings)
    return CopyHypergraph(point_set=points, source=space, edges=tuple(edges))


def is_proper(hypergraph: CopyHypergraph, colors) -> bool:
    """True when no hyperedge is entirely one color."""
    if len(colors) != hypergraph.vertex_count:
        raise PreconditionError("one color per vertex")
    for edge in hypergraph.edges:
        first = colors[edge[0]]
        if all(colors[v] == first for v in edge[1:]):
            return False
    return True


@dataclass(frozen=True)
class ColoringCertificate:
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


def _greedy_clique(vertex_count: int, pair_adj) -> int:
    order = sorted(range(vertex_count), key=lambda v: (-len(pair_adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in pair_adj[v] for u in clique):
            clique.append(v)
    return len(clique)


def _greedy_colors(order, closing, vertex_count: int) -> list[int]:
    colors = [-1] * vertex_count
    for v in order:
        blocked = _blocked(closing[v], colors)
        c = 0
        while c in blocked:
            c += 1
        colors[v] = c
    return colors


def exact_chromatic(
    hypergraph: CopyHypergraph,
    budget: int = DEFAULT_BUDGET,
    extra_lower_bound: int = 1,
    extra_witness: str = "",
) -> ColoringCertificate:
    """Minimum colors with no monochromatic edge, within a node budget.

    Levels are tried in increasing order starting from the best known
    lower bound, with vertices in decreasing degree and new colors only
    introduced one at a time. Each edge is checked once, at its last vertex
    in that static order. The budget counts every color tried, including
    colors a closing edge blocks. extra_lower_bound lets callers feed in an
    externally proved bound (it is trusted for the starting level but
    cross-checked against any coloring found). If the budget runs out the
    greedy coloring is returned with optimal=False and the largest level
    actually exhausted as the proven lower bound.
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

    degree = [0] * n
    pair_adj: list[set[int]] = [set() for _ in range(n)]
    for edge in edges:
        for v in edge:
            degree[v] += 1
        if len(edge) == 2:
            pair_adj[edge[0]].add(edge[1])
            pair_adj[edge[1]].add(edge[0])
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    position = {v: pos for pos, v in enumerate(order)}
    # closing[v]: the other vertices of each edge whose last vertex is v
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for edge in edges:
        last = max(edge, key=position.__getitem__)
        closing[last].append(tuple(u for u in edge if u != last))

    clique = _greedy_clique(n, pair_adj)
    candidates = [(2, "edge:2"), (1, "trivial:1")]
    if clique >= 2:
        candidates.insert(0, (clique, f"clique:{clique}"))
    if extra_lower_bound > 1:
        candidates.append((extra_lower_bound, extra_witness))
    base_lb, base_witness = max(candidates, key=lambda c: c[0])
    if base_lb > n:
        raise DomainError("supplied lower bound exceeds the vertex count")

    colors = [-1] * n
    nodes = 0

    def assign(pos: int, used: int, limit: int) -> bool:
        nonlocal nodes
        if pos == n:
            return True
        v = order[pos]
        blocked = _blocked(closing[v], colors)
        for c in range(min(used + 1, limit)):
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            if c not in blocked:
                colors[v] = c
                if assign(pos + 1, max(used, c + 1), limit):
                    return True
                colors[v] = -1
        return False

    try:
        for level in range(base_lb, n + 1):
            colors = [-1] * n
            if assign(0, 0, level):
                used = max(colors) + 1
                if used < base_lb:
                    raise DomainError(
                        f"found a {used}-coloring below the supplied "
                        f"lower bound {base_lb}"
                    )
                assert level == base_lb or used == level
                witness = base_witness if level == base_lb else f"exhausted:{level - 1}"
                return ColoringCertificate(
                    colors=tuple(colors),
                    color_count=used,
                    optimal=True,
                    lower_bound=used,
                    lower_bound_witness=witness,
                )
        raise DomainError("no proper coloring exists at any level")
    except _BudgetExceeded:
        proven = level if level > base_lb else base_lb
        witness = f"exhausted:{level - 1}" if level > base_lb else base_witness
        fallback = _greedy_colors(order, closing, n)
        used = max(fallback) + 1
        return ColoringCertificate(
            colors=tuple(fallback),
            color_count=used,
            optimal=used == proven,
            lower_bound=proven,
            lower_bound_witness=witness,
            budget_exhausted=True,
        )


def _isometric_to_unit_baton(space: FiniteMetricSpace, k: int) -> bool:
    if space.size != k + 1:
        return False
    line = Baton.unit(k).as_point_set()
    return bool(find_copies(space, line, limit=1))


@dataclass(frozen=True)
class GridChromaticReport:
    k: int
    n: int
    hypergraph: CopyHypergraph
    certificate: ColoringCertificate
    pigeonhole: int | None


def grid_chromatic(
    k: int,
    n: int,
    space: FiniteMetricSpace | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GridChromaticReport:
    """Chromatic number of the integer grid {0..k}^n against a forbidden
    space, by default the unit-gap baton with k steps.

    When the space is isometric to that baton the counting bound
    ceil((k+1)^n / k^n) applies and seeds the search; any certificate must
    then meet it.
    """
    if space is None:
        space = Baton.unit(k).as_metric_space()
    points = grid_points(k, n)
    hypergraph = copy_hypergraph(points, space)
    if _isometric_to_unit_baton(space, k):
        pigeonhole = pigeonhole_lower_bound(k, n)
        certificate = exact_chromatic(
            hypergraph,
            budget=budget,
            extra_lower_bound=pigeonhole,
            extra_witness=f"pigeonhole:{pigeonhole}",
        )
        assert certificate.color_count >= pigeonhole
    else:
        pigeonhole = None
        certificate = exact_chromatic(hypergraph, budget=budget)
    return GridChromaticReport(
        k=k, n=n, hypergraph=hypergraph, certificate=certificate, pigeonhole=pigeonhole
    )
