"""Exact chromatic numbers for forbidden-copy hypergraphs on small grids.

Vertices are the points of a finite set, and every isometric copy of a
forbidden space contributes its support as a hyperedge. A coloring is
proper when no hyperedge is monochromatic, and the chromatic number is
found by iterative deepening with a shared node budget: once every level
below t is exhausted, a coloring found at level t is provably optimal.

The search colors one vertex at a time, always the uncolored one with
the most distinct blocked colors (DSATUR: Brelaz, "New methods to color
the vertices of a graph", CACM 1979), ties going to the earliest in one
static decreasing-degree order. Vertices are relabeled by their position
in that order, and the colors go back to vertex order in the
certificate. Per color, a mask holds the positions where the color
would complete a monochromatic edge; each coloring updates one mask and
an explicit stack undoes it. How a coloring blocks depends on the edge
size: a 2-point edge blocks the partner, a 3-point edge the thirds held
as one mask under the pair, and larger edges are counted in per-color
`bits` counters over the edge index. The saturation is a `bits` counter
too, kept across steps and moved by what each coloring and undo changes.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import NamedTuple

from .bits import bit_rows, ceil_div, count_down, count_up, nonzero, planes_of
from .errors import DEFAULT_BUDGET, DomainError, PreconditionError
from .metric import Baton, FiniteMetricSpace, PointSet, find_copies, grid_points

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


def _greedy_clique(partners: list[int], position: list[int]) -> int:
    """A clique of the 2-point edges, grown greedily over the vertices by
    decreasing pair degree, ties by vertex; partners holds each position's
    pair neighbours as a mask."""
    degree = [partners[p].bit_count() for p in position]
    clique = 0
    for v in sorted(range(len(position)), key=lambda v: -degree[v]):
        p = position[v]
        if not clique & ~partners[p]:
            clique |= 1 << p
    return clique.bit_count()


def exact_chromatic(
    hypergraph: CopyHypergraph,
    budget: int = DEFAULT_BUDGET,
    known_bound: tuple[int, str] = (1, "trivial:1"),
) -> ColoringCertificate:
    """Minimum colors with no monochromatic edge, within a node budget.

    Levels are tried in increasing order starting from the best known
    lower bound. Each step colors the uncolored position with the most
    distinct blocked colors (DSATUR), ties going to the lowest position
    in decreasing degree order, and tries its colors in increasing order,
    a new color only one past those used. The budget counts every color
    tried, including blocked ones. known_bound lets callers feed in an
    externally proved bound and its witness (it is trusted for the
    starting level but cross-checked against any coloring found). If the
    budget runs out, the first descent with no color limit is returned,
    with the largest level actually exhausted as the proven lower bound.
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

    # Decreasing degree; the sort is stable, so ties keep vertex order.
    degree = Counter(chain.from_iterable(edges))
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    position = sorted(range(n), key=order.__getitem__)  # order's inverse
    bits = [1 << p for p in range(n)]
    partners = [0] * n  # 2-point edges: each position's partners
    thirds: dict[int, int] = {}  # 3-point edges: lo * n + hi -> mask of the thirds
    larger: list[list[int]] = []  # edges of 4 or more points, as positions
    for places in map(sorted, map(map, repeat(position.__getitem__), edges)):
        if len(places) == 3:
            a, b, c = places
            thirds[a * n + b] = thirds.get(a * n + b, 0) | bits[c]
            thirds[a * n + c] = thirds.get(a * n + c, 0) | bits[b]
            thirds[b * n + c] = thirds.get(b * n + c, 0) | bits[a]
        elif len(places) == 2:
            a, b = places
            partners[a] |= bits[b]
            partners[b] |= bits[a]
        else:
            larger.append(places)
    # pair_nb[p]: the positions that share a 3-point edge with p
    shared: list[list[int]] = [[] for _ in range(n)]
    for a, b in map(divmod, thirds, repeat(n)):
        shared[a].append(b)
        shared[b].append(a)
    pair_nb = bit_rows(shared, n)
    # Larger edges are counted over their index: per color, bit-sliced
    # counters of the points each edge still needs in that color before it
    # blocks its last one, size - 1 at the start.
    incident = bit_rows(larger, n)
    need_start = planes_of([len(e) - 1 for e in larger])

    clique = _greedy_clique(partners, position)
    # The first of equal bounds names the witness: clique, then edge.
    candidates = [(2, "edge:2"), known_bound]
    if clique >= 2:
        candidates.insert(0, (clique, f"clique:{clique}"))
    base_lb, base_witness = max(candidates, key=lambda c: c[0])
    if base_lb > n:
        raise DomainError("supplied lower bound exceeds the vertex count")

    colors = [0] * n
    nodes = 0

    def descend(limit: int) -> bool:
        """Depth-first search for a coloring with at most limit colors.
        blocked[c] holds the positions where color c would complete a
        monochromatic edge (and may hold colored ones, which no step
        reads); it is 0 for every color not in use. levels counts, per
        position, the colors that block it, in bit slices: each coloring
        and each undo moves it by the bits its blocked mask gains or
        loses. An explicit stack undoes each coloring, so Python's
        recursion limit does not cap n."""
        nonlocal nodes
        blocked = [0] * limit
        levels: list[int] = []
        members = [0] * limit  # the positions of each color
        needs = [need_start[:] for _ in range(limit)]
        uncolored = (1 << n) - 1
        used = 0  # colors 0..used-1 are in use
        stack: list[tuple[int, int, int, int]] = []  # p, c, used, blocked[c]
        p = -1
        while True:
            if p < 0:
                if not uncolored:
                    return True
                # The most saturated positions: the uncolored ones with
                # the top count of blocked colors.
                top = uncolored
                for level in reversed(levels):
                    if top & level:
                        top &= level
                p = (top & -top).bit_length() - 1
                c = 0
            bit = bits[p]
            end = used + 1 if used < limit else limit
            while c < end:
                nodes += 1
                if nodes > budget:
                    raise _BudgetExceeded
                if not blocked[c] & bit:
                    break
                c += 1
            else:
                if not stack:
                    return False
                p, c, used, old = stack.pop()
                count_down(levels, blocked[c] & ~old)
                blocked[c] = old
                bit = bits[p]
                members[c] ^= bit
                uncolored |= bit
                if incident[p]:
                    count_up(needs[c], incident[p])
                c += 1
                continue
            stack.append((p, c, used, blocked[c]))
            colors[p] = c
            uncolored ^= bit
            if c == used:
                used += 1
            same = members[c]
            members[c] = same | bit
            block = blocked[c] | partners[p]
            near = pair_nb[p] & same
            while near:
                q = near.bit_length() - 1
                block |= thirds[p * n + q if p < q else q * n + p]
                near ^= bits[q]
            if incident[p]:
                need = needs[c]
                count_down(need, incident[p])
                # Edges through p that need no more of color c block the
                # one point not of that color; all their points go in.
                done = incident[p] & ~nonzero(need)
                while done:
                    j = done.bit_length() - 1
                    for r in larger[j]:
                        block |= bits[r]
                    done ^= 1 << j
            count_up(levels, block & ~blocked[c])
            blocked[c] = block
            p = -1

    level = base_lb
    exhausted = False
    try:
        while not descend(level):
            level += 1
    except _BudgetExceeded:
        # At limit n the next new color is never blocked, so the first
        # descent never backs up.
        exhausted, budget = True, math.inf
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
