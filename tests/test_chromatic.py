"""Forbidden-copy hypergraphs and the exact coloring search."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxram.chromatic import (
    ColoringCertificate,
    CopyHypergraph,
    copy_hypergraph,
    exact_chromatic,
    grid_chromatic,
    pigeonhole_lower_bound,
)
from maxram.errors import DEFAULT_BUDGET, DomainError, PreconditionError
from maxram.io import matrix_to_obj
from maxram.metric import Baton, FiniteMetricSpace, PointSet, grid_points
from maxram.validate import validate_certificate
from metric_generators import random_metric_space

F = Fraction

UNIT_PAIR = Baton.unit(1).as_metric_space()


def line(*coords) -> PointSet:
    return PointSet(1, tuple((F(c),) for c in coords))


# -- oracles -------------------------------------------------------------------


def is_proper(hypergraph: CopyHypergraph, colors) -> bool:
    """True when no hyperedge is entirely one color."""
    if len(colors) != hypergraph.vertex_count:
        raise PreconditionError("one color per vertex")
    for edge in hypergraph.edges:
        first = colors[edge[0]]
        if all(colors[v] == first for v in edge[1:]):
            return False
    return True


def naive_chromatic(hypergraph: CopyHypergraph) -> int:
    """Brute-force chromatic number by full enumeration."""
    n = hypergraph.vertex_count
    if n > 10:
        raise PreconditionError("naive enumeration is capped at 10 vertices")
    if not hypergraph.edges:
        return 1
    for count in range(1, n + 1):
        for assignment in itertools.product(range(count), repeat=n):
            if is_proper(hypergraph, assignment):
                return count
    raise DomainError("no proper coloring exists")


class _OracleBudgetExceeded(Exception):
    pass


def _rescan_blocked(vertex, colors, rests_of) -> set[int]:
    """The colors that would complete a monochromatic edge at the vertex,
    found by rescanning every edge incident to it. rests_of[vertex] maps
    a size to the other vertices of each such edge with that many of
    them, laid end to end."""
    blocked = set()
    for size, flat in rests_of[vertex].items():
        for seen in set(zip(*[iter(map(colors.__getitem__, flat))] * size)):
            if seen[0] >= 0 and seen.count(seen[0]) == size:
                blocked.add(seen[0])
    return blocked


def _most_saturated(order, colors, rests_of) -> tuple[int, set[int]]:
    """The uncolored vertex with the most blocked colors, the earliest in
    order among ties, and its blocked colors, rescanning every uncolored
    vertex."""
    uncolored = [v for v in order if colors[v] < 0]
    scanned = [(v, _rescan_blocked(v, colors, rests_of)) for v in uncolored]
    return max(scanned, key=lambda scan: len(scan[1]))


def rescan_chromatic(
    hypergraph: CopyHypergraph,
    budget: int = DEFAULT_BUDGET,
    known_bound: tuple[int, str] = (1, "trivial:1"),
) -> ColoringCertificate:
    """Reference search: every step rescans every edge incident to every
    uncolored vertex, then colors the most saturated one, ties to the
    earliest in decreasing degree order, then vertex. It keeps
    exact_chromatic's vertex choice, node count, budget cut and fallback
    (the first descent with no color limit), so the two agree field by
    field."""
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
    rests_of: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for edge in edges:
        for v in edge:
            degree[v] += 1
            rests_of[v].setdefault(len(edge) - 1, []).extend(u for u in edge if u != v)
        if len(edge) == 2:
            pair_adj[edge[0]].add(edge[1])
            pair_adj[edge[1]].add(edge[0])
    order = sorted(range(n), key=lambda v: (-degree[v], v))

    clique_order = sorted(range(n), key=lambda v: (-len(pair_adj[v]), v))
    clique_members: list[int] = []
    for v in clique_order:
        if all(u in pair_adj[v] for u in clique_members):
            clique_members.append(v)
    clique = len(clique_members)
    candidates = [(2, "edge:2"), (1, "trivial:1")]
    if clique >= 2:
        candidates.insert(0, (clique, f"clique:{clique}"))
    if known_bound[0] > 1:
        candidates.append(known_bound)
    base_lb, base_witness = max(candidates, key=lambda c: c[0])
    if base_lb > n:
        raise DomainError("supplied lower bound exceeds the vertex count")

    colors = [-1] * n
    nodes = 0

    def assign(colored: int, used: int, limit: int) -> bool:
        nonlocal nodes
        if colored == n:
            return True
        v, blocked = _most_saturated(order, colors, rests_of)
        for c in range(min(used + 1, limit)):
            nodes += 1
            if nodes > budget:
                raise _OracleBudgetExceeded
            if c not in blocked:
                colors[v] = c
                if assign(colored + 1, max(used, c + 1), limit):
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
                witness = base_witness if level == base_lb else f"exhausted:{level - 1}"
                return ColoringCertificate(
                    colors=tuple(colors),
                    color_count=used,
                    optimal=True,
                    lower_bound=used,
                    lower_bound_witness=witness,
                )
        raise DomainError("no proper coloring exists at any level")
    except _OracleBudgetExceeded:
        proven = level if level > base_lb else base_lb
        witness = f"exhausted:{level - 1}" if level > base_lb else base_witness
        fallback = [-1] * n
        for _ in range(n):
            v, blocked = _most_saturated(order, fallback, rests_of)
            fallback[v] = min(set(range(n)) - blocked)
        used = max(fallback) + 1
        return ColoringCertificate(
            colors=tuple(fallback),
            color_count=used,
            optimal=used == proven,
            lower_bound=proven,
            lower_bound_witness=witness,
            budget_exhausted=True,
        )


# -- hypergraph construction -------------------------------------------------


def test_unit_square_gives_the_complete_graph_on_four_vertices():
    hg = copy_hypergraph(grid_points(1, 2), UNIT_PAIR)
    assert hg.vertex_count == 4
    assert hg.edges == (
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
    )


def test_three_point_supports_become_triples():
    hg = copy_hypergraph(line(0, 1, 2, 3), Baton.unit(2).as_metric_space())
    assert hg.edges == ((0, 1, 2), (1, 2, 3))


def test_hypergraph_rejects_trivial_sources():
    with pytest.raises(PreconditionError):
        copy_hypergraph(line(0, 1), FiniteMetricSpace(((F(0),),)))


def test_is_proper():
    hg = copy_hypergraph(line(0, 1, 2), UNIT_PAIR)
    assert hg.edges == ((0, 1), (1, 2))
    assert is_proper(hg, (0, 1, 0))
    assert not is_proper(hg, (0, 0, 1))
    with pytest.raises(PreconditionError):
        is_proper(hg, (0, 1))


# -- exact_chromatic -----------------------------------------------------------


def test_chromatic_of_the_complete_graph():
    hg = copy_hypergraph(grid_points(1, 2), UNIT_PAIR)
    cert = exact_chromatic(hg)
    assert cert.color_count == 4
    assert cert.optimal
    assert cert.lower_bound == 4
    assert cert.lower_bound_witness == "clique:4"
    assert is_proper(hg, cert.colors)
    assert set(cert.colors) == {0, 1, 2, 3}


def test_chromatic_with_no_edges_is_one():
    space = Baton((F(9),)).as_metric_space()
    hg = copy_hypergraph(line(0, 1, 2), space)
    cert = exact_chromatic(hg)
    assert cert.color_count == 1 and cert.optimal
    assert cert.lower_bound_witness == "trivial:1"


def test_chromatic_of_a_path_is_two():
    hg = copy_hypergraph(line(0, 1, 2, 3), UNIT_PAIR)
    cert = exact_chromatic(hg)
    assert cert.color_count == 2
    assert cert.lower_bound_witness == "clique:2"
    assert is_proper(hg, cert.colors)


def test_triple_edges_can_be_cheaper_than_their_cliques():
    """Hyperedges of size 3 only need two colors split across them. With no
    2-edges at all, the generic edge bound is the strongest witness."""
    hg = copy_hypergraph(line(0, 1, 2, 3, 4), Baton.unit(2).as_metric_space())
    cert = exact_chromatic(hg)
    assert cert.color_count == 2
    assert cert.lower_bound_witness == "edge:2"
    assert is_proper(hg, cert.colors)


def test_external_lower_bound_is_used_when_it_is_the_strongest():
    hg = copy_hypergraph(grid_points(2, 2), Baton.unit(2).as_metric_space())
    cert = exact_chromatic(hg, known_bound=(3, "pigeonhole:3"))
    assert cert.color_count == 3
    assert cert.lower_bound_witness == "pigeonhole:3"
    assert cert.optimal


def test_clique_witness_wins_ties_against_an_equal_external_bound():
    hg = copy_hypergraph(grid_points(1, 1), UNIT_PAIR)
    cert = exact_chromatic(hg, known_bound=(2, "pigeonhole:2"))
    assert cert.color_count == 2
    assert cert.lower_bound_witness == "clique:2"


def test_overlarge_external_bound_is_rejected():
    hg = copy_hypergraph(line(0, 1), UNIT_PAIR)
    with pytest.raises(DomainError, match="exceeds"):
        exact_chromatic(hg, known_bound=(5, "bogus:5"))


def test_exhaustion_witness_appears_when_search_must_climb():
    """An odd cycle: no 2-coloring exists, so the certificate proves 3 by
    exhausting level 2. Built directly as a hypergraph, not via geometry."""
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    hg = CopyHypergraph(point_set=line(0, 1, 2, 3, 4), edges=edges)
    cert = exact_chromatic(hg)
    assert cert.color_count == 3
    assert cert.lower_bound_witness == "exhausted:2"
    assert cert.optimal


def test_budget_exhaustion_falls_back_to_greedy():
    hg = copy_hypergraph(grid_points(2, 2), Baton.unit(2).as_metric_space())
    cert = exact_chromatic(hg, budget=5, known_bound=(3, "pigeonhole:3"))
    assert cert.budget_exhausted
    assert is_proper(hg, cert.colors)
    assert cert.lower_bound == 3
    # the greedy coloring happens to meet the bound here, so optimality survives
    assert cert.optimal == (cert.color_count == 3)


@pytest.mark.parametrize("budget", [10, DEFAULT_BUDGET], ids=["exhausted", "proved"])
def test_a_path_deeper_than_the_recursion_limit_is_colored(budget):
    """The search and its first-fit fallback both walk the whole vertex
    order; a path longer than Python's recursion limit must not raise."""
    n = sys.getrecursionlimit() + 500
    edges = tuple((v, v + 1) for v in range(n - 1))
    hg = CopyHypergraph(point_set=line(*range(n)), edges=edges)
    cert = exact_chromatic(hg, budget=budget)
    assert cert.budget_exhausted == (budget == 10)
    assert (cert.color_count, cert.lower_bound, cert.optimal) == (2, 2, True)
    assert is_proper(hg, cert.colors)


def test_budget_exhaustion_below_the_answer_reports_not_optimal():
    hg = copy_hypergraph(grid_points(1, 2), UNIT_PAIR)
    cert = exact_chromatic(hg, budget=2)
    assert cert.budget_exhausted
    assert cert.lower_bound == 4  # the clique bound stands even unexplored
    assert is_proper(hg, cert.colors)


# -- naive oracle ---------------------------------------------------------------


def test_naive_chromatic_matches_exact_on_fixtures():
    for points, space in [
        (grid_points(1, 2), UNIT_PAIR),
        (line(0, 1, 2, 3), UNIT_PAIR),
        (line(0, 1, 2, 3, 4), Baton.unit(2).as_metric_space()),
        (grid_points(2, 1), Baton.unit(2).as_metric_space()),
    ]:
        hg = copy_hypergraph(points, space)
        assert naive_chromatic(hg) == exact_chromatic(hg).color_count


def test_naive_chromatic_rejects_large_instances():
    hg = copy_hypergraph(line(*range(11)), UNIT_PAIR)
    with pytest.raises(PreconditionError, match="capped"):
        naive_chromatic(hg)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_exact_matches_naive_on_random_line_instances(seed):
    rng = random.Random(seed)
    coords = sorted(rng.sample(range(12), rng.randint(2, 7)))
    steps = tuple(F(s) for s in rng.choice([(1,), (1, 1), (2,), (1, 2)]))
    hg = copy_hypergraph(line(*coords), Baton(steps).as_metric_space())
    cert = exact_chromatic(hg)
    assert cert.optimal
    assert cert.color_count == naive_chromatic(hg)
    assert is_proper(hg, cert.colors)


@st.composite
def chromatic_instances(draw):
    """A random hypergraph with mixed edge sizes 2-4, a node budget from 1 to
    unlimited, and a supplied lower bound that may exceed chi or even n."""
    n = draw(st.integers(4, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
    edges = draw(
        st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=3 * n, unique=True)
    )
    hg = CopyHypergraph(point_set=line(*range(n)), edges=tuple(sorted(edges)))
    budget = draw(st.one_of(st.integers(1, 2000), st.just(10**7)))
    return hg, budget, draw(st.integers(1, n + 2))


def _outcome(solve, hg, budget, extra):
    try:
        return solve(hg, budget=budget, known_bound=(extra, f"given:{extra}"))
    except DomainError as exc:
        return f"DomainError: {exc}"


FIVE_CYCLE = CopyHypergraph(
    point_set=line(0, 1, 2, 3, 4),
    edges=((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)),
)


@given(chromatic_instances())
@example((FIVE_CYCLE, 10**7, 6))  # bound above the vertex count
@example((FIVE_CYCLE, 10**7, 4))  # bound above chi = 3
@example((FIVE_CYCLE, 3, 2))  # budget cut in the first level: greedy fallback
@settings(max_examples=200, deadline=None)
def test_exact_matches_the_rescan_oracle_field_by_field(instance):
    hg, budget, extra = instance
    got = _outcome(exact_chromatic, hg, budget, extra)
    assert got == _outcome(rescan_chromatic, hg, budget, extra)
    if isinstance(got, ColoringCertificate):
        assert is_proper(hg, got.colors)


@st.composite
def grid_instances(draw):
    """The copy hypergraph of {0..k}^n, at most 64 points, against a unit
    1-, 2- or 3-baton or 2-4 points of {0..2}^2 in the max norm: edges of
    two vertices block through partner masks, of three through the pair
    table, of four through the per-color edge counters. A budget of 1 to
    5,000 nodes or 10^7, with the pigeonhole bound supplied or not."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, max(k for k in range(1, 8) if (k + 1) ** n <= 64)))
    if draw(st.booleans()):
        space = Baton.unit(draw(st.integers(1, 3))).as_metric_space()
    else:
        square = st.sampled_from(grid_points(2, 2).points)
        picked = draw(st.lists(square, min_size=2, max_size=4, unique=True))
        space = FiniteMetricSpace.from_points(PointSet(2, tuple(picked)))
    budget = draw(st.one_of(st.integers(1, 5000), st.just(10**7)))
    extra = pigeonhole_lower_bound(k, n) if draw(st.booleans()) else 1
    return copy_hypergraph(grid_points(k, n), space), budget, extra


# Cut just after a backtrack: {0..2}^2 against the unit 2-baton exhausts
# level 2 in its 19th try, and only if each backtrack restores the color
# count; {0..3}^2 against the unit 3-baton, cut at 50 tries, needs the
# 4-point edges' counters restored.
UNIT2_ON_2_PLANE = copy_hypergraph(grid_points(2, 2), Baton.unit(2).as_metric_space())
UNIT3_ON_3_PLANE = copy_hypergraph(grid_points(3, 2), Baton.unit(3).as_metric_space())


@given(grid_instances())
@example((UNIT2_ON_2_PLANE, 19, 1))
@example((UNIT3_ON_3_PLANE, 50, 1))
@settings(max_examples=200, deadline=None)
def test_exact_matches_the_rescan_oracle_on_grid_copy_hypergraphs(instance):
    hg, budget, extra = instance
    if budget == 10**7:
        # The oracle rescans every incident edge of every uncolored vertex
        # at every node, so an unlimited budget runs only on searches that
        # end within 20,000 nodes: {0..3}^3 against the unit 3-baton is
        # not proved within 100,000.
        probe = _outcome(exact_chromatic, hg, 20_000, extra)
        assume(not (isinstance(probe, ColoringCertificate) and probe.budget_exhausted))
    got = _outcome(exact_chromatic, hg, budget, extra)
    assert got == _outcome(rescan_chromatic, hg, budget, extra)
    if isinstance(got, ColoringCertificate):
        assert is_proper(hg, got.colors)


def test_a_supplied_bound_above_chi_is_caught_by_the_coloring_found():
    with pytest.raises(DomainError, match="found a 3-coloring below .* bound 4"):
        exact_chromatic(FIVE_CYCLE, known_bound=(4, "bogus:4"))


# -- grid_chromatic ----------------------------------------------------------------


def test_grid_chromatic_unit_interval_powers():
    """{0,1}^n is a clique of the unit pair: the clique ties the
    pigeonhole bound 2^n and names the witness."""
    for n, expected in ((1, 2), (2, 4), (3, 8)):
        cert = grid_chromatic(1, n, UNIT_PAIR)
        assert cert.color_count == expected
        assert cert.lower_bound_witness == f"clique:{expected}"
        assert cert.optimal


def test_grid_chromatic_two_step_plane():
    cert = grid_chromatic(2, 2, Baton.unit(2).as_metric_space())
    assert cert.color_count == 3
    assert cert.lower_bound_witness == "pigeonhole:3"


def test_grid_chromatic_with_a_custom_space_skips_the_counting_bound():
    space = FiniteMetricSpace.from_points(line(0, 2))
    cert = grid_chromatic(2, 1, space)
    assert cert.lower_bound_witness == "clique:2"
    assert cert.color_count == 2
    # three points at pairwise distance 1, not a 2-baton: on {0..2}^2 the
    # pigeonhole bound would be 3, but column parity is a proper 2-coloring
    corner = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    triangle = FiniteMetricSpace.from_points(PointSet(2, corner))
    cert = grid_chromatic(2, 2, triangle)
    assert (cert.color_count, cert.lower_bound_witness) == (2, "edge:2")


def test_grid_chromatic_budget_flag_propagates():
    space = Baton.unit(2).as_metric_space()
    cert = grid_chromatic(2, 2, space, budget=5)
    assert cert.budget_exhausted
    assert is_proper(copy_hypergraph(grid_points(2, 2), space), cert.colors)


def test_grid_chromatic_proves_chi_4_for_the_one_two_baton_on_the_5_plane():
    """The (1,2)-baton {0, 1, 3} on {0..5}^2: no 3-coloring exists, which the
    search proves by exhausting level 3."""
    space = Baton((F(1), F(2))).as_metric_space()
    cert = grid_chromatic(5, 2, space)
    assert cert.color_count == 4
    assert cert.optimal
    assert not cert.budget_exhausted
    assert cert.lower_bound_witness == "exhausted:3"
    assert is_proper(copy_hypergraph(grid_points(5, 2), space), cert.colors)


@pytest.mark.parametrize("k", [3, 5])
def test_grid_chromatic_proves_chi_4_for_the_unit_2_baton_in_space_within_10_4_tries(k):
    """{0..3}^3 and {0..5}^3 against the unit 2-baton: the most saturated
    vertex first finds a 4-coloring and exhausts level 3 within 10^4
    tries (1,401 and 1,478 of them). No pigeonhole bound seeds either
    search: it applies only to the baton's own grid {0..2}^3."""
    space = Baton.unit(2).as_metric_space()
    cert = grid_chromatic(k, 3, space, budget=10**4)
    assert not cert.budget_exhausted
    assert (cert.color_count, cert.optimal) == (4, True)
    assert cert.lower_bound_witness == "exhausted:3"
    assert is_proper(copy_hypergraph(grid_points(k, 3), space), cert.colors)


# -- the validator's per-class check ---------------------------------------------


@st.composite
def colored_grids(draw):
    """{0..k}^n with 1 <= k, n <= 3, a unit baton or a random metric space,
    and a random coloring."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        space = Baton.unit(draw(st.integers(1, 3))).as_metric_space()
    else:
        rng = random.Random(draw(st.integers(0, 10**6)))
        space = random_metric_space(rng, draw(st.integers(2, 3)))
    size = (k + 1) ** n
    count = draw(st.integers(1, size))
    colors = draw(st.lists(st.integers(0, count - 1), min_size=size, max_size=size))
    return k, n, space, colors


@given(colored_grids())
@settings(max_examples=200, deadline=None)
def test_validator_finds_a_monochromatic_copy_exactly_when_the_oracle_does(instance):
    """The validator searches each color class for a copy; is_proper checks
    every edge of the full copy hypergraph."""
    k, n, space, colors = instance
    cert = {
        "kind": "chromatic",
        "k": k,
        "n": n,
        "distance_matrix": matrix_to_obj(space),
        "colors": colors,
        "color_count": max(colors) + 1,
        "optimal": False,
        "lower_bound": 1,
    }
    failures = validate_certificate(cert).failures
    proper = is_proper(copy_hypergraph(grid_points(k, n), space), colors)
    assert ("colors: a copy is monochromatic" in failures) == (not proper)
