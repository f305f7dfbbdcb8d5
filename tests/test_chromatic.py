"""Forbidden-copy hypergraphs and the exact coloring search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxram.chromatic import (
    ColoringCertificate,
    CopyHypergraph,
    copy_hypergraph,
    exact_chromatic,
    grid_chromatic,
    is_proper,
)
from maxram.errors import DEFAULT_BUDGET, DomainError, PreconditionError
from maxram.metric import Baton, FiniteMetricSpace, PointSet, grid_points

F = Fraction

UNIT_PAIR = Baton.unit(1).as_metric_space()


def line(*coords) -> PointSet:
    return PointSet(1, tuple((F(c),) for c in coords))


# -- oracles -------------------------------------------------------------------


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


def _rescan_blocks(vertex, color, colors, edges_of) -> bool:
    for edge in edges_of[vertex]:
        if all(v == vertex or colors[v] == color for v in edge):
            return True
    return False


def rescan_chromatic(
    hypergraph: CopyHypergraph,
    budget: int = DEFAULT_BUDGET,
    extra_lower_bound: int = 1,
    extra_witness: str = "",
) -> ColoringCertificate:
    """Reference search: every candidate color rescans every edge incident
    to the vertex. It keeps exact_chromatic's vertex order, node count,
    budget cut and greedy fallback, so the two agree field by field."""
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
    edges_of: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for edge in edges:
        for v in edge:
            degree[v] += 1
            edges_of[v].append(edge)
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
        for c in range(min(used + 1, limit)):
            nodes += 1
            if nodes > budget:
                raise _OracleBudgetExceeded
            if not _rescan_blocks(v, c, colors, edges_of):
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
        for v in order:
            c = 0
            while _rescan_blocks(v, c, fallback, edges_of):
                c += 1
            fallback[v] = c
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
    cert = exact_chromatic(hg, extra_lower_bound=3, extra_witness="pigeonhole:3")
    assert cert.color_count == 3
    assert cert.lower_bound_witness == "pigeonhole:3"
    assert cert.optimal


def test_clique_witness_wins_ties_against_an_equal_external_bound():
    hg = copy_hypergraph(grid_points(1, 1), UNIT_PAIR)
    cert = exact_chromatic(hg, extra_lower_bound=2, extra_witness="pigeonhole:2")
    assert cert.color_count == 2
    assert cert.lower_bound_witness == "clique:2"


def test_overlarge_external_bound_is_rejected():
    hg = copy_hypergraph(line(0, 1), UNIT_PAIR)
    with pytest.raises(DomainError, match="exceeds"):
        exact_chromatic(hg, extra_lower_bound=5, extra_witness="bogus:5")


def test_exhaustion_witness_appears_when_search_must_climb():
    """An odd cycle: no 2-coloring exists, so the certificate proves 3 by
    exhausting level 2. Built directly as a hypergraph, not via geometry."""
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    hg = CopyHypergraph(
        point_set=line(0, 1, 2, 3, 4), source=UNIT_PAIR, edges=edges
    )
    cert = exact_chromatic(hg)
    assert cert.color_count == 3
    assert cert.lower_bound_witness == "exhausted:2"
    assert cert.optimal


def test_budget_exhaustion_falls_back_to_greedy():
    hg = copy_hypergraph(grid_points(2, 2), Baton.unit(2).as_metric_space())
    cert = exact_chromatic(hg, budget=5, extra_lower_bound=3, extra_witness="pigeonhole:3")
    assert cert.budget_exhausted
    assert is_proper(hg, cert.colors)
    assert cert.lower_bound == 3
    # the greedy coloring happens to meet the bound here, so optimality survives
    assert cert.optimal == (cert.color_count == 3)


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
    hg = CopyHypergraph(
        point_set=line(*range(n)), source=UNIT_PAIR, edges=tuple(sorted(edges))
    )
    budget = draw(st.one_of(st.integers(1, 2000), st.just(10**7)))
    return hg, budget, draw(st.integers(1, n + 2))


def _outcome(solve, hg, budget, extra):
    try:
        return solve(
            hg, budget=budget, extra_lower_bound=extra, extra_witness=f"given:{extra}"
        )
    except DomainError as exc:
        return f"DomainError: {exc}"


FIVE_CYCLE = CopyHypergraph(
    point_set=line(0, 1, 2, 3, 4),
    source=UNIT_PAIR,
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


def test_a_supplied_bound_above_chi_is_caught_by_the_coloring_found():
    with pytest.raises(DomainError, match="found a 3-coloring below .* bound 4"):
        exact_chromatic(FIVE_CYCLE, extra_lower_bound=4, extra_witness="bogus:4")


# -- grid_chromatic ----------------------------------------------------------------


def test_grid_chromatic_unit_interval_powers():
    for n, expected in ((1, 2), (2, 4), (3, 8)):
        report = grid_chromatic(1, n)
        assert report.certificate.color_count == expected
        assert report.pigeonhole == expected
        assert report.certificate.optimal


def test_grid_chromatic_two_step_plane():
    report = grid_chromatic(2, 2)
    assert report.certificate.color_count == 3
    assert report.pigeonhole == 3
    assert report.certificate.lower_bound_witness == "pigeonhole:3"


def test_grid_chromatic_with_a_custom_space_skips_the_counting_bound():
    space = FiniteMetricSpace.from_points(line(0, 2))
    report = grid_chromatic(2, 1, space=space)
    assert report.pigeonhole is None
    assert report.certificate.color_count == 2


def test_grid_chromatic_budget_flag_propagates():
    report = grid_chromatic(2, 2, budget=5)
    assert report.certificate.budget_exhausted
    assert is_proper(report.hypergraph, report.certificate.colors)


def test_grid_chromatic_proves_chi_4_for_the_one_two_baton_on_the_5_plane():
    """The (1,2)-baton {0, 1, 3} on {0..5}^2: no 3-coloring exists, which the
    search proves by exhausting level 3."""
    space = Baton((F(1), F(2))).as_metric_space()
    report = grid_chromatic(5, 2, space=space)
    assert report.pigeonhole is None
    cert = report.certificate
    assert cert.color_count == 4
    assert cert.optimal
    assert not cert.budget_exhausted
    assert cert.lower_bound_witness == "exhausted:3"
    assert is_proper(report.hypergraph, cert.colors)
