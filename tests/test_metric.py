"""Max-norm primitives: distances, point sets, batons, copy search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxram.errors import PreconditionError
from maxram.io import metric_space_from_obj
from maxram.metric import (
    Baton,
    CopyEmbedding,
    FiniteMetricSpace,
    PointSet,
    _distance_masks,
    _lex_leader_pairs,
    check_metric,
    connectivity_threshold,
    diameter,
    find_copies,
    frechet_embed,
    grid_points,
)
from maxram.io import format_rational
from maxram.validate import validate_certificate
from metric_generators import random_metric_space
from metric_oracles import chebyshev_distance, check_metric_naive


def find_copies_naive(
    space: FiniteMetricSpace, points: PointSet
) -> list[tuple[int, ...]]:
    """Unpruned full enumeration of embeddings; oracle for find_copies."""
    d = space.size
    out = []
    for tup in itertools.permutations(range(len(points)), d):
        ok = True
        for a, b in itertools.combinations(range(d), 2):
            if (
                chebyshev_distance(points.points[tup[a]], points.points[tup[b]])
                != space.dist[a][b]
            ):
                ok = False
                break
        if ok:
            out.append(tup)
    return sorted(out)

F = Fraction


def pts(*coords) -> PointSet:
    """1-d point set from bare coordinates."""
    return PointSet(1, tuple((F(c),) for c in coords))


# -- chebyshev_distance ------------------------------------------------


def test_distance_is_max_coordinate_gap():
    assert chebyshev_distance((F(0), F(0)), (F(3), F(-2))) == 3
    assert chebyshev_distance((F(1, 2),), (F(2),)) == F(3, 2)
    assert chebyshev_distance((F(1), F(1)), (F(1), F(1))) == 0


def test_distance_rejects_dimension_mismatch():
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        chebyshev_distance((F(0),), (F(0), F(0)))


@given(
    st.lists(st.fractions(max_denominator=8), min_size=1, max_size=4),
    st.lists(st.fractions(max_denominator=8), min_size=1, max_size=4),
)
def test_distance_symmetry_and_nonnegativity(xs, ys):
    if len(xs) != len(ys):
        ys = (ys * len(xs))[: len(xs)]
    x, y = tuple(xs), tuple(ys)
    d = chebyshev_distance(x, y)
    assert d == chebyshev_distance(y, x)
    assert d >= 0
    assert (d == 0) == (x == y)


@given(
    st.integers(1, 3),
    st.data(),
)
def test_distance_triangle_inequality(dim, data):
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    vec = st.tuples(*[coord] * dim)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert chebyshev_distance(x, z) <= chebyshev_distance(x, y) + chebyshev_distance(
        y, z
    )


# -- FiniteMetricSpace -------------------------------------------------


def test_space_accepts_valid_matrix():
    rows = ((0, 1, 3), (1, 0, 2), (3, 2, 0))
    check_metric(rows)
    space = FiniteMetricSpace(rows)
    assert space.size == 3
    assert space.dist[0][2] == 3


def matrix_obj(rows) -> dict:
    return {"distance_matrix": [[format_rational(F(v)) for v in row] for row in rows]}


@pytest.mark.parametrize(
    "rows, message",
    [
        (((0, 1), (1, 0, 0)), "square"),
        (((1, 1), (1, 0)), "diagonal"),
        (((0, 1), (2, 0)), "asymmetric"),
        (((0, 0), (0, 0)), "nonpositive"),
        (((0, -1), (-1, 0)), "nonpositive"),
        (((0, 5, 1), (5, 0, 1), (1, 1, 0)), "triangle"),
        # 1/2 > 1/3 + 1/7 = 13/42: a violation only across denominators
        (((0, F(1, 2), F(1, 3)), (F(1, 2), 0, F(1, 7)), (F(1, 3), F(1, 7), 0)),
         "triangle"),
    ],
)
def test_space_rejects_bad_matrices(rows, message):
    """A matrix is checked where it enters: by check_metric, which
    metric_space_from_obj runs on every distance matrix it reads, the
    validator's included."""
    with pytest.raises(PreconditionError, match=message) as direct:
        check_metric(rows)
    with pytest.raises(PreconditionError, match=message) as read:
        metric_space_from_obj(matrix_obj(rows))
    with pytest.raises(PreconditionError) as oracle:
        check_metric_naive(rows)
    assert str(direct.value) == str(read.value) == str(oracle.value)
    cert = {"kind": "copy_embedding", **matrix_obj(rows), "points": [],
            "distances_checked": True}
    assert validate_certificate(cert).failures == (f"malformed: {direct.value}",)


@given(st.integers(0, 10**6), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_check_metric_matches_the_fraction_oracle(seed, size, data):
    """Random metrics with a few entries nudged: the scaled-integer check
    accepts and refuses exactly what the Fraction oracle does, naming the
    same first entry."""
    rows = [list(row) for row in random_metric_space(random.Random(seed), size).dist]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        rows[i][j] += F(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 7)))
        if data.draw(st.booleans()):
            rows[j][i] = rows[i][j]

    def verdict(check):
        try:
            check(rows)
        except PreconditionError as exc:
            return str(exc)
        return None

    assert verdict(check_metric) == verdict(check_metric_naive)


def test_space_from_points_matches_pairwise_distances():
    ps = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(2))))
    space = FiniteMetricSpace.from_points(ps)
    assert space.dist[0][1] == 1
    assert space.dist[0][2] == 2
    assert space.dist[1][2] == 2


# -- PointSet ----------------------------------------------------------


def test_point_set_rejects_duplicates_and_bad_dimension():
    with pytest.raises(PreconditionError, match="distinct"):
        PointSet(1, ((F(1),), (F(1),)))
    with pytest.raises(PreconditionError, match="has dimension 1, expected 2"):
        PointSet(2, ((F(1),),))


def test_grid_points_enumerates_lexicographically():
    g = grid_points(1, 2)
    assert len(g) == 4
    assert g.points == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    )


def test_grid_points_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        grid_points(-1, 2)
    with pytest.raises(PreconditionError, match="k >= 1"):
        grid_points(0, 2)
    with pytest.raises(PreconditionError):
        grid_points(2, 0)


# -- Baton -------------------------------------------------------------


def test_baton_positions_are_prefix_sums():
    b = Baton((F(1), F(3, 2)))
    assert b.k == 2
    assert b.positions() == (F(0), F(1), F(5, 2))
    assert b.as_point_set().dim == 1


def test_unit_baton():
    assert Baton.unit(3).steps == (F(1), F(1), F(1))
    with pytest.raises(PreconditionError):
        Baton.unit(0)


def test_empty_baton_is_the_one_point_degenerate_case():
    b = Baton(())
    assert b.k == 0
    assert b.positions() == (F(0),)


def test_baton_rejects_nonpositive_steps():
    with pytest.raises(PreconditionError):
        Baton((F(1), F(0)))
    with pytest.raises(PreconditionError):
        Baton((F(-1),))


def test_baton_metric_space_is_the_line_metric():
    space = Baton((F(2), F(1))).as_metric_space()
    assert space.dist[0][2] == 3
    assert space.dist[1][2] == 1


# -- CopyEmbedding and frechet_embed ------------------------------------


def test_embedding_checks_distances_on_construction():
    space = Baton.unit(1).as_metric_space()
    line = pts(0, 1, 5)
    emb = CopyEmbedding(space, line, (0, 1))
    assert emb.mapped_points() == ((F(0),), (F(1),))
    with pytest.raises(PreconditionError, match="mismatch"):
        CopyEmbedding(space, line, (0, 2))


def test_embedding_rejects_malformed_index_tuples():
    space = Baton.unit(1).as_metric_space()
    line = pts(0, 1)
    with pytest.raises(PreconditionError, match="distinct"):
        CopyEmbedding(space, line, (0, 0))
    with pytest.raises(PreconditionError, match="count"):
        CopyEmbedding(space, line, (0,))
    with pytest.raises(PreconditionError, match="range"):
        CopyEmbedding(space, line, (0, 7))


def test_frechet_embed_uses_matrix_rows_as_points():
    space = FiniteMetricSpace(((0, 1, 3), (1, 0, 2), (3, 2, 0)))
    emb = frechet_embed(space)
    assert emb.points.dim == 3
    assert emb.mapped_points()[0] == (F(0), F(1), F(3))


@given(st.integers(0, 10_000), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_frechet_embed_is_exact_on_random_spaces(seed, size):
    """Construction of CopyEmbedding would already fail on any distance
    error, so reaching the assert means the embedding is an isometry."""
    space = random_metric_space(random.Random(seed), size)
    emb = frechet_embed(space)
    assert emb.indices == tuple(range(size))


# -- find_copies -------------------------------------------------------


def test_find_copies_matches_naive_on_a_fixture():
    space = Baton((F(1), F(2))).as_metric_space()
    line = pts(0, 1, 3, 4, 6)
    got = sorted(find_copies(space, line))
    assert got == find_copies_naive(space, line)
    # coordinates (0,1,3), (3,4,6), and the decreasing run (4,3,1)
    assert got == [(0, 1, 2), (2, 3, 4), (3, 2, 1)]


def test_find_copies_limit_and_distinct_supports():
    space = Baton.unit(1).as_metric_space()
    line = pts(0, 1, 2)
    assert len(find_copies(space, line)) == 4  # two pairs, both orders
    assert len(find_copies(space, line, distinct_supports=True)) == 2
    assert len(find_copies(space, line, limit=1)) == 1


def test_find_copies_empty_when_no_copy_exists():
    space = Baton((F(5),)).as_metric_space()
    assert find_copies(space, pts(0, 1, 2)) == []


# Mersenne primes above 2**62. A coordinate with denominator p*q scales
# past int64.
BIG_PRIMES = (2**89 - 1, 2**107 - 1)


@st.composite
def search_instance(draw, coord):
    """A point set, a space to look for in it, and the search options.

    Half the spaces are random metrics; the others are drawn from a
    subset of the points in some order, so that copies exist.
    """
    dim = draw(st.integers(1, 2))
    raw = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=6, unique=True)
    )
    points = PointSet(dim, tuple(raw))
    if draw(st.booleans()):
        size = draw(st.integers(1, 3))
        space = random_metric_space(random.Random(draw(st.integers(0, 10**6))), size)
    else:
        order = draw(st.permutations(raw))
        picked = tuple(order[: draw(st.integers(2, 3))])
        space = FiniteMetricSpace.from_points(PointSet(dim, picked))
    limit = draw(st.none() | st.integers(1, 4))
    return space, points, draw(st.booleans()), limit


def expected_copies(ordered, distinct_supports, limit):
    """find_copies' contract, stated over the list of every embedding in
    lexicographic order."""
    out, seen = [], set()
    for tup in ordered:
        if distinct_supports:
            if frozenset(tup) in seen:
                continue
            seen.add(frozenset(tup))
        out.append(tup)
    return out[:limit]


def check_against_oracle(instance):
    space, points, distinct_supports, limit = instance
    got = find_copies(space, points, limit=limit, distinct_supports=distinct_supports)
    naive = find_copies_naive(space, points)
    assert got == expected_copies(naive, distinct_supports, limit)
    naive = set(naive)
    wrong = next(
        (
            t
            for t in itertools.permutations(range(len(points)), space.size)
            if t not in naive
        ),
        None,
    )
    if wrong is not None:
        with pytest.raises(PreconditionError, match=r"^distance mismatch at pair \("):
            CopyEmbedding(space, points, wrong)


@given(search_instance(st.fractions(min_value=-4, max_value=4, max_denominator=6)))
@settings(max_examples=150, deadline=None)
def test_find_copies_agrees_with_unpruned_enumeration(instance):
    check_against_oracle(instance)


@given(
    search_instance(
        st.builds(
            lambda whole, a, b: whole + F(a, BIG_PRIMES[0]) + F(b, BIG_PRIMES[1]),
            st.integers(-3, 3),
            st.integers(1, 3),
            st.integers(1, 3),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_find_copies_agrees_with_oracle_past_int64(instance):
    points = instance[1]
    assert any(abs(c) > 2**62 for p in points.scaled_coords[1] for c in p)
    check_against_oracle(instance)


# Past this many ordered embeddings an instance is skipped, to keep the
# oracle's full enumeration short: 5 corners of a unit cube have 181,440 in
# {0..3}^3.
MAX_ORDERED = 20_000


@st.composite
def symmetric_instance(draw):
    """A space with up to 120 automorphisms, a grid of at most 64 points
    holding copies of it, and a limit.

    The spaces have 2-5 points: from {0..2}^2 (such as a square's corners,
    |Aut| = 24, and its centre), from {0,1}^3 (cube corners, all at
    distance 1), batons whose gaps read the same backwards or not, and
    random metrics."""
    kind = draw(st.sampled_from(["plane", "cube", "baton", "random"]))
    if kind == "baton":
        dim = 1
        steps = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
        if draw(st.booleans()):
            steps = steps[: (len(steps) + 1) // 2] + steps[: len(steps) // 2][::-1]
        space = Baton(tuple(steps)).as_metric_space()
    elif kind == "random":
        dim = 1
        seed = draw(st.integers(0, 10**6))
        space = random_metric_space(random.Random(seed), draw(st.integers(2, 5)))
    else:
        dim, values = (2, range(3)) if kind == "plane" else (3, range(2))
        pool = list(itertools.product(values, repeat=dim))
        picked = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5, unique=True))
        space = FiniteMetricSpace.from_points(PointSet(dim, tuple(picked)))
    n = draw(st.integers(dim, 3))
    k = draw(st.integers(1, 3).filter(lambda k: (k + 1) ** n <= 64))
    return space, grid_points(k, n), draw(st.none() | st.integers(1, 5))


def space_of(*points) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_points(PointSet(len(points[0]), points))


@given(symmetric_instance())
@example((space_of((0, 0), (0, 1), (1, 0), (1, 1)), grid_points(2, 3), None))
@example((space_of((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)), grid_points(4, 2), 5))
@example((space_of((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)),
          grid_points(1, 3), 1))
@settings(max_examples=150, deadline=None)
def test_distinct_supports_agree_with_the_filtered_enumeration_on_symmetric_spaces(
    instance,
):
    """The lex-leader search emits the first embedding of each support, as
    filtering every embedding through a set of supports does. The full
    list comes from find_copies itself, held to the unpruned enumeration
    by the tests above, since that one is too slow for 64 points."""
    space, points, limit = instance
    ordered = find_copies(space, points, limit=MAX_ORDERED + 1)
    assume(len(ordered) <= MAX_ORDERED)
    got = find_copies(space, points, limit=limit, distinct_supports=True)
    assert got == expected_copies(ordered, True, limit)


def lex_leader_pairs(space: FiniteMetricSpace) -> set[tuple[int, int]]:
    after = _lex_leader_pairs([[int(v) for v in row] for row in space.dist])
    return {(i, j) for j, row in enumerate(after) for i in row}


def test_lex_leader_pairs_on_known_groups():
    """(i, j) is a pair when an automorphism fixes 0..i-1 and maps i to j:
    a baton's ends when its gaps read the same backwards, and every pair
    for the corners of a square, all at distance 1 in the max norm."""
    for k in (1, 2, 3, 6):
        assert lex_leader_pairs(Baton.unit(k).as_metric_space()) == {(0, k)}
    assert lex_leader_pairs(Baton((F(1), F(2))).as_metric_space()) == set()
    assert lex_leader_pairs(Baton((F(1), F(2), F(1))).as_metric_space()) == {(0, 3)}
    square = space_of((0, 0), (0, 1), (1, 0), (1, 1))
    assert lex_leader_pairs(square) == set(itertools.combinations(range(4), 2))
    # Points 0, 2, 3 and 4 share a sorted distance row, but the swaps of
    # 0 with 2 and of 3 with 4 generate the automorphisms.
    corners = space_of((0, 0), (0, 1), (0, 2), (2, 0), (2, 1))
    assert lex_leader_pairs(corners) == {(0, 2), (3, 4)}


@given(
    st.integers(0, 3).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * dim),
            min_size=1,
            max_size=12,
            unique=True,
        ).map(lambda raw: PointSet(dim, tuple(raw)))
    )
)
@settings(max_examples=150, deadline=None)
def test_distance_masks_match_pairwise_distances(points):
    """The per-axis bitmasks hold exactly the pairs at each distance."""
    scale = points.scaled_coords[0]
    dist = [
        [chebyshev_distance(x, y) * scale for y in points.points]
        for x in points.points
    ]
    wanted = {v.numerator for row in dist for v in row if v} | {1, 5 * scale}
    masks = _distance_masks(points, wanted)
    for i, row in enumerate(dist):
        assert set(masks[i]) == wanted
        for v in wanted:
            assert masks[i][v] == sum(1 << j for j, got in enumerate(row) if got == v)


def test_mismatch_message_keeps_exact_rationals():
    p, q = BIG_PRIMES
    space = FiniteMetricSpace(((0, F(1, q)), (F(1, q), 0)))
    line = pts(0, F(1, p))
    with pytest.raises(
        PreconditionError, match=rf"^distance mismatch at pair \(0,1\): 1/{p} != 1/{q}$"
    ):
        CopyEmbedding(space, line, (0, 1))


# -- diameter, connectivity threshold, grid decomposition ----------------


def test_diameter_and_threshold_on_a_line():
    space = FiniteMetricSpace.from_points(pts(0, 1, 3))
    assert diameter(space) == 3
    assert connectivity_threshold(space) == 2


def test_threshold_can_be_far_below_diameter():
    space = Baton.unit(5).as_metric_space()
    assert diameter(space) == 5
    assert connectivity_threshold(space) == 1


def test_diameter_and_threshold_need_two_points():
    one = FiniteMetricSpace(((F(0),),))
    with pytest.raises(PreconditionError):
        diameter(one)
    with pytest.raises(PreconditionError):
        connectivity_threshold(one)


@given(st.integers(0, 10_000), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_threshold_is_a_connectivity_certificate(seed, size):
    """Edges of length <= t connect the space; edges < t do not."""
    space = random_metric_space(random.Random(seed), size)
    t = connectivity_threshold(space)
    assert t <= diameter(space)

    def components(limit, strict):
        parent = list(range(size))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i in range(size):
            for j in range(i + 1, size):
                d = space.dist[i][j]
                if (d < limit) if strict else (d <= limit):
                    parent[find(i)] = find(j)
        return len({find(v) for v in range(size)})

    assert components(t, strict=False) == 1
    assert components(t, strict=True) > 1


# -- random_metric_space ------------------------------------------------


def test_random_space_is_deterministic_in_the_seed():
    a = random_metric_space(random.Random(7), 5)
    b = random_metric_space(random.Random(7), 5)
    assert a == b
    assert a.size == 5


def test_random_space_of_size_one():
    assert random_metric_space(random.Random(0), 1).size == 1
    with pytest.raises(PreconditionError):
        random_metric_space(random.Random(0), 0)
