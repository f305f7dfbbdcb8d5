"""Baton extraction from dense grid subsets, and anchor value sets."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_sets import anchor_set_one_alpha
from maxram.errors import DomainError, PreconditionError
from maxram.extraction import (
    AnchorSet,
    GridSubset,
    _shifted,
    extract_general_baton,
    extract_unit_baton,
)
from maxram.metric import Baton, PointSet
from metric_oracles import chebyshev_distance
from test_cli import seeded_dense_subset

F = Fraction


def dense_subset(rng: random.Random, n: int, k: int) -> GridSubset:
    """Random subset of {0..k}^n with exactly k^n + 1 elements."""
    universe = list(itertools.product(range(k + 1), repeat=n))
    return GridSubset(n, k, frozenset(rng.sample(universe, k**n + 1)))


# -- GridSubset ----------------------------------------------------------


def test_grid_subset_validation():
    s = GridSubset(2, 1, frozenset({(0, 0), (1, 1)}))
    assert len(s) == 2
    with pytest.raises(PreconditionError, match="dimension"):
        GridSubset(2, 1, frozenset({(0,)}))
    with pytest.raises(PreconditionError, match="outside"):
        GridSubset(1, 1, frozenset({(2,)}))
    with pytest.raises(PreconditionError):
        GridSubset(0, 1, frozenset())


# -- the head-shift map -----------------------------------------------------


def test_shift_map_moves_only_under_a_missing_larger_head():
    # fiber over () on axis n=1: heads {0, 2} of 0..2, so 1 and nothing
    # above 2 are missing
    assert _shifted((0,), {0, 2}, 2) == (1,)  # 1 > 0 is missing
    assert _shifted((2,), {0, 2}, 2) == (2,)  # nothing above 2


def test_shift_map_two_dimensional_fibers_are_independent():
    # the subset {(0, 0), (1, 0), (1, 1)}: heads {0} over (0,), {0, 1} over (1,)
    assert _shifted((0, 0), {0}, 1) == (0, 1)
    assert _shifted((1, 0), {0, 1}, 1) == (1, 0)  # fiber over (1,) is full


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_shift_map_is_injective_and_stays_in_the_grid(seed, n, k):
    subset = dense_subset(random.Random(seed), n, k)
    fibers: dict[tuple, set[int]] = {}
    for e in subset.elems:
        fibers.setdefault(e[:-1], set()).add(e[-1])
    images = {_shifted(e, fibers[e[:-1]], k) for e in subset.elems}
    assert len(images) == len(subset)
    for img in images:
        assert all(0 <= c <= k for c in img)


# -- extract_unit_baton ----------------------------------------------------


def test_extraction_requires_strictly_more_than_k_to_the_n_points():
    full_threshold = GridSubset(2, 2, frozenset({(0, 0), (1, 1), (2, 2), (0, 2)}))
    with pytest.raises(PreconditionError, match="more than"):
        extract_unit_baton(full_threshold)


def check_unit_chain(subset: GridSubset) -> None:
    emb = extract_unit_baton(subset)
    mapped = emb.mapped_points()
    assert len(mapped) == subset.k + 1
    for p in mapped:
        assert tuple(int(c) for c in p) in subset.elems
    # CopyEmbedding already verified every pairwise distance; spot-check
    # the defining consecutive gaps anyway.
    for a, b in zip(mapped, mapped[1:]):
        assert chebyshev_distance(a, b) == 1


def test_extraction_exhaustive_on_the_smallest_grids():
    universe = list(itertools.product(range(2), repeat=2))
    for size in (2, 3, 4):
        for elems in itertools.combinations(universe, size):
            check_unit_chain(GridSubset(2, 1, frozenset(elems)))
    check_unit_chain(GridSubset(1, 2, frozenset({(0,), (1,), (2,)})))


def test_extraction_on_a_set_with_no_full_fiber():
    # every fiber of this 5-element subset of {0..2}^2 misses a head value,
    # so the recursion must go through the shift map
    elems = frozenset({(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)})
    fibers = {t: {e[1] for e in elems if e[0] == t} for t in (0, 1, 2)}
    assert all(len(heads) < 3 for heads in fibers.values())
    check_unit_chain(GridSubset(2, 2, elems))


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_extraction_on_random_dense_subsets(seed, n, k):
    check_unit_chain(dense_subset(random.Random(seed), n, k))


def anchor_route(subset: GridSubset) -> tuple:
    """The unit copy through the anchor entry: the subset as Fraction
    points, every grid value its own marked anchor."""
    points = PointSet(subset.n, tuple(sorted(subset.elems)))
    grid = range(subset.k + 1)
    emb = extract_general_baton(points, Baton.unit(subset.k), AnchorSet(grid, grid))
    return emb.mapped_points()


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6), st.integers(0, 10**6)
)
@settings(max_examples=120, deadline=None)
def test_unit_extraction_matches_the_anchor_route(k, n, seed, extra):
    """Any dense subset of {0..k}^n, from k^n + 1 points to the full grid."""
    universe = list(itertools.product(range(k + 1), repeat=n))
    size = k**n + 1 + extra % ((k + 1) ** n - k**n)
    subset = GridSubset(n, k, frozenset(random.Random(seed).sample(universe, size)))
    assert extract_unit_baton(subset).mapped_points() == anchor_route(subset)


def test_unit_extraction_matches_the_anchor_route_on_seeded_subsets():
    """The 244-point subsets of {0..3}^5 that the CLI tests and the
    benchmark's extract command draw, seeds 1 to 29."""
    for seed in range(1, 30):
        obj = seeded_dense_subset(seed)
        subset = GridSubset(obj["n"], obj["k"], frozenset(map(tuple, obj["elements"])))
        assert extract_unit_baton(subset).mapped_points() == anchor_route(subset), seed


# -- AnchorSet -------------------------------------------------------------


def test_anchor_set_validation():
    """AnchorSet checks nothing itself: the anchor sets of built sequences
    start at 0, strictly increase, and mark indices 0 to the last."""
    from maxram.anchors import build_anchor_sequence

    batons = [(F(1),), (F(1), F(3, 2)), (F(2), F(1, 2)), (F(1), F(1), F(2))]
    for steps, faithful in itertools.product(batons, (False, True)):
        values, marks = build_anchor_sequence(Baton(steps), faithful).anchor_set
        assert values[0] == 0
        assert all(a < b for a, b in zip(values, values[1:]))
        assert marks[0] == 0 and marks[-1] == len(values) - 1
        assert all(a < b for a, b in zip(marks, marks[1:]))


def test_marked_steps_reads_gaps_between_marked_values():
    a = AnchorSet((F(0), F(1), F(3, 2), F(5, 2)), (0, 1, 3))
    assert a.top_index == 3
    assert a.marked_steps() == (F(1), F(3, 2))


@pytest.mark.parametrize(
    "alpha, values, marks",
    [
        (F(3, 2), (F(0), F(1), F(3, 2), F(5, 2)), (0, 1, 3)),
        (F(2), (F(0), F(1), F(2), F(3)), (0, 1, 3)),
        (F(5, 2), (F(0), F(1), F(7, 4), F(5, 2), F(7, 2)), (0, 1, 4)),
    ],
)
def test_one_alpha_anchor_fixtures(alpha, values, marks):
    a = anchor_set_one_alpha(alpha)
    assert a.values == values
    assert a.marks == marks
    assert a.marked_steps() == (F(1), alpha)


def test_one_alpha_rejects_alpha_at_most_one():
    with pytest.raises(PreconditionError):
        anchor_set_one_alpha(1)
    with pytest.raises(PreconditionError):
        anchor_set_one_alpha(F(1, 2))


@given(st.fractions(min_value=1, max_value=8, max_denominator=6).filter(lambda a: a > 1))
def test_one_alpha_consecutive_gaps_never_exceed_one(alpha):
    a = anchor_set_one_alpha(alpha)
    gaps = [b - x for x, b in zip(a.values, a.values[1:])]
    assert all(0 < g <= 1 for g in gaps)
    assert a.values[-1] == alpha + 1


# -- extract_general_baton ---------------------------------------------------


def anchor_grid(anchors, n: int) -> list[tuple[Fraction, ...]]:
    return list(itertools.product(anchors.values, repeat=n))


def test_general_extraction_rejects_mismatched_anchors():
    anchors = anchor_set_one_alpha(F(3, 2))
    subset = PointSet(1, tuple((v,) for v in anchors.values))
    with pytest.raises(PreconditionError, match="baton length"):
        extract_general_baton(subset, Baton((F(1),)), anchors)
    with pytest.raises(PreconditionError, match="baton steps"):
        extract_general_baton(subset, Baton((F(1), F(2))), anchors)


def test_general_extraction_rejects_sparse_or_off_grid_input():
    anchors = anchor_set_one_alpha(F(3, 2))
    baton = Baton((F(1), F(3, 2)))
    sparse = PointSet(1, ((F(0),), (F(1),), (F(3, 2),)))
    with pytest.raises(PreconditionError, match="more than"):
        extract_general_baton(sparse, baton, anchors)
    off = PointSet(1, ((F(0),), (F(1),), (F(3, 2),), (F(2),)))
    with pytest.raises(DomainError, match="outside the anchors"):
        extract_general_baton(off, baton, anchors)


def test_general_extraction_whole_line_realizes_the_pattern():
    anchors = anchor_set_one_alpha(F(5, 2))
    baton = Baton((F(1), F(5, 2)))
    subset = PointSet(1, tuple((v,) for v in anchors.values))
    emb = extract_general_baton(subset, baton, anchors)
    assert emb.mapped_points() == ((F(0),), (F(1),), (F(7, 2),))


@given(st.integers(0, 10**6), st.sampled_from([F(3, 2), F(2), F(5, 2)]))
@settings(max_examples=40, deadline=None)
def test_general_extraction_on_random_dense_planar_subsets(seed, alpha):
    anchors = anchor_set_one_alpha(alpha)
    baton = Baton((F(1), alpha))
    rng = random.Random(seed)
    top = anchors.top_index
    sample = rng.sample(anchor_grid(anchors, 2), top**2 + 1)
    subset = PointSet(2, tuple(sample))
    emb = extract_general_baton(subset, baton, anchors)
    mapped = emb.mapped_points()
    assert chebyshev_distance(mapped[0], mapped[1]) == 1
    assert chebyshev_distance(mapped[1], mapped[2]) == alpha
    for p in mapped:
        assert p in subset.points


def test_general_extraction_accepts_anchor_sequences_too():
    """An anchor sequence drives extraction through its anchor set."""
    from maxram.anchors import build_anchor_sequence

    baton = Baton((F(1), F(3, 2)))
    anchors = build_anchor_sequence(baton).anchor_set
    assert isinstance(anchors, AnchorSet)
    subset = PointSet(1, tuple((v,) for v in anchors.values))
    emb = extract_general_baton(subset, baton, anchors)
    pos = [p[0] for p in emb.mapped_points()]
    assert pos[1] - pos[0] == 1 and pos[2] - pos[1] == F(3, 2)
