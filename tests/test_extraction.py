"""Baton extraction from dense grid subsets, and anchor value sets."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxram.errors import DomainError, PreconditionError
from maxram.extraction import (
    AnchorSet,
    GridSubset,
    anchor_set_one_alpha,
    extract_general_baton,
    extract_unit_baton,
    shift_map,
)
from maxram.metric import Baton, PointSet, chebyshev_distance

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


def test_grid_subset_to_point_set_is_sorted():
    s = GridSubset(1, 2, frozenset({(2,), (0,)}))
    assert s.to_point_set().points == ((F(0),), (F(2),))


# -- shift_map -----------------------------------------------------------


def test_shift_map_moves_only_under_a_missing_larger_head():
    # fiber over () on axis n=1: heads {0, 2} of 0..2, so 1 and nothing
    # above 2 are missing
    s = GridSubset(1, 2, frozenset({(0,), (2,)}))
    assert shift_map(s, (0,)) == (1,)  # 1 > 0 is missing
    assert shift_map(s, (2,)) == (2,)  # nothing above 2
    with pytest.raises(DomainError):
        shift_map(s, (1,))


def test_shift_map_two_dimensional_fibers_are_independent():
    s = GridSubset(2, 1, frozenset({(0, 0), (1, 0), (1, 1)}))
    assert shift_map(s, (0, 0)) == (0, 1)
    assert shift_map(s, (1, 0)) == (1, 0)  # fiber over (1,) is full


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_shift_map_is_injective_and_stays_in_the_grid(seed, n, k):
    subset = dense_subset(random.Random(seed), n, k)
    images = {shift_map(subset, e) for e in subset.elems}
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


# -- AnchorSet -------------------------------------------------------------


def test_anchor_set_validation():
    with pytest.raises(PreconditionError, match="start at 0"):
        AnchorSet((F(1), F(2)), (0, 1))
    with pytest.raises(PreconditionError, match="increasing"):
        AnchorSet((F(0), F(2), F(1)), (0, 2))
    with pytest.raises(PreconditionError, match="marks"):
        AnchorSet((F(0), F(1), F(2)), (0, 1))
    with pytest.raises(PreconditionError, match="marks"):
        AnchorSet((F(0), F(1)), (1,))


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
